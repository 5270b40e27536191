"""Variable selection by maximizing estimated mutual information.

Four cooperating procedures, named by what they do:

* :func:`rank_by_individual_mi` orders variables by their one-on-one MI
  with the target (filter ranking).
* :func:`greedy_select` grows a subset by joint MI, one variable per
  forward step, with a single-removal backward step after each
  addition, stopping when the best forward step strictly decreases the
  joint MI.
* :func:`build_candidate_pool` merges the greedy result with the top of
  the ranking into a pool of fixed size.
* :func:`exhaustive_search` evaluates every non-empty subset of the
  pool and returns the joint-MI argmax.

Every decision is deterministic given (dataset, k, jitter seed): MI
ties break toward the ascending column index, and the exhaustive
winner breaks ties toward smaller subsets, then lexicographically
smaller index tuples. All MI values are produced by the same estimator
entry points exposed in :mod:`mivarsel.mi`, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from ._blas import map_tasks
from .dataset import Dataset
from .errors import ConfigError
from .mi import DEFAULT_K, MiEstimate, MiSession, _subset_indices, _validate_subset, _variable_index
from .models import encode

PROVENANCES = ("ranking", "greedy", "pooled", "exhaustive")

# Exhaustive enumeration is 2^P - 1 subsets; past this size the search
# stops being a reasonable thing to ask of one machine.
MAX_POOL_SIZE = 20

_STEP_KINDS = ("forward", "backward", "stop")
_DECISIONS = ("added", "removed", "kept", "stopped")


@dataclass(frozen=True)
class VariableSubset:
    """An ordered set of column indices with the procedure that built it."""

    indices: tuple[int, ...]
    provenance: str = "ranking"

    def __post_init__(self) -> None:
        idx = tuple(_variable_index(j) for j in self.indices)
        if len(set(idx)) != len(idx):
            raise ValueError(f"subset indices are not distinct: {idx}")
        if any(j < 0 for j in idx):
            raise ValueError(f"negative variable index in {idx}")
        if self.provenance not in PROVENANCES:
            raise ValueError(
                f"unknown provenance {self.provenance!r}, expected one of {PROVENANCES}"
            )
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, j) -> bool:
        return j in self.indices

    def sorted_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.indices))


@dataclass(frozen=True)
class TraceStep:
    """One logged selection decision.

    ``mi`` is always the estimator's value for ``subset``, so a trace
    can be audited against fresh estimates.
    """

    kind: str
    candidate: int | None
    subset: tuple[int, ...]
    mi: float
    decision: str

    def __post_init__(self) -> None:
        if self.kind not in _STEP_KINDS:
            raise ValueError(f"unknown step kind {self.kind!r}")
        if self.decision not in _DECISIONS:
            raise ValueError(f"unknown decision {self.decision!r}")
        object.__setattr__(self, "subset", tuple(_variable_index(j) for j in self.subset))


@dataclass(frozen=True)
class SelectionTrace:
    """Ordered audit log of forward, backward and stop decisions."""

    steps: tuple[TraceStep, ...]


def _session_for(d: Dataset, k: int, jitter_seed: int, session: MiSession | None) -> MiSession:
    if session is not None:
        return session
    return MiSession(d.X, d.y, k=k, jitter_seed=jitter_seed)


def individual_mis(
    d: Dataset,
    k: int = DEFAULT_K,
    jitter_seed: int = 0,
    session: MiSession | None = None,
) -> np.ndarray:
    """MI of each single variable with the target, indexed by column."""
    session = _session_for(d, k, jitter_seed, session)
    return np.array(session.values([(j,) for j in range(session.n_variables)]))


def rank_by_individual_mi(
    d: Dataset,
    count: int | None = None,
    k: int = DEFAULT_K,
    jitter_seed: int = 0,
    session: MiSession | None = None,
) -> VariableSubset:
    """The ``count`` highest-MI variables, in descending-MI order.

    Exact MI ties (as produced by duplicated columns) break toward the
    lower column index, so the ranking is deterministic.
    """
    session = _session_for(d, k, jitter_seed, session)
    m = session.n_variables
    if count is None:
        count = m
    if not 1 <= count <= m:
        raise ValueError(f"count must be in 1..{m}, got {count}")
    return _ranking(individual_mis(d, k, jitter_seed, session), count)


def _ranking(values: np.ndarray, count: int) -> VariableSubset:
    """The ``count`` highest of the individual MIs ``values``, as a ranking."""
    order = np.argsort(-values, kind="stable")  # descending MI, then ascending index
    return VariableSubset(tuple(int(j) for j in order[:count]), "ranking")


def _best(
    session: MiSession, candidates: Sequence[int], subsets: Sequence[tuple[int, ...]]
) -> tuple[int, float] | None:
    """(candidate, MI) of the first strict maximum of the subsets' MIs; None if there are none.

    ``subsets[i]`` is what ``candidates[i]`` leads to. With the candidates
    in ascending column order, an exact MI tie goes to the lower index.
    """
    return max(zip(candidates, session.values(subsets)), key=lambda pair: pair[1], default=None)


def greedy_select(
    d: Dataset,
    k: int = DEFAULT_K,
    jitter_seed: int = 0,
    iterate_backward: bool = False,
    session: MiSession | None = None,
) -> tuple[VariableSubset, SelectionTrace]:
    """Grow a subset by joint MI until a forward step strictly decreases it.

    The forward step adds the variable whose addition gives the highest
    joint MI. After every accepted forward step a backward step removes
    the older variable whose removal gives the highest MI, when that
    strictly increases the MI (repeatedly, if ``iterate_backward``); the
    newest variable is never removed. Both steps use one tie rule: of
    candidates with exactly equal MI, the lowest column index wins.

    The returned subset is the accepted state before the stopping
    forward step; its MI is the running maximum of the whole procedure.
    The trace records every accepted addition, every backward decision,
    and the final rejected forward step.
    """
    session = _session_for(d, k, jitter_seed, session)
    state: list[int] = []
    state_mi = -np.inf
    steps: list[TraceStep] = []
    while len(state) < session.n_variables:
        free = [j for j in range(session.n_variables) if j not in state]
        cand, cand_mi = _best(session, free, [tuple(state) + (j,) for j in free])
        if state and cand_mi < state_mi:
            steps.append(TraceStep("stop", cand, tuple(state) + (cand,), cand_mi, "stopped"))
            break
        state.append(cand)
        state_mi = cand_mi
        steps.append(TraceStep("forward", cand, tuple(state), cand_mi, "added"))
        while len(state) >= 2:
            older = sorted(state[:-1])
            removed, removed_mi = _best(
                session, older, [tuple(c for c in state if c != j) for j in older]
            )
            if not removed_mi > state_mi:
                steps.append(TraceStep("backward", None, tuple(state), state_mi, "kept"))
                break
            state.remove(removed)
            state_mi = removed_mi
            steps.append(TraceStep("backward", removed, tuple(state), state_mi, "removed"))
            if not iterate_backward:
                break
    return VariableSubset(tuple(state), "greedy"), SelectionTrace(tuple(steps))


def build_candidate_pool(ranking, selected, pool_size: int) -> VariableSubset:
    """Union of the greedy result with the top of the ranking.

    Keeps everything in ``selected`` and appends ranked variables not
    already present, in rank order, until the pool holds exactly
    ``pool_size`` variables.
    """
    rank_idx = [_variable_index(j) for j in _subset_indices(ranking)]
    sel_idx = [_variable_index(j) for j in _subset_indices(selected)]
    if len(sel_idx) > pool_size:
        raise ValueError(
            f"selected set has {len(sel_idx)} variables, larger than the pool size {pool_size}"
        )
    if len(set(sel_idx)) != len(sel_idx):
        raise ValueError(f"selected set has repeated indices: {sel_idx}")
    pool = list(dict.fromkeys(sel_idx + rank_idx))[:pool_size]
    if len(pool) < pool_size:
        raise ValueError(
            f"ranking provides only {len(pool)} distinct variables, "
            f"cannot fill a pool of {pool_size}"
        )
    return VariableSubset(tuple(pool), "pooled")


# ---------------------------------------------------------------------------
# Exhaustive subset search.
#
# Enumeration order. With the pool's columns sorted and numbered by
# position 0..P-1, subsets are visited as sorted position tuples in
# lexicographic order: (0), (0, 1), (0, 1, 2), ..., (0, ..., P-1),
# (0, ..., P-3, P-1), ... and handed to the session as the columns at
# those positions. This is a depth-first walk of the subset tree in
# which every child is its parent plus one higher column, so
# MiSession.evaluate, fed consecutive subsets, adds one column to the
# parent's sums per subset (its docstring has the blocks, chunks and
# buffers). Subsets ending in position P-1 are leaves; every other
# subset is followed by its first child. Positions map to columns in
# increasing order, so the column tuples are in the same order.
#
# Range split. Indices 1 .. 2^P - 1 of that order (0 is the empty set)
# are cut into contiguous ranges: one at one worker, 8 per worker
# otherwise. A range starts by unranking its first index into a subset,
# then walks forward. Each range reduces its subsets under the total
# order of _better (higher MI, then fewer variables, then the
# lexicographically smaller tuple), and so do the ranges' results, so
# the winner does not depend on the worker count or on where the ranges
# are cut.


def _unrank(index: int, p: int) -> list[int]:
    """The subset at ``index`` in the enumeration order; 0 is the empty set."""
    subset: list[int] = []
    j = 0
    while index:
        index -= 1
        # Skip whole subtrees: the one rooted at j holds 2^(p-1-j) subsets.
        while index >= 1 << (p - 1 - j):
            index -= 1 << (p - 1 - j)
            j += 1
        subset.append(j)
        j += 1
    return subset


def _advance(subset: list[int], p: int) -> None:
    """Step ``subset`` in place to the next subset in enumeration order; empty after the last."""
    if subset[-1] < p - 1:
        subset.append(subset[-1] + 1)
    else:
        subset.pop()
        if subset:
            subset[-1] += 1


def _walk(session: MiSession, columns: Sequence[int], lo: int, hi: int):
    """Yield (MI, column tuple) for enumeration indices lo .. hi - 1 of sorted ``columns``."""
    p = len(columns)
    subset = _unrank(lo, p)
    for start in range(lo, hi, session.chunk):
        chunk = []
        for _ in range(min(session.chunk, hi - start)):
            chunk.append(tuple(columns[j] for j in subset))
            _advance(subset, p)
        yield from zip(session.evaluate(chunk).tolist(), chunk)


def _better(
    a: tuple[float, tuple[int, ...]], b: tuple[float, tuple[int, ...]]
) -> tuple[float, tuple[int, ...]]:
    if a[0] != b[0]:
        return a if a[0] > b[0] else b
    if len(a[1]) != len(b[1]):
        return a if len(a[1]) < len(b[1]) else b
    return a if a[1] < b[1] else b


def _range_winner(state: tuple[MiSession, Sequence[int]], bounds: tuple[int, int]):
    """The best (MI, column tuple) of one range of the (session, sorted columns) search."""
    session, columns = state
    return reduce(_better, _walk(session, columns, *bounds))


def _search(
    session: MiSession, columns: Sequence[int], workers: int
) -> tuple[float, tuple[int, ...]]:
    """(MI, column tuple) of the best non-empty subset of the sorted ``columns``.

    At ``workers`` > 1 the search is split into ``8 * workers`` ranges
    that :func:`map_tasks` runs on worker processes, each with its own
    copy of ``session``; at one worker it is one range, walked here.
    """
    if len(columns) > MAX_POOL_SIZE:
        raise ValueError(
            f"{len(columns)} candidates means 2^{len(columns)} subsets; "
            f"lower the pool size to at most {MAX_POOL_SIZE}"
        )
    ranges = 8 * workers if workers > 1 else 1
    cuts = np.linspace(1, 1 << len(columns), ranges + 1).astype(np.int64).tolist()
    bounds = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
    return reduce(_better, map_tasks(_range_winner, (session, columns), bounds, workers))


def exhaustive_search(
    d: Dataset,
    candidates,
    k: int = DEFAULT_K,
    jitter_seed: int = 0,
    workers: int = 1,
) -> tuple[VariableSubset, MiEstimate]:
    """Joint-MI argmax over every non-empty subset of the candidates.

    Ties resolve to the smaller subset, then to the lexicographically
    smaller sorted index tuple. The result does not depend on
    ``workers``; parallelism only splits the enumeration range.
    """
    cand = _validate_subset(_subset_indices(candidates), d.n_variables)
    session = MiSession(d.X, d.y, k=k, jitter_seed=jitter_seed)
    value, indices = _search(session, cand, workers)
    return VariableSubset(indices, "exhaustive"), MiEstimate(value, k, d.n_samples)


@dataclass(frozen=True)
class SelectionResult:
    """Everything the full selection pipeline produced."""

    ranking: VariableSubset
    ranking_mis: tuple[float, ...]
    greedy: VariableSubset
    pool: VariableSubset
    best: VariableSubset
    best_mi: MiEstimate
    trace: SelectionTrace

    def to_dict(self, labels: Sequence[str] | None = None) -> dict:
        """The encoded fields; ``labels`` adds each subset's variable names."""
        doc = encode(self)
        if labels is not None:
            for key in ("ranking", "greedy", "pool", "best"):
                doc[key]["labels"] = [labels[j] for j in getattr(self, key).indices]
        return doc


def select_variables(
    d: Dataset,
    k: int = DEFAULT_K,
    pool_size: int = 16,
    jitter_seed: int = 0,
    workers: int = 1,
) -> SelectionResult:
    """Run the complete selection pipeline on one dataset.

    Ranking and greedy search each produce a subset; their union forms
    a pool of ``pool_size`` variables (capped at the variable count),
    and the exhaustive subset search over that pool picks the winner.
    All three evaluate in one MiSession over the dataset; at
    ``workers`` > 1 each search worker gets a copy of it.

    Pool size rule: every greedy variable stays a candidate. When the
    greedy subset holds more variables than the pool, the pool grows
    to the greedy size, as long as that is at most ``MAX_POOL_SIZE``;
    past it a ConfigError names both sizes. A constant target carries
    no information to select on: the first estimate raises DataError
    (see :meth:`MiSession.evaluate`).

    Degenerate k: a winner with MI <= 0.0 means no subset carries
    measurable information at this k. With k = N - 1 (N = 7 and k = 6,
    say) every subset scores exactly 0.0, and the winner, the pool's
    lowest column alone, is picked by the tie rule only. The result is
    returned as it is; the ``mivarsel`` commands that select (``select``,
    ``train``, ``run-method``, ``reproduce``) warn on stderr, naming k
    and N.
    """
    session = MiSession(d.X, d.y, k=k, jitter_seed=jitter_seed)
    values = individual_mis(d, k, jitter_seed, session)
    ranking = _ranking(values, d.n_variables)
    greedy, trace = greedy_select(d, k, jitter_seed, False, session)
    effective = min(pool_size, d.n_variables)
    if len(greedy) > effective:
        if len(greedy) > MAX_POOL_SIZE:
            raise ConfigError(
                f"greedy search kept {len(greedy)} variables, more than the pool size "
                f"{effective}, and a pool of more than {MAX_POOL_SIZE} cannot be searched"
            )
        effective = len(greedy)
    pool = build_candidate_pool(ranking, greedy, effective)
    value, best = _search(session, pool.sorted_indices(), workers)
    return SelectionResult(
        ranking=ranking,
        ranking_mis=tuple(float(values[j]) for j in ranking.indices),
        greedy=greedy,
        trace=trace,
        pool=pool,
        best=VariableSubset(best, "exhaustive"),
        best_mi=MiEstimate(value, k, d.n_samples),
    )
