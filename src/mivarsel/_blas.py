"""The package's parallelism: one BLAS thread per process, one worker-pool helper.

The CV sweeps make many small BLAS calls (a 129 x 129 ``eigh``, products
of a few hundred rows). A second OpenBLAS thread buys them little wall
time for much more CPU, oversubscribes the cores the ``workers``
processes already use, and changes the last bits of the results with the
host's core count. So the package owns its parallelism: importing it
sets numpy's OpenBLAS to one thread for the whole process, which forked
workers inherit and spawned workers set again on import, and the CV
folds and the subset search both run on :func:`map_tasks`'s processes.

The thread count is set through the library's own export, found by
``ctypes`` in the directory where numpy's wheel bundles its shared
libraries. A numpy built against another BLAS (MKL, Accelerate) exports
none of the names below; the record then says ``pinned: false`` and
names the BLAS, and nothing is raised.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import os
from functools import partial

import numpy as np

# (set, get) export pairs, newest numpy wheels first.
_EXPORTS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

_PIN: dict = {}
_GET = None
_POOL_TASK = None


def _blas_name() -> str:
    try:
        return str(np.__config__.CONFIG["Build Dependencies"]["blas"]["name"])
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _bundled_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries numpy's wheel ships with it."""
    package = os.path.dirname(np.__file__)
    found = []
    # Linux and Windows wheels: site-packages/numpy.libs; macOS: numpy/.dylibs.
    folders = (os.path.join(package, os.pardir, "numpy.libs"), os.path.join(package, ".dylibs"))
    for folder in folders:
        if os.path.isdir(folder):
            found += sorted(
                os.path.join(folder, name) for name in os.listdir(folder) if "openblas" in name
            )
    return found


def pin_blas_threads() -> None:
    """Set numpy's OpenBLAS to one thread and record what took effect."""
    global _PIN, _GET
    for path in _bundled_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _EXPORTS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter(1)
                _GET = getter
                _PIN = {"pinned": True, "library": os.path.basename(path), "symbol": set_name}
                return
    _PIN = {
        "pinned": False,
        "blas": _blas_name(),
        "reason": "no OpenBLAS thread-count export found",
    }


def blas_threads() -> dict:
    """The BLAS pin of this process.

    Pinned: ``{"pinned": True, "library", "symbol", "threads"}``, with the
    thread count read back from the library now. Not pinned:
    ``{"pinned": False, "blas", "reason"}``.
    """
    record = dict(_PIN)
    if _GET is not None:
        record["threads"] = int(_GET())
    return record


def _set_pool_task(task, state) -> None:
    global _POOL_TASK
    _POOL_TASK = partial(task, state)


def _run_pool_task(item):
    return _POOL_TASK(item)


def map_tasks(task, state, items, workers: int) -> list:
    """``[task(state, item) for item in items]``, in order, on up to ``workers`` processes.

    ``items`` is a sequence. With one process or one item the tasks run
    here, with no pool; otherwise each process gets ``state`` once, at start.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        return [task(state, item) for item in items]
    with concurrent.futures.ProcessPoolExecutor(
        workers, initializer=_set_pool_task, initargs=(task, state)
    ) as pool:
        return list(pool.map(_run_pool_task, items))
