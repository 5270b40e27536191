"""One BLAS thread per process: numpy's bundled OpenBLAS, pinned at import.

The CV sweeps make many small BLAS calls (a 129 x 129 ``eigh``, products
of a few hundred rows). A second OpenBLAS thread buys them little wall
time for much more CPU, oversubscribes the cores the sweep's ``workers``
threads and the search's processes already use, and changes the last
bits of the results with the host's core count. So the package owns its
parallelism: importing it sets numpy's OpenBLAS to one thread for the
whole process. Forked workers inherit the setting and spawned workers
import the package again, so they are pinned too.

The thread count is set through the library's own export, found by
``ctypes`` in the directory where numpy's wheel bundles its shared
libraries. A numpy built against another BLAS (MKL, Accelerate) exports
none of the names below; the record then says ``pinned: false`` and
names the BLAS, and nothing is raised.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

# (set, get) export pairs, newest numpy wheels first.
_EXPORTS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

_PIN: dict = {}
_GET = None


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
