"""Mutual-information variable selection and nonlinear calibration models.

Importing the package pins numpy's OpenBLAS to one thread for the whole
process (see :func:`blas_threads`): the package's own workers are its
only parallelism, and results do not depend on the host's core count.
"""

from ._blas import blas_threads, pin_blas_threads
from .errors import ConfigError, DataError, MivarselError, NumericalError

pin_blas_threads()

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "MivarselError",
    "NumericalError",
    "__version__",
    "blas_threads",
]
