"""Thread counts of the two OpenBLAS copies that numpy and scipy load.

numpy's wheels link ``libscipy_openblas64_`` (matrix products, ``np.linalg``)
and scipy's link ``libscipy_openblas`` (``scipy.linalg``'s Cholesky factors
and solves).  Each copy keeps its own pool of worker threads, and a pool's
workers spin for a while after each call, so a loop that alternates between
the two libraries has the pools compete for the same cores.

``one_thread`` runs both pools at one thread for the duration of a ``with``
block and restores their counts on exit.  Every entry point of ``ssvi`` that
does BLAS work (``gram_matrix``, ``run_pgd`` and each CLI command) runs under
it: a multi-threaded product or factor may reduce in another order, and the
outputs would then depend on the launch thread count.  The entry points are
found in each library's own extension module the first time they are
needed; nothing is resolved at import, and no environment variable is read.
When a copy does not export them, its count is left as it is, with one
warning.
"""

from __future__ import annotations

import ctypes
import importlib
import warnings
from contextlib import contextmanager

# pool -> (extension module that links it, getter symbol, setter symbol)
_POOLS = {
    "numpy": ("numpy._core._multiarray_umath",
              "scipy_openblas_get_num_threads64_",
              "scipy_openblas_set_num_threads64_"),
    "scipy": ("scipy.linalg._flapack",
              "scipy_openblas_get_num_threads",
              "scipy_openblas_set_num_threads"),
}
# pool -> (getter, setter), or None when unavailable; each library is
# loaded once per process, so its entry points are resolved once
_resolved = {}


def _entry_points(pool):
    """The pool's (getter, setter), or None (warned about once)."""
    if pool not in _resolved:
        module, get_name, set_name = _POOLS[pool]
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            getter, setter = getattr(lib, get_name), getattr(lib, set_name)
        except (ImportError, OSError, AttributeError) as exc:
            warnings.warn(f"cannot control {pool}'s BLAS threads ({exc}); "
                          "its thread count is left as it is", RuntimeWarning)
            _resolved[pool] = None
        else:
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            _resolved[pool] = getter, setter
    return _resolved[pool]


def thread_count(pool):
    """The thread count of ``pool`` ("numpy" or "scipy"), or None when it
    cannot be read."""
    entry = _entry_points(pool)
    return None if entry is None else entry[0]()


@contextmanager
def one_thread():
    """Run the block with both pools at one thread; their counts are
    restored on exit, also when the block raises."""
    restore = []
    try:
        for pool in _POOLS:
            entry = _entry_points(pool)
            if entry is not None:
                getter, setter = entry
                restore.append((setter, getter()))
                setter(1)
        yield
    finally:
        for setter, old in reversed(restore):
            setter(old)
