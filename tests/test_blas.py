import os
import subprocess
import sys
import textwrap
import warnings

import pytest

from ssvi import blas
from ssvi.blas import blas_threads, thread_count

POOLS = ["numpy", "scipy"]


def other_count(n):
    """A thread count different from n."""
    return 2 if n == 1 else 1


@pytest.mark.parametrize("pool", POOLS)
def test_sets_the_count_inside_and_restores_it_after(pool):
    old = thread_count(pool)
    assert old is not None and old >= 1
    pinned = other_count(old)
    with blas_threads(**{pool: pinned}):
        assert thread_count(pool) == pinned
    assert thread_count(pool) == old


@pytest.mark.parametrize("pool", POOLS)
def test_restores_the_count_when_the_block_raises(pool):
    old = thread_count(pool)
    with pytest.raises(KeyError):
        with blas_threads(**{pool: other_count(old)}):
            raise KeyError("inside")
    assert thread_count(pool) == old


def test_a_pool_given_none_keeps_its_count():
    old = thread_count("scipy")
    with blas_threads(numpy=other_count(thread_count("numpy"))):
        assert thread_count("scipy") == old


def test_nested_blocks_restore_in_order():
    old = thread_count("numpy")
    with blas_threads(numpy=2):
        with blas_threads(numpy=1):
            assert thread_count("numpy") == 1
        assert thread_count("numpy") == 2
    assert thread_count("numpy") == old


@pytest.mark.parametrize("n", [0, -1])
def test_rejects_a_count_below_one(n):
    old = thread_count("numpy")
    with pytest.raises(ValueError, match="at least 1"):
        with blas_threads(numpy=n):
            pass
    assert thread_count("numpy") == old


def test_missing_symbol_is_a_no_op_that_warns_once(monkeypatch):
    numpy_old, scipy_old = thread_count("numpy"), thread_count("scipy")
    read_numpy = blas._entry_points("numpy")[0]
    module, _, setter = blas._POOLS["numpy"]
    monkeypatch.setitem(blas._POOLS, "numpy",
                        (module, "no_such_blas_symbol", setter))
    monkeypatch.setattr(blas, "_resolved", {})
    scipy_pinned = other_count(scipy_old)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(3):
            with blas_threads(numpy=other_count(numpy_old),
                              scipy=scipy_pinned):
                assert read_numpy() == numpy_old
                assert thread_count("scipy") == scipy_pinned
        assert thread_count("numpy") is None
    assert len(caught) == 1
    assert issubclass(caught[0].category, RuntimeWarning)
    assert "numpy" in str(caught[0].message)
    assert read_numpy() == numpy_old
    assert thread_count("scipy") == scipy_old


def test_import_leaves_both_counts_as_they_were():
    # the counts are read straight through ctypes before and after
    # `import ssvi`, and are set away from the launch value first, so an
    # import that reset them to a default would show
    script = textwrap.dedent("""
        import ctypes, importlib
        import numpy._core._multiarray_umath as np_ext
        import scipy.linalg._flapack as sp_ext
        libs = [(ctypes.CDLL(np_ext.__file__), "64_"),
                (ctypes.CDLL(sp_ext.__file__), "")]
        get = [getattr(lib, f"scipy_openblas_get_num_threads{s}")
               for lib, s in libs]
        set_ = [getattr(lib, f"scipy_openblas_set_num_threads{s}")
                for lib, s in libs]
        set_[0](1)
        set_[1](2)
        before = [g() for g in get]
        import ssvi, ssvi.blas
        assert ssvi.blas._resolved == {}
        print(before, [g() for g in get])
    """)
    src = os.path.dirname(os.path.dirname(blas.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[1, 2] [1, 2]"
