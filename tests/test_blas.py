import os
import subprocess
import sys
import textwrap
import warnings

import pytest

from ssvi import blas
from ssvi.blas import one_thread, thread_count

from conftest import two_threads

POOLS = ["numpy", "scipy"]


@pytest.mark.parametrize("pool", POOLS)
def test_sets_the_count_inside_and_restores_it_after(pool):
    with two_threads():
        with one_thread():
            assert thread_count(pool) == 1
        assert thread_count(pool) == 2


@pytest.mark.parametrize("pool", POOLS)
def test_restores_the_count_when_the_block_raises(pool):
    with two_threads():
        with pytest.raises(KeyError):
            with one_thread():
                raise KeyError("inside")
        assert thread_count(pool) == 2


def test_nested_blocks_restore_in_order():
    # the inner block restores the outer block's count, not the launch one
    with two_threads():
        with one_thread():
            with one_thread():
                assert thread_count("numpy") == 1
            assert thread_count("numpy") == 1
        assert thread_count("numpy") == 2


def test_missing_symbol_is_a_no_op_that_warns_once(monkeypatch):
    read_numpy = blas._entry_points("numpy")[0]
    with two_threads():
        module, _, setter = blas._POOLS["numpy"]
        monkeypatch.setitem(blas._POOLS, "numpy",
                            (module, "no_such_blas_symbol", setter))
        monkeypatch.setattr(blas, "_resolved", {})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(3):
                with one_thread():
                    assert read_numpy() == 2
                    assert thread_count("scipy") == 1
            assert thread_count("numpy") is None
        assert len(caught) == 1
        assert issubclass(caught[0].category, RuntimeWarning)
        assert "numpy" in str(caught[0].message)
        assert read_numpy() == 2
        assert thread_count("scipy") == 2


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
