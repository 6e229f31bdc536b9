import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import eigsh
from scipy.stats import norm

import ssvi
from ssvi import dictionary
from ssvi.blas import one_thread
from ssvi.dictionary import BasisId, DictionaryDegenerateError, GramMatrix

from conftest import basis_values, dense_gram, reference_gram_blocks

# the criterion-1 grid, the benchmark and demo grids and small ones, down to
# (2, 1, 1): a root block of m = 2 and a leaf of m = 14
INV_NORM_GRIDS = [
    (2, 4.0, 0.25), (2, 4.0, 0.5), (10, 3.0, 0.5), (4, 1.0, 0.5),
    (10, 2.0, 0.5), (2, 2.0, 1.0), (3, 2.0, 0.5), (2, 1.0, 1.0)]


class TestSizeAndOrdering:
    def test_size_formula_small(self):
        # d=2, R=1, delta=1: N=2, p = 2 + 2*4 + 3*2 = 16
        spec = ssvi.build_dictionary(2, 1.0, 1.0)
        assert spec.N == 2
        assert spec.p == 16

    def test_size_formula_general(self):
        for d, R, delta in ((3, 2.0, 0.5), (4, 1.0, 0.5), (2, 4.0, 0.25)):
            spec = ssvi.build_dictionary(d, R, delta)
            N = int(round(2 * R / delta))
            assert spec.p == N + 2 * (d - 1) * N * N + 3 * (d - 1) * N
            assert type(spec.p) is int

    def test_index_id_roundtrip(self):
        spec = ssvi.build_dictionary(3, 1.0, 0.5)
        for idx in range(spec.p):
            bid = spec.id_of(idx)
            assert spec.index_of(bid) == idx
            assert type(spec.index_of(bid)) is int

    def test_ordering_version_exposed(self):
        spec = ssvi.build_dictionary(2, 1.0, 1.0)
        assert spec.ordering_version == "class-major-v1"
        assert spec.metadata()["ordering_version"] == "class-major-v1"

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            ssvi.build_dictionary(1, 1.0, 1.0)
        with pytest.raises(ValueError):
            ssvi.build_dictionary(2, 1.0, 0.3)

    @pytest.mark.parametrize("args, field", [
        ((2, "a", 1.0), "R: must be a real number"),
        ((2, 2.0, None), "delta: must be a real number"),
        ((2, True, 1.0), "R: must be a real number"),
        ((2.0, 2.0, 1.0), "d: must be an integer"),
    ])
    def test_rejects_wrong_types_by_name(self, args, field):
        with pytest.raises(TypeError, match=f"^{field}, got "):
            ssvi.build_dictionary(*args)

    def test_rejects_nonfinite_geometry(self):
        with pytest.raises(ValueError, match="finite"):
            ssvi.build_dictionary(2, float("inf"), 1.0)
        with pytest.raises(ValueError, match="finite"):
            ssvi.build_dictionary(2, 2.0, float("nan"))

    def test_accepts_numpy_scalars(self):
        spec = ssvi.build_dictionary(np.int64(2), np.float64(2.0),
                                     np.float32(1.0))
        assert (spec.d, spec.R, spec.delta) == (2, 2.0, 1.0)


def factors(spec, bid):
    """(f, g) with basis ``bid`` = f(x_i)·g(x₁) before centering; for M0 and
    M5, which live on x₁ alone, f is the constant."""
    delta = spec.delta

    def ramp_at(b):
        return lambda x: float(ssvi.ramp((x - b) / delta))

    if bid.cls in ("M0", "M5"):
        return (lambda x: 1.0), ramp_at(bid.b)
    if bid.cls == "M3":
        return ramp_at(bid.b), lambda x: float(x >= spec.R)
    if bid.cls == "M4":
        return ramp_at(bid.b), lambda x: float(x < -spec.R)

    def gated(x):
        u = (x - bid.bprime) / delta
        return (u if bid.cls == "M1" else 1.0 - u) * (0.0 <= u < 1.0)
    return ramp_at(bid.b), gated


def gaussian_mean(spec, h):
    """E[h(X)] for X ~ N(0, 1) by adaptive quadrature, split at every grid
    point; the mass beyond ±12 is below 1e-32."""
    return quad(lambda x: h(x) * norm.pdf(x), -12.0, 12.0, limit=200,
                points=np.append(spec.breakpoints, spec.R), epsabs=1e-14)[0]


ONE_OF_EACH = [BasisId("M0", None, -1.0), BasisId("M1", 2, 0.0, 0.5),
               BasisId("M2", 2, 0.5, 0.5), BasisId("M3", 2, 1.0),
               BasisId("M4", 2, -2.0), BasisId("M5", 2, 0.5)]


class TestCentering:
    @pytest.mark.parametrize("bid", ONE_OF_EACH, ids=lambda b: b.cls)
    def test_centering_matches_quadrature(self, bid):
        # the two factors sit on independent coordinates (or one is the
        # constant), so a basis's mean is the product of two 1-D integrals
        spec = ssvi.build_dictionary(3, 2.0, 0.5)
        f, g = factors(spec, bid)
        expected = gaussian_mean(spec, f) * gaussian_mean(spec, g)
        assert spec.centering[spec.index_of(bid)] == pytest.approx(
            expected, abs=1e-12)

    def test_centering_makes_bases_mean_zero(self):
        spec = ssvi.build_dictionary(2, 1.0, 1.0)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((500000, 2))
        for vals in basis_values(spec, X[:50000]):
            assert abs(vals.mean()) < 5 * vals.std() / np.sqrt(50000) + 1e-4


class TestGram:
    def test_positive_definite(self, coarse_spec, coarse_gram):
        eigs = np.linalg.eigvalsh(dense_gram(coarse_gram))
        assert eigs.min() > 0

    def test_matches_monte_carlo(self, coarse_spec, coarse_gram):
        # same-coordinate blocks against a brute-force MC inner product
        rng = np.random.default_rng(1)
        X = rng.standard_normal((300000, 2))
        vals = basis_values(coarse_spec, X)
        coord = coarse_spec.coord
        Qmc = vals @ vals.T / len(X)
        same = coord[:, None] == coord[None, :]
        assert np.abs((Qmc - dense_gram(coarse_gram))[same]).max() < 5e-3

    def test_off_coordinate_blocks_zero(self, coarse_spec, coarse_gram):
        diff = coarse_spec.coord[:, None] != coarse_spec.coord[None, :]
        assert np.abs(dense_gram(coarse_gram)[diff]).max() == 0.0

    def test_leaf_blocks_identical(self):
        spec = ssvi.build_dictionary(4, 1.0, 0.5)
        Q = dense_gram(ssvi.gram_matrix(spec))
        first = spec.leaf_index[0]
        assert spec.leaf_index.shape == (3, 2 * spec.N ** 2 + 3 * spec.N)
        for li, idx in enumerate(spec.leaf_index):
            assert np.array_equal(idx, np.flatnonzero(spec.coord == li + 1))
            assert np.array_equal(Q[np.ix_(idx, idx)],
                                  Q[np.ix_(first, first)])
            assert np.array_equal(spec.centering[idx],
                                  spec.centering[first])

    @pytest.mark.parametrize("j, k", [(6, 0), (1, 1), (1, 2), (1, 3),
                                      (2, 5), (3, 3), (3, 4), (4, 5)])
    def test_blocks_match_quadrature(self, j, k):
        # E[f f′]·E[g g′] − E[f]E[g]·E[f′]E[g′], each factor a 1-D integral;
        # (6, 0) is in the root block, the rest in the second leaf block
        spec = ssvi.build_dictionary(3, 2.0, 0.5)
        Q = dense_gram(ssvi.gram_matrix(spec))
        a, b = (ONE_OF_EACH + [BasisId("M0", None, 0.5)])[j], ONE_OF_EACH[k]
        (fa, ga), (fb, gb) = factors(spec, a), factors(spec, b)
        mean = [gaussian_mean(spec, h) for h in (fa, ga, fb, gb)]
        expected = (gaussian_mean(spec, lambda x: fa(x) * fb(x))
                    * gaussian_mean(spec, lambda x: ga(x) * gb(x))
                    - mean[0] * mean[1] * mean[2] * mean[3])
        assert Q[spec.index_of(a), spec.index_of(b)] == pytest.approx(
            expected, abs=1e-12)

    # the criterion-1 grid, the demo and wide grids, three leaves, and
    # small ones down to N = 2
    @pytest.mark.parametrize("d, R, delta", [
        (2, 4.0, 0.25), (2, 4.0, 0.5), (3, 2.0, 0.5), (10, 3.0, 0.5),
        (2, 2.0, 1.0), (4, 1.0, 0.25), (2, 0.5, 0.5)])
    def test_blocks_and_factors_equal_the_gather_reference(self, d, R,
                                                           delta):
        spec = ssvi.build_dictionary(d, R, delta)
        gram = ssvi.gram_matrix(spec)
        for name, Qb, ref in zip(("root", "leaf"), (gram.Q_root, gram.Q_leaf),
                                 reference_gram_blocks(spec)):
            assert np.array_equal(Qb, ref)
            assert np.array_equal(Qb, Qb.T)
            with one_thread():  # as gram_matrix factors
                want = cho_factor(Qb, lower=True)[0]
            assert np.array_equal(np.tril(gram._cho[name][0]), np.tril(want))

    def test_build_allocates_one_leaf_block(self):
        # the (2, 4, ¼) leaf, m = 2 144: no m×m temporary besides the block
        spec = ssvi.build_dictionary(2, 4.0, 0.25)
        m = spec.leaf_index.shape[1]
        tracemalloc.start()
        try:
            dictionary._compute_gram(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * m * m

    def test_solve_checks_x_and_equals_the_checked_solve(self, d4_gram):
        spec = d4_gram.spec
        x = np.random.default_rng(5).normal(size=spec.p)
        want = np.empty_like(x)
        want[:spec.N] = cho_solve(d4_gram._cho["root"], x[:spec.N])
        idx = spec.leaf_index
        want[idx] = cho_solve(d4_gram._cho["leaf"], x[idx].T).T
        assert np.array_equal(d4_gram.solve(x), want)
        for at in (0, idx[-1, -1]):  # a root entry, the last leaf's last
            bad = x.copy()
            bad[at] = np.nan
            with pytest.raises(ValueError,
                               match="array must not contain infs or NaNs"):
                d4_gram.solve(bad)

    def test_not_positive_definite_raises(self, coarse_spec, coarse_gram):
        with pytest.raises(DictionaryDegenerateError):
            GramMatrix(coarse_spec, -coarse_gram.Q_leaf)

    def test_inverse_matches_dense_inverse(self, coarse_gram):
        for block, Qb in (("root", coarse_gram.Q_root),
                          ("leaf", coarse_gram.Q_leaf)):
            W = coarse_gram.inverse(block)
            want = np.linalg.inv(Qb)
            assert np.array_equal(W, W.T)
            np.testing.assert_allclose(W, want, rtol=0.0,
                                       atol=1e-10 * np.abs(want).max())

    def test_solve_and_inverse(self, coarse_gram):
        rng = np.random.default_rng(2)
        x = rng.normal(size=coarse_gram.spec.p)
        assert np.allclose(dense_gram(coarse_gram) @ coarse_gram.solve(x), x,
                           atol=1e-10)
        for block, Qb in (("root", coarse_gram.Q_root),
                          ("leaf", coarse_gram.Q_leaf)):
            W = coarse_gram.inverse(block)
            assert np.allclose(W @ Qb, np.eye(len(Qb)), atol=1e-8)

    def test_inv_norm_matches_dense(self, coarse_gram, d4_gram):
        for gram in (coarse_gram, d4_gram):
            dense = 1.0 / np.linalg.eigvalsh(dense_gram(gram)).min()
            assert np.isclose(gram.inv_norm, dense, rtol=1e-4)

    @pytest.mark.parametrize("d, R, delta", INV_NORM_GRIDS)
    def test_inv_norm_of_every_block_to_1e_8(self, d, R, delta):
        gram = ssvi.gram_matrix(ssvi.build_dictionary(d, R, delta))
        for Qb in (gram.Q_root, gram.Q_leaf):
            assert np.array_equal(Qb, Qb.T)  # symmetric by construction
            got = dictionary._inv_norm(cho_factor(Qb.T, lower=True))
            want = 1.0 / np.linalg.eigvalsh(Qb)[0]
            # at m <= 16 the Krylov space (ncv = m) is the whole space, so
            # the smallest blocks come out to rounding
            rel = 1e-13 if len(Qb) <= 4 else 1e-8
            assert got == pytest.approx(want, rel=rel)

    @pytest.mark.parametrize("d, R, delta", INV_NORM_GRIDS)
    def test_inv_norm_is_the_leaf_blocks_by_one_arpack_call(
            self, monkeypatch, d, R, delta):
        # Q_root is Q_leaf's M5 corner, so by Cauchy interlacing the leaf
        # block alone sets ‖Q⁻¹‖₂
        gram = ssvi.gram_matrix(ssvi.build_dictionary(d, R, delta))
        N = gram.spec.N
        assert np.array_equal(gram.Q_root, gram.Q_leaf[-N:, -N:])
        assert gram.Q_root.flags.c_contiguous
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(dictionary, "eigsh", spy)
        got = gram.inv_norm
        assert len(calls) == 1
        assert gram.inv_norm == got and len(calls) == 1  # cached
        monkeypatch.undo()
        assert got == dictionary._inv_norm(gram._cho["leaf"])
        assert got >= dictionary._inv_norm(gram._cho["root"])

    def test_block_solve_and_matvec_match_dense(self, d4_gram):
        rng = np.random.default_rng(4)
        x = rng.normal(size=d4_gram.spec.p)
        Q = dense_gram(d4_gram)
        assert np.allclose(d4_gram.matvec(x), Q @ x, rtol=1e-13, atol=1e-15)
        assert np.allclose(d4_gram.solve(x), np.linalg.solve(Q, x),
                           rtol=1e-9, atol=1e-12)
        assert np.allclose(Q @ d4_gram.solve(x), x, atol=1e-10)

    def test_no_disk_cache(self, tmp_path, monkeypatch, coarse_spec,
                           coarse_gram):
        monkeypatch.setenv("SSVI_CACHE_DIR", str(tmp_path))
        g = ssvi.gram_matrix(coarse_spec)
        assert list(tmp_path.iterdir()) == []
        assert np.array_equal(dense_gram(g), dense_gram(coarse_gram))


class TestJacobianSpectralBound:
    def test_cone_differential_bound(self):
        # unit-norm nonnegative coefficients: ||DT'(x)||_2 <= 3/delta
        spec = ssvi.build_dictionary(3, 1.0, 0.5)
        rng = np.random.default_rng(3)
        lam = rng.uniform(0.0, 1.0, spec.p)
        lam[~spec.constrained] = 0.0
        lam /= np.linalg.norm(lam)
        X = rng.normal(0.0, 1.5, size=(1000, 3))
        bound = 3.0 / spec.delta
        for x in X:
            M = np.zeros((3, 3))
            for idx in np.flatnonzero(lam):
                bid = spec.id_of(idx)
                c = 0 if bid.cls == "M0" else bid.i
                dd, dr = spec.basis_partials(bid, x)
                M[c, c] += lam[idx] * dd
                if c != 0:
                    M[c, 0] += lam[idx] * dr
            assert np.linalg.norm(M, 2) <= bound + 1e-9
