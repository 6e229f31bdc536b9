import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ssvi
from ssvi.objective import (SaaSample, _fsum, _ramp_sums, free_energy,
                            gradient)

from conftest import random_admissible_params


@pytest.fixture(scope="module")
def spec3():
    return ssvi.build_dictionary(3, 2.0, 0.5)


@pytest.fixture(scope="module")
def sample3():
    return SaaSample.build(0, 4000, 3)


class TestSaaSample:
    def test_reproducible(self):
        a = SaaSample.build(5, 100, 2)
        b = SaaSample.build(5, 100, 2)
        assert np.array_equal(a.X, b.X)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SaaSample.build(0, 0, 2)

    def test_rejects_x_not_of_shape_n_by_d(self):
        # 50 rows under n = 100 would halve every sample mean
        X = SaaSample.build(0, 100, 2).X
        for bad in (X[:50], X[:, :1], np.hstack([X, X]), X.ravel()):
            with pytest.raises(ValueError, match=r"not \(n, d\)"):
                SaaSample(0, 100, 2, bad)


class TestFreeEnergy:
    def test_identity_map_standard_normal(self, gauss3_target, spec3,
                                          sample3):
        # identity params, Gaussian target: F = mean V(x), entropy term 0
        params = ssvi.identity_params(spec3)
        rep = free_energy(params, spec3, gauss3_target, sample3)
        assert rep.entropy_term == 0.0
        assert np.isclose(rep.potential_term,
                          gauss3_target.potential(sample3.X).mean())
        assert rep.std_error < 0.1

    def test_permutation_invariant_bit_equal(self, gauss3_target, spec3,
                                             sample3):
        params = random_admissible_params(spec3, np.random.default_rng(1))
        rep = free_energy(params, spec3, gauss3_target, sample3)
        perm = np.random.default_rng(2).permutation(sample3.n)
        shuffled = SaaSample(sample3.seed, sample3.n, sample3.d,
                             sample3.X[perm])
        rep2 = free_energy(params, spec3, gauss3_target, shuffled)
        assert rep.value == rep2.value
        assert rep.potential_term == rep2.potential_term

    def test_cone_violation_detected(self, gauss3_target, spec3, sample3):
        params = ssvi.identity_params(spec3)
        N = spec3.N
        # leaf 1's M3 row: drives a leaf slope negative beyond the box
        params.lam[spec3.leaf_index[0, 2 * N * N:2 * N * N + N]] = -10.0
        with pytest.raises(ssvi.ConeViolationError):
            free_energy(params, spec3, gauss3_target, sample3)

    def test_target_overflow_reported_with_index(self, spec3, sample3):
        class Exploding(ssvi.GaussianTarget):
            def potential(self, z):
                out = super().potential(z)
                return np.where(out > 4.0, np.inf, out)

        t = Exploding(np.zeros(3), np.eye(3))
        params = ssvi.identity_params(spec3)
        with pytest.raises(ssvi.TargetOverflowError,
                           match="sample index"):
            free_energy(params, spec3, t, sample3)


class TestGradient:
    def test_ramp_sums_match_dense_ramps(self, spec3):
        # every sample, in or out of the box, against the dense ramp table
        rng = np.random.default_rng(8)
        x = rng.normal(0.0, 1.5, 500)
        st = ssvi.objective.forward(ssvi.identity_params(spec3), spec3,
                                    np.column_stack([x, x, x]))
        ramps = np.clip((x[:, None] - spec3.breakpoints) / spec3.delta,
                        0.0, 1.0)
        w = rng.normal(size=500)
        got = _ramp_sums(st.grid.k1, st.grid.f1, w, (spec3.N,))
        np.testing.assert_allclose(got, ramps.T @ w, rtol=1e-12, atol=1e-12)
        # an own-cell term adds at[s] to sample s's cell (clipped off-box)
        at = rng.normal(size=500)
        cells = np.zeros((500, spec3.N))
        cells[np.arange(500), st.grid.k1] = 1.0
        got = _ramp_sums(st.grid.k1, st.grid.f1, w, (spec3.N,), at=at)
        np.testing.assert_allclose(got, ramps.T @ w + cells.T @ at,
                                   rtol=1e-12, atol=1e-12)
        group = rng.integers(0, 3, 500)
        got = _ramp_sums(group * spec3.N + st.grid.k1, st.grid.f1, w,
                         (3, spec3.N), at=at)
        for j in range(3):
            in_j = group == j
            np.testing.assert_allclose(
                got[j], ramps[in_j].T @ w[in_j] + cells[in_j].T @ at[in_j],
                rtol=1e-12, atol=1e-12)

    def test_matches_finite_differences(self, gauss3_target, spec3, sample3):
        rng = np.random.default_rng(3)
        params = random_admissible_params(spec3, rng)
        glam, gv = gradient(params, spec3, gauss3_target, sample3)
        h = 1e-6
        for idx in rng.choice(spec3.p, 30, replace=False):
            pp, pm = params.copy(), params.copy()
            pp.lam[idx] += h
            pm.lam[idx] -= h
            fd = (free_energy(pp, spec3, gauss3_target, sample3).value
                  - free_energy(pm, spec3, gauss3_target, sample3).value) \
                / (2 * h)
            assert np.isclose(glam[idx], fd, atol=1e-7, rtol=1e-5)
        for i in range(3):
            pp, pm = params.copy(), params.copy()
            pp.v[i] += h
            pm.v[i] -= h
            fd = (free_energy(pp, spec3, gauss3_target, sample3).value
                  - free_energy(pm, spec3, gauss3_target, sample3).value) \
                / (2 * h)
            assert np.isclose(gv[i], fd, atol=1e-8, rtol=1e-6)

    def test_matches_finite_differences_on_every_index(self, gauss3_target,
                                                       spec3):
        # a widened sample puts x₁ below −R, in the box and at or above R,
        # and leaves outside the box, so every class and row is exercised
        X = 1.6 * SaaSample.build(11, 1000, 3).X
        sample = SaaSample(11, 1000, 3, X)
        R = spec3.R
        assert (X[:, 0] < -R).any() and (X[:, 0] >= R).any()
        assert (np.abs(X[:, 1:]) >= R).any()
        params = random_admissible_params(spec3, np.random.default_rng(12))
        glam, _ = gradient(params, spec3, gauss3_target, sample)
        h = 1e-6
        fd = np.empty(spec3.p)
        for idx in range(spec3.p):
            pp, pm = params.copy(), params.copy()
            pp.lam[idx] += h
            pm.lam[idx] -= h
            fd[idx] = (free_energy(pp, spec3, gauss3_target, sample).value
                       - free_energy(pm, spec3, gauss3_target, sample).value
                       ) / (2 * h)
        np.testing.assert_allclose(glam, fd, atol=1e-7, rtol=1e-5)

    def test_zero_at_exact_minimizer_direction(self):
        # product-measure Gaussian with matching identity-like params: the
        # gradient in v vanishes and the lambda gradient is MC-small
        d = 2
        spec = ssvi.build_dictionary(d, 4.0, 1.0)
        target = ssvi.GaussianTarget(np.zeros(d), np.eye(d))
        params = ssvi.identity_params(spec)
        sample = SaaSample.build(1, 200000, d)
        glam, gv = gradient(params, spec, target, sample)
        assert np.abs(gv).max() < 0.01
        assert np.abs(glam).max() < 0.02

    def test_reuses_free_energy_state_bit_exactly(self, gauss3_target, spec3,
                                                  sample3):
        params = random_admissible_params(spec3, np.random.default_rng(4))
        fe = free_energy(params, spec3, gauss3_target, sample3)
        glam, gv = gradient(params, spec3, gauss3_target, sample3,
                            state=fe.state)
        glam0, gv0 = gradient(params, spec3, gauss3_target, sample3)
        assert np.array_equal(glam, glam0)
        assert np.array_equal(gv, gv0)
        # grad_v adds the rows of ∇V in sample order, one at a time
        total = np.zeros(spec3.d)
        for row in gauss3_target.grad(fe.state.Z):
            total = total + row
        assert np.array_equal(gv, total / sample3.n)


def _outcome(fn, values):
    """The bits of ``fn(values)``, or the type of what it raised."""
    try:
        return np.float64(fn(values)).tobytes()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _assert_fsum_bits(values):
    a = np.asarray(values, dtype=float)
    assert _outcome(_fsum, a) == _outcome(math.fsum, a.tolist()), values


_TINY = 2.0 ** -1074
# mixed magnitudes from subnormals up to 1e300, both signs
_finite = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.builds(math.ldexp, st.floats(min_value=-1.0, max_value=1.0),
              st.integers(min_value=-1074, max_value=996)),
    st.integers(min_value=-2 ** 20, max_value=2 ** 20).map(
        lambda k: k * _TINY))


class TestExactReduction:
    """``_fsum`` has the bits of math.fsum, sign of zero included."""

    @pytest.mark.parametrize("values", [
        [1.0, 2.0 ** -53],                       # tie: rounds to even
        [1.0, 2.0 ** -53, 2.0 ** -106],          # just above the tie
        [1.0, 2.0 ** -53, -2.0 ** -106],         # just below the tie
        [1.0 + 2.0 ** -52, 2.0 ** -53],          # tie: rounds up to even
        [-1.0, -2.0 ** -53, -2.0 ** -106],
        [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [1.0, -1.0],
        [_TINY], [-_TINY, _TINY, _TINY], [2.0 ** -1022, -_TINY],
        [1e300, -1e300, 1.0], [2.0 ** 959, 2.0 ** 959, -2.0 ** 959],
        [1e308, 1e308], [1.0, math.inf], [math.inf, -math.inf],
        [1.0, math.nan], [-math.inf, 2.0],
    ])
    def test_edge_cases(self, values):
        _assert_fsum_bits(values)

    @given(st.lists(_finite, min_size=1, max_size=60))
    @example([1e-300, 1e300, -1e300, 1e-300])
    def test_mixed_magnitudes(self, values):
        _assert_fsum_bits(values)

    @given(st.lists(_finite, min_size=1, max_size=40),
           st.lists(_finite, max_size=5), st.randoms(use_true_random=False))
    def test_heavy_cancellation(self, values, residue, rnd):
        terms = values + [-v for v in values] + residue
        rnd.shuffle(terms)
        _assert_fsum_bits(terms)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=30000),
           st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=-1074, max_value=900),
           st.integers(min_value=0, max_value=120),
           st.booleans())
    def test_large_samples(self, n, seed, low, span, cancel):
        # n terms with exponents spread over [low, low + span]
        rng = np.random.default_rng(seed)
        a = np.ldexp(rng.uniform(-1.0, 1.0, n),
                     rng.integers(low, low + span + 1, n))
        if cancel:
            a[n // 2:2 * (n // 2)] = -a[:n // 2]
            rng.shuffle(a)
        _assert_fsum_bits(a)

    @given(st.lists(_finite, min_size=1, max_size=30),
           st.sampled_from([math.inf, -math.inf, math.nan]),
           st.integers(min_value=0, max_value=30))
    def test_nonfinite_fallback(self, values, bad, at):
        values.insert(min(at, len(values)), bad)
        _assert_fsum_bits(values)


class TestSampleGrid:
    def test_cached_forward_equals_fresh_bucketing(self, spec3, sample3):
        params = random_admissible_params(spec3, np.random.default_rng(5))
        X = 1.6 * sample3.X  # every side of the box on every coordinate
        sample = SaaSample(sample3.seed, sample3.n, sample3.d, X)
        cached = ssvi.forward(params, spec3, X, grid=sample.grid(spec3))
        fresh = ssvi.forward(params, spec3, X)
        assert sample.grid(spec3) is cached.grid
        assert np.array_equal(cached.Z, fresh.Z)
        assert np.array_equal(cached.diag, fresh.diag)

    def test_grid_kept_per_instance(self, spec3, sample3):
        # same (seed, n, d), other X: never the other sample's grid
        perm = np.random.default_rng(2).permutation(sample3.n)
        shuffled = SaaSample(sample3.seed, sample3.n, sample3.d,
                             sample3.X[perm])
        assert shuffled.grid(spec3) is not sample3.grid(spec3)
        assert np.array_equal(shuffled.grid(spec3).ia,
                              sample3.grid(spec3).ia[:, perm])

    def test_one_sample_two_grids(self, gauss3_target):
        # δ = 1 and δ = ½ in turn on one sample, against fresh samples
        shared = SaaSample.build(3, 3000, 3)
        specs = [ssvi.build_dictionary(3, 2.0, delta)
                 for delta in (1.0, 0.5, 1.0)]
        for k, spec in enumerate(specs):
            params = random_admissible_params(spec,
                                              np.random.default_rng(k))
            fresh = SaaSample.build(3, 3000, 3)
            a = free_energy(params, spec, gauss3_target, shared)
            b = free_energy(params, spec, gauss3_target, fresh)
            assert (a.value, a.std_error) == (b.value, b.std_error)
            ga = gradient(params, spec, gauss3_target, shared)
            gb = gradient(params, spec, gauss3_target, fresh)
            assert np.array_equal(ga[0], gb[0])
            assert np.array_equal(ga[1], gb[1])
