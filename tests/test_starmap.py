import json

import numpy as np
import pytest
from scipy.stats import norm

import ssvi
from ssvi.starmap import (_invert_1d, _map_1d, _prefix, jacobian,
                          leaf_profile)

from conftest import basis_values, random_admissible_params


@pytest.fixture(scope="module")
def spec3():
    return ssvi.build_dictionary(3, 2.0, 0.5)


@pytest.fixture(scope="module")
def rand_params(spec3):
    return random_admissible_params(spec3, np.random.default_rng(7))


class TestForward:
    def test_identity_params_is_identity(self, spec3):
        params = ssvi.identity_params(spec3)
        X = np.random.default_rng(0).normal(size=(50, 3))
        assert np.allclose(ssvi.map_eval(params, spec3, X), X)

    def test_matches_pointwise_basis_sum(self, spec3, rand_params):
        rng = np.random.default_rng(1)
        X = rng.normal(0.0, 1.5, size=(100, 3))
        Z = ssvi.map_eval(rand_params, spec3, X)
        ref = rand_params.alpha * X + rand_params.v
        contrib = rand_params.lam[:, None] * basis_values(spec3, X)
        for c in range(spec3.d):
            ref[:, c] += contrib[spec3.coord == c].sum(axis=0)
        assert np.allclose(Z, ref, atol=1e-12)

    def test_single_point_shape(self, spec3, rand_params):
        z = ssvi.map_eval(rand_params, spec3, np.zeros(3))
        assert z.shape == (3,)

    def test_monotone_in_each_coordinate(self, spec3, rand_params):
        xs = np.linspace(-4, 4, 200)
        rng = np.random.default_rng(2)
        for _ in range(5):
            base = rng.normal(size=3)
            for c in range(3):
                X = np.tile(base, (200, 1))
                X[:, c] = xs
                Z = ssvi.map_eval(rand_params, spec3, X)
                assert np.all(np.diff(Z[:, c]) > 0)


class TestPrefix:
    # axis 1 of a leaf table and the last axis of a vector, as in starmap
    @pytest.mark.parametrize("shape, axis", [((10, 4), 1), ((4,), -1),
                                             ((10, 4), 0)])
    def test_matches_the_padded_cumsum(self, shape, axis):
        coef = np.random.default_rng(5).normal(size=shape)
        pad = [(0, 0)] * coef.ndim
        pad[axis] = (1, 0)
        want = np.pad(np.cumsum(coef, axis=axis), pad)
        assert np.array_equal(_prefix(coef, axis=axis), want)


class TestJacobian:
    def test_sketch_matches_dense(self, spec3, rand_params):
        rng = np.random.default_rng(3)
        for x in rng.normal(0.0, 1.5, size=(50, 3)):
            jac = jacobian(rand_params, spec3, x)
            dense = jac.dense()
            ref = np.diag(rand_params.alpha).astype(float)
            for idx in range(spec3.p):
                bid = spec3.id_of(idx)
                c = 0 if bid.cls == "M0" else bid.i
                dd, dr = spec3.basis_partials(bid, x)
                ref[c, c] += rand_params.lam[idx] * dd
                if c != 0:
                    ref[c, 0] += rand_params.lam[idx] * dr
            assert np.allclose(dense, ref, atol=1e-12)
            assert np.isclose(ssvi.log_det(jac),
                              np.linalg.slogdet(ref)[1], atol=1e-12)

    def test_log_det_rejects_nonpositive_diag(self, spec3):
        params = ssvi.identity_params(spec3)
        params.alpha[1] = 1.0
        jac = jacobian(params, spec3, np.zeros(3))
        jac.diag[1] = -0.5
        with pytest.raises(ssvi.ConeViolationError):
            ssvi.log_det(jac)

    def test_inverse_trace_weight_matches_dense(self, spec3, rand_params):
        rng = np.random.default_rng(4)
        for x in rng.normal(0.0, 1.5, size=(20, 3)):
            jac = jacobian(rand_params, spec3, x)
            Jinv = np.linalg.inv(jac.dense())
            for idx in rng.choice(spec3.p, 10, replace=False):
                bid = spec3.id_of(idx)
                c = 0 if bid.cls == "M0" else bid.i
                dd, dr = spec3.basis_partials(bid, x)
                D = np.zeros((3, 3))
                D[c, c] = dd
                if c != 0:
                    D[c, 0] = dr
                ref = np.trace(Jinv @ D)
                got = ssvi.inverse_trace_weight(jac, (dd, dr), c)
                assert np.isclose(got, ref, atol=1e-10)


class TestDensities:
    def test_affine_root_marginal(self, spec3):
        # v-shift only: T_1 = alpha_1 x + v_1, marginal N(v_1, alpha_1^2)
        params = ssvi.identity_params(spec3, alpha=np.array([0.8, 1.0, 1.0]))
        params.v[0] = 0.3
        z = np.linspace(-2, 2, 9)
        got = ssvi.root_marginal_logdensity(params, spec3, z)
        expect = norm.logpdf(z, loc=0.3, scale=0.8)
        assert np.allclose(got, expect, atol=1e-9)

    def test_invert_root_roundtrip(self, spec3, rand_params):
        x = np.linspace(-3, 3, 31)
        X = np.zeros((31, 3))
        X[:, 0] = x
        z = ssvi.map_eval(rand_params, spec3, X)[:, 0]
        back = ssvi.invert_root(rand_params, spec3, z)
        assert np.allclose(back, x, atol=1e-9)

    def test_invert_1d_roundtrip(self, spec3):
        # knots, both tails, and inside cells 2 and 5, where mu_k = 0
        mu = np.random.default_rng(3).uniform(0.0, 0.3, spec3.N)
        mu[[2, 5]] = 0.0
        a, const = 0.9, 0.3
        knots = np.append(spec3.breakpoints, spec3.R)
        x = np.concatenate([knots, [-9.0, -2.5, 2.5, 9.0],
                            knots[[2, 5]] + 0.3 * spec3.delta])
        z = _map_1d(spec3, a, mu, const, x)[0]
        back, slope = _invert_1d(spec3, a, mu, const, z)
        assert np.allclose(back, x, rtol=0.0, atol=1e-14)
        assert np.allclose(_map_1d(spec3, a, mu, const, back)[0], z,
                           rtol=0.0, atol=1e-14)
        # a knot in [−R, R) takes the slope of the cell on its right
        assert np.array_equal(slope[:spec3.N], a + mu / spec3.delta)

    def test_invert_1d_slope_matches_map(self, spec3):
        rng = np.random.default_rng(4)
        mu = rng.uniform(0.0, 0.3, spec3.N)
        x = rng.uniform(-3.0, 3.0, 500)
        z, expect = _map_1d(spec3, 1.1, mu, -0.2, x)
        assert np.allclose(_invert_1d(spec3, 1.1, mu, -0.2, z)[1], expect,
                           rtol=1e-15, atol=0.0)

    def test_leaf_conditional_normalizes(self, spec3, rand_params):
        # numeric integrals of exp(log q_i(z|z1)) and exp(log p*(z)) over z
        # equal 1 (the root map is non-affine under rand_params)
        z1 = 0.4
        zs = np.linspace(-12, 12, 4001)
        logq = ssvi.leaf_conditional_logdensity(rand_params, spec3, 1,
                                                zs, z1)
        mass = np.trapezoid(np.exp(logq), zs)
        assert np.isclose(mass, 1.0, atol=1e-3)
        logp = ssvi.root_marginal_logdensity(rand_params, spec3, zs)
        assert np.isclose(np.trapezoid(np.exp(logp), zs), 1.0, atol=1e-3)

    # in the box, below −R (M4), the half-open edge at R and above R (M3)
    @pytest.mark.parametrize("x1", [0.7, -2.3, 2.0, 2.5])
    def test_leaf_profile_reconstructs_map(self, spec3, rand_params, x1):
        mu, const = leaf_profile(rand_params, spec3, 2, x1)
        xi = np.linspace(-3, 3, 21)
        X = np.zeros((21, 3))
        X[:, 0] = x1
        X[:, 2] = xi
        expect = ssvi.map_eval(rand_params, spec3, X)[:, 2]
        got = _map_1d(spec3, rand_params.alpha[2], mu, const, xi)[0]
        assert np.allclose(got, expect, atol=1e-12)


class TestOracleApproximator:
    def test_reproduces_affine_map_in_box(self):
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        tmap = ssvi.closed_form_star_map(np.zeros(2), cov)
        spec = ssvi.build_dictionary(2, 2.0, 0.5)
        alpha = np.array([tmap.root_scale, tmap.leaf_scale[0]])
        params = ssvi.build_oracle_approximator(tmap, spec, alpha)
        rng = np.random.default_rng(5)
        X = rng.uniform(-1.9, 1.9, size=(500, 2))
        assert np.allclose(ssvi.map_eval(params, spec, X), tmap(X),
                           atol=1e-10)

    def test_nonnegative_on_constrained_classes(self):
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        tmap = ssvi.closed_form_star_map(np.zeros(2), cov)
        spec = ssvi.build_dictionary(2, 2.0, 0.5)
        alpha = np.array([tmap.root_scale, tmap.leaf_scale[0]])
        params = ssvi.build_oracle_approximator(tmap, spec, alpha)
        assert params.lam[spec.constrained].min() >= 0.0

    def test_rejects_nonmonotone_map(self):
        spec = ssvi.build_dictionary(2, 2.0, 1.0)

        class Shrinking:
            def t1(self, x):
                return -0.5 * np.asarray(x)

            def ti(self, i, xi, x1):
                return np.asarray(xi) + 0.0 * np.asarray(x1)

        with pytest.raises(ssvi.MonotonicityError):
            ssvi.build_oracle_approximator(Shrinking(), spec,
                                           np.array([1.0, 1.0]))


class TestSerialization:
    def test_json_roundtrip(self, spec3, rand_params):
        blob = json.dumps(ssvi.params_to_json(rand_params, spec3))
        params, spec = ssvi.params_from_json(blob)
        assert np.array_equal(params.lam, rand_params.lam)
        assert np.array_equal(params.v, rand_params.v)
        assert spec.p == spec3.p

    def test_ordering_version_checked(self, spec3, rand_params):
        block = ssvi.params_to_json(rand_params, spec3)
        block["dict"]["ordering_version"] = "other-v9"
        with pytest.raises(ValueError, match="ordering_version"):
            ssvi.params_from_json(block)

    def test_size_mismatch_rejected(self, spec3, rand_params):
        for key in ("lambda", "v", "alpha"):
            block = ssvi.params_to_json(rand_params, spec3)
            block[key] = block[key][:-1]
            with pytest.raises(ValueError, match="sizes"):
                ssvi.params_from_json(block)


    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("key", ["alpha", "lambda", "v"])
    def test_nonfinite_rejected(self, spec3, rand_params, key, value):
        block = ssvi.params_to_json(rand_params, spec3)
        block[key][-1] = value  # for lambda, a free M5 entry
        with pytest.raises(ValueError):
            ssvi.params_from_json(json.dumps(block))

    @pytest.mark.parametrize("where", ["root", "leaf-M1", "leaf-M4"])
    def test_nonincreasing_map_rejected(self, spec3, where):
        N = spec3.N
        table = spec3.leaf_index[1][:-N]  # leaf 2's M1–M4 table, by row
        lam = np.zeros(spec3.p)
        lam[{"root": 0, "leaf-M1": table[0], "leaf-M4": table[-1]}[where]] \
            = -spec3.delta  # slope α + λ/δ = 0 on one cell
        params = ssvi.StarMapParams(np.ones(3), lam, np.zeros(3))
        with pytest.raises(ValueError, match="not increasing"):
            ssvi.params_from_json(ssvi.params_to_json(params, spec3))

    def test_projection_rounding_accepted(self, spec3):
        # the projection leaves constrained λ ≥ −1e-14; M5 slopes are in x₁
        lam = np.where(spec3.constrained, -1e-14, -50.0)
        params = ssvi.StarMapParams(np.full(3, 0.1), lam, np.zeros(3))
        loaded, _ = ssvi.params_from_json(ssvi.params_to_json(params, spec3))
        assert np.array_equal(loaded.lam, lam)


class TestParamsValidation:
    def test_rejects_nonpositive_alpha(self, spec3):
        with pytest.raises(ValueError):
            ssvi.StarMapParams(np.array([1.0, 0.0, 1.0]),
                               np.zeros(spec3.p), np.zeros(3))

    def test_rejects_nan_alpha(self, spec3):
        with pytest.raises(ValueError, match="positive"):
            ssvi.StarMapParams(np.array([np.nan, 1.0, 1.0]),
                               np.zeros(spec3.p), np.zeros(3))
