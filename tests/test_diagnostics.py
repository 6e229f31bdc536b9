import dataclasses

import numpy as np
import pytest

import ssvi
from ssvi.diagnostics import (DiagnosticsError, _conditional_sample,
                              check_residual_settings)
from ssvi.gaussian_oracle import ssvi_gaussian
from ssvi.starmap import _map_1d, leaf_profile

# a Monte Carlo std error needs an integer of at least two draws
BAD_MC_N = (0, 1, 2.5, True)


def richardson(f, z, h=1e-4):
    """Central-difference derivative with one Richardson level."""
    d1 = (f(z + h) - f(z - h)) / (2.0 * h)
    d2 = (f(z + h / 2) - f(z - h / 2)) / h
    return (4.0 * d2 - d1) / 3.0


def reference_sample(params, spec, z1, rng, mc_n, skip=None):
    """The fitted measure given Z₁ = z₁, one leaf at a time: fresh normals
    through each leaf's effective 1-D map (``leaf_profile``) at the scalar
    root inverse.  ``skip`` leaves one column NaN and draws nothing for
    it."""
    x1 = ssvi.invert_root(params, spec, float(z1))
    Z = np.full((mc_n, spec.d), np.nan)
    Z[:, 0] = z1
    for i in range(1, spec.d):
        if i != skip:
            mu, const = leaf_profile(params, spec, i, x1)
            Z[:, i] = _map_1d(spec, params.alpha[i], mu, const,
                              rng.standard_normal(mc_n))[0]
    return Z


def reference_residuals(params, spec, target, rep, mc_n, seed):
    """Residuals at ``rep``'s grid points from finite-difference scores of
    the pushforward log-densities, on the same Monte Carlo draws."""
    root = []
    for gi, z1 in enumerate(rep.root_grid):
        Z = reference_sample(params, spec, z1,
                             np.random.default_rng([seed, gi]), mc_n)
        root.append(richardson(
            lambda z: ssvi.root_marginal_logdensity(params, spec, z), z1)
            + target.grad(Z)[:, 0].mean())
    leaves = []
    for i, pts in enumerate(rep.leaf_grids, start=1):
        res = []
        for gi, (z1, zi) in enumerate(pts):
            Z = reference_sample(params, spec, z1,
                                 np.random.default_rng([seed, i, gi]),
                                 mc_n, skip=i)
            Z[:, i] = zi
            res.append(richardson(
                lambda z: ssvi.leaf_conditional_logdensity(params, spec, i,
                                                           z, z1), zi)
                + target.grad(Z)[:, i].mean())
        leaves.append(np.array(res))
    return np.array(root), leaves


@pytest.fixture(scope="module")
def oracle_fit3(gauss3_target):
    """Oracle-approximated minimizer of the d=3 Gaussian target."""
    tmap = ssvi.closed_form_star_map(gauss3_target.mean, gauss3_target.cov)
    spec = ssvi.build_dictionary(3, 4.0, 0.25)
    alpha = np.concatenate(([tmap.root_scale], tmap.leaf_scale))
    return spec, ssvi.build_oracle_approximator(tmap, spec, alpha)


class TestSelfConsistency:
    def test_minimizer_residuals_statistically_zero(self, gauss3_target,
                                                    oracle_fit3):
        spec, params = oracle_fit3
        rep = ssvi.self_consistency_residual(params, spec, gauss3_target,
                                             grid_sizes=(7, 5), mc_n=2000,
                                             seed=0)
        assert np.all(np.abs(rep.root_residual)
                      <= 5 * rep.root_std_error)
        for res, se in zip(rep.leaf_residuals, rep.leaf_std_errors):
            assert np.all(np.abs(res) <= 5 * se)
        assert np.isfinite(rep.worst_normalized)

    def test_scores_match_finite_differences(self, gauss3_target,
                                             oracle_fit3):
        spec, params = oracle_fit3
        rep = ssvi.self_consistency_residual(params, spec, gauss3_target,
                                             grid_sizes=(7, 5), mc_n=500,
                                             seed=0)
        root, leaves = reference_residuals(params, spec, gauss3_target, rep,
                                           500, 0)
        assert np.allclose(rep.root_residual, root, rtol=0.0, atol=1e-6)
        for got, expect in zip(rep.leaf_residuals, leaves, strict=True):
            assert np.allclose(got, expect, rtol=0.0, atol=1e-6)

    def test_identity_map_rejected(self, gauss3_target, oracle_fit3):
        spec, _ = oracle_fit3
        params = ssvi.identity_params(spec)
        rep = ssvi.self_consistency_residual(params, spec, gauss3_target,
                                             grid_sizes=(7, 5), mc_n=2000,
                                             seed=0)
        sigmas = np.abs(rep.root_residual) / rep.root_std_error
        for res, se in zip(rep.leaf_residuals, rep.leaf_std_errors):
            sigmas = np.concatenate([sigmas, np.abs(res) / se])
        assert sigmas.max() > 10.0

    def test_product_target_identity_params(self):
        spec = ssvi.build_dictionary(2, 4.0, 0.5)
        target = ssvi.GaussianTarget(np.zeros(2), np.eye(2))
        params = ssvi.identity_params(spec)
        rep = ssvi.self_consistency_residual(params, spec, target,
                                             grid_sizes=(5, 5), mc_n=500,
                                             seed=0)
        assert rep.worst_normalized < 1e-6

    @pytest.mark.parametrize("d", [2, 4, 10])
    @pytest.mark.parametrize("skip", [None, 1])
    def test_conditional_sample_matches_the_per_leaf_maps(self, d, skip):
        rng = np.random.default_rng(d)
        spec = ssvi.build_dictionary(d, 2.0, 0.5)
        lam = rng.uniform(0.0, 0.3, spec.p)
        free = ~spec.constrained
        lam[free] = rng.normal(0.0, 0.1, free.sum())
        params = ssvi.StarMapParams(rng.uniform(0.8, 1.2, d), lam,
                                    rng.normal(0.0, 0.3, d))
        for z1 in (-6.0, -0.4, 0.0, 1.7, 6.0):  # both tails and the box
            x1 = ssvi.invert_root(params, spec, z1)
            got = _conditional_sample(params, spec, z1, x1,
                                      np.random.default_rng(7), 300, skip)
            want = reference_sample(params, spec, z1,
                                    np.random.default_rng(7), 300, skip)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_small_mc_rejected(self, gauss3_target, oracle_fit3):
        spec, params = oracle_fit3
        with pytest.raises(DiagnosticsError, match="mc_n"):
            ssvi.self_consistency_residual(params, spec, gauss3_target,
                                           mc_n=50)

    @pytest.mark.parametrize("grid_sizes, mc_n", [
        (0, 100), ([3, 0], 100), ([3], 100), ([3, 3, 3], 100), (2.5, 100),
        ("abc", 100), (None, 100), (3, 50), (3, 100.5), (3, "abc"),
        (True, 100), ([3, True], 100)])
    def test_settings_rejected(self, grid_sizes, mc_n):
        with pytest.raises((DiagnosticsError, TypeError)):
            check_residual_settings(grid_sizes, mc_n)

    def test_settings_accepted(self):
        assert check_residual_settings(9, 100) == [9, 9]
        assert check_residual_settings((5, np.int64(3)), np.int64(2000)) \
            == [5, 3]

    def test_report_rows(self, gauss3_target, oracle_fit3):
        spec, params = oracle_fit3
        rep = ssvi.self_consistency_residual(params, spec, gauss3_target,
                                             grid_sizes=(5, 3), mc_n=200,
                                             seed=0)
        rows = rep.to_rows()
        assert rows[0][0] == "root"
        assert all(len(r) == 6 for r in rows)


class TestApproximationBound:
    def test_star_structured_target_zero_kl(self):
        cov = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.06],
                        [0.2, 0.06, 1.0]])
        cov[1, 2] = cov[2, 1] = cov[0, 1] * cov[0, 2] / cov[0, 0]
        target = ssvi.GaussianTarget(np.zeros(3), cov)
        consts = target.regularity_constants()
        cert = ssvi.approximation_bound(
            target, consts, mc_n=2000, seed=0,
            star=ssvi_gaussian(np.zeros(3), cov))
        assert abs(cert.kl_exact) < 1e-10
        assert cert.rhs >= 0.0
        assert cert.slack >= -5 * cert.std_error

    def test_bound_dominates_kl(self, gauss3_target):
        consts = gauss3_target.regularity_constants()
        cert = ssvi.approximation_bound(
            gauss3_target, consts, mc_n=20000, seed=1,
            star=ssvi_gaussian(gauss3_target.mean, gauss3_target.cov))
        assert cert.kl_exact <= cert.rhs + 5 * cert.std_error

    def test_unverified_when_root_domination_fails(self, gauss3_target,
                                                   oracle_fit3, monkeypatch):
        # the certificate is unverified before any sample is drawn: the
        # target's Hessian is never evaluated
        consts = dataclasses.replace(gauss3_target.regularity_constants(),
                                     ell_root=-1.0)
        spec, params = oracle_fit3

        def spy(z):
            raise AssertionError("hessian evaluated for unverified constants")

        monkeypatch.setattr(gauss3_target, "hessian", spy)
        for source in (dict(params=params, spec=spec),
                       dict(star=ssvi_gaussian(gauss3_target.mean,
                                               gauss3_target.cov))):
            cert = ssvi.approximation_bound(gauss3_target, consts, mc_n=500,
                                            seed=0, **source)
            assert not cert.assumptions_verified
            assert np.isnan(cert.rhs) and np.isnan(cert.std_error)

    def test_arguments_checked_before_the_constants(self, gauss3_target,
                                                    oracle_fit3):
        consts = dataclasses.replace(gauss3_target.regularity_constants(),
                                     ell_root=-1.0)
        spec, params = oracle_fit3
        with pytest.raises(ValueError, match="spec required"):
            ssvi.approximation_bound(gauss3_target, consts, params=params)
        with pytest.raises(ValueError, match="need fitted params"):
            ssvi.approximation_bound(gauss3_target, consts)
        for source in (dict(params=params, spec=spec),
                       dict(star=ssvi_gaussian(gauss3_target.mean,
                                               gauss3_target.cov))):
            for mc_n in BAD_MC_N:
                with pytest.raises(DiagnosticsError, match="mc_n"):
                    ssvi.approximation_bound(gauss3_target, consts,
                                             mc_n=mc_n, **source)


@pytest.mark.parametrize("mc_n", BAD_MC_N)
def test_sampled_diagnostics_need_two_draws(oracle_fit3, mc_n):
    spec, params = oracle_fit3
    with pytest.raises(DiagnosticsError, match="mc_n"):
        ssvi.l2_map_distance(params, params, spec, mc_n=mc_n)
    with pytest.raises(DiagnosticsError, match="mc_n"):
        ssvi.pushforward_moments(params, spec, mc_n, 0)


class TestL2Distance:
    def test_identical_params_zero(self, oracle_fit3):
        spec, params = oracle_fit3
        d, se = ssvi.l2_map_distance(params, params, spec, mc_n=1000, seed=0)
        assert d == 0.0

    def test_shift_gives_norm(self, oracle_fit3):
        spec, params = oracle_fit3
        shifted = params.copy()
        c = np.array([0.3, -0.4, 0.5])
        shifted.v = shifted.v + c
        d, se = ssvi.l2_map_distance(params, shifted, spec, mc_n=2000,
                                     seed=0)
        assert np.isclose(d, np.linalg.norm(c), atol=1e-10)

    def test_accepts_external_map(self, gauss3_target, oracle_fit3):
        spec, params = oracle_fit3
        tmap = ssvi.closed_form_star_map(gauss3_target.mean,
                                        gauss3_target.cov)
        d, se = ssvi.l2_map_distance(params, tmap, spec, mc_n=20000, seed=0)
        assert d < 0.01  # interpolation of the exact map

    def test_triangle_inequality(self, oracle_fit3):
        spec, a = oracle_fit3
        rng = np.random.default_rng(5)
        b = a.copy()
        b.v = b.v + rng.normal(size=3) * 0.5
        c = a.copy()
        c.lam = np.where(spec.constrained, c.lam * 0.5, c.lam)
        dab, sab = ssvi.l2_map_distance(a, b, spec, 5000, 0)
        dbc, sbc = ssvi.l2_map_distance(b, c, spec, 5000, 0)
        dac, sac = ssvi.l2_map_distance(a, c, spec, 5000, 0)
        assert dac <= dab + dbc + 4 * (sab + sbc + sac)


class TestPushforwardMoments:
    def test_identity_standard_normal(self):
        spec = ssvi.build_dictionary(2, 2.0, 1.0)
        params = ssvi.identity_params(spec)
        mean, cov, mean_se, cov_se = ssvi.pushforward_moments(params, spec,
                                                             50000, 0)
        assert np.all(np.abs(mean) <= 4 * mean_se)
        assert np.all(np.abs(cov - np.eye(2)) <= 4 * cov_se)

    def test_oracle_map_matches_star_covariance(self, gauss3_target,
                                                oracle_fit3):
        spec, params = oracle_fit3
        mean, cov, mean_se, cov_se = ssvi.pushforward_moments(params, spec,
                                                             100000, 1)
        star = ssvi_gaussian(gauss3_target.mean, gauss3_target.cov).cov
        assert np.all(np.abs(cov - star) <= 4 * cov_se + 1e-3)

    def test_bit_reproducible(self, oracle_fit3):
        spec, params = oracle_fit3
        a = ssvi.pushforward_moments(params, spec, 2000, 7)
        b = ssvi.pushforward_moments(params, spec, 2000, 7)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("d, mc_n", [(2, 50000), (3, 20000), (10, 5000)])
    def test_cov_std_error_matches_product_array(self, d, mc_n):
        # Oracle: the std of the (mc_n, d, d) array of centred products.
        rng = np.random.default_rng(d)
        spec = ssvi.build_dictionary(d, 2.0, 1.0)
        lam = rng.uniform(0.0, 0.3, spec.p)
        free = ~spec.constrained
        lam[free] = rng.normal(0.0, 0.1, free.sum())
        params = ssvi.StarMapParams(rng.uniform(0.8, 1.2, d), lam,
                                    rng.normal(0.0, 0.3, d))
        X = np.random.default_rng(3).standard_normal((mc_n, d))
        c = ssvi.forward(params, spec, X).Z
        c = c - c.mean(axis=0)
        prods = c[:, :, None] * c[:, None, :]
        expected = prods.std(axis=0, ddof=1) / np.sqrt(mc_n)
        cov_se = ssvi.pushforward_moments(params, spec, mc_n, 3)[3]
        np.testing.assert_allclose(cov_se, expected, rtol=1e-12)
