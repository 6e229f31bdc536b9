import numpy as np
import pytest

import ssvi
from ssvi.gaussian_oracle import GaussianDist


def random_spd(rng, d, jitter=0.5):
    A = rng.normal(size=(d, d))
    S = A @ A.T + jitter * d * np.eye(d)
    Dh = np.diag(1.0 / np.sqrt(np.diag(S)))
    return Dh @ S @ Dh


class TestSsviGaussian:
    def test_covariance_formula(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            d = rng.integers(3, 11)
            cov = random_spd(rng, d)
            star = ssvi.ssvi_gaussian(np.zeros(d), cov).cov
            P = np.linalg.inv(cov)
            assert np.allclose(star[0], cov[0], atol=1e-12)
            for i in range(1, d):
                assert np.isclose(star[i, i],
                                  1.0 / P[i, i] + cov[0, i] ** 2 / cov[0, 0],
                                  atol=1e-10)
                for j in range(1, d):
                    if i != j:
                        assert np.isclose(star[i, j],
                                          cov[0, i] * cov[0, j] / cov[0, 0],
                                          atol=1e-10)

    @pytest.mark.parametrize("d", [2, 5, 10])
    def test_matches_the_entrywise_loop_bit_for_bit(self, d):
        from ssvi.gaussian_oracle import _precision, _validate_spd
        cov = random_spd(np.random.default_rng(d), d)
        cov[0, 1] = cov[1, 0] = 0.0  # zero times a negative gives −0.0
        cov = _validate_spd(cov)
        P = _precision(cov)
        loop = cov.copy()
        for i in range(1, d):
            for j in range(1, d):
                if i == j:
                    loop[i, i] = 1.0 / P[i, i] + cov[0, i] ** 2 / cov[0, 0]
                else:
                    loop[i, j] = cov[0, i] * cov[0, j] / cov[0, 0]
        star = ssvi.ssvi_gaussian(np.zeros(d), cov).cov
        expect = _validate_spd(loop)
        assert np.array_equal(star, expect)
        assert np.array_equal(np.signbit(star), np.signbit(expect))

    def test_exact_for_d2(self):
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        star = ssvi.ssvi_gaussian(np.zeros(2), cov)
        assert np.allclose(star.cov, cov, atol=1e-12)

    def test_min_eig_reported(self):
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        star = ssvi.ssvi_gaussian(np.zeros(2), cov)
        assert np.isclose(star.min_eig, 0.5)

    def test_rejects_bad_covariance(self):
        with pytest.raises(ValueError):
            ssvi.ssvi_gaussian(np.zeros(2), [[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError):
            ssvi.ssvi_gaussian(np.zeros(2), [[1.0, 0.5], [0.4, 1.0]])


class TestMfvi:
    def test_diagonal_of_inverse_precision(self):
        rng = np.random.default_rng(1)
        cov = random_spd(rng, 4)
        bar = ssvi.mfvi_gaussian(np.zeros(4), cov)
        P = np.linalg.inv(cov)
        assert np.allclose(bar.cov, np.diag(1.0 / np.diag(P)), atol=1e-12)


class TestKl:
    def test_zero_on_identical(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        p = GaussianDist(np.zeros(2), cov)
        assert abs(ssvi.kl_gaussians(p, p)) < 1e-14

    def test_univariate_closed_form(self):
        p0 = GaussianDist(np.array([1.0]), np.array([[2.0]]))
        p1 = GaussianDist(np.array([0.0]), np.array([[1.0]]))
        expect = 0.5 * (np.log(0.5) + 2.0 - 1.0 + 1.0)
        assert np.isclose(ssvi.kl_gaussians(p0, p1), expect)

    @pytest.mark.parametrize("first", [True, False])
    def test_rejects_an_asymmetric_covariance(self, first):
        bad = GaussianDist(np.zeros(2), np.array([[1.0, 0.5], [0.3, 1.0]]))
        ok = GaussianDist(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="symmetric"):
            ssvi.kl_gaussians(*((bad, ok) if first else (ok, bad)))

    @pytest.mark.parametrize("first", [True, False])
    def test_rejects_a_covariance_not_positive_definite(self, first):
        bad = GaussianDist(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
        ok = GaussianDist(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="positive definite"):
            ssvi.kl_gaussians(*((bad, ok) if first else (ok, bad)))

    @pytest.mark.parametrize("first", [True, False])
    def test_rejects_a_mean_of_the_wrong_length(self, first):
        bad = GaussianDist(np.zeros(3), np.eye(2))
        ok = GaussianDist(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="mean must be a finite vector"):
            ssvi.kl_gaussians(*((bad, ok) if first else (ok, bad)))

    def test_gap_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = rng.integers(2, 11)
            cov = random_spd(rng, d)
            exact = GaussianDist(np.zeros(d), cov)
            kl_s = ssvi.kl_gaussians(ssvi.ssvi_gaussian(np.zeros(d), cov),
                                     exact)
            kl_m = ssvi.kl_gaussians(ssvi.mfvi_gaussian(np.zeros(d), cov),
                                     exact)
            gap = ssvi.ssvi_mfvi_gap(cov)
            assert abs(gap - (kl_s - kl_m)) < 1e-9

    def test_gap_hand_value_rho_half(self):
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert np.isclose(ssvi.ssvi_mfvi_gap(cov), 0.5 * np.log(0.75),
                          atol=1e-10)

    def test_gap_zero_for_diagonal(self):
        assert np.isclose(ssvi.ssvi_mfvi_gap(np.diag([1.0, 2.0, 3.0])), 0.0,
                          atol=1e-14)


class TestClosedFormMap:
    def test_pushforward_is_star_covariance(self):
        rng = np.random.default_rng(3)
        cov = random_spd(rng, 4)
        tmap = ssvi.closed_form_star_map(np.zeros(4), cov)
        X = rng.standard_normal((400000, 4))
        Z = tmap(X)
        star = ssvi.ssvi_gaussian(np.zeros(4), cov).cov
        assert np.allclose(np.cov(Z, rowvar=False), star, atol=0.02)

    def test_components_match_batch(self):
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        tmap = ssvi.closed_form_star_map(np.array([0.2, -0.1]), cov)
        X = np.array([[0.5, -1.0], [1.5, 2.0]])
        Z = tmap(X)
        assert np.allclose(Z[:, 0], tmap.t1(X[:, 0]))
        assert np.allclose(Z[:, 1], tmap.ti(1, X[:, 1], X[:, 0]))

    def test_batch_is_the_outer_product_formula_bit_for_bit(self):
        cov = random_spd(np.random.default_rng(4), 5)
        tmap = ssvi.closed_form_star_map(np.arange(5.0), cov)
        X = np.random.default_rng(5).standard_normal((50, 5))
        want = (tmap.mean[1:] + np.outer(X[:, 0], tmap.leaf_root)
                + X[:, 1:] * tmap.leaf_scale)
        assert np.array_equal(tmap(X)[:, 1:], want)

    @pytest.mark.parametrize("i", [0, 3, -1])
    def test_leaf_index_out_of_range(self, i):
        # index 0 would read the last leaf through leaf_root[-1]
        tmap = ssvi.closed_form_star_map(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match="leaf index out of range"):
            tmap.ti(i, 1.0, 0.5)


class TestInputChecks:
    BUILDERS = [ssvi.ssvi_gaussian, ssvi.mfvi_gaussian,
                ssvi.closed_form_star_map, ssvi.GaussianTarget]

    @pytest.mark.parametrize("build", BUILDERS)
    @pytest.mark.parametrize("mean", [
        [0.0, 0.0, 0.0], [[0.0, 0.0]], [0.0, np.nan], [np.inf, 0.0]])
    def test_refuses_a_bad_mean(self, build, mean):
        with pytest.raises(ValueError, match="mean must be a finite vector"):
            build(mean, np.eye(2))

    @pytest.mark.parametrize("build", BUILDERS)
    def test_refuses_a_non_finite_covariance(self, build):
        with pytest.raises(ValueError, match="finite"):
            build(np.zeros(2), [[1.0, np.nan], [np.nan, 1.0]])
