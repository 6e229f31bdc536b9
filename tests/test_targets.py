import dataclasses
import re

import numpy as np
import pytest

import ssvi
from ssvi.dictionary import FieldTypeError
from ssvi.targets import (LOG_PARTITIONS, mixture_neglog,
                          mixture_neglog_deriv, mixture_neglog_deriv2)


# Oracle: the GLM targets with the data term D(β) = Σᵢ ψ(Xᵢᵀβ)/c − wᵀβ summed
# over the observations, for every family.  The targets take the linear
# family through the sufficient statistic XᵀX instead.

def per_obs_potential(t, z):
    z = np.asarray(z, dtype=float)
    if isinstance(t, ssvi.GlmLocationTarget):
        theta, beta = z[..., 0], z[..., 1:]
        data = (t.family.value(beta @ t.X.T).sum(axis=-1) / t.c
                - beta @ t.w)
        return (t.hyperprior.value(theta) + data
                + t.prior.value(beta - theta[..., None]).sum(axis=-1))
    u = z @ t.cvec
    data = t.family.value(z @ t.X.T).sum(axis=-1) / t.c - z @ t.w
    return (data + mixture_neglog(z[..., 1:], t.eta, t.tau0,
                                  t.tau1).sum(axis=-1)
            + 0.5 * t.tau2 * u * u)


def per_obs_grad(t, z):
    z = np.asarray(z, dtype=float)
    if isinstance(t, ssvi.GlmLocationTarget):
        theta, beta = z[..., 0], z[..., 1:]
        dprior = t.prior.deriv(beta - theta[..., None])
        g = np.empty(z.shape)
        g[..., 0] = t.hyperprior.deriv(theta) - dprior.sum(axis=-1)
        g[..., 1:] = (t.family.deriv(beta @ t.X.T) @ t.X / t.c - t.w
                      + dprior)
        return g
    u = z @ t.cvec
    g = (t.family.deriv(z @ t.X.T) @ t.X / t.c - t.w
         + t.tau2 * u[..., None] * t.cvec)
    g[..., 1:] += mixture_neglog_deriv(z[..., 1:], t.eta, t.tau0, t.tau1)
    return g


def per_obs_hessian(t, z):
    z = np.asarray(z, dtype=float)
    if isinstance(t, ssvi.GlmLocationTarget):
        theta, beta = z[..., 0], z[..., 1:]
        data = np.einsum("...n,ni,nj->...ij",
                         t.family.deriv2(beta @ t.X.T) / t.c, t.X, t.X)
        d2prior = t.prior.deriv2(beta - theta[..., None])
        H = np.zeros(z.shape[:-1] + (t.d, t.d))
        H[..., 0, 0] = t.hyperprior.deriv2(theta) + d2prior.sum(axis=-1)
        H[..., 0, 1:] = -d2prior
        H[..., 1:, 0] = -d2prior
        H[..., 1:, 1:] = data + np.einsum("...j,jk->...jk", d2prior,
                                          np.eye(t.k))
        return H
    data = np.einsum("...n,ni,nj->...ij",
                     t.family.deriv2(z @ t.X.T) / t.c, t.X, t.X)
    H = data + t.tau2 * np.outer(t.cvec, t.cvec)
    idx = np.arange(1, t.d)
    H[..., idx, idx] += mixture_neglog_deriv2(z[..., 1:], t.eta, t.tau0,
                                              t.tau1)
    return H


def fd_grad(f, z, h=1e-6):
    g = np.empty_like(z)
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (f(zp) - f(zm)) / (2 * h)
    return g


class TestGaussianTarget:
    def test_potential_quadratic(self):
        cov = np.array([[2.0, 0.0], [0.0, 0.5]])
        t = ssvi.GaussianTarget([1.0, -1.0], cov)
        z = np.array([3.0, 0.0])
        expect = 0.5 * (2.0 ** 2 / 2.0 + 1.0 / 0.5)
        assert np.isclose(t.potential(z), expect)

    def test_grad_hessian_consistent(self, gauss3_target):
        rng = np.random.default_rng(0)
        Z = rng.normal(size=(5, 3))
        for z in Z:
            g = fd_grad(gauss3_target.potential, z)
            assert np.allclose(gauss3_target.grad(z), g, atol=1e-6)
        H = gauss3_target.hessian(Z)
        assert H.shape == (5, 3, 3)
        assert np.allclose(H[0], gauss3_target.precision)

    def test_batched_evaluation(self, gauss3_target):
        Z = np.random.default_rng(1).normal(size=(7, 3))
        vals = gauss3_target.potential(Z)
        assert vals.shape == (7,)
        assert np.isclose(vals[2], gauss3_target.potential(Z[2]))

    @pytest.mark.parametrize("shape", [(3,), (50, 3), (4, 6, 3)])
    def test_potential_matches_the_three_operand_form(self, gauss3_target,
                                                       shape):
        z = np.random.default_rng(3).normal(size=shape)
        diff = z - gauss3_target.mean
        want = 0.5 * np.einsum("...i,ij,...j->...", diff,
                               gauss3_target.precision, diff)
        got = gauss3_target.potential(z)
        assert got.shape == shape[:-1]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_rejects_non_spd(self):
        with pytest.raises(ValueError, match="positive definite"):
            ssvi.GaussianTarget([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("asym, ok", [(5e-11, True), (1e-9, False)])
    def test_same_verdict_as_the_oracle(self, asym, ok):
        # one covariance check: symmetric within 1e-10 entrywise
        cov = np.array([[1.0, 0.5], [0.5 + asym, 1.0]])
        builders = [ssvi.GaussianTarget, ssvi.ssvi_gaussian,
                    ssvi.mfvi_gaussian, ssvi.closed_form_star_map,
                    lambda m, c: ssvi.ssvi_mfvi_gap(c)]
        for build in builders:
            if ok:
                build(np.zeros(2), cov)
            else:
                with pytest.raises(ValueError, match="symmetric"):
                    build(np.zeros(2), cov)

    def test_dimension_mismatch(self, gauss3_target):
        with pytest.raises(ValueError, match="dimension mismatch"):
            gauss3_target.potential(np.zeros(4))

    def test_regularity_constants(self, gauss3_target):
        c = gauss3_target.regularity_constants()
        P = gauss3_target.precision
        eigs = np.linalg.eigvalsh(P[1:, 1:])
        assert np.isclose(c.ell, eigs.min())
        assert np.isclose(c.L, eigs.max())
        assert np.isclose(c.ell_root,
                          P[0, 0] - P[0, 1:] @ P[0, 1:] / eigs.min())
        assert np.isclose(c.L_root, 2.0 * P[0, 0])
        assert not c.warnings

    def test_spike_vector(self, gauss3_target):
        c = gauss3_target.regularity_constants()
        alpha = c.spike(3)
        assert np.isclose(alpha[0], 1.0 / np.sqrt(c.L_root))
        assert np.allclose(alpha[1:], 1.0 / np.sqrt(c.L))


class TestRegularityConstants:
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    @pytest.mark.parametrize("field", ["L", "L_root"])
    def test_upper_bounds_checked_at_construction(self, field, bad):
        kwargs = dict(ell=0.5, L=2.0, ell_root=0.5, L_root=4.0)
        kwargs[field] = bad
        with pytest.raises(ValueError, match="^curvature upper bounds L = "
                           ".* must be positive and finite$"):
            ssvi.RegularityConstants(**kwargs)

    def test_fields_are_floats(self):
        c = ssvi.RegularityConstants(1, np.float64(2.0), np.int64(1), 4)
        assert all(type(getattr(c, f)) is float
                   for f in ("ell", "L", "ell_root", "L_root"))
        assert c == ssvi.RegularityConstants(1.0, 2.0, 1.0, 4.0)

    @pytest.mark.parametrize("ell, ell_root, expect", [
        (0.5, 0.5, ()),
        (0.0, 0.5, ("leaf curvature lower bound nonpositive",)),
        (np.inf, 0.5, ("leaf curvature lower bound nonpositive",)),
        (0.5, -np.inf, ("root domination violated (ell_root <= 0)",)),
        (np.nan, np.nan, ("leaf curvature lower bound nonpositive",
                          "root domination violated (ell_root <= 0)")),
    ])
    def test_warnings_derived_from_the_lower_bounds(self, ell, ell_root,
                                                    expect):
        assert ssvi.RegularityConstants(ell, 2.0, ell_root, 4.0).warnings \
            == expect

    def test_replace_recomputes_warnings(self, gauss3_target):
        c = gauss3_target.regularity_constants()
        assert c.warnings == ()
        bad = dataclasses.replace(c, ell_root=-1.0)
        assert bad.warnings == ("root domination violated (ell_root <= 0)",)
        assert dataclasses.replace(bad, ell_root=c.ell_root) == c
        with pytest.raises(ValueError, match="must be positive and finite"):
            dataclasses.replace(c, L=np.nan)

    def test_warnings_are_not_an_argument(self):
        with pytest.raises(TypeError):
            ssvi.RegularityConstants(0.5, 2.0, 0.5, 4.0, ())


@pytest.fixture(scope="module")
def glm_target():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(40, 3))
    y = X @ rng.normal(size=3) + rng.normal(size=40)
    return ssvi.GlmLocationTarget(X, y, family="linear")


@pytest.fixture(scope="module")
def spikeslab_target():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(60, 3))
    y = X @ np.array([0.5, 0.0, -0.3]) + rng.normal(size=60)
    return ssvi.SpikeSlabGlmTarget(X, y, family="linear", eta=0.2,
                                   tau0=5.0, tau1=1.0)


class TestGlmLocationTarget:
    def test_dimension_is_k_plus_one(self, glm_target):
        assert glm_target.d == 4

    def test_grad_matches_fd(self, glm_target):
        rng = np.random.default_rng(3)
        for z in rng.normal(size=(5, 4)):
            assert np.allclose(glm_target.grad(z), fd_grad(glm_target.potential, z),
                               atol=1e-5)

    def test_hessian_matches_fd(self, glm_target):
        z = np.array([0.3, -0.2, 0.5, 0.1])
        H = glm_target.hessian(z)
        for i in range(4):
            Hfd = fd_grad(lambda w: glm_target.grad(w)[i], z)
            assert np.allclose(H[i], Hfd, atol=1e-5)

    def test_linear_constants(self, glm_target):
        c = glm_target.regularity_constants()
        eigs = np.linalg.eigvalsh(glm_target.A)
        assert np.isclose(c.ell, eigs.min() + 1.0)
        assert np.isclose(c.L, eigs.max() + 1.0)
        # root curvature: hyperprior + k*prior, minus the interaction term
        assert np.isclose(c.ell_root, 1.0 + 3.0 - 3.0 / (eigs.min() + 1.0))
        assert np.isclose(c.L_root, 2.0 * (1.0 + 3.0))

    def test_logistic_requires_psi_lower(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 2))
        y = (rng.uniform(size=30) < 0.5).astype(float)
        t = ssvi.GlmLocationTarget(X, y, family="logistic")
        with pytest.raises(ValueError, match="^log_partition 'logistic' .*"
                           "give psi_lower or pass a RegularityConstants "
                           "as consts$"):
            t.regularity_constants()
        t2 = ssvi.GlmLocationTarget(X, y, family="logistic", psi_lower=0.05)
        c = t2.regularity_constants()
        assert np.isfinite(c.ell)

    def test_poisson_requires_overrides(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 2)) * 0.1
        y = rng.poisson(1.0, 30).astype(float)
        t = ssvi.GlmLocationTarget(X, y, family="poisson")
        with pytest.raises(ValueError, match="^log_partition 'poisson' .*; "
                           "pass a RegularityConstants as consts$"):
            t.regularity_constants()
        # constants the family cannot derive reach a fit and the
        # certificate as consts, built as the README builds them
        consts = ssvi.RegularityConstants(ell=0.5, L=2.0, ell_root=0.5,
                                          L_root=4.0)
        spec = ssvi.build_dictionary(t.d, 2.0, 1.0)
        res = ssvi.run_pgd(t, spec, ssvi.gram_matrix(spec),
                           ssvi.PgdConfig(step_size=0.1, max_iters=3,
                                          n_samples=500, seed=0),
                           consts=consts)
        assert np.array_equal(res.params.alpha, consts.spike(t.d))
        assert res.iterations == 3
        assert np.isfinite(res.free_energy_trace).all()
        cert = ssvi.approximation_bound(t, consts, mc_n=500, seed=0,
                                        params=res.params, spec=spec)
        assert cert.assumptions_verified
        assert np.isfinite(cert.rhs) and cert.rhs >= 0.0

    def test_log_partition_is_a_name(self):
        X, y = np.eye(2), np.ones(2)
        with pytest.raises(FieldTypeError, match="^log_partition: must be "
                           "one of"):
            ssvi.GlmLocationTarget(X, y, family=LOG_PARTITIONS["linear"])

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_hessian_adds_the_prior_diagonal_by_index(self, family):
        # the prior's diagonal added in place equals the (…, k, k) einsum
        # form it replaced, entry for entry
        t = _random_glm("location", family, 4)
        z = np.random.default_rng(5).normal(size=(3, 7, t.d))
        theta, beta = z[..., 0], z[..., 1:]
        d2prior = t.prior.deriv2(beta - theta[..., None])
        want = t._data_hessian(beta) + np.einsum("...j,jk->...jk", d2prior,
                                                 np.eye(t.k))
        assert np.array_equal(t.hessian(z)[..., 1:, 1:], want)

    def test_logistic_uses_stable_log_partition(self):
        psi = LOG_PARTITIONS["logistic"]
        assert np.isfinite(psi.value(800.0))
        assert np.isclose(psi.value(800.0), 800.0)


class TestMixture:
    def test_bound_hand_value(self):
        # eta=1/2, tau0=2, tau1=1: 1 - 2*(4-1)*log(1 + 2/e)
        expect = 1.0 - 6.0 * np.log(1.0 + 2.0 / np.e)
        assert np.isclose(ssvi.mixture_log_concavity_bound(0.5, 2.0, 1.0),
                          expect)
        assert np.isclose(expect, -2.3087, atol=1e-4)

    def test_bound_degenerate_cases(self):
        assert ssvi.mixture_log_concavity_bound(0.0, 2.0, 1.0) == 1.0
        assert ssvi.mixture_log_concavity_bound(1.0, 2.0, 1.0) == 4.0

    def test_bound_holds_on_grid(self):
        x = np.linspace(-10.0, 10.0, 4001)
        rng = np.random.default_rng(9)
        for _ in range(10):
            eta = rng.uniform(0.05, 0.95)
            tau1 = rng.uniform(0.3, 2.0)
            tau0 = tau1 * rng.uniform(1.2, 6.0)
            bound = ssvi.mixture_log_concavity_bound(eta, tau0, tau1)
            assert mixture_neglog_deriv2(x, eta, tau0, tau1).min() \
                >= bound - 1e-9

    def test_derivatives_match_fd(self):
        x = np.linspace(-4.0, 4.0, 41)
        h = 1e-6
        args = (0.3, 3.0, 1.0)
        d1 = (mixture_neglog(x + h, *args) - mixture_neglog(x - h, *args)) \
            / (2 * h)
        assert np.allclose(mixture_neglog_deriv(x, *args), d1, atol=1e-6)
        d2 = (mixture_neglog_deriv(x + h, *args)
              - mixture_neglog_deriv(x - h, *args)) / (2 * h)
        assert np.allclose(mixture_neglog_deriv2(x, *args), d2, atol=1e-5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ssvi.mixture_log_concavity_bound(1.5, 2.0, 1.0)
        with pytest.raises(ValueError):
            ssvi.mixture_log_concavity_bound(0.5, 1.0, 2.0)


class TestSpikeSlabTarget:
    def test_grad_matches_fd(self, spikeslab_target):
        rng = np.random.default_rng(12)
        for z in rng.normal(size=(5, 3)) * 0.5:
            assert np.allclose(spikeslab_target.grad(z), fd_grad(spikeslab_target.potential, z),
                               atol=1e-5)

    def test_hessian_matches_fd(self, spikeslab_target):
        z = np.array([0.2, -0.1, 0.3])
        H = spikeslab_target.hessian(z)
        for i in range(3):
            Hfd = fd_grad(lambda w: spikeslab_target.grad(w)[i], z)
            assert np.allclose(H[i], Hfd, atol=1e-5)

    def test_constants_finite(self, spikeslab_target):
        c = spikeslab_target.regularity_constants()
        assert np.isfinite(c.ell) and c.ell > 0
        assert np.isfinite(c.L_root) and c.L_root > 0


class TestHelpers:
    def test_gaussian_ensemble_design_deterministic(self):
        cov = np.array([[1.0, 0.2], [0.2, 1.0]])
        a = ssvi.gaussian_ensemble_design(cov, 100, 7)
        b = ssvi.gaussian_ensemble_design(cov, 100, 7)
        assert np.array_equal(a, b)
        big = ssvi.gaussian_ensemble_design(cov, 200000, 7)
        assert np.allclose(np.cov(big, rowvar=False), cov, atol=0.02)

    @pytest.mark.parametrize("cov, match", [
        ([[1.0, 0.9], [0.0, 1.0]], "symmetric"),
        ([[1.0, np.nan], [np.nan, 1.0]], "finite"),
        ([[1.0, 0.0], [0.0, np.inf]], "finite")])
    def test_gaussian_ensemble_design_checks_the_covariance(self, cov, match):
        with pytest.raises(ValueError, match=match):
            ssvi.gaussian_ensemble_design(cov, 10, 0)

    def test_target_from_json_gaussian(self):
        t = ssvi.target_from_json({
            "family": "gaussian", "mean": [0.0, 0.0],
            "cov": [[1.0, 0.5], [0.5, 1.0]]})
        assert isinstance(t, ssvi.GaussianTarget)
        assert t.d == 2

    def test_target_from_json_unknown_family(self):
        with pytest.raises(ValueError, match="unknown target family"):
            ssvi.target_from_json({"family": "cauchy"})

    def test_load_design_csv(self, tmp_path):
        p = tmp_path / "design.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n")
        X = ssvi.load_design_csv(p)
        assert np.array_equal(X, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("text, header, match", [
        ("1.0,2.0\n3.0,4.0\n5.0\n", False,
         "line 3 has 1 values, expected 2"),
        ("x1,x2\n1.0,2.0\n3.0\n", True, "line 3 has 1 values, expected 2"),
        ("1.0,2.0\n\n3.0,4.0\n", False, "line 2 has 0 values, expected 2"),
        ("\n1.0,2.0\n", False, "line 1 has 0 values, expected at least 1"),
    ], ids=["ragged", "ragged-after-header", "blank", "blank-first"])
    def test_load_design_csv_names_the_bad_line(self, tmp_path, text, header,
                                                match):
        p = tmp_path / "design.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: {match}"):
            ssvi.load_design_csv(p, header=header)

    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize("family", ["glm_location", "spike_slab"])
    def test_target_from_json_design_csv(self, tmp_path, family, header):
        X = np.array([[1.0, 0.5], [-0.3, 2.0], [0.7, -1.1]])
        p = tmp_path / "design.csv"
        p.write_text(("x1,x2\n" if header else "")
                     + "".join(f"{a!r},{b!r}\n" for a, b in X.tolist()))
        block = {"family": family, "response": [1.0, -0.5, 0.25]}
        if family == "spike_slab":
            block.update(eta=0.5, tau0=2.0, tau1=1.0)
        inline = ssvi.target_from_json(dict(block, design=X.tolist()))
        block["design_csv"] = str(p)
        if header:
            block["design_csv_header"] = True
        t = ssvi.target_from_json(block)
        assert np.array_equal(t.X, X)
        z = np.random.default_rng(0).normal(size=(4, t.d))
        assert np.array_equal(t.potential(z), inline.potential(z))

    @pytest.mark.parametrize("family", ["glm_location", "spike_slab"])
    @pytest.mark.parametrize("extra", ["design_csv", "design_csv_header"])
    def test_target_from_json_rejects_two_designs(self, tmp_path, family,
                                                  extra):
        # the CSV path does not exist: it must not be silently ignored
        block = {"family": family, "design": [[1.0, 0.5], [-0.3, 2.0]],
                 "response": [1.0, -0.5],
                 extra: str(tmp_path / "no.csv") if extra == "design_csv"
                 else True}
        if family == "spike_slab":
            block.update(eta=0.5, tau0=2.0, tau1=1.0)
        with pytest.raises(ValueError, match=f"^{extra}: given with an "
                                             "inline design"):
            ssvi.target_from_json(block)

    def test_target_from_json_missing_design_csv(self, tmp_path):
        with pytest.raises(OSError):
            ssvi.target_from_json({
                "family": "glm_location", "response": [1.0],
                "design_csv": str(tmp_path / "missing.csv")})

    @pytest.mark.parametrize("block", [
        {"family": "gaussian", "mean": [0.0], "cov": [[1.0]], "eta": 0.5},
        {"family": "glm_location", "design": [[1.0]], "response": [1.0],
         "eta": 0.5},
        {"family": "spike_slab", "design": [[1.0, 0.0], [0.0, 1.0]],
         "response": [1.0, 0.0], "eta": 0.5, "tau0": 2.0, "tau1": 1.0,
         "debias_precison": 5.0},
    ], ids=["gaussian", "glm_location", "spike_slab"])
    def test_target_from_json_rejects_unread_keys(self, block):
        with pytest.raises(ValueError, match="unknown target keys"):
            ssvi.target_from_json(block)

    def test_target_from_json_unknown_log_partition(self):
        with pytest.raises(ValueError, match="unknown log_partition: poison"):
            ssvi.target_from_json({"family": "glm_location",
                                   "design": [[1.0]], "response": [1.0],
                                   "log_partition": "poison"})

    @pytest.mark.parametrize("prior", [
        {"type": "gaussian", "precison": 2.0},
        {"type": "gaussian", "scale": 2.0},
        {"type": "logistic", "scale": 2.0, "precision": 1.0},
    ])
    def test_prior_block_rejects_unknown_keys(self, prior):
        with pytest.raises(TypeError):
            ssvi.target_from_json({"family": "glm_location",
                                   "design": [[1.0]], "response": [1.0],
                                   "prior": prior})

    def test_prior_blocks(self):
        t = ssvi.target_from_json({
            "family": "glm_location", "design": [[1.0]], "response": [1.0],
            "prior": {"type": "logistic", "scale": 2.0},
            "hyperprior": {"precision": 3.0}})
        assert isinstance(t.prior, ssvi.LogisticPrior)
        assert t.prior.scale == 2.0 and t.hyperprior.tau2 == 3.0


def _random_glm(kind, family, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(200, 4)) * (0.3 if family == "poisson" else 1.0)
    if family == "linear":
        y = X @ rng.normal(size=4) + rng.normal(size=200)
    elif family == "logistic":
        y = (rng.uniform(size=200) < 0.5).astype(float)
    else:
        y = rng.poisson(1.0, 200).astype(float)
    if kind == "location":
        return ssvi.GlmLocationTarget(X, y, family=family, dispersion=1.7,
                                      prior=ssvi.LogisticPrior(0.8))
    return ssvi.SpikeSlabGlmTarget(X, y, family=family, dispersion=1.7,
                                   eta=0.3, tau0=4.0, tau1=1.0,
                                   debias_precision=0.6)


class TestGlmDataTermOracle:
    """Linear family through XᵀX against the per-observation formula."""

    ORACLES = {"potential": per_obs_potential, "grad": per_obs_grad,
               "hessian": per_obs_hessian}

    @pytest.mark.parametrize("kind", ["location", "spike_slab"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_linear_matches_per_observation(self, kind, seed):
        t = _random_glm(kind, "linear", seed)
        rng = np.random.default_rng(100 + seed)
        for z in (rng.normal(size=t.d), rng.normal(size=(50, t.d))):
            for name, oracle in self.ORACLES.items():
                got, want = getattr(t, name)(z), oracle(t, z)
                assert np.shape(got) == np.shape(want)
                np.testing.assert_allclose(
                    got, want, rtol=1e-12,
                    atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("kind", ["location", "spike_slab"])
    @pytest.mark.parametrize("family", ["logistic", "poisson"])
    def test_other_families_are_the_per_observation_formula(self, kind,
                                                            family):
        t = _random_glm(kind, family, 3)
        rng = np.random.default_rng(7)
        for z in (rng.normal(size=t.d), rng.normal(size=(50, t.d))):
            for name in ("potential", "grad"):
                assert np.array_equal(getattr(t, name)(z),
                                      self.ORACLES[name](t, z))
            # the data Hessian sums over observations in BLAS order
            want = per_obs_hessian(t, z)
            np.testing.assert_allclose(t.hessian(z), want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("kind", ["location", "spike_slab"])
    @pytest.mark.parametrize("family", ["logistic", "poisson"])
    def test_data_hessian_matches_einsum(self, kind, family):
        # batch shapes that cross the chunk boundary, and a single point
        t = _random_glm(kind, family, 4)
        rng = np.random.default_rng(8)
        k = t.X.shape[1]
        for shape in ((), (150,), (3, 70)):
            beta = 0.5 * rng.normal(size=shape + (k,))
            want = np.einsum("...n,ni,nj->...ij",
                             t.family.deriv2(beta @ t.X.T) / t.c, t.X, t.X)
            got = t._data_hessian(beta)
            assert got.shape == shape + (k, k)
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())
