"""Certificates and residuals for fitted star maps.

Three families of checks:
  * self-consistency residuals — the fixed-point identities the optimal
    star measure satisfies: ∂₁ log p*(z₁) = −E[∂₁V(Z) | Z₁ = z₁] for the
    root marginal and ∂ᵢ log qᵢ*(zᵢ|z₁) = −E[∂ᵢV(Z) | Z₁, Zᵢ] for each
    leaf conditional, with the scores in closed form (−x/T′(x) at the
    exact inverse of each piecewise-linear 1-D map);
  * an approximation-bound certificate — a Monte Carlo estimate of the
    right-hand side (L'_V/(2ℓ'_Vℓ_V²))·Σ_{1≤i<j leaf} Ê[(∂ᵢⱼV)²], with the
    exact KL and slack on the Gaussian path;
  * L²(ρ) map distances and pushforward moments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .gaussian_oracle import GaussianDist, kl_gaussians, ssvi_gaussian
from .starmap import (StarMapParams, _invert_1d, _root_1d, forward,
                      leaf_profile)


class DiagnosticsError(ValueError):
    pass


@dataclass
class ResidualReport:
    """Residuals of the self-consistency equations on a grid.

    ``root_grid``/``root_residual``/``root_std_error`` cover the root
    marginal equation; ``leaf_grids[i-1]`` is the (z₁, zᵢ) grid for leaf i
    with matching residual and std-error arrays.  ``worst_normalized`` is
    max |residual|/(1 + |E[∂V|·]|) over every grid point.
    """

    root_grid: np.ndarray
    root_residual: np.ndarray
    root_std_error: np.ndarray
    leaf_grids: list = field(default_factory=list)
    leaf_residuals: list = field(default_factory=list)
    leaf_std_errors: list = field(default_factory=list)
    worst_normalized: float = np.nan

    def to_rows(self):
        """Flat rows (equation, i, z1, zi, residual, std_error)."""
        rows = [("root", 0, float(z), np.nan, float(r), float(s))
                for z, r, s in zip(self.root_grid, self.root_residual,
                                   self.root_std_error)]
        for li, (g, r, s) in enumerate(zip(self.leaf_grids,
                                           self.leaf_residuals,
                                           self.leaf_std_errors)):
            rows += [("leaf", li + 1, float(z1), float(zi), float(rr),
                      float(ss))
                     for (z1, zi), rr, ss in zip(g, r, s)]
        return rows


@dataclass
class BoundCertificate:
    rhs: float
    std_error: float
    kl_exact: float | None = None
    slack: float | None = None
    assumptions_verified: bool = True

    def __post_init__(self):
        if self.assumptions_verified and self.rhs < 0:
            raise ValueError("bound right-hand side must be nonnegative")


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _conditional_sample(params, spec, z1, x1, rng, mc_n, skip=None):
    """Draw mc_n points from the fitted measure conditioned on Z₁ = z₁.

    Leaves are independent given the root, so the rows (x₁, ξ) go through
    the map, with x₁ = T₁⁻¹(z₁) and ξ fresh standard normals, drawn leaf
    by leaf.  ``skip`` omits one leaf column (left as NaN, no normals).
    """
    leaves = [i for i in range(1, spec.d) if i != skip]
    X = np.zeros((mc_n, spec.d))
    X[:, 0] = x1
    X[:, leaves] = rng.standard_normal((len(leaves), mc_n)).T
    Z = forward(params, spec, X).Z
    Z[:, 0] = z1
    if skip is not None:
        Z[:, skip] = np.nan
    return Z


def _integer(n, least):  # a bool is an Integral, but not a size
    return isinstance(n, Integral) and not isinstance(n, bool) and n >= least


def _check_mc_n(mc_n, least=2):  # a mean and its std error need two draws
    if not _integer(mc_n, least):
        raise DiagnosticsError(
            f"mc_n must be an integer ≥ {least}, got {mc_n!r}")


def check_residual_settings(grid_sizes, mc_n):
    """(n_root, n_leaf) from one positive integer or a pair; mc_n ≥ 100."""
    _check_mc_n(mc_n, 100)
    sizes = [grid_sizes] * 2 if np.isscalar(grid_sizes) else list(grid_sizes)
    if len(sizes) != 2 or not all(_integer(n, 1) for n in sizes):
        raise DiagnosticsError("grid_sizes must be a positive integer or a "
                               f"pair of them, got {grid_sizes!r}")
    return sizes


def pushforward_moments(params, spec, mc_n, seed):
    """MC mean/covariance of the pushforward, with entrywise std errors."""
    _check_mc_n(mc_n)
    X = np.random.default_rng(seed).standard_normal((mc_n, spec.d))
    Z = forward(params, spec, X).Z
    n = len(Z)
    mean = Z.mean(axis=0)
    cov = np.cov(Z, rowvar=False, ddof=1)
    mean_se = Z.std(axis=0, ddof=1) / np.sqrt(mc_n)
    c = Z - mean
    # std of each product c_j c_k as Σ(c_j c_k)² − n·mean², no (n, d, d) array
    ss = (c * c).T @ (c * c) - n * (c.T @ c / n) ** 2
    cov_se = np.sqrt(np.maximum(ss, 0.0) / (n - 1)) / np.sqrt(mc_n)
    return mean, cov, mean_se, cov_se


# ---------------------------------------------------------------------------
# self-consistency residuals
# ---------------------------------------------------------------------------

def self_consistency_residual(params, spec, target, grid_sizes=9, mc_n=2000,
                              seed=0) -> ResidualReport:
    """Residuals of the fixed-point equations on a ±3-std pushforward grid.

    The score of a 1-D pushforward of N(0, 1) through an increasing
    piecewise-linear T is −x/T′(x) at x = T⁻¹(z), exact off the knots;
    conditional expectations of ∇V use Monte Carlo with fresh leaf normals
    transported at the conditioned root value.  Each grid point draws from
    its own RNG stream derived from (seed, index).
    """
    n_root, n_leaf = check_residual_settings(grid_sizes, mc_n)

    mean, cov, _, _ = pushforward_moments(params, spec, max(mc_n, 2000), seed)
    std = np.sqrt(np.diag(cov))

    # Grid points offset by an irrational fraction of the cell, off the
    # map's knots, where the score jumps.
    def ogrid(lo, hi, n):
        g = np.linspace(lo, hi, n)
        return g + 0.137 * (g[1] - g[0]) if n > 1 else g

    root_grid = ogrid(mean[0] - 3 * std[0], mean[0] + 3 * std[0], n_root)
    root_res, root_se = np.empty((2, n_root))
    normalized = []

    def residual(score, g, where):
        """r = score + Ê[g] and Ê[g]'s std error; notes |r|/(1 + |Ê[g]|)."""
        e = float(g.mean())
        r = score + e
        if not np.isfinite(r):
            raise DiagnosticsError(f"nonfinite {where}")
        normalized.append(abs(r) / (1.0 + abs(e)))
        return r, float(g.std(ddof=1) / np.sqrt(mc_n))

    root = _root_1d(params, spec)
    x, slope = _invert_1d(spec, *root, root_grid)
    for gi, z1 in enumerate(root_grid):
        rng = np.random.default_rng([seed, gi])
        Z = _conditional_sample(params, spec, z1, x[gi], rng, mc_n)
        root_res[gi], root_se[gi] = residual(
            -x[gi] / slope[gi], target.grad(Z)[:, 0],
            f"root residual at z1={z1}")

    leaf_grids, leaf_res, leaf_se = [], [], []
    root_sub = ogrid(mean[0] - 3 * std[0], mean[0] + 3 * std[0],
                     max(3, n_root // 3))
    x_sub = _invert_1d(spec, *root, root_sub)[0]
    for i in range(1, spec.d):
        zi_grid = ogrid(mean[i] - 3 * std[i], mean[i] + 3 * std[i], n_leaf)
        pts = np.array([(z1, zi) for z1 in root_sub for zi in zi_grid])
        res, ses = np.empty((2, len(pts)))
        for gi, (z1, zi) in enumerate(pts):
            rng = np.random.default_rng([seed, i, gi])
            x1 = x_sub[gi // n_leaf]
            Z = _conditional_sample(params, spec, z1, x1, rng, mc_n, skip=i)
            Z[:, i] = zi
            xi, slope = _invert_1d(spec, params.alpha[i],
                                   *leaf_profile(params, spec, i, x1), zi)
            res[gi], ses[gi] = residual(
                -xi / slope, target.grad(Z)[:, i],
                f"leaf residual at (z1={z1}, z{i}={zi})")
        leaf_grids.append(pts)
        leaf_res.append(res)
        leaf_se.append(ses)

    return ResidualReport(root_grid, root_res, root_se, leaf_grids,
                          leaf_res, leaf_se, float(max(normalized)))


# ---------------------------------------------------------------------------
# approximation bound
# ---------------------------------------------------------------------------

def approximation_bound(target, consts, mc_n=5000, seed=0, params=None,
                        spec=None, star: GaussianDist | None = None
                        ) -> BoundCertificate:
    """Certificate for KL(π*‖π) ≤ (L'_V/(2ℓ'_Vℓ_V²))·Σ_{i<j leaf} E[(∂ᵢⱼV)²].

    Samples from the star optimum come either from the fitted map
    (``params``/``spec``) or from a closed-form Gaussian (``star``); the
    Gaussian path additionally reports the exact KL and the slack
    RHS − KL.  Constants with warnings (ℓ_V or ℓ'_V not positive and
    finite) mark the certificate "assumptions unverified": it reports NaN
    instead of a bound, and draws no sample.
    """
    if params is not None and spec is None:
        raise ValueError("spec required with params")
    if params is None and star is None:
        raise ValueError("need fitted params or a closed-form star measure")
    _check_mc_n(mc_n)
    if consts.warnings:
        return BoundCertificate(np.nan, np.nan, assumptions_verified=False)

    d = target.d
    rng = np.random.default_rng(seed)
    if params is not None:
        X = rng.standard_normal((mc_n, d))
        Z = forward(params, spec, X).Z
    else:
        L = np.linalg.cholesky(star.cov)
        Z = star.mean + rng.standard_normal((mc_n, d)) @ L.T

    H = target.hessian(Z)
    iu, ju = np.triu_indices(d - 1, k=1)
    S = np.sum(H[:, iu + 1, ju + 1] ** 2, axis=1) if iu.size else \
        np.zeros(len(Z))
    mean_s = float(S.mean())
    se_s = float(S.std(ddof=1) / np.sqrt(mc_n))

    c = consts.L_root / (2.0 * consts.ell_root * consts.ell ** 2)
    rhs = c * mean_s
    se = c * se_s

    kl = slack = None
    if hasattr(target, "cov") and hasattr(target, "precision"):
        star_dist = ssvi_gaussian(target.mean, target.cov)
        kl = kl_gaussians(star_dist, GaussianDist(target.mean, target.cov))
        slack = rhs - kl
    return BoundCertificate(rhs, se, kl, slack, True)


# ---------------------------------------------------------------------------
# map distances
# ---------------------------------------------------------------------------

def l2_map_distance(params_a, params_b, spec, mc_n=10000, seed=0):
    """√(Ê‖T_a(x) − T_b(x)‖²) with a delta-method std error.

    Either argument may be fitted parameters or any callable mapping a
    batch (n, d) to (n, d) (e.g. a closed-form map).
    """
    _check_mc_n(mc_n)
    X = np.random.default_rng(seed).standard_normal((mc_n, spec.d))

    def ev(p):
        if isinstance(p, StarMapParams):
            return forward(p, spec, X).Z
        return np.asarray(p(X), dtype=float)

    sq = np.sum((ev(params_a) - ev(params_b)) ** 2, axis=1)
    m = float(sq.mean())
    se_m = float(sq.std(ddof=1) / np.sqrt(mc_n))
    dist = np.sqrt(m)
    # delta method: std err of √m is se(m) / (2√m)
    se = se_m / (2.0 * dist) if dist > 0 else np.sqrt(se_m)
    return dist, se
