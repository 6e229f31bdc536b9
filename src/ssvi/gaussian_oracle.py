"""Closed-form ground truth for Gaussian targets.

For a Gaussian target N(m, Σ) with precision entries σ^{ij}, the optimizer
over star-structured measures and the mean-field optimizer both have closed
forms, as does the optimal star-separable transport map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, solve_triangular


@dataclass(frozen=True)
class GaussianDist:
    mean: np.ndarray
    cov: np.ndarray
    min_eig: float = np.nan


def _validate_spd(cov, mean=None):
    """The one covariance check in ``ssvi``: the symmetrised covariance if
    it is square, finite, symmetric within 1e-10 entrywise and positive
    definite by Cholesky, and a given mean a finite vector of matching
    length; else ``ValueError``."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.size == 0:
        raise ValueError("covariance must be a non-empty square matrix")
    if not np.isfinite(cov).all():
        raise ValueError("covariance must be finite")
    if not np.allclose(cov, cov.T, rtol=0, atol=1e-10):
        raise ValueError("covariance must be symmetric")
    try:
        cholesky(cov, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance must be positive definite") from exc
    if mean is not None and not (np.shape(mean) == cov.shape[:1]
                                 and np.isfinite(mean).all()):
        raise ValueError(f"mean must be a finite vector of length "
                         f"{cov.shape[0]}, as the covariance")
    return 0.5 * (cov + cov.T)


def _precision(cov):
    """Σ⁻¹ of a checked Σ, symmetrised; ValueError if any |ΣP − I| > 1e-10."""
    P = np.linalg.inv(cov)
    P = 0.5 * (P + P.T)
    resid = np.abs(cov @ P - np.eye(cov.shape[0])).max()
    if resid > 1e-10:
        raise ValueError(f"precision inaccurate (residual {resid:.2e})")
    return P


def ssvi_gaussian(m, cov) -> GaussianDist:
    """Covariance of the optimal star-structured Gaussian.

    σ*₁ᵢ = σ₁ᵢ; σ*ᵢᵢ = (σ^{ii})⁻¹ + σ₁ᵢ²/σ₁₁; σ*ᵢⱼ = σ₁ᵢσ₁ⱼ/σ₁₁ (i≠j≥2);
    the mean is unchanged.
    """
    m = np.asarray(m, dtype=float)
    cov = _validate_spd(cov, m)
    P = _precision(cov)
    c, leaf = cov[0, 1:], np.arange(1, cov.shape[0])
    out = cov.copy()
    out[1:, 1:] = np.outer(c, c) / cov[0, 0]
    out[leaf, leaf] += 1.0 / np.diag(P)[1:]  # SPD by construction
    return GaussianDist(m.copy(), out, float(np.linalg.eigvalsh(out).min()))


def mfvi_gaussian(m, cov) -> GaussianDist:
    """Mean-field optimum: diag((σ^{ii})⁻¹) with the same mean."""
    m = np.asarray(m, dtype=float)
    cov = _validate_spd(cov, m)
    bar = np.diag(1.0 / np.diag(_precision(cov)))
    return GaussianDist(m.copy(), bar, float(np.diag(bar).min()))


def kl_gaussians(p0: GaussianDist, p1: GaussianDist) -> float:
    """KL(N(μ₀,Σ₀) ‖ N(μ₁,Σ₁)) of two checked Gaussians, via Cholesky."""
    m0, m1 = (np.asarray(p.mean, dtype=float) for p in (p0, p1))
    s0, s1 = _validate_spd(p0.cov, m0), _validate_spd(p1.cov, m1)
    if s0.shape != s1.shape:
        raise ValueError("dimension mismatch")
    k = s0.shape[0]
    L0 = cholesky(s0, lower=True)
    L1 = cholesky(s1, lower=True)
    logdet0 = 2.0 * np.log(np.diag(L0)).sum()
    logdet1 = 2.0 * np.log(np.diag(L1)).sum()
    # tr(Σ₁⁻¹Σ₀) = ‖L₁⁻¹L₀‖_F²
    M = solve_triangular(L1, L0, lower=True)
    trace = float(np.sum(M * M))
    diff = m0 - m1
    y = solve_triangular(L1, diff, lower=True)
    quad = float(y @ y)
    return 0.5 * (logdet1 - logdet0 + trace - k + quad)


def ssvi_mfvi_gap(cov) -> float:
    """KL(π*_star‖π) − KL(π̄_mf‖π) = −½ log(σ₁₁·σ^{11}) ≤ 0."""
    cov = _validate_spd(cov)
    return -0.5 * float(np.log(cov[0, 0] * _precision(cov)[0, 0]))


class ClosedFormStarMap:
    """The optimal star-separable map of a Gaussian target.

    T₁*(x₁) = m₁ + √σ₁₁·x₁;
    T_i*(x_i; x₁) = m_i + σᵢ₁(σ₁₁)^{-1/2}(T₁*(x₁) − m₁) + √((σ^{ii})⁻¹)·x_i.
    """

    def __init__(self, m, cov):
        self.mean = np.asarray(m, dtype=float)
        self.cov = cov = _validate_spd(cov, self.mean)
        self.root_scale = np.sqrt(cov[0, 0])
        self.leaf_root = cov[1:, 0] / np.sqrt(cov[0, 0])
        self.leaf_scale = np.sqrt(1.0 / np.diag(_precision(cov))[1:])

    def t1(self, x1):
        return self.mean[0] + self.root_scale * np.asarray(x1, dtype=float)

    def ti(self, i, xi, x1):
        """T_i*(x_i; x₁) of leaf i, 1 ≤ i < d (an index array broadcasts)."""
        i = np.asarray(i)
        if not np.all((1 <= i) & (i < self.mean.size)):
            raise ValueError(f"leaf index out of range: {i}")
        return (self.mean[i]
                + self.leaf_root[i - 1] * np.asarray(x1, dtype=float)
                + self.leaf_scale[i - 1] * np.asarray(xi, dtype=float))

    def __call__(self, X):
        """Evaluate the full map on a batch (n, d)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = np.empty_like(X)
        Z[:, 0] = self.t1(X[:, 0])
        Z[:, 1:] = self.ti(np.arange(1, self.mean.size), X[:, 1:], X[:, :1])
        return Z


def closed_form_star_map(m, cov) -> ClosedFormStarMap:
    return ClosedFormStarMap(m, cov)
