"""Posterior target potentials pi ∝ exp(-V).

Each target exposes the potential V, its gradient and Hessian, and curvature
("regularity") constants used to size the spike vector, the PGD step size, and
the approximation-bound certificate.  The root coordinate is index 0; leaves
are indices 1..d-1.

Families:
  * :class:`GaussianTarget` — V(z) = ½(z−m)ᵀΣ⁻¹(z−m).
  * :class:`GlmLocationTarget` — GLM with a location family of priors; the
    root is the shared location parameter and the leaves are the regression
    coefficients.
  * :class:`SpikeSlabGlmTarget` — GLM with a two-Gaussian scale-mixture prior
    on the leaf coefficients and a quadratic debiasing term on the root.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import expit, log_expit

from .dictionary import FieldTypeError, check_keys, check_number

# Points per batched matmul in the non-linear GLM data Hessian.
_HESSIAN_CHUNK = 64


# ---------------------------------------------------------------------------
# Regularity constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularityConstants:
    """Curvature bounds of V, coerced to float and checked at construction:
    L and L_root must be positive and finite, or it raises ``ValueError``.

    Attributes:
        ell: lower curvature bound of the leaf Hessian block (ℓ).
        L: upper curvature bound of the leaf Hessian block.
        ell_root: effective root curvature after subtracting the root–leaf
            interaction (the root-domination constant ℓ').
        L_root: stored as 2·sup ∂²V/∂z₁² so it plugs directly into the spike
            component α₁ = L_root^{-1/2} and the step size.
        warnings: one message per lower bound that is not positive and
            finite, derived at construction (``dataclasses.replace`` too).
    """

    ell: float
    L: float
    ell_root: float
    L_root: float
    warnings: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        for name in ("ell", "L", "ell_root", "L_root"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (0 < self.L < math.inf and 0 < self.L_root < math.inf):
            raise ValueError(f"curvature upper bounds L = {self.L} and L_root"
                             f" = {self.L_root} must be positive and finite")
        warnings = []
        if not 0 < self.ell < math.inf:
            warnings.append("leaf curvature lower bound nonpositive")
        if not 0 < self.ell_root < math.inf:
            warnings.append("root domination violated (ell_root <= 0)")
        object.__setattr__(self, "warnings", tuple(warnings))

    def spike(self, d: int) -> np.ndarray:
        """Spike vector alpha = (L_root^{-1/2}, L^{-1/2}, ..., L^{-1/2})."""
        alpha = np.full(d, 1.0 / np.sqrt(self.L))
        alpha[0] = 1.0 / np.sqrt(self.L_root)
        return alpha


# ---------------------------------------------------------------------------
# Base class
# ---------------------------------------------------------------------------

class TargetPotential:
    """Abstract target with potential, gradient and Hessian evaluators.

    All evaluators are vectorized over leading batch dimensions: ``z`` may be
    shape ``(d,)`` or ``(n, d)``.
    """

    d: int

    def potential(self, z):
        raise NotImplementedError

    def grad(self, z):
        raise NotImplementedError

    def hessian(self, z):
        """Full Hessian, shape ``z.shape + (d,)``."""
        raise NotImplementedError

    def regularity_constants(self) -> RegularityConstants:
        raise NotImplementedError

    def _check_dim(self, z):
        z = np.asarray(z, dtype=float)
        if z.shape[-1] != self.d:
            raise ValueError(
                f"dimension mismatch: expected {self.d}, got {z.shape[-1]}")
        return z


# ---------------------------------------------------------------------------
# Gaussian target
# ---------------------------------------------------------------------------

class GaussianTarget(TargetPotential):
    """V(z) = ½ (z − m)ᵀ Σ⁻¹ (z − m)."""

    def __init__(self, mean, cov):
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.asarray(cov, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match mean")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and covariance must be finite")
        if not np.allclose(cov, cov.T, rtol=0, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        eigs = np.linalg.eigvalsh(cov)
        if eigs.min() <= 0:
            raise ValueError("covariance must be positive definite")
        self.d = mean.size
        self.mean = mean
        self.cov = 0.5 * (cov + cov.T)
        self.precision = np.linalg.inv(self.cov)
        self.precision = 0.5 * (self.precision + self.precision.T)
        resid = np.abs(self.cov @ self.precision - np.eye(self.d)).max()
        if resid > 1e-10:
            raise ValueError(f"precision inaccurate (residual {resid:.2e})")

    def potential(self, z):
        z = self._check_dim(z)
        diff = z - self.mean
        return 0.5 * np.einsum("...i,...i->...", diff @ self.precision, diff)

    def grad(self, z):
        z = self._check_dim(z)
        return (z - self.mean) @ self.precision

    def hessian(self, z):
        z = self._check_dim(z)
        return np.broadcast_to(self.precision, z.shape[:-1] + (self.d, self.d))

    def regularity_constants(self):
        P = self.precision
        leaf = P[1:, 1:]
        eigs = np.linalg.eigvalsh(leaf) if leaf.size else np.array([1.0])
        ell, L = eigs.min(), eigs.max()
        cross = P[0, 1:]
        ell_root = P[0, 0] - float(cross @ cross) / ell
        L_root = 2.0 * P[0, 0]
        return RegularityConstants(ell, L, ell_root, L_root)


# ---------------------------------------------------------------------------
# GLM building blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogPartition:
    """Log-partition function ψ of an exponential family.

    ``value``, ``deriv`` and ``deriv2`` evaluate ψ, ψ' and ψ'' elementwise.
    ``curv_lower``/``curv_upper`` are global bounds on ψ''; None means
    unknown (a GLM target then takes ``psi_lower`` for the lower bound).
    """

    name: str
    value: Callable
    deriv: Callable
    deriv2: Callable
    curv_lower: float | None
    curv_upper: float | None


def _logistic_deriv2(t):
    s = expit(t)
    return s * (1.0 - s)


LOG_PARTITIONS = {
    "linear": LogPartition("linear", lambda t: 0.5 * t * t, lambda t: t,
                           np.ones_like, 1.0, 1.0),
    "logistic": LogPartition("logistic", lambda t: -log_expit(-t), expit,
                             _logistic_deriv2, None, 0.25),
    "poisson": LogPartition("poisson", np.exp, np.exp, np.exp, None, None),
}


class GaussianPrior:
    """ϱ(t) = τ² t² / 2."""

    def __init__(self, precision):
        check_number("precision", precision)
        if not 0 < precision < math.inf:
            raise ValueError("prior precision must be positive and finite")
        self.tau2 = float(precision)
        self.curv_lower = self.tau2
        self.curv_upper = self.tau2

    def value(self, t):
        return 0.5 * self.tau2 * np.square(t)

    def deriv(self, t):
        return self.tau2 * np.asarray(t, dtype=float)

    def deriv2(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.tau2)


class LogisticPrior:
    """Negative log-density of the logistic distribution with scale s."""

    def __init__(self, scale):
        check_number("scale", scale)
        if not 0 < scale < math.inf:
            raise ValueError("prior scale must be positive and finite")
        self.scale = float(scale)
        self.curv_lower = 0.0
        self.curv_upper = 0.5 / scale ** 2

    def value(self, t):
        u = np.asarray(t, dtype=float) / self.scale
        return np.log(self.scale) + u - 2.0 * log_expit(u)

    def deriv(self, t):
        u = np.asarray(t, dtype=float) / self.scale
        return (2.0 * expit(u) - 1.0) / self.scale

    def deriv2(self, t):
        u = np.asarray(t, dtype=float) / self.scale
        s = expit(u)
        return 2.0 * s * (1.0 - s) / self.scale ** 2


class _GlmTarget(TargetPotential):
    """Data term shared by the GLM targets.

    D(β) = Σᵢ ψ(Xᵢᵀβ)/c − wᵀβ with w = Xᵀy/c and dispersion c.  For the
    linear family ψ(t) = t²/2, so D(β) = ½βᵀAβ − wᵀβ through the sufficient
    statistic A = XᵀX/c, with gradient Aβ − w and constant Hessian A: O(k²)
    per point, independent of the number of observations.  The other
    families have no sufficient statistic and sum over the observations.
    """

    def __init__(self, X, y, family, dispersion, psi_lower):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if X.shape[0] != y.size:
            raise ValueError("design and response sizes differ")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("design and response must be finite")
        check_number("dispersion", dispersion)
        check_number("psi_lower", psi_lower, optional=True)
        if not 0 < dispersion < math.inf:
            raise ValueError("dispersion must be positive and finite")
        if psi_lower is not None and not 0 < psi_lower < math.inf:
            raise ValueError("psi_lower must be positive and finite")
        if not isinstance(family, str):
            raise FieldTypeError("log_partition", f"must be one of "
                                 f"{sorted(LOG_PARTITIONS)}, got {family!r}")
        if family not in LOG_PARTITIONS:
            raise ValueError(f"unknown log_partition: {family}")
        family = LOG_PARTITIONS[family]
        self.X = X
        self.y = y
        self.family = family
        self.c = float(dispersion)
        self.psi_lower = psi_lower
        with np.errstate(over="ignore"):  # RegularityConstants reports it
            self.A = X.T @ X / self.c
            self.w = X.T @ y / self.c
        self._sufficient = family.name == "linear"

    def _data_value(self, beta):
        if self._sufficient:
            quad = 0.5 * ((beta @ self.A) * beta).sum(axis=-1)
        else:
            quad = self.family.value(beta @ self.X.T).sum(axis=-1) / self.c
        return quad - beta @ self.w

    def _data_grad(self, beta):
        if self._sufficient:
            return beta @ self.A - self.w
        return self.family.deriv(beta @ self.X.T) @ self.X / self.c - self.w

    def _data_hessian(self, beta):
        if self._sufficient:
            return np.broadcast_to(self.A, beta.shape[:-1] + self.A.shape)
        # Σₙ wₙ XₙXₙᵀ per point as batched matmuls over chunks of points,
        # so the (chunk, k, n) temporary stays bounded.
        w = self.family.deriv2(beta @ self.X.T) / self.c
        flat = w.reshape(-1, w.shape[-1])
        k = self.X.shape[1]
        H = np.empty((flat.shape[0], k, k))
        for s in range(0, flat.shape[0], _HESSIAN_CHUNK):
            H[s:s + _HESSIAN_CHUNK] = (
                self.X.T * flat[s:s + _HESSIAN_CHUNK, None, :]) @ self.X
        return H.reshape(w.shape[:-1] + (k, k))

    def regularity_constants(self):
        """Constants from the curvature bounds (b, B) of ψ and the extreme
        eigenvalues of A, through the subclass's ``_constants``."""
        b = self.family.curv_lower
        if b is None:
            b = self.psi_lower
        B = self.family.curv_upper
        if b is None or B is None:
            hint = "give psi_lower or " if B is not None else ""
            raise ValueError(
                f"log_partition '{self.family.name}' has no known curvature "
                f"bound on ψ''; {hint}pass a RegularityConstants as consts")
        eigs = np.linalg.eigvalsh(self.A)
        return RegularityConstants(
            *self._constants(b, B, eigs.min(), eigs.max()))

    def _constants(self, b, B, a_lo, a_hi):
        """(ell, L, ell_root, L_root) given b ≤ ψ'' ≤ B and
        a_lo ≤ eig(A) ≤ a_hi."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# GLM with a location family of priors
# ---------------------------------------------------------------------------

class GlmLocationTarget(_GlmTarget):
    """GLM posterior with shared location parameter.

    Variable layout: z = (ϑ, β₁, …, β_k) with the location ϑ as the root;
    total dimension d = k + 1 for a k-column design matrix.

    V(ϑ, β) = g(ϑ) − wᵀβ + Σᵢ ψ(Xᵢᵀβ)/c + Σⱼ ϱ(βⱼ − ϑ)

    with w = Xᵀy/c, dispersion c, log-partition ψ, prior potential ϱ and
    hyperprior potential g.
    """

    def __init__(self, X, y, family="linear", dispersion=1.0,
                 prior=None, hyperprior=None, psi_lower=None):
        super().__init__(X, y, family, dispersion, psi_lower)
        self.prior = prior if prior is not None else GaussianPrior(1.0)
        self.hyperprior = (hyperprior if hyperprior is not None
                           else GaussianPrior(1.0))
        self.n_obs, self.k = self.X.shape
        self.d = self.k + 1

    def _split(self, z):
        z = self._check_dim(z)
        return z[..., 0], z[..., 1:]

    def potential(self, z):
        theta, beta = self._split(z)
        return (self.hyperprior.value(theta)
                + self._data_value(beta)
                + self.prior.value(beta - theta[..., None]).sum(axis=-1))

    def grad(self, z):
        z = self._check_dim(z)
        theta, beta = z[..., 0], z[..., 1:]
        dprior = self.prior.deriv(beta - theta[..., None])
        g = np.empty(z.shape, dtype=float)
        g[..., 0] = self.hyperprior.deriv(theta) - dprior.sum(axis=-1)
        g[..., 1:] = self._data_grad(beta) + dprior
        return g

    def hessian(self, z):
        theta, beta = self._split(z)
        d2prior = self.prior.deriv2(beta - theta[..., None])
        H = np.zeros(np.shape(z)[:-1] + (self.d, self.d), dtype=float)
        H[..., 0, 0] = self.hyperprior.deriv2(theta) + d2prior.sum(axis=-1)
        H[..., 0, 1:] = -d2prior
        H[..., 1:, 0] = -d2prior
        H[..., 1:, 1:] = (self._data_hessian(beta)
                          + np.einsum('...j,jk->...jk', d2prior,
                                      np.eye(self.k)))
        return H

    def _constants(self, b, B, a_lo, a_hi):
        r_lo = self.prior.curv_lower
        r_hi = self.prior.curv_upper
        g_lo = self.hyperprior.curv_lower
        g_hi = self.hyperprior.curv_upper
        k = self.k
        ell = b * a_lo + r_lo
        L = B * a_hi + r_hi
        ell_root = g_lo + k * r_lo - (k * r_hi ** 2 / ell if ell > 0 else np.inf)
        L_root = 2.0 * (g_hi + k * r_hi)
        return ell, L, ell_root, L_root


# ---------------------------------------------------------------------------
# Spike-and-slab GLM
# ---------------------------------------------------------------------------

def _mixture_logpdf_terms(x, eta, tau0, tau1):
    """Log of the two weighted component densities of η·ν₀ + (1−η)·ν₁.

    ν_k is the centered normal density with precision τ_k².
    """
    x = np.asarray(x, dtype=float)
    halflog2pi = 0.5 * np.log(2.0 * np.pi)
    a0 = (np.log(eta) if eta > 0 else -np.inf) + np.log(tau0) \
        - 0.5 * (tau0 * x) ** 2 - halflog2pi
    a1 = (np.log1p(-eta) if eta < 1 else -np.inf) + np.log(tau1) \
        - 0.5 * (tau1 * x) ** 2 - halflog2pi
    return a0, a1


def mixture_neglog(x, eta, tau0, tau1):
    """ξ(x) = −log(η ν₀(x) + (1−η) ν₁(x))."""
    a0, a1 = _mixture_logpdf_terms(x, eta, tau0, tau1)
    return -np.logaddexp(a0, a1)


def mixture_neglog_deriv(x, eta, tau0, tau1):
    """ξ′(x) = x · (w₀τ₀² + w₁τ₁²) with posterior component weights w."""
    x = np.asarray(x, dtype=float)
    a0, a1 = _mixture_logpdf_terms(x, eta, tau0, tau1)
    w0 = expit(a0 - a1)
    return x * (w0 * tau0 ** 2 + (1.0 - w0) * tau1 ** 2)


def mixture_neglog_deriv2(x, eta, tau0, tau1):
    """ξ″(x) = (w₀τ₀² + w₁τ₁²) − x² w₀w₁ (τ₀² − τ₁²)²."""
    x = np.asarray(x, dtype=float)
    a0, a1 = _mixture_logpdf_terms(x, eta, tau0, tau1)
    w0 = expit(a0 - a1)
    w1 = 1.0 - w0
    s = w0 * tau0 ** 2 + w1 * tau1 ** 2
    return s - x * x * w0 * w1 * (tau0 ** 2 - tau1 ** 2) ** 2


def mixture_log_concavity_bound(eta, tau0, tau1):
    """Lower bound on ξ″ for the two-Gaussian scale mixture.

    Returns τ₁² − 2(τ₀²−τ₁²)·log(1 + ητ₀/((1−η)·e·τ₁)).  Degenerate cases:
    η=0 returns τ₁² and η=1 returns τ₀² (single-component mixtures are exactly
    Gaussian).
    """
    if not (0.0 <= eta <= 1.0):
        raise ValueError("eta must lie in [0, 1]")
    if not (0.0 < tau1 < tau0 < math.inf):
        raise ValueError("require 0 < tau1 < tau0 < inf")
    if eta == 0.0:
        return tau1 ** 2
    if eta == 1.0:
        return tau0 ** 2
    zeta = eta * tau0 / ((1.0 - eta) * tau1)
    return tau1 ** 2 - 2.0 * (tau0 ** 2 - tau1 ** 2) * np.log1p(zeta / np.e)


class SpikeSlabGlmTarget(_GlmTarget):
    """GLM with a spike-and-slab prior on the leaf coefficients.

    Variable layout: z = (β₁, …, β_d) with β₁ (the coefficient of the first
    design column) as the root.

    V(β) = Σᵢ ψ(Xᵢᵀβ)/c − wᵀβ + Σ_{j≥2} ξ(βⱼ) + g(β₁ + Σ_{j≥2} γⱼ βⱼ)

    where ξ is the mixture negative log-density, γⱼ = X₁ᵀXⱼ/‖X₁‖² and
    g(t) = τ² t²/2 is the quadratic debiasing term.
    """

    def __init__(self, X, y, family="linear", dispersion=1.0,
                 eta=0.5, tau0=2.0, tau1=1.0, debias_precision=1.0,
                 psi_lower=None):
        super().__init__(X, y, family, dispersion, psi_lower)
        X = self.X
        if X.shape[1] < 2:
            raise ValueError("spike-slab target needs at least two columns")
        for field, value in [("eta", eta), ("tau0", tau0), ("tau1", tau1),
                             ("debias_precision", debias_precision)]:
            check_number(field, value)
        # checks eta and the two precisions
        self.xi_bound = mixture_log_concavity_bound(eta, tau0, tau1)
        if not 0 <= debias_precision < math.inf:
            raise ValueError("debias_precision must be nonnegative and finite")
        norm1 = float(X[:, 0] @ X[:, 0])
        if norm1 <= 0:
            raise ValueError("first design column must be nonzero")
        self.eta = float(eta)
        self.tau0 = float(tau0)
        self.tau1 = float(tau1)
        self.tau2 = float(debias_precision)
        self.d = X.shape[1]
        self.gamma = X.T[1:] @ X[:, 0] / norm1
        self.cvec = np.concatenate(([1.0], self.gamma))

    def potential(self, z):
        z = self._check_dim(z)
        u = z @ self.cvec
        return (self._data_value(z)
                + mixture_neglog(z[..., 1:], self.eta, self.tau0,
                                 self.tau1).sum(axis=-1)
                + 0.5 * self.tau2 * u * u)

    def grad(self, z):
        z = self._check_dim(z)
        u = z @ self.cvec
        g = self._data_grad(z) + self.tau2 * u[..., None] * self.cvec
        g[..., 1:] += mixture_neglog_deriv(z[..., 1:], self.eta, self.tau0,
                                           self.tau1)
        return g

    def hessian(self, z):
        z = self._check_dim(z)
        H = (self._data_hessian(z)
             + self.tau2 * np.outer(self.cvec, self.cvec))
        xi2 = mixture_neglog_deriv2(z[..., 1:], self.eta, self.tau0, self.tau1)
        idx = np.arange(1, self.d)
        H[..., idx, idx] += xi2
        return H

    def _constants(self, b, B, a_lo, a_hi):
        A11 = self.A[0, 0]
        tau2 = self.tau2
        ell = b * a_lo + self.xi_bound
        L = B * a_hi + self.tau0 ** 2 + tau2 * float(self.gamma @ self.gamma)
        if b * a_lo > 0:
            ell_root = (b * A11 + tau2
                        - 2.0 * float(self.gamma @ self.gamma) * tau2 ** 2
                        / (b * a_lo)
                        - 2.0 * (B * a_hi - b * a_lo) * (B * A11 - b * a_lo)
                        / (b * a_lo))
        else:
            ell_root = -np.inf
        L_root = 2.0 * (B * A11 + tau2)
        return ell, L, ell_root, L_root


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def gaussian_ensemble_design(cov, n, seed):
    """Draw n i.i.d. rows from N(0, Σ); deterministic for a fixed seed."""
    cov = np.asarray(cov, dtype=float)
    if n < 1:
        raise ValueError("need at least one design row")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance must be positive definite") from exc
    rng = np.random.default_rng(seed)
    return rng.standard_normal((int(n), cov.shape[0])) @ chol.T


def load_design_csv(path, header=False):
    """Load a row-major numeric design matrix from CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if header:
        rows = rows[1:]
    if not rows:
        raise ValueError(f"empty design file: {path}")
    return np.array([[float(v) for v in row] for row in rows])


_PRIORS = {"gaussian": GaussianPrior, "logistic": LogisticPrior}
_GLM_KEYS = {"family", "design", "design_csv", "design_csv_header",
             "response", "log_partition", "dispersion", "psi_lower"}
# the keys each target family reads
_TARGET_KEYS = {
    "gaussian": {"family", "mean", "cov"},
    "glm_location": _GLM_KEYS | {"prior", "hyperprior"},
    "spike_slab": _GLM_KEYS | {"eta", "tau0", "tau1", "debias_precision"},
}


def _make_prior(name, block):
    """The prior ``name`` from its block: a type and that type's one
    parameter."""
    if not isinstance(block, dict):
        raise FieldTypeError(name, f"must be an object, got {block!r}")
    kwargs = dict(block)
    kind = kwargs.pop("type", "gaussian")
    if kind not in _PRIORS:
        raise ValueError(f"unknown prior type: {kind}")
    try:
        return _PRIORS[kind](**kwargs)
    except FieldTypeError as exc:
        raise FieldTypeError(f"{name}.{exc.field}", exc.detail) from None


def target_from_json(block):
    """A target from its JSON block; keys the family does not read raise."""
    family = block.get("family")
    if family not in _TARGET_KEYS:
        raise ValueError(f"unknown target family: {family}")
    check_keys(block, _TARGET_KEYS[family], "target keys")
    if family == "gaussian":
        return GaussianTarget(block["mean"], block["cov"])
    if "design" in block:
        for key in ("design_csv", "design_csv_header"):
            if key in block:
                raise ValueError(f"{key}: given with an inline design; "
                                 "give one of design and design_csv")
        X = np.asarray(block["design"], dtype=float)
    else:
        X = load_design_csv(block["design_csv"],
                            header=block.get("design_csv_header", False))
    glm = dict(family=block.get("log_partition", "linear"),
               dispersion=block.get("dispersion", 1.0),
               psi_lower=block.get("psi_lower"))
    y = np.asarray(block["response"], dtype=float)
    if family == "glm_location":
        gaussian = {"type": "gaussian", "precision": 1.0}
        return GlmLocationTarget(
            X, y, prior=_make_prior("prior", block.get("prior", gaussian)),
            hyperprior=_make_prior("hyperprior",
                                   block.get("hyperprior", gaussian)), **glm)
    return SpikeSlabGlmTarget(
        X, y, eta=block["eta"], tau0=block["tau0"], tau1=block["tau1"],
        debias_precision=block.get("debias_precision", 1.0), **glm)
