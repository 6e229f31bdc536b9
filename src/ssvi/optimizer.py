"""Projected gradient descent over the spiked cone under the Θ-norm.

The parameter θ = (λ, v) lives in the product of the coefficient cone
(nonnegative entries for classes M0–M4, free for M5) and R^d.  The Θ-norm is
‖θ‖² = λᵀQλ + ‖v‖² with Q the dictionary Gram matrix; one PGD step is

    λ⁺ = proj_{K,Q}(λ − h·Q⁻¹∇_λF̂),   v⁺ = v − h·∇_vF̂ ,

with default step size h = 1/(L + Υ), L = L_V ∨ (L'_V/2) and
Υ = 9δ⁻²((L'_V)^{1/2} + (d−1)L_V^{1/2})²‖Q⁻¹‖₂.

Q is block-diagonal by coordinate (one root block, d−1 identical leaf
blocks) and the cone is a product of per-coordinate cones, so the solve
Q⁻¹∇, the Θ-norm and the projection all run one block at a time; no dense
p×p array is formed.  Every projection in a fit is warm-started, the first
from the initial iterate's zero set; each block reuses its last Cholesky
factor when a sweep repeats its working set, and builds its Q⁻¹ only if a
sweep needs it.

A fit alternates numpy's matrix products with scipy's Cholesky factors and
solves, which run on a second OpenBLAS copy with its own thread pool.
``run_pgd`` runs both pools at one thread (``ssvi.blas.one_thread``), so
neither pool's spinning workers take the cores from the other, and a fit's
bits do not depend on the launch thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .blas import one_thread
from .dictionary import check_keys, check_number
from .objective import SaaSample, TargetOverflowError, free_energy, gradient
from .starmap import ConeViolationError, StarMapParams

MAX_HALVINGS = 10
PROJ_TOL = 1e-10
FREE_CHUNK = 1 << 16  # values of Q per row chunk (512 KB, cache-sized)


class OptimizerError(RuntimeError):
    pass


@dataclass
class PgdConfig:
    """Algorithm parameters; ``step_size=None`` uses the default 1/(L+Υ)."""

    step_size: float | None = None
    max_iters: int = 5000
    tol: float = 1e-6
    seed: int = 0
    n_samples: int = 20000

    def __post_init__(self):
        check_number("step_size", self.step_size, optional=True)
        check_number("tol", self.tol)
        for name in ("max_iters", "seed", "n_samples"):
            check_number(name, getattr(self, name), Integral)
        if self.step_size is not None and not 0 < self.step_size < math.inf:
            raise ValueError("step_size must be positive and finite")
        if not 0 <= self.tol < math.inf:
            raise ValueError("tol must be nonnegative and finite")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not self.n_samples >= 1:
            raise ValueError("n_samples must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    @classmethod
    def from_dict(cls, block):
        check_keys(block, cls.__dataclass_fields__, "optimizer config keys")
        return cls(**block)


@dataclass
class FitResult:
    params: StarMapParams
    free_energy_trace: np.ndarray
    grad_norm_trace: np.ndarray
    halving_trace: np.ndarray
    iterations: int
    termination: str
    step_size: float
    kappa: float
    upsilon: float


def compute_upsilon(consts, spec, gram) -> float:
    """Υ = 9δ⁻²((L'_V)^{1/2} + (d−1)L_V^{1/2})²·‖Q⁻¹‖₂."""
    factor = (math.sqrt(consts.L_root)
              + (spec.d - 1) * math.sqrt(consts.L)) ** 2
    return 9.0 / spec.delta ** 2 * factor * gram.inv_norm


# ---------------------------------------------------------------------------
# Projection onto the cone under the Q-norm
# ---------------------------------------------------------------------------

def project_cone_q(z, gram, constrained, warm_active=None):
    """argmin_{θ: θ_i ≥ 0 for i constrained} ‖θ − z‖_Q², as (θ, A).

    Q is block-diagonal by coordinate and the cone is a product of
    per-coordinate cones, so the problem splits into one QP per block of
    ``gram.blocks()``: the root, then the d−1 leaves, which share one Q and
    one W = Q⁻¹ block.  Each is solved by ``_project_block`` and
    warm-started from its slice of ``warm_active``, an integer array of
    global indices (unconstrained ones are ignored); without it the working
    set starts at the constrained indices with z < 0.

    A is the final working set as a sorted ``np.intp`` array of constrained
    global indices, all with θ = 0, and ``len(A)`` is |A|; it can be fed
    back as ``warm_active``.  The KKT residual, the largest multiplier
    |Q(θ − z)| off the working set in any block's final sweep, must be at
    most ``PROJ_TOL``·max(1, ‖Qz‖∞); otherwise (NaN included) this raises
    ``OptimizerError``.
    """
    z = np.asarray(z, dtype=float)
    constrained = np.asarray(constrained, dtype=bool)

    active = np.zeros(z.size, dtype=bool)
    if warm_active is None:
        active[constrained & (z < 0)] = True
    else:
        active[np.asarray(warm_active, dtype=np.intp)] = True
        active &= constrained

    theta = np.empty_like(z)
    kkt = []  # (r, s) of each block
    for idx, Q, inverse, last in gram.blocks():
        block_active = active[idx]
        theta[idx], r, s = _project_block(z[idx], Q, inverse, last,
                                          constrained[idx], block_active)
        active[idx] = block_active
        kkt.append((r, s))

    # np.max and np.maximum propagate NaN, so a NaN anywhere fails the test
    resid, scale = np.max(kkt, axis=0)
    if not resid <= PROJ_TOL * np.maximum(1.0, scale):
        raise OptimizerError(f"projection KKT residual {resid:.2e}")
    return theta, np.flatnonzero(active)


def _project_block(z, Q, inverse, last, constrained, active):
    """Projection onto one block's cone; ``active`` is updated in place.

    Returns (θ, r, s): r = max |μ| off the working set for the final
    sweep's multipliers μ = Q(θ − z), and s = ‖Qz‖∞.

    Primal active-set method.  Each equality-constrained subproblem (θ_A = 0)
    is solved on the smaller side of the working set: through a Cholesky
    factor of Q_FF when the free set F is smaller, else through one of
    W_AA, with W = ``inverse()`` the block's Q⁻¹, fetched only then.  A
    sweep that repeats the working set of the last solve, kept in ``last``
    with its factor, reuses the factor: a warm start's first sweep often
    does.  Qz is formed once per call, an m² product.  A free-side sweep
    then costs O(|F|³ + m·|F|) when 3|F| <= m, since θ_A = 0 gives
    μ = Q[:, F]θ_F − Qz, and O(|F|³ + m²) otherwise; a W-side sweep costs
    O(|A|³ + m·|A| + m²).  None pays the cube on a reuse.

    Q and W must be exactly symmetric, as ``GramMatrix`` keeps them.  The
    gathered Q_FF or W_AA is factored as its transpose, the same numbers in
    Fortran order, which LAPACK overwrites in place instead of factoring a
    transposed copy.
    """
    m = z.size
    Qz = Q @ z

    def subproblem(active_mask):
        """Optimum with θ_A = 0, θ_F = Q_FF⁻¹ (Qz)_F or equivalently
        θ_F = z_F − W_FA W_AA⁻¹ z_A, and its multipliers μ = Q(θ − z)."""
        A = np.flatnonzero(active_mask)
        if A.size == 0:
            return z.copy(), np.zeros(m)
        F = np.flatnonzero(~active_mask)
        if F.size == 0:
            return np.zeros(m), -Qz
        free_side = F.size < A.size
        W = None if free_side else inverse()
        # out of the slot while in use, so concurrent projections never mix
        mask, cho = last.pop("factor", (None, None))  # (working set, factor)
        if not np.array_equal(mask, active_mask):
            mask = cho = None  # at most one factor per block alive at once
            S = F if free_side else A
            M = (Q if free_side else W)[np.ix_(S, S)]  # a copy: overwritable
            try:
                cho = cho_factor(M.T, lower=True, overwrite_a=True,
                                 check_finite=False)
            except np.linalg.LinAlgError as exc:
                raise OptimizerError("projection subproblem singular") from exc
            mask = active_mask.copy()
        last["factor"] = mask, cho
        if free_side:
            out = np.zeros(m)
            out[F] = cho_solve(cho, Qz[F], check_finite=False)
        else:
            out = z - W[:, A] @ cho_solve(cho, z[A], check_finite=False)
            out[A] = 0.0
        # θ_A = 0, so μ = Q[:, F]θ_F − Qz.  Copying the free rows and reading
        # them again moves about 3|F|m values against the m² of Q(θ − z), so
        # the rows pay only if 3|F| <= m (never on the W side, |F| >= |A|).
        if 3 * F.size > m:
            return out, Q @ (out - z)
        mu = -Qz
        rows = max(1, FREE_CHUNK // m)
        for start in range(0, F.size, rows):
            chunk = F[start:start + rows]
            mu += out[chunk] @ Q[chunk]
        return out, mu

    # Block principal pivoting: flip every violated index per sweep, falling
    # back to single-index pivots if the infeasibility count stalls.
    best_infeas = m + 1
    block_budget = 30
    seen = set()  # working sets of the current run of single pivots
    max_iter = 10 * m + 100
    for sweep in range(1, max_iter + 1):
        theta, mu = subproblem(active)
        primal = constrained & ~active & (theta < -1e-14)
        dual = active & (mu < -PROJ_TOL)
        n_infeas = int(primal.sum() + dual.sum())
        if n_infeas == 0:
            return (theta, np.abs(mu[~active]).max(initial=0.0),
                    np.abs(Qz).max())
        if n_infeas < best_infeas:
            best_infeas = n_infeas
            block_budget = 30
            seen.clear()
        else:
            block_budget -= 1
        if block_budget > 0:
            active[primal] = True
            active[dual] = False
        else:
            # single pivot on the largest infeasible index: Murty's rule,
            # which on an SPD Q never revisits a working set in exact
            # arithmetic (Murty 1974; Júdice & Pires 1994), so a repeat is
            # numerical failure and ends the projection at once
            key = np.packbits(active).tobytes()
            if key in seen:
                raise OptimizerError(
                    f"projection single pivots revisit a working set "
                    f"(m = {m}, sweep {sweep})")
            seen.add(key)
            k = int(np.flatnonzero(primal | dual)[-1])
            active[k] = not active[k]
    raise OptimizerError("projection active-set did not converge")


# ---------------------------------------------------------------------------
# MAP initialization
# ---------------------------------------------------------------------------

def map_point(target):
    """Mode of the target by at most 20 damped Newton steps from 0, with
    Armijo backtracking."""
    x = np.zeros(target.d)
    fx = float(target.potential(x))
    for _ in range(20):
        g = target.grad(x)
        H = target.hessian(x)
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            step = g
        t = 1.0
        for _ in range(30):
            xn = x - t * step
            fn = float(target.potential(xn))
            if fn <= fx - 1e-4 * t * float(g @ step):
                break
            t *= 0.5
        else:
            break
        x, fx = xn, fn
        if np.linalg.norm(g) < 1e-12:
            break
    return x


# ---------------------------------------------------------------------------
# PGD driver
# ---------------------------------------------------------------------------

@one_thread()
def run_pgd(target, spec, gram, config: PgdConfig, consts=None,
            init: StarMapParams | None = None, sample: SaaSample | None = None
            ) -> FitResult:
    """Fit by PGD with both BLAS pools at one thread (restored on exit,
    also when the fit raises)."""
    if gram.spec.metadata() != spec.metadata():
        raise ValueError(f"the Gram matrix is of the dictionary "
                         f"{gram.spec.metadata()}, not of {spec.metadata()}")
    if consts is None:
        consts = target.regularity_constants()
    L = max(consts.L, consts.L_root / 2.0)
    upsilon = compute_upsilon(consts, spec, gram)
    alpha_strong = min(consts.ell, consts.ell_root)
    kappa = (L + upsilon) / alpha_strong if alpha_strong > 0 else math.inf

    if config.step_size is None:
        h = 1.0 / (L + upsilon)
    else:
        h = float(config.step_size)

    if sample is None:
        sample = SaaSample.build(config.seed, config.n_samples, spec.d)
    if init is None:
        init = StarMapParams(consts.spike(spec.d), np.zeros(spec.p),
                             map_point(target))
    params = init.copy()

    # fe is the report of the current point.  Its forward state feeds the
    # next gradient and is dropped before each projection, so at most one
    # state is alive and none while a projection runs.
    fe = free_energy(params, spec, target, sample)
    fvals = [fe.value]
    gnorms = []
    halvings = []
    active = np.flatnonzero(spec.constrained & (init.lam == 0))
    termination = "max-iter"
    iters = 0

    cur_step = h
    for it in range(config.max_iters):
        glam, gv = gradient(params, spec, target, sample, state=fe.state)
        nat = gram.solve(glam)

        # Sticky step: every iteration first tries double the last accepted
        # step (capped at h), also right after an iteration that halved, and
        # halves until F̂ does not rise.  The default 1/(L+Υ) descends when
        # the regularity constants hold, so it is never halved then.
        # The first trial's projection starts from the iterate's active set
        # (its constrained zeros, for the initial one), each halving's from
        # the set of the trial it rejected: the halved point lies between
        # the two, far nearer the rejected trial.  The accepted trial's set
        # is the next iterate's.
        step = min(h, 2.0 * cur_step)
        for n_halved in range(MAX_HALVINGS + 1):
            fe = None
            lam_new, active = project_cone_q(
                params.lam - step * nat, gram, spec.constrained,
                warm_active=active)
            v_new = params.v - step * gv
            trial = StarMapParams(params.alpha, lam_new, v_new)
            try:
                fe = free_energy(trial, spec, target, sample)
            except (TargetOverflowError, ConeViolationError):
                if n_halved == MAX_HALVINGS:
                    raise
            # the last trial is kept even if F̂ rose
            if fe is not None and (fe.value <= fvals[-1] + 1e-12
                                   or n_halved == MAX_HALVINGS):
                break
            step *= 0.5
        cur_step = step

        dlam = trial.lam - params.lam
        dv = trial.v - params.v
        theta_norm = math.sqrt(max(0.0, float(dlam @ gram.matvec(dlam))
                                   + float(dv @ dv))) / step
        params = trial
        fvals.append(fe.value)
        gnorms.append(theta_norm)
        halvings.append(n_halved)
        iters = it + 1
        if theta_norm <= config.tol:
            termination = "tolerance"
            break

    return FitResult(params, np.asarray(fvals), np.asarray(gnorms),
                     np.asarray(halvings, dtype=int), iters, termination,
                     h, kappa, upsilon)
