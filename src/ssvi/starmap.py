"""Star-separable transport maps T(x) = diag(α)x + Σ λ_T T(x) + v.

The map acts coordinatewise: z₁ = T₁(x₁) depends only on the root variable,
and z_i = T_i(x_i; x₁) for every leaf i ≥ 1 depends only on (x_i, x₁).  Its
Jacobian is lower triangular with structure diag + (root column), so the
log-determinant is a sum of logs of the diagonal.

A leaf's M1–M4 coefficients, ``lam[spec.leaf_index[li]][:-N]``, form one
(2N+2)×N table: rows 0..N−1 are M1 by root cell, N..2N−1 are M2, 2N is M3
and 2N+1 is M4; the last N entries are M5.  For fixed x₁ the leaf is a 1-D
ramp map in x_i whose coefficients blend two rows of that table: f₁·M1[k₁]
+ (1−f₁)·M2[k₁] in the box, the M3 row at x₁ ≥ R and the M4 row below −R.

Coefficients over breakpoints are accumulated through prefix sums, so one map
evaluation costs O(d) per sample.  The cell bucketing it reads depends on the
sample and the grid alone: :func:`sample_grid` does it once per (sample,
grid), and a fit on a frozen sample reuses it at every evaluation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dictionary import DictionarySpec, build_dictionary


class ConeViolationError(RuntimeError):
    """A Jacobian diagonal entry was nonpositive (projection bug)."""


class MonotonicityError(RuntimeError):
    """Supplied map has a negative increment on the grid."""


@dataclass
class StarMapParams:
    """Coefficients (λ, v) and the spike vector α of one map."""

    alpha: np.ndarray
    lam: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.lam = np.asarray(self.lam, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if not np.all(self.alpha > 0):  # NaN fails too
            raise ValueError("spike entries must be positive")

    def copy(self):
        return StarMapParams(self.alpha.copy(), self.lam.copy(), self.v.copy())


def identity_params(spec: DictionarySpec, alpha=None) -> StarMapParams:
    """λ=0, v=0 — the pure spike map diag(α)x (identity for α=1)."""
    if alpha is None:
        alpha = np.ones(spec.d)
    return StarMapParams(np.asarray(alpha, dtype=float),
                         np.zeros(spec.p), np.zeros(spec.d))


@dataclass
class JacobianSketch:
    """diag + root-column sketch of the triangular Jacobian."""

    diag: np.ndarray      # (..., d), all entries positive for admissible λ
    root_col: np.ndarray  # (..., d-1): entries (i, 0) for leaves i >= 1

    def dense(self):
        """Reconstruct the dense lower-triangular matrix (single point)."""
        d = self.diag.shape[-1]
        J = np.zeros(self.diag.shape + (d,))
        idx = np.arange(d)
        J[..., idx, idx] = self.diag
        J[..., 1:, 0] += self.root_col
        return J


@dataclass(frozen=True)
class SampleGrid:
    """What :func:`forward` and the objective gradient read from X alone.

    Each leaf blends the two table rows r_a and r_b of ``_leaf_rows``; its
    entries at x_i sit at the flat table indices ia = r_a·N + k_i and
    ib = ia + ``step`` with step = (r_b − r_a)·N.
    """

    k1: np.ndarray       # (n,) root cell
    f1: np.ndarray       # (n,) position of x₁ in it
    inbox1: np.ndarray   # (n,) x₁ in [−R, R)
    w_a: np.ndarray      # (n,) weights of the two blended rows
    w_b: np.ndarray
    fi: np.ndarray       # (d-1, n) leaf positions
    inboxi: np.ndarray   # (d-1, n)
    ia: np.ndarray       # (d-1, n) flat index r_a·N + k_i
    step: np.ndarray     # (n,) ib − ia


@dataclass
class _ForwardState:
    """Everything the objective gradient needs from one forward pass."""

    X: np.ndarray
    Z: np.ndarray
    diag: np.ndarray
    grid: SampleGrid


def _bucket(spec, x):
    """Cell index and fractional position of x on the grid (clipped)."""
    t = np.clip((x + spec.R) / spec.delta, 0.0, float(spec.N))
    k = np.minimum(t.astype(np.intp), spec.N - 1)
    return k, t - k


def _cells(spec, x):
    """``_bucket`` and whether x lies in the box [−R, R)."""
    return (*_bucket(spec, x), (x >= -spec.R) & (x < spec.R))


def _prefix(coef, axis=-1):
    """Prefix sums with a leading zero along ``axis``."""
    shape = list(coef.shape)
    shape[axis] += 1
    out = np.zeros(shape, dtype=coef.dtype)
    tail = [slice(None)] * coef.ndim
    tail[axis] = slice(1, None)
    np.cumsum(coef, axis=axis, out=out[tuple(tail)])
    return out


def _leaf_table(spec, lam, li):
    """Leaf li+1's (2N+2, N) M1–M4 table and its M5 vector (see above)."""
    lam_i, N = lam[spec.leaf_index[li]], spec.N
    return lam_i[:-N].reshape(2 * N + 2, N), lam_i[-N:]


def _leaf_rows(spec, x1, k1, f1, inbox):
    """The two table rows a leaf blends at root input x₁, with weights.

    In the box x₁ ∈ [−R, R) these are (k₁, f₁) and (N+k₁, 1−f₁); at x₁ ≥ R
    the M3 row 2N with weight 1, below −R the M4 row 2N+1 with weight 1,
    and the second weight is 0 outside the box.  (k₁, f₁, inbox) are
    ``_cells`` of x₁.
    """
    N = spec.N
    r1 = np.where(inbox, k1, np.where(x1 >= spec.R, 2 * N, 2 * N + 1))
    return ((r1, np.where(inbox, f1, 1.0)),
            (N + k1, np.where(inbox, 1.0 - f1, 0.0)))


def sample_grid(spec: DictionarySpec, X) -> SampleGrid:
    """Bucket every point of X (shape (n, d)) on ``spec``'s grid."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != spec.d:
        raise ValueError(
            f"dimension mismatch: expected {spec.d}, got {X.shape[1]}")
    x1 = X[:, 0]
    k1, f1, inbox1 = _cells(spec, x1)
    (r_a, w_a), (r_b, w_b) = _leaf_rows(spec, x1, k1, f1, inbox1)
    ki, fi, inboxi = _cells(spec, np.ascontiguousarray(X[:, 1:].T))
    N = spec.N
    return SampleGrid(k1, f1, inbox1, w_a, w_b, fi, inboxi,
                      r_a * N + ki, (r_b - r_a) * N)


def _leaf_ramps(spec, lam, li, grid):
    """Leaf li+1 at the two rows of ``grid``.

    Returns T5, the leaf's M5 vector, and (T[r, k_i], s_r) for each row r,
    with s_r = Σ_m T[r, m] ψ((x_i−b_m)/δ).  Both T and its exclusive prefix
    sums P[r, k] = Σ_{m<k} T[r, m] are read at the flat index r·N + k_i.
    """
    T, T5 = _leaf_table(spec, lam, li)
    P = _prefix(T, axis=1)[:, :-1].ravel()
    T = T.ravel()
    ia, fi = grid.ia[li], grid.fi[li]

    def ramp(idx):
        t = T[idx]
        return t, P[idx] + t * fi

    return T5, ramp(ia), ramp(ia + grid.step)


def forward(params: StarMapParams, spec: DictionarySpec, X,
            grid: SampleGrid | None = None) -> _ForwardState:
    """One vectorized forward pass: map values and Jacobian diagonal.

    Each leaf blends two rows (r, w) of its table (``_leaf_rows``): with
    s_r = Σ_m T[r, m] ψ((x_i−b_m)/δ), its value is Σ w·s_r plus the M5 ramp
    sum in x₁ and its slope Σ w·T[r, k_i]/δ in the box.  The root column,
    which the objective never reads, is left to :func:`jacobian`.

    ``grid`` is :func:`sample_grid` of ``spec`` and X; without it X is
    bucketed here.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    g = sample_grid(spec, X) if grid is None else grid
    d = X.shape[1]
    inv_delta = 1.0 / spec.delta
    offsets = np.bincount(spec.coord, weights=params.lam * spec.centering,
                          minlength=d)

    Z, diag = np.empty_like(X), np.empty_like(X)
    Z[:, 0], diag[:, 0] = _map_1d(spec, *_root_1d(params, spec), X[:, 0],
                                  (g.k1, g.f1, g.inbox1))
    for li in range(d - 1):
        i = li + 1
        T5, (ta, s_a), (tb, s_b) = _leaf_ramps(spec, params.lam, li, g)
        diag[:, i] = params.alpha[i] + g.inboxi[li] \
            * (g.w_a * ta + g.w_b * tb) * inv_delta
        del ta, tb  # before the value's temporaries: the pass's peak memory
        Z[:, i] = (params.alpha[i] * X[:, i]
                   + (_prefix(T5)[g.k1] + T5[g.k1] * g.f1
                      + (g.w_a * s_a + g.w_b * s_b))
                   + params.v[i] - offsets[i])

    return _ForwardState(X, Z, diag, g)


def map_eval(params, spec, x):
    """Evaluate the map at x (shape (d,) or (n, d))."""
    x = np.asarray(x, dtype=float)
    Z = forward(params, spec, x).Z
    return Z[0] if x.ndim == 1 else Z


def jacobian(params, spec, x) -> JacobianSketch:
    """Diagonal (from :func:`forward`) and root column of DT at x.

    Leaf i's root-column entry is ∂T_i/∂x₁ = (T5[k₁] + s_a − s_b)/δ for x₁
    in the box, 0 outside, with s_a, s_b the ramp sums of ``_leaf_ramps``.
    """
    x = np.asarray(x, dtype=float)
    st = forward(params, spec, x)
    g = st.grid
    root_col = np.empty((st.X.shape[0], spec.d - 1))
    for li in range(spec.d - 1):
        T5, (_, s_a), (_, s_b) = _leaf_ramps(spec, params.lam, li, g)
        root_col[:, li] = np.where(
            g.inbox1, (T5[g.k1] + (s_a - s_b)) * (1.0 / spec.delta), 0.0)
    if x.ndim == 1:
        return JacobianSketch(st.diag[0], root_col[0])
    return JacobianSketch(st.diag, root_col)


def log_det(jac: JacobianSketch):
    """Σ_i log diag_i; the root column never enters."""
    if np.any(jac.diag <= 0):
        raise ConeViolationError("cone violation: nonpositive Jacobian diagonal")
    return np.log(jac.diag).sum(axis=-1)


def inverse_trace_weight(jac: JacobianSketch, partials, coord):
    """tr((diag + u e₁ᵀ)⁻¹ DT′) for a single basis T′.

    By Sherman–Morrison, L⁻¹ = D⁻¹ − D⁻¹u e₁ᵀ D⁻¹ with u₁ = 0, so the (1, i)
    entries of L⁻¹ vanish for i > 1 and only the diagonal partial of T′
    contributes: the result is (diag partial of T′) / diag at T′'s coordinate.
    """
    d_diag, _d_root = partials
    return d_diag / jac.diag[..., coord]


# ---------------------------------------------------------------------------
# Pushforward densities
# ---------------------------------------------------------------------------

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def _map_1d(spec, a, mu, const, x, cells=None):
    """Value and slope of the 1-D map a·x + Σ_m mu_m ψ((x−b_m)/δ) + const;
    ``cells`` is ``_cells`` of x if already known."""
    k, f, inbox = _cells(spec, x) if cells is None else cells
    val = a * x + _prefix(mu)[k] + mu[k] * f + const
    return val, a + inbox * mu[k] / spec.delta


def _invert_1d(spec, a, mu, const, z):
    """x with _map_1d(x) = z, and T′(x): with a > 0 and mu ≥ 0 the map is
    increasing and linear between its N+1 knots, so one linear equation per
    point gives x (a knot takes its right cell, as in ``_map_1d``)."""
    knots = np.append(spec.breakpoints, spec.R)
    tk = a * knots + _prefix(mu) + const
    j = np.searchsorted(tk, z, side="right")  # cell j−1; 0 and N+1 tails
    k = np.clip(j - 1, 0, spec.N)
    slope = a + np.pad(mu, 1)[j] / spec.delta
    return knots[k] + (z - tk[k]) / slope, slope


def _logdensity_1d(spec, a, mu, const, z):
    """log-density at z of the 1-D map's pushforward of N(0, 1)."""
    z = np.asarray(z, dtype=float)
    x, slope = _invert_1d(spec, a, mu, const, np.atleast_1d(z))
    out = -0.5 * x * x - _HALF_LOG_2PI - np.log(slope)
    return float(out[0]) if z.ndim == 0 else out


def _root_1d(params, spec):
    """The root map T₁ as (a, mu, const) of ``_map_1d``."""
    lam0 = params.lam[:spec.N]
    offset = float(lam0 @ spec.centering[:spec.N])
    return params.alpha[0], lam0, params.v[0] - offset


def invert_root(params, spec, z1):
    """x₁ = T₁⁻¹(z₁), exact: T₁ is piecewise linear and increasing."""
    z1 = np.asarray(z1, dtype=float)
    x = _invert_1d(spec, *_root_1d(params, spec), np.atleast_1d(z1))[0]
    return float(x[0]) if z1.ndim == 0 else x


def root_marginal_logdensity(params, spec, z1):
    """log p*(z₁) of the pushforward root marginal."""
    return _logdensity_1d(spec, *_root_1d(params, spec), z1)


def leaf_profile(params, spec, i, x1):
    """Effective 1-D leaf map at a fixed root input x₁ (scalar).

    Returns (mu, const) with T_i(x_i) = α_i x_i + Σ_m mu_m ψ((x_i−b_m)/δ) +
    const: mu blends the two table rows of ``_leaf_rows`` and const carries
    the M5 ramp sum in x₁.
    """
    if not 1 <= i < spec.d:
        raise ValueError(f"leaf index out of range: {i}")
    li = i - 1
    x1 = np.asarray([float(x1)])
    k1, f1, inbox = _cells(spec, x1)
    T, T5 = _leaf_table(spec, params.lam, li)
    mu = sum(w[0] * T[r[0]] for r, w in _leaf_rows(spec, x1, k1, f1, inbox))
    idx = spec.leaf_index[li]
    off_i = float(np.sum(params.lam[idx] * spec.centering[idx]))
    const = params.v[i] - off_i + _prefix(T5)[k1[0]] + T5[k1[0]] * f1[0]
    return mu, const


def leaf_conditional_logdensity(params, spec, i, z_i, z1):
    """log q_i*(z_i | z₁) of the pushforward leaf conditional."""
    x1 = invert_root(params, spec, float(z1))
    mu, const = leaf_profile(params, spec, i, x1)
    return _logdensity_1d(spec, params.alpha[i], mu, const, z_i)


# ---------------------------------------------------------------------------
# Oracle approximator (grid interpolation of an external map)
# ---------------------------------------------------------------------------

def build_oracle_approximator(t_star, spec: DictionarySpec, alpha,
                              tol=1e-9) -> StarMapParams:
    """Interpolate an external star-separable map on the dictionary grid.

    ``t_star`` must expose ``t1(x1)`` and ``ti(i, xi, x1)`` (vectorized,
    broadcasting).  The spike diag(α)·x is subtracted first; grid increments
    of the remainder become the ramp coefficients, and constant offsets are
    absorbed into v so the represented (centered) map matches the uncentered
    construction pointwise.  Outside [−R, R) in x₁ the leaf maps clamp to the
    boundary columns.
    """
    alpha = np.asarray(alpha, dtype=float)
    d, N = spec.d, spec.N
    grid = np.append(spec.breakpoints, spec.R)  # length N+1
    lam = np.zeros(spec.p)
    v = np.zeros(d)

    g1 = np.asarray(t_star.t1(grid), dtype=float) - alpha[0] * grid
    inc = np.diff(g1)
    if inc.min() < -tol:
        raise MonotonicityError(
            f"root map increment {inc.min():.3e} < 0 on the grid")
    lam[:N] = np.clip(inc, 0.0, None)
    v[0] = g1[0] + float(lam[:N] @ spec.centering[:N])

    # x₁ grid column of each leaf-table row: M1 row j the right end of root
    # cell j, M2 row j its left end, M3 the column at R and M4 the one at −R
    cols = np.r_[1:N + 1, 0:N, N, 0]
    for li in range(d - 1):
        i = li + 1
        Gi = np.asarray(t_star.ti(i, grid[:, None], grid[None, :]),
                        dtype=float) - alpha[i] * grid[:, None]
        D = np.diff(Gi, axis=0)          # (N, N+1): increments in x_i
        if D.min() < -tol:
            raise MonotonicityError(
                f"leaf {i} increment {D.min():.3e} < 0 on the grid")
        idx = spec.leaf_index[li]
        # M5 is the root-ramp baseline, sign-free
        lam[idx] = np.concatenate([np.clip(D, 0.0, None)[:, cols].T.ravel(),
                                   np.diff(Gi[0])])
        v[i] = Gi[0, 0] + float(lam[idx] @ spec.centering[idx])

    return StarMapParams(alpha, lam, v)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def params_to_json(params: StarMapParams, spec: DictionarySpec) -> dict:
    return {
        "dict": spec.metadata(),
        "alpha": params.alpha.tolist(),
        "lambda": params.lam.tolist(),
        "v": params.v.tolist(),
    }


def params_from_json(block, spec: DictionarySpec | None = None):
    """Load (params, spec) from a dict or JSON string.

    The map must be finite and increasing: every slope of the root map,
    α₁ + λ_root[k]/δ, and of each leaf table row, α_i + T[r, k]/δ, must be
    positive, as the pushforward densities' inverses assume.
    """
    if isinstance(block, str):
        block = json.loads(block)
    meta = block["dict"]
    if spec is None:
        spec = build_dictionary(meta["d"], meta["R"], meta["delta"])
    if meta != spec.metadata():  # grid or ordering_version differs
        raise ValueError(
            f"dictionary mismatch: file has {meta}, expected "
            f"{spec.metadata()}")
    params = StarMapParams(np.asarray(block["alpha"], dtype=float),
                           np.asarray(block["lambda"], dtype=float),
                           np.asarray(block["v"], dtype=float))
    if (params.lam.size != spec.p or params.v.size != spec.d
            or params.alpha.size != spec.d):
        raise ValueError("parameter sizes do not match the dictionary")
    if not all(np.isfinite(x).all()
               for x in (params.alpha, params.lam, params.v)):
        raise ValueError("alpha, lambda and v must be finite")
    N, delta = spec.N, spec.delta
    tables = params.lam[spec.leaf_index][:, :-N]  # each leaf's M1–M4 table
    if not (np.all(params.alpha[0] + params.lam[:N] / delta > 0)
            and np.all(params.alpha[1:, None] + tables / delta > 0)):
        raise ValueError("the map is not increasing: a slope α + λ/δ of "
                         "the root map or of a leaf table is not positive")
    return params, spec
