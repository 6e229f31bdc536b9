"""Piecewise-linear basis dictionary and its Gram matrix.

The dictionary consists of six classes of ramp-based maps on a uniform grid
B = {−R, −R+δ, …, R−δ} of N = 2R/δ breakpoints (half-open cells [b, b+δ)):

  * M0 — ψ((x₁−b)/δ) acting on the root coordinate.
  * M1 — ψ((x_i−b)/δ)·ψ((x₁−b′)/δ)·1{x₁ ∈ [b′,b′+δ)} on leaf i.
  * M2 — ψ((x_i−b)/δ)·ψ(1−(x₁−b′)/δ)·1{x₁ ∈ [b′,b′+δ)} on leaf i.
  * M3 — ψ((x_i−b)/δ)·1{x₁ ≥ R} on leaf i.
  * M4 — ψ((x_i−b)/δ)·1{x₁ < −R} on leaf i.
  * M5 — ψ((x₁−b)/δ) acting on leaf i (sign-free coefficients).

Here ψ(t) = min(max(t, 0), 1) is the clipped-linear ramp.  Every basis is
centered (its mean under ρ = N(0, I) is subtracted) so that translations are
carried exclusively by the v parameter.  Coefficients for M0–M4 are
constrained nonnegative; M5 coefficients are free.

Canonical ordering is class-major, then leaf index, then b′, then b
(``ORDERING_VERSION``); it is part of the on-disk format.  Row ``li`` of
``DictionarySpec.leaf_index`` lists leaf li+1's indices in that order, which
is also the order of its (identical) Gram block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import cho_factor, cho_solve
from scipy.special import ndtr
from scipy.stats import norm

ORDERING_VERSION = "class-major-v1"
CLASSES = ("M0", "M1", "M2", "M3", "M4", "M5")


def ramp(t):
    """The clipped-linear building block ψ(t) = min(max(t, 0), 1)."""
    return np.clip(t, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Closed-form Gaussian means of the one-dimensional factors
# ---------------------------------------------------------------------------

def ramp_mean(b, delta):
    """E[ψ((X−b)/δ)] for X ~ N(0,1)."""
    b = np.asarray(b, dtype=float)
    t = b + delta
    return ((norm.pdf(b) - norm.pdf(t) - b * (ndtr(t) - ndtr(b))) / delta
            + 1.0 - ndtr(t))


def cell_up_mean(b, delta):
    """E[ψ((X−b)/δ)·1{X ∈ [b, b+δ)}] for X ~ N(0,1)."""
    b = np.asarray(b, dtype=float)
    t = b + delta
    return (norm.pdf(b) - norm.pdf(t) - b * (ndtr(t) - ndtr(b))) / delta


def cell_down_mean(b, delta):
    """E[ψ(1−(X−b)/δ)·1{X ∈ [b, b+δ)}] for X ~ N(0,1)."""
    b = np.asarray(b, dtype=float)
    t = b + delta
    return ndtr(t) - ndtr(b) - cell_up_mean(b, delta)


# ---------------------------------------------------------------------------
# Dictionary spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisId:
    """Identifies one dictionary element.

    ``i`` is the 0-based leaf coordinate (≥ 1), absent for M0.  ``b`` is the
    leaf breakpoint for M1–M4, the root breakpoint for M0/M5.  ``bprime`` is
    the root breakpoint for M1/M2 only.
    """

    cls: str
    i: int | None
    b: float
    bprime: float | None = None


class DictionarySpec:
    """Enumerated basis family on the (d, R, δ) grid."""

    def __init__(self, d, R, delta):
        if d < 2:
            raise ValueError("dictionary requires d >= 2")
        if delta <= 0 or R <= 0:
            raise ValueError("R and delta must be positive")
        ratio = R / delta
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ValueError("R must be an integer multiple of delta")
        self.d = int(d)
        self.R = float(R)
        self.delta = float(delta)
        self.N = int(round(2 * R / delta))
        self.breakpoints = -self.R + self.delta * np.arange(self.N)
        N, dm1 = self.N, self.d - 1
        self.p = N + 2 * dm1 * N * N + 3 * dm1 * N
        self.ordering_version = ORDERING_VERSION
        # class-major offsets
        self._off = {
            "M0": 0,
            "M1": N,
            "M2": N + dm1 * N * N,
            "M3": N + 2 * dm1 * N * N,
            "M4": N + 2 * dm1 * N * N + dm1 * N,
            "M5": N + 2 * dm1 * N * N + 2 * dm1 * N,
        }
        ends = [self._off[c] for c in CLASSES[1:]] + [self.p]
        self.leaf_index = np.hstack([np.arange(a, b).reshape(dm1, -1)
                                     for a, b in zip(ends, ends[1:])])
        self.coord = np.zeros(self.p, dtype=np.intp)
        self.coord[self.leaf_index] = np.arange(1, self.d)[:, None]
        self.tail_hi = 1.0 - ndtr(self.R)
        self.tail_lo = ndtr(-self.R)
        self.centering = self._build_centering()
        self.constrained = np.ones(self.p, dtype=bool)
        self.constrained[self._off["M5"]:] = False

    # -- index bookkeeping ---------------------------------------------------

    def index_of(self, bid: BasisId) -> int:
        N = self.N
        m = self._bp_index(bid.b)
        if bid.cls == "M0":
            return m
        li = bid.i - 1
        if not 1 <= bid.i < self.d:
            raise ValueError(f"leaf index out of range: {bid.i}")
        if bid.cls in ("M1", "M2"):
            j = self._bp_index(bid.bprime)
            return self._off[bid.cls] + li * N * N + j * N + m
        if bid.cls in ("M3", "M4", "M5"):
            return self._off[bid.cls] + li * N + m
        raise ValueError(f"unknown class: {bid.cls}")

    def id_of(self, idx: int) -> BasisId:
        if not 0 <= idx < self.p:
            raise IndexError(idx)
        N, B = self.N, self.breakpoints
        for cls in reversed(CLASSES):
            if idx >= self._off[cls]:
                rel = idx - self._off[cls]
                break
        if cls == "M0":
            return BasisId("M0", None, B[rel])
        if cls in ("M1", "M2"):
            li, rem = divmod(rel, N * N)
            j, m = divmod(rem, N)
            return BasisId(cls, li + 1, B[m], B[j])
        li, m = divmod(rel, N)
        return BasisId(cls, li + 1, B[m])

    def _bp_index(self, b) -> int:
        t = (b + self.R) / self.delta
        m = int(round(t))
        if abs(t - m) > 1e-9 or not 0 <= m < self.N:
            raise ValueError(f"breakpoint {b} not on the grid")
        return m

    def views(self, lam):
        """Reshape a coefficient vector into per-class views.

        Returns (lam0 (N,), lam1 (d−1,N,N), lam2, lam3 (d−1,N), lam4, lam5)
        where the (d−1,N,N) axes are (leaf, root cell j, leaf breakpoint m).
        """
        N, dm1 = self.N, self.d - 1
        o = self._off
        lam = np.asarray(lam)
        return (lam[o["M0"]:o["M1"]],
                lam[o["M1"]:o["M2"]].reshape(dm1, N, N),
                lam[o["M2"]:o["M3"]].reshape(dm1, N, N),
                lam[o["M3"]:o["M4"]].reshape(dm1, N),
                lam[o["M4"]:o["M5"]].reshape(dm1, N),
                lam[o["M5"]:].reshape(dm1, N))

    def metadata(self):
        return {"d": self.d, "R": self.R, "delta": self.delta,
                "ordering_version": self.ordering_version}

    # -- centering ------------------------------------------------------------

    def _build_centering(self):
        B, delta = self.breakpoints, self.delta
        rm = ramp_mean(B, delta)
        c = np.empty(self.p)
        c[:self.N] = rm
        # one leaf vector, identical for every leaf: (j, m) layout for M1/M2
        c[self.leaf_index] = np.concatenate([
            np.outer(cell_up_mean(B, delta), rm).reshape(-1),
            np.outer(cell_down_mean(B, delta), rm).reshape(-1),
            rm * self.tail_hi, rm * self.tail_lo, rm])
        return c

    # -- pointwise basis evaluation (reference path; the map evaluator in
    #    starmap.py is the vectorized production path) -----------------------

    def _raw_value(self, bid: BasisId, x):
        x = np.asarray(x, dtype=float)
        delta, R = self.delta, self.R
        x1 = x[0]
        if bid.cls == "M0":
            return ramp((x1 - bid.b) / delta)
        xi = x[bid.i]
        if bid.cls == "M1":
            gate = bid.bprime <= x1 < bid.bprime + delta
            return (ramp((xi - bid.b) / delta)
                    * ramp((x1 - bid.bprime) / delta) * gate)
        if bid.cls == "M2":
            gate = bid.bprime <= x1 < bid.bprime + delta
            return (ramp((xi - bid.b) / delta)
                    * ramp(1.0 - (x1 - bid.bprime) / delta) * gate)
        if bid.cls == "M3":
            return ramp((xi - bid.b) / delta) * (x1 >= R)
        if bid.cls == "M4":
            return ramp((xi - bid.b) / delta) * (x1 < -R)
        if bid.cls == "M5":
            return ramp((x1 - bid.b) / delta)
        raise ValueError(bid.cls)

    def basis_eval(self, bid: BasisId, x):
        """Centered contribution of one basis: (coordinate, value)."""
        coord = 0 if bid.cls == "M0" else bid.i
        return coord, self._raw_value(bid, x) - self.centering[self.index_of(bid)]

    def basis_partials(self, bid: BasisId, x):
        """Jacobian entries of one basis: (diagonal slot, root slot).

        The diagonal slot is ∂/∂x_i on (i, i) (or (0, 0) for M0); the root
        slot is ∂/∂x₁ on (i, 0).  Half-open cells: derivatives at a
        breakpoint use the right cell.
        """
        x = np.asarray(x, dtype=float)
        delta, R = self.delta, self.R
        inv = 1.0 / delta
        x1 = x[0]
        if bid.cls == "M0":
            return (inv * (bid.b <= x1 < bid.b + delta), 0.0)
        xi = x[bid.i]
        in_cell_i = bid.b <= xi < bid.b + delta
        if bid.cls == "M1":
            gate = bid.bprime <= x1 < bid.bprime + delta
            if not gate:
                return (0.0, 0.0)
            return (inv * in_cell_i * ramp((x1 - bid.bprime) / delta),
                    inv * ramp((xi - bid.b) / delta))
        if bid.cls == "M2":
            gate = bid.bprime <= x1 < bid.bprime + delta
            if not gate:
                return (0.0, 0.0)
            return (inv * in_cell_i * ramp(1.0 - (x1 - bid.bprime) / delta),
                    -inv * ramp((xi - bid.b) / delta))
        if bid.cls == "M3":
            return (inv * in_cell_i * (x1 >= R), 0.0)
        if bid.cls == "M4":
            return (inv * in_cell_i * (x1 < -R), 0.0)
        if bid.cls == "M5":
            return (0.0, inv * (bid.b <= x1 < bid.b + delta))
        raise ValueError(bid.cls)


def build_dictionary(d, R, delta) -> DictionarySpec:
    return DictionarySpec(d, R, delta)


# ---------------------------------------------------------------------------
# Gram matrix
# ---------------------------------------------------------------------------

class DictionaryDegenerateError(RuntimeError):
    pass


def _factor_tables(spec: DictionarySpec):
    """Gaussian expectations of pairwise products of the 1-D factors.

    Every basis is a product f(x_i)·g(x₁) of one leaf factor and one root
    factor (for M0 the single ramp factor lives on x₁, which shares the
    standard-normal law).  Returns (F, G):

      F — (N+1)×(N+1) over leaf factors [const, ramp_0..ramp_{N-1}];
      G — (3N+2)×(3N+2) over root factors
          [ramp_0.., up_0.., down_0.., hi, lo].
    """
    N, B, delta, R = spec.N, spec.breakpoints, spec.delta, spec.R
    nodes, weights = leggauss(8)
    # per-cell Gauss-Legendre grid over [-R, R]
    half = 0.5 * delta
    xs = (B[:, None] + half + half * nodes[None, :]).reshape(-1)
    ws = np.tile(half * weights, N) * norm.pdf(xs)

    t = (xs[None, :] - B[:, None]) / delta          # (N, nodes)
    ramps = np.clip(t, 0.0, 1.0)
    cell = (t >= 0.0) & (t < 1.0)
    ups = np.where(cell, t, 0.0)
    downs = np.where(cell, 1.0 - t, 0.0)

    nf = N + 1
    Vf = np.vstack([np.ones_like(xs)[None, :], ramps])
    lf = np.concatenate([[1.0], np.zeros(N)])
    rf = np.concatenate([[1.0], np.ones(N)])
    F = (Vf * ws) @ Vf.T + spec.tail_lo * np.outer(lf, lf) \
        + spec.tail_hi * np.outer(rf, rf)

    Vg = np.vstack([ramps, ups, downs,
                    np.zeros_like(xs)[None, :], np.zeros_like(xs)[None, :]])
    lg = np.concatenate([np.zeros(3 * N), [0.0, 1.0]])
    rg = np.concatenate([np.ones(N), np.zeros(2 * N), [1.0, 0.0]])
    G = (Vg * ws) @ Vg.T + spec.tail_lo * np.outer(lg, lg) \
        + spec.tail_hi * np.outer(rg, rg)
    return F, G


def _leaf_factor_indices(spec: DictionarySpec):
    """(f, g) factor indices of one leaf block in canonical order."""
    N = spec.N
    f = []
    g = []
    # M1: j (root cell) outer, m (leaf ramp) inner
    for j in range(N):
        f.extend(range(1, N + 1))
        g.extend([N + j] * N)
    # M2
    for j in range(N):
        f.extend(range(1, N + 1))
        g.extend([2 * N + j] * N)
    # M3
    f.extend(range(1, N + 1))
    g.extend([3 * N] * N)
    # M4
    f.extend(range(1, N + 1))
    g.extend([3 * N + 1] * N)
    # M5: f is the constant, g the root ramp
    f.extend([0] * N)
    g.extend(range(N))
    return np.array(f), np.array(g)


class GramMatrix:
    """Dense Gram matrix Q of the centered dictionary under ρ = N(0, I)."""

    def __init__(self, spec: DictionarySpec, Q: np.ndarray):
        self.spec = spec
        self.Q = Q
        try:
            self._cho = cho_factor(Q, lower=True)
        except np.linalg.LinAlgError as exc:
            raise DictionaryDegenerateError(
                "Gram matrix not positive definite") from exc
        self._inv = None
        self._inv_norm = None

    def solve(self, x):
        """Q⁻¹ x via the cached Cholesky factor."""
        return cho_solve(self._cho, x)

    @property
    def inverse(self):
        """Dense Q⁻¹ (computed once; used by the cone projection)."""
        if self._inv is None:
            W = cho_solve(self._cho, np.eye(self.spec.p))
            self._inv = 0.5 * (W + W.T)
        return self._inv

    @property
    def inv_norm(self):
        """‖Q⁻¹‖₂ by power iteration on Cholesky solves (rel. tol 1e−6)."""
        if self._inv_norm is None:
            rng = np.random.default_rng(0)
            v = rng.standard_normal(self.spec.p)
            v /= np.linalg.norm(v)
            lam = 0.0
            for _ in range(500):
                y = cho_solve(self._cho, v)
                lam_new = float(np.linalg.norm(y))
                v = y / lam_new
                if abs(lam_new - lam) <= 1e-6 * lam_new:
                    lam = lam_new
                    break
                lam = lam_new
            self._inv_norm = lam
        return self._inv_norm


def _compute_gram(spec: DictionarySpec) -> np.ndarray:
    N = spec.N
    F, G = _factor_tables(spec)
    Q = np.zeros((spec.p, spec.p))
    c0 = spec.centering[:N]
    Q[:N, :N] = F[1:, 1:] - np.outer(c0, c0)
    fidx, gidx = _leaf_factor_indices(spec)
    leaf_c = spec.centering[spec.leaf_index[0]]
    block = F[np.ix_(fidx, fidx)] * G[np.ix_(gidx, gidx)] \
        - np.outer(leaf_c, leaf_c)
    # the d−1 leaf blocks are identical
    for idx in spec.leaf_index:
        Q[np.ix_(idx, idx)] = block
    return 0.5 * (Q + Q.T)


def gram_matrix(spec: DictionarySpec) -> GramMatrix:
    """Build the Gram matrix of ``spec`` and its Cholesky factor."""
    return GramMatrix(spec, _compute_gram(spec))
