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

import math
from dataclasses import dataclass
from functools import partial
from numbers import Integral, Real

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import cho_factor, cho_solve, lapack
from scipy.special import ndtr
from scipy.stats import norm

from .blas import one_thread

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
# Checked numbers (shared with the target constructors)
# ---------------------------------------------------------------------------

class FieldTypeError(TypeError):
    """A value of the wrong type; ``field`` is the name it was given as."""

    def __init__(self, field, detail):
        super().__init__(f"{field}: {detail}")
        self.field = field
        self.detail = detail


def check_number(field, value, kind=Real, optional=False):
    """Raise :class:`FieldTypeError` unless ``value`` is a ``kind`` number
    (never a bool), or None when ``optional``; checked before any
    comparison, so a string never reaches ``<=``."""
    if optional and value is None:
        return
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is Integral else "a real number"
        raise FieldTypeError(field, f"must be {noun}, got {value!r}")


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
        check_number("d", d, Integral)
        check_number("R", R)
        check_number("delta", delta)
        if d < 2:
            raise ValueError("dictionary requires d >= 2")
        if not (0 < delta < math.inf and 0 < R < math.inf):
            raise ValueError("R and delta must be positive and finite")
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

    def metadata(self):
        return {"d": self.d, "R": self.R, "delta": self.delta,
                "ordering_version": self.ordering_version}

    # -- centering ------------------------------------------------------------

    def _build_centering(self):
        B, delta = self.breakpoints, self.delta
        rm = ramp_mean(B, delta)
        fmean = np.r_[1.0, rm]
        gmean = np.r_[rm, cell_up_mean(B, delta), cell_down_mean(B, delta),
                      self.tail_hi, self.tail_lo]
        f, g = _leaf_factors(self.N)
        c = np.empty(self.p)
        c[:self.N] = rm
        # a leaf basis's mean is its factors' product, the same every leaf
        c[self.leaf_index] = gmean[g] * fmean[f]
        return c

    # -- pointwise basis partials (reference path; the Jacobian sketch in
    #    starmap.py is the vectorized production path) -----------------------

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


def _leaf_factors(N):
    """(f, g) factor indices of one leaf block in canonical order: table
    row r (M1, M2 by root cell, then M3, M4) pairs leaf ramp m (f = 1+m)
    with root factor g = N+r, and M5 the constant (f = 0) with root ramp m."""
    f = np.r_[np.tile(np.arange(1, N + 1), 2 * N + 2), np.zeros(N, int)]
    g = np.r_[np.repeat(np.arange(N, 3 * N + 2), N), np.arange(N)]
    return f, g


class GramMatrix:
    """Gram matrix Q of the centered dictionary under ρ = N(0, I), by block.

    Q is block-diagonal by coordinate: the N×N root block ``Q_root`` on the
    M0 coefficients, then d−1 identical leaf blocks ``Q_leaf``, one on each
    row of ``spec.leaf_index``.  Only the two distinct blocks and their
    Cholesky factors are stored, so memory does not grow with d.
    """

    def __init__(self, spec: DictionarySpec, Q_root: np.ndarray,
                 Q_leaf: np.ndarray):
        self.spec = spec
        self.Q_root = Q_root
        self.Q_leaf = Q_leaf
        try:
            self._cho = {"root": cho_factor(Q_root, lower=True),
                         "leaf": cho_factor(Q_leaf, lower=True)}
        except np.linalg.LinAlgError as exc:
            raise DictionaryDegenerateError(
                "Gram matrix not positive definite") from exc
        self._inv = {}
        self._inv_norm = None
        self._last_factor = [{} for _ in range(spec.d)]  # see ``blocks``

    def _by_block(self, x, root_op, leaf_op):
        """Apply ``root_op`` to x's root slice and ``leaf_op`` to its leaf
        slices, the d−1 leaves as the columns of one right-hand side."""
        x = np.asarray(x, dtype=float)
        N, idx = self.spec.N, self.spec.leaf_index
        out = np.empty_like(x)
        out[:N] = root_op(x[:N])
        out[idx] = leaf_op(x[idx].T).T
        return out

    def solve(self, x):
        """Q⁻¹ x via the cached block Cholesky factors."""
        return self._by_block(x, lambda b: cho_solve(self._cho["root"], b),
                              lambda b: cho_solve(self._cho["leaf"], b))

    def matvec(self, x):
        """Q x, one product per block."""
        return self._by_block(x, lambda b: self.Q_root @ b,
                              lambda b: self.Q_leaf @ b)

    def blocks(self):
        """(indices, Q block, Q⁻¹ fetcher, factor slot) of the root, then of
        each leaf.  The fetcher builds Q⁻¹ only when called.  The slot is a
        dict in which the cone projection keeps the block position's last
        working set and Cholesky factor, valid from fit to fit as Q is."""
        root, *leaves = self._last_factor
        yield (np.arange(self.spec.N), self.Q_root,
               partial(self.inverse, "root"), root)
        for idx, slot in zip(self.spec.leaf_index, leaves):
            yield idx, self.Q_leaf, partial(self.inverse, "leaf"), slot

    def inverse(self, block):
        """Q⁻¹ of the ``"root"`` or the ``"leaf"`` block, built on first use;
        the cone projection reads it only in a sweep whose active side is
        the smaller.  LAPACK potri fills the lower triangle (it reads only
        the cached factor's), which is mirrored upwards."""
        if block not in self._inv:
            inv, info = lapack.dpotri(self._cho[block][0], lower=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"potri failed (info={info})")
            W = np.tril(inv)
            del inv  # at most two m×m arrays alive at once
            W += np.tril(W, -1).T
            self._inv[block] = W
        return self._inv[block]

    @property
    def inv_norm(self):
        """‖Q⁻¹‖₂: the larger of the two blocks' power iterations."""
        if self._inv_norm is None:
            self._inv_norm = max(_power_inv_norm(self._cho["root"]),
                                 _power_inv_norm(self._cho["leaf"]))
        return self._inv_norm


def _power_inv_norm(cho):
    """‖A⁻¹‖₂ by power iteration on Cholesky solves (rel. tol 1e−6).

    ``cho_factor`` checked A for NaN/inf, so the solves skip that scan."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(cho[0].shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(500):
        y = cho_solve(cho, v, check_finite=False)
        lam_new = float(np.linalg.norm(y))
        v = y / lam_new
        if abs(lam_new - lam) <= 1e-6 * lam_new:
            return lam_new
        lam = lam_new
    return lam


def _compute_gram(spec: DictionarySpec):
    """The two distinct blocks of Q: (Q_root, Q_leaf)."""
    N = spec.N
    F, G = _factor_tables(spec)
    c0 = spec.centering[:N]
    Q_root = F[1:, 1:] - np.outer(c0, c0)
    fidx, gidx = _leaf_factors(N)
    leaf_c = spec.centering[spec.leaf_index[0]]
    Q_leaf = F[np.ix_(fidx, fidx)] * G[np.ix_(gidx, gidx)] \
        - np.outer(leaf_c, leaf_c)
    return 0.5 * (Q_root + Q_root.T), 0.5 * (Q_leaf + Q_leaf.T)


@one_thread()
def gram_matrix(spec: DictionarySpec) -> GramMatrix:
    """Build the two Gram blocks of ``spec`` and their Cholesky factors,
    with both BLAS pools at one thread (restored on exit)."""
    return GramMatrix(spec, *_compute_gram(spec))
