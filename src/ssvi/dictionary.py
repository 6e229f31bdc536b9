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
from scipy.sparse.linalg import LinearOperator, eigsh
from scipy.special import ndtr
from scipy.stats import norm

from .blas import one_thread

ORDERING_VERSION = "class-major-v1"
CLASSES = ("M0", "M1", "M2", "M3", "M4", "M5")


def ramp(t):
    """The clipped-linear building block ψ(t) = min(max(t, 0), 1)."""
    return np.clip(t, 0.0, 1.0)


# ---------------------------------------------------------------------------
# The one 1-D rule behind every Gaussian expectation
# ---------------------------------------------------------------------------

def _factor_rule(spec):
    """(V, w): the 3N+3 one-dimensional factors at the nodes of one rule for
    X ~ N(0, 1), and the node weights, so that E[u(X)] = Σₖ V[u, k]·w[k].

    The rows of V are every factor a basis is built from:
    [const, ramp_0.., up_0.., down_0.., hi, lo], where up/down are ψ(t) and
    ψ(1−t) gated to their cell and hi/lo the tail indicators.  The nodes are
    8 Gauss–Legendre points per cell of [−R, R), weighted by the normal
    density, plus one atom on each tail (at ±∞) carrying the tail's mass:
    every factor is constant on a tail.
    """
    N, B, delta, R = spec.N, spec.breakpoints, spec.delta, spec.R
    nodes, weights = leggauss(8)
    half = 0.5 * delta
    x = (B[:, None] + half + half * nodes[None, :]).reshape(-1)
    w = np.r_[np.tile(half * weights, N) * norm.pdf(x),
              spec.tail_lo, spec.tail_hi]
    x = np.r_[x, -np.inf, np.inf]
    t = (x[None, :] - B[:, None]) / delta          # (N, nodes)
    cell = (t >= 0.0) & (t < 1.0)
    V = np.vstack([np.ones_like(x), np.clip(t, 0.0, 1.0),
                   np.where(cell, t, 0.0), np.where(cell, 1.0 - t, 0.0),
                   x >= R, x < -R])
    return V, w


def _leaf_layout(N):
    """The bases of one leaf block in canonical order, as groups (g, f) of
    rows of V.  A group holds the len(g)·len(f) bases f[m](x_i)·g[r](x₁),
    r-major, on leaf coordinate i: the table, leaf ramp m times root factor
    1+N+r (row r: M1 and M2 by root cell, then M3, M4), bordered by M5, the
    constant times root ramp r.  T₁ depends on x₁ alone, so the root's M0
    bases are these M5 ramps: the root block is the leaf block's M5
    corner."""
    ramps = np.arange(1, N + 1)
    return (np.arange(N + 1, 3 * N + 3), ramps), (ramps, np.zeros(1, int))


# ---------------------------------------------------------------------------
# Checked inputs (shared with the targets, the optimizer and the CLI)
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


def check_keys(block, allowed, what="keys", error=ValueError):
    """Raise ``error`` naming the keys of ``block`` not in ``allowed``."""
    unknown = set(block) - set(allowed)
    if unknown:
        raise error(f"unknown {what}: {sorted(unknown)}")


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
        self.ordering_version = ORDERING_VERSION
        # class-major offsets, then p, from one sum of the class sizes
        sizes = [N] + [dm1 * n for n in (N * N, N * N, N, N, N)]
        ends = np.cumsum([0] + sizes).tolist()
        self._off, self.p = dict(zip(CLASSES, ends)), ends[-1]
        self.leaf_index = np.hstack([np.arange(a, b).reshape(dm1, -1)
                                     for a, b in zip(ends[1:], ends[2:])])
        self.coord = np.zeros(self.p, dtype=np.intp)
        self.coord[self.leaf_index] = np.arange(1, self.d)[:, None]
        self.tail_hi = 1.0 - ndtr(self.R)
        self.tail_lo = ndtr(-self.R)
        # a basis's mean is its factors' product; summed without BLAS, so
        # the centering does not depend on the thread count
        V, w = _factor_rule(self)
        mean = (V * w).sum(axis=1)
        leaf = np.hstack([np.outer(mean[g], mean[f]).ravel()
                          for g, f in _leaf_layout(N)])
        self.centering = np.empty(self.p)
        self.centering[:N] = leaf[-N:]  # M0 is the M5 border's root ramps
        self.centering[self.leaf_index] = leaf
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


class GramMatrix:
    """Gram matrix Q of the centered dictionary under ρ = N(0, I), by block.

    Q is block-diagonal by coordinate: the N×N root block ``Q_root`` on the
    M0 coefficients, then d−1 identical leaf blocks ``Q_leaf``, one on each
    row of ``spec.leaf_index``; ``Q_root`` is a copy of ``Q_leaf``'s M5
    corner (``_leaf_layout``).  Only the two blocks and their Cholesky
    factors are stored; the cone projection's cache grows with d, one
    factor of at most (m/2)² entries per block position (``blocks``).

    ``Q_leaf`` must be exactly symmetric, as ``_compute_gram`` builds it;
    this is not checked (a check reads all m² entries).  Each block is
    factored through its transpose, the same numbers in Fortran order,
    which LAPACK takes with a plain copy instead of a transposing one.
    """

    def __init__(self, spec: DictionarySpec, Q_leaf: np.ndarray):
        self.spec = spec
        self.Q_root = Q_leaf[-spec.N:, -spec.N:].copy()
        self.Q_leaf = Q_leaf
        try:
            self._cho = {"root": cho_factor(self.Q_root.T, lower=True),
                         "leaf": cho_factor(Q_leaf.T, lower=True)}
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
        """Q⁻¹ x via the cached block Cholesky factors.  A non-finite x
        raises ``ValueError``; the factors were checked when made."""
        x = np.asarray_chkfinite(x, dtype=float)
        return self._by_block(
            x, partial(cho_solve, self._cho["root"], check_finite=False),
            partial(cho_solve, self._cho["leaf"], check_finite=False))

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
        """‖Q⁻¹‖₂ = λ_max(Q_leaf⁻¹) on first access (by Cauchy interlacing,
        as Q_root is a corner of Q_leaf), by ARPACK ``eigsh`` on a
        ``LinearOperator`` of the cached leaf factor's solves, stopped once
        the top Ritz value θ has residual ≤ 1e−10·θ: a lower estimate within
        1e−10 relative of an eigenvalue.  ``ArpackNoConvergence`` (a
        RuntimeError) propagates."""
        if self._inv_norm is None:
            self._inv_norm = _inv_norm(self._cho["leaf"])
        return self._inv_norm


def _inv_norm(cho):
    """λ_max(A⁻¹) from a fixed random start; ``cho_factor`` checked A for
    NaN/inf, so the solves skip that scan.  16 Lanczos vectors take 17
    solves on the (2, 4, ¼) leaf, ARPACK's default of 20 takes 21."""
    m = cho[0].shape[0]
    solves = LinearOperator((m, m), dtype=float, matvec=partial(
        cho_solve, cho, check_finite=False))
    return float(eigsh(solves, k=1, which="LA", ncv=min(m, 16), tol=1e-10,
                       v0=np.random.default_rng(0).standard_normal(m),
                       return_eigenvectors=False)[0])


def _compute_gram(spec: DictionarySpec):
    """The leaf block Q_leaf of Q.  Under ρ a basis's two factors are
    independent (for M5 one is the constant), so E[f·g·f′·g′] =
    E[f f′]·E[g g′] and the block is M[f, f′]∘M[g, g′] − c cᵀ with M the
    rule's second moments and c the leaf's ``spec.centering``.  Between two
    groups of ``_leaf_layout`` that is the Kronecker product
    M[g, g′] ⊗ M[f, f′], written by broadcasting into a view of the block;
    c cᵀ is subtracted in strips of N rows, so no other m×m array exists."""
    V, w = _factor_rule(spec)
    M = (V * w) @ V.T
    M = 0.5 * (M + M.T)  # so the block is exactly symmetric
    groups = _leaf_layout(spec.N)
    c = spec.centering[spec.leaf_index[0]]
    Q = np.empty((c.size, c.size))
    starts = np.cumsum([0] + [len(g) * len(f) for g, f in groups])
    parts = list(zip(groups, starts, starts[1:]))
    for (g, f), a, b in parts:
        for (g2, f2), a2, b2 in parts:
            # splitting both axes of a slice of Q is always a view
            np.multiply(M[np.ix_(g, g2)][:, None, :, None],
                        M[np.ix_(f, f2)][None, :, None, :],
                        out=Q[a:b, a2:b2].reshape(len(g), len(f),
                                                  len(g2), len(f2)))
    for r in range(0, c.size, spec.N):
        Q[r:r + spec.N] -= np.multiply.outer(c[r:r + spec.N], c)
    return Q


@one_thread()
def gram_matrix(spec: DictionarySpec) -> GramMatrix:
    """Build the leaf Gram block of ``spec`` and the Cholesky factors of
    both blocks, with both BLAS pools at one thread (restored on exit)."""
    return GramMatrix(spec, _compute_gram(spec))
