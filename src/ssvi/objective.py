"""Sample-average approximation of the KL objective and its gradient.

The free energy is the KL divergence of the pushforward from the target up
to an additive constant:

    F(λ, v) = E_ρ[V(T(x))] − E_ρ[log det DT(x)].

Evaluations run on a frozen standard-normal sample so the optimization is a
deterministic convex program.  The sample's grid cells are bucketed once per
dictionary grid (:meth:`SaaSample.grid`), so an evaluation pays only for λ.
The free-energy reduction is exact: error-free extraction splits the terms
into parts whose sums numpy computes without rounding, and math.fsum rounds
their total once.  It gives the bits of math.fsum over the terms (correctly
rounded), which makes F̂ bit-equal under any permutation of the sample;
gradient reductions run in a fixed order: column sums that add the rows in
sample order, and one in-order bincount pass per coefficient table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .starmap import (ConeViolationError, SampleGrid, _ForwardState, forward,
                      sample_grid)


class TargetOverflowError(RuntimeError):
    pass


@dataclass(frozen=True)
class SaaSample:
    """Frozen i.i.d. N(0, I) sample; bit-reproducible from (seed, n, d)."""

    seed: int
    n: int
    d: int
    X: np.ndarray
    # sample_grid on the last (R, δ) asked for.  It is held by the instance
    # and never looked up by (seed, n, d): two samples can share those and
    # differ in X.
    _grids: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        if np.shape(self.X) != (self.n, self.d):
            raise ValueError(f"X has shape {np.shape(self.X)}, not "
                             f"(n, d) = ({self.n}, {self.d})")

    @classmethod
    def build(cls, seed, n, d):
        if n < 1:
            raise ValueError("sample size must be positive")
        X = np.random.default_rng(seed).standard_normal((int(n), int(d)))
        return cls(int(seed), int(n), int(d), X)

    def grid(self, spec) -> SampleGrid:
        """:func:`~ssvi.starmap.sample_grid` of X on ``spec``'s grid, built
        on first use and kept until another grid is asked for."""
        key = (spec.R, spec.delta)
        if key not in self._grids:
            self._grids.clear()
            self._grids[key] = sample_grid(spec, self.X)
        return self._grids[key]


@dataclass(frozen=True)
class FreeEnergyReport:
    """F̂ and its parts; ``state`` is the forward pass it was computed from,
    which :func:`gradient` reuses at the same point."""

    value: float
    potential_term: float
    entropy_term: float
    std_error: float
    state: _ForwardState | None = field(default=None, repr=False,
                                        compare=False)


def _transported(params, spec, target, sample):
    st = forward(params, spec, sample.X, grid=sample.grid(spec))
    if np.any(st.diag <= 0):
        raise ConeViolationError(
            "cone violation: nonpositive Jacobian diagonal")
    Vz = target.potential(st.Z)
    if not np.all(np.isfinite(Vz)):
        idx = int(np.flatnonzero(~np.isfinite(Vz))[0])
        raise TargetOverflowError(
            f"target overflow at sample index {idx}")
    return st, Vz


def _fsum(a):
    """math.fsum of a 1-D array, with the same bits, by error-free extraction
    (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31(1), 2008).

    With 2^e > max|r|, 2^M > 2n and σ = 2^(e+M), q = (σ + r) − σ and r − q
    are exact, |q| ≤ 2^e and q is a multiple of u = 2^(e+M−53).  Every
    partial sum of the q is then a multiple of u below σ = 2^53·u, so
    ``q.sum()`` is exact in any order.  Taking q off r leaves max|r| ≤ u,
    and r reaches zero after a few passes; the exact total of their
    partials is the exact sum of the terms, and math.fsum rounds it once.
    Nonfinite or all-zero terms, and terms near the overflow threshold, take
    the plain path: math.fsum over the terms as Python floats (iterating the
    array itself would box every entry as a numpy scalar).
    """
    top = float(np.abs(a).max(initial=0.0))
    if not 0.0 < top < 2.0 ** 960:
        return math.fsum(a.tolist())
    m = a.size.bit_length() + 1
    r = a.astype(float)
    partials = []
    while top > 0.0:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + m)
        q = (sigma + r) - sigma
        partials.append(float(q.sum()))
        r -= q
        top = float(np.abs(r).max())
    return math.fsum(partials)


def free_energy(params, spec, target, sample) -> FreeEnergyReport:
    st, Vz = _transported(params, spec, target, sample)
    logdet = np.log(st.diag).sum(axis=1)
    n = sample.n
    pot = _fsum(Vz) / n
    ent = -_fsum(logdet) / n
    per_sample = Vz - logdet
    se = float(per_sample.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return FreeEnergyReport(pot + ent, pot, ent, se, st)


def _ramp_sums(cell, f, weights, shape, at=0.0):
    """Σ_s weights_s · ψ_m(x_s) for every ramp m, binned by ``cell``, plus
    ``at``_s on the sample's own cell only.

    The ramp ψ_m(x) = clip((x − b_m)/δ, 0, 1) is 1 below the grid cell k of
    x, f (the position inside the cell) at it and 0 above, so one bin per
    sample replaces a dense (samples × N) ramp table.  ``cell`` is the flat
    index into ``shape``, whose last axis is the ramp m.
    """
    size = math.prod(shape)
    full = np.bincount(cell, weights=weights, minlength=size).reshape(shape)
    out = np.bincount(cell, weights=weights * f + at,
                      minlength=size).reshape(shape)
    out[..., :-1] += np.cumsum(full[..., :0:-1], axis=-1)[..., ::-1]
    return out


def gradient(params, spec, target, sample, state=None):
    """Exact gradient of the SAA free energy: (grad_λ, grad_v).

    For a basis T′ with centered value t′ on coordinate i,

        ∂F/∂λ_{T′} = Ê[t′(x)·∂_iV(T(x))] − Ê[tr((DT)⁻¹ DT′)] ,

    and the trace reduces to (diagonal partial of T′)/diag_i by the
    Sherman–Morrison structure of the triangular Jacobian.  Per leaf, each
    sample adds w·∂_iV·ψ to the ramps of the two table rows (r, w) it blends
    (see :mod:`ssvi.starmap`) and takes w/(δ·diag_i) off their active cells.

    ``state`` is the forward pass of ``params`` on ``sample`` as
    :func:`free_energy` returned it; without it the pass is recomputed.
    """
    st = state if state is not None else \
        _transported(params, spec, target, sample)[0]
    g = st.grid
    n = sample.n
    N, d = spec.N, spec.d
    inv_delta = 1.0 / spec.delta
    gV = target.grad(st.Z)
    grad_v = gV.sum(axis=0) / n

    # the entropy trace enters each table on the active cell only
    glam = np.empty(spec.p)
    glam[:N] = _ramp_sums(g.k1, g.f1, gV[:, 0], (N,),
                          at=-(g.inbox1 * inv_delta / st.diag[:, 0])) / n

    shape = (2 * N + 2, N)
    for li in range(d - 1):
        i = li + 1
        gvi = gV[:, i]
        fi, ia = g.fi[li], g.ia[li]
        wt = g.inboxi[li] * inv_delta / st.diag[:, i]
        pot = sum(_ramp_sums(cell, fi, w * gvi, shape, at=-w * wt).ravel()
                  for cell, w in ((ia, g.w_a), (ia + g.step, g.w_b)))
        # M5: pure root column, zero entropy contribution
        glam[spec.leaf_index[li]] = np.concatenate(
            [pot, _ramp_sums(g.k1, g.f1, gvi, (N,))]) / n

    glam -= spec.centering * grad_v[spec.coord]
    return glam, grad_v
