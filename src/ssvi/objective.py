"""Sample-average approximation of the KL objective and its gradient.

The free energy is the KL divergence of the pushforward from the target up
to an additive constant:

    F(λ, v) = E_ρ[V(T(x))] − E_ρ[log det DT(x)].

Evaluations run on a frozen standard-normal sample so the optimization is a
deterministic convex program.  The free-energy reduction uses math.fsum
(correctly rounded), which makes F̂ bit-equal under any permutation of the
sample; gradient reductions run in a fixed order (numpy's pairwise sums and
in-order bincounts).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .starmap import ConeViolationError, _ForwardState, _leaf_rows, forward

CHUNK = 1024  # documented reduction chunk size for per-sample partials


class TargetOverflowError(RuntimeError):
    pass


@dataclass(frozen=True)
class SaaSample:
    """Frozen i.i.d. N(0, I) sample; bit-reproducible from (seed, n, d)."""

    seed: int
    n: int
    d: int
    X: np.ndarray

    @classmethod
    def build(cls, seed, n, d):
        if n < 1:
            raise ValueError("sample size must be positive")
        X = np.random.default_rng(seed).standard_normal((int(n), int(d)))
        return cls(int(seed), int(n), int(d), X)


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
    st = forward(params, spec, sample.X)
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
    """math.fsum of a 1-D array, fed as Python floats one CHUNK at a time
    (iterating the array itself would box every entry as a numpy scalar;
    one whole-array ``tolist`` would hold n floats at once)."""
    return math.fsum(itertools.chain.from_iterable(
        a[s:s + CHUNK].tolist() for s in range(0, a.size, CHUNK)))


def free_energy(params, spec, target, sample) -> FreeEnergyReport:
    st, Vz = _transported(params, spec, target, sample)
    logdet = np.log(st.diag).sum(axis=1)
    n = sample.n
    pot = _fsum(Vz) / n
    ent = -_fsum(logdet) / n
    per_sample = Vz - logdet
    se = float(per_sample.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return FreeEnergyReport(pot + ent, pot, ent, se, st)


def _chunked_mean(arr):
    """Mean along axis 0 by fixed-size chunked pairwise summation."""
    n = arr.shape[0]
    total = np.zeros(arr.shape[1:])
    for start in range(0, n, CHUNK):
        total = total + arr[start:start + CHUNK].sum(axis=0)
    return total / n


def _ramp_sums(cell, f, weights, shape):
    """Σ_s weights_s · ψ_m(x_s) for every ramp m, binned by ``cell``.

    The ramp ψ_m(x) = clip((x − b_m)/δ, 0, 1) is 1 below the grid cell k of
    x, f (the position inside the cell) at it and 0 above, so one bin per
    sample replaces a dense (samples × N) ramp table.  ``cell`` is the flat
    index into ``shape``, whose last axis is the ramp m.
    """
    size = math.prod(shape)
    full = np.bincount(cell, weights=weights, minlength=size).reshape(shape)
    out = np.bincount(cell, weights=weights * f, minlength=size).reshape(shape)
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
    n = sample.n
    N, d = spec.N, spec.d
    inv_delta = 1.0 / spec.delta
    gV = target.grad(st.Z)
    mean_gV = _chunked_mean(gV)
    grad_v = mean_gV

    glam = np.empty(spec.p)
    sel = st.inbox1
    glam[:N] = (_ramp_sums(st.k1, st.f1, gV[:, 0], (N,))
                - np.bincount(st.k1[sel], weights=inv_delta / st.diag[sel, 0],
                              minlength=N)) / n

    shape = (2 * N + 2, N)
    rows = _leaf_rows(spec, st.X[:, 0])  # not kept in a state: peak memory
    for li in range(d - 1):
        i = li + 1
        gvi = gV[:, i]
        ki, fi = st.ki[li], st.fi[li]
        # entropy trace: only the active (row, leaf ramp) cell contributes
        wt = st.inboxi[li] * inv_delta / st.diag[:, i]
        pot = tr = 0.0
        for r, w in rows:
            cell = r * N + ki
            pot = pot + _ramp_sums(cell, fi, w * gvi, shape).ravel()
            tr = tr + np.bincount(cell, weights=w * wt, minlength=pot.size)
        # M5: pure root column, zero entropy contribution
        glam[spec.leaf_index[li]] = np.concatenate(
            [pot - tr, _ramp_sums(st.k1, st.f1, gvi, (N,))]) / n

    glam -= spec.centering * mean_gV[spec.coord]
    return glam, grad_v
