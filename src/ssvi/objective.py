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

import math
from dataclasses import dataclass, field

import numpy as np

from .starmap import ConeViolationError, _ForwardState, forward

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


def free_energy(params, spec, target, sample) -> FreeEnergyReport:
    st, Vz = _transported(params, spec, target, sample)
    logdet = np.log(st.diag).sum(axis=1)
    n = sample.n
    pot = math.fsum(Vz) / n
    ent = -math.fsum(logdet) / n
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
    Sherman–Morrison structure of the triangular Jacobian.

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

    c0, c1, c2, c3, c4, c5 = spec.views(spec.centering)
    glam = np.zeros(spec.p)
    g0, g1, g2, g3, g4, g5 = spec.views(glam)

    sel = st.inbox1
    g0[:] = _ramp_sums(st.k1, st.f1, gV[:, 0], (N,)) / n - c0 * mean_gV[0]
    g0 -= np.bincount(st.k1[sel], weights=inv_delta / st.diag[sel, 0],
                      minlength=N) / n

    for li in range(d - 1):
        i = li + 1
        gvi = gV[:, i]
        ki = st.ki[:, li]
        fi = st.fi[:, li]
        inboxi = st.inboxi[:, li]

        # M1/M2 potential terms, accumulated per (root cell j, leaf ramp m)
        cell = st.k1[sel] * N + ki[sel]
        w, g = st.f1[sel], gvi[sel]
        a1 = _ramp_sums(cell, fi[sel], w * g, (N, N))
        a2 = _ramp_sums(cell, fi[sel], (1.0 - w) * g, (N, N))
        # M1/M2 entropy traces: only the active (j, m) cell contributes
        sel2 = st.inbox1 & inboxi
        cell = st.k1[sel2] * N + ki[sel2]
        wt = inv_delta / st.diag[sel2, i]
        t1 = np.bincount(cell, weights=st.f1[sel2] * wt, minlength=N * N)
        t2 = np.bincount(cell, weights=(1.0 - st.f1[sel2]) * wt,
                         minlength=N * N)
        g1[li][:, :] = (a1 - t1.reshape(N, N)) / n - c1[li] * mean_gV[i]
        g2[li][:, :] = (a2 - t2.reshape(N, N)) / n - c2[li] * mean_gV[i]

        # M3/M4 (x1 outside the box)
        for g_out, c_out, mask in ((g3, c3, st.hi), (g4, c4, st.lo)):
            pot = _ramp_sums(ki[mask], fi[mask], gvi[mask], (N,)) / n
            sel3 = mask & inboxi
            tr = np.bincount(ki[sel3], weights=inv_delta / st.diag[sel3, i],
                             minlength=N)
            g_out[li][:] = pot - tr / n - c_out[li] * mean_gV[i]

        # M5: pure root column, zero entropy contribution
        g5[li][:] = (_ramp_sums(st.k1, st.f1, gvi, (N,)) / n
                     - c5[li] * mean_gV[i])

    return glam, grad_v
