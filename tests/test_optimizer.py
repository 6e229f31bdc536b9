import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import lsq_linear

import ssvi
from ssvi import dictionary, objective, optimizer
from ssvi.blas import thread_count
from ssvi.dictionary import GramMatrix
from ssvi.objective import TargetOverflowError
from ssvi.optimizer import (MAX_HALVINGS, OptimizerError, PgdConfig,
                            compute_upsilon, map_point, project_cone_q,
                            run_pgd)

from conftest import dense_gram, two_threads


def symmetric_inverse(Q):
    """Q⁻¹ made exactly symmetric, as the projection requires of W."""
    W = np.linalg.inv(Q)
    return 0.5 * (W + W.T)


class FakeGram:
    """Stand-in Gram matrix of one block, for projection unit tests."""

    def __init__(self, Q):
        self.Q = np.asarray(Q, dtype=float)
        self.last_factor = {}

    def blocks(self):
        yield (np.arange(len(self.Q)), self.Q,
               lambda: symmetric_inverse(self.Q), self.last_factor)


def bvls_projection(Q, z, constrained):
    """min ||R theta - R z||^2 over the cone, with R the Cholesky factor of Q."""
    R = np.linalg.cholesky(Q).T
    lb = np.where(constrained, 0.0, -np.inf)
    return lsq_linear(R, R @ z, bounds=(lb, np.inf), method="bvls",
                      tol=1e-14).x


class TestProjection:
    def test_euclidean_clipping(self):
        gram = FakeGram(np.eye(2))
        got, _ = project_cone_q(np.array([-1.0, 2.0]), gram,
                                np.array([True, True]))
        assert np.allclose(got, [0.0, 2.0])

    def test_free_coordinates_pass_through(self):
        gram = FakeGram(np.eye(3))
        got, _ = project_cone_q(np.array([-1.0, -2.0, 3.0]), gram,
                                np.array([True, False, True]))
        assert np.allclose(got, [0.0, -2.0, 3.0])

    def test_matches_bvls_oracle(self):
        # also from run_pgd's first warm start, every constrained index,
        # which ends on the cold start's working set and so on its bytes
        rng = np.random.default_rng(0)
        for trial in range(20):
            p = 12
            A = rng.normal(size=(p, p))
            Q = A @ A.T + 0.5 * np.eye(p)
            gram = FakeGram(Q)
            z = rng.normal(size=p) * 2.0
            constrained = rng.uniform(size=p) < 0.7
            got, got_set = project_cone_q(z, gram, constrained)
            ref = bvls_projection(Q, z, constrained)
            assert np.allclose(got, ref, atol=1e-8)
            warm, warm_set = project_cone_q(
                z, FakeGram(Q), constrained,
                warm_active=np.flatnonzero(constrained))
            assert np.array_equal(warm_set, got_set)
            assert warm.tobytes() == got.tobytes()

    def test_warm_start_same_answer(self):
        rng = np.random.default_rng(1)
        Q = np.diag(rng.uniform(0.5, 2.0, 8))
        gram = FakeGram(Q)
        z = rng.normal(size=8)
        cons = np.ones(8, dtype=bool)
        cold, _ = project_cone_q(z, gram, cons)
        warm, active = project_cone_q(z, gram, cons,
                                      warm_active=np.array([0, 3]))
        assert np.allclose(cold, warm, atol=1e-12)

    def test_nan_fails_the_kkt_check(self):
        # NaN multipliers compare False against any bound, so the check
        # must fail unless the residual is provably small
        gram = FakeGram(np.eye(3) + 0.1)
        z = np.array([np.nan, 1.0, -2.0])
        cons = np.ones(3, dtype=bool)
        with pytest.raises(OptimizerError, match="KKT residual nan"):
            project_cone_q(z, gram, cons)
        # all active: no multiplier is off the working set, but ‖Qz‖∞ is NaN
        with pytest.raises(OptimizerError, match="KKT residual"):
            project_cone_q(z, gram, cons, warm_active=np.arange(3))

    # Trials 55371 and 58692 of 100 000 random problems with every index
    # constrained: m = rng.integers(2, 7), A = N(0, 1)^{m×m} with columns
    # scaled by 10^U(−2, 2), Q = AAᵀ + 10⁻³I, z = N(0, 1)·10^U(−1, 1), all
    # from default_rng(1).  Block pivoting cycles on both, so the single
    # pivot fallback decides; pivoting it on the most violated index cycled
    # on the first until the sweep limit.
    @pytest.mark.parametrize("Q, z", [
        ([[0.686335308162436, -1.3243714427297795, -0.10671239109425834,
           -2.759461974967362],
          [-1.3243714427297795, 33.72360037379157, -3.7521387399992716,
           14.478387711739886],
          [-0.10671239109425834, -3.7521387399992716, 0.5438818458609846,
           -0.6591458465499689],
          [-2.759461974967362, 14.478387711739886, -0.6591458465499689,
           14.02246529188493]],
         [-0.29043597790814013, 0.33331379578621945, 0.8021387935671218,
          -0.19718972995345752]),
        ([[0.01941598597507091, 0.05630427752311821, -0.00948106302677829],
          [0.05630427752311821, 0.21787808045657478, -0.05880065894245593],
          [-0.00948106302677829, -0.05880065894245593,
           0.027910619233207777]],
         [4.720091575562742, -1.7092472665739449, -0.24633675437925218]),
    ], ids=["trial-55371", "trial-58692"])
    def test_single_pivot_fallback_terminates(self, Q, z):
        Q, z = np.array(Q), np.array(z)
        cons = np.ones(z.size, dtype=bool)
        got, _ = project_cone_q(z, FakeGram(Q), cons)
        assert np.allclose(got, bvls_projection(Q, z, cons), rtol=0,
                           atol=1e-10)


class TestBlockProjection:
    """project_cone_q on a real Gram with a root and three leaf blocks."""

    def test_matches_bvls_oracle_cold_and_warm(self, d4_gram):
        spec = d4_gram.spec
        cons = spec.constrained
        rng = np.random.default_rng(5)
        z = rng.normal(size=spec.p)
        active = None
        for _ in range(4):
            ref = bvls_projection(dense_gram(d4_gram), z, cons)
            cold, cold_active = project_cone_q(z, d4_gram, cons)
            assert np.allclose(cold, ref, atol=1e-8)
            # the active set is in global indices and touches every block
            idx = np.fromiter(cold_active, dtype=int)
            assert cons[idx].all() and not cold[idx].any()
            for block in (np.arange(spec.N), *spec.leaf_index):
                assert np.isin(block, idx).any()
            if active is not None:
                warm, _ = project_cone_q(z, d4_gram, cons,
                                         warm_active=active)
                assert np.allclose(warm, ref, atol=1e-8)
            active = cold_active
            z = z + 0.3 * rng.normal(size=spec.p)

    @pytest.mark.parametrize("shift", [-1.0, 1.0])
    def test_both_sides_of_the_subproblem(self, d4_gram, shift):
        # a mostly negative z ends with |A| > |F| in every leaf (the Q_FF
        # side), a mostly positive one with |A| <= |F| (the W_AA side)
        spec = d4_gram.spec
        cons = spec.constrained
        rng = np.random.default_rng(11)
        z = rng.normal(size=spec.p) + shift
        ref = bvls_projection(dense_gram(d4_gram), z, cons)
        cold, active = project_cone_q(z, d4_gram, cons)
        assert np.allclose(cold, ref, atol=1e-8)
        for idx in spec.leaf_index:
            n_active = np.isin(idx, active).sum()
            if shift < 0:
                assert n_active > idx.size - n_active
            else:
                assert n_active <= idx.size - n_active
        # warm from the answer's own set, and from the opposite side's
        other = project_cone_q(-z, d4_gram, cons)[1]
        for warm_active in (active, other):
            warm, _ = project_cone_q(z, d4_gram, cons,
                                     warm_active=warm_active)
            assert np.allclose(warm, ref, atol=1e-8)

    def test_empty_active_set_returns_z(self, d4_gram):
        spec = d4_gram.spec
        z = np.abs(np.random.default_rng(12).normal(size=spec.p)) + 0.1
        theta, active = project_cone_q(z, d4_gram, spec.constrained)
        assert active.size == 0
        assert np.array_equal(theta, z)

    def test_fully_active_root_block_returns_zero(self, d4_gram):
        # z = −Q⁻¹1 on the root: every root multiplier Q(0 − z) = 1 is
        # positive, so the all-active root block is optimal at θ = 0
        spec = d4_gram.spec
        cons = spec.constrained
        root = np.arange(spec.N)
        assert cons[root].all()
        rng = np.random.default_rng(13)
        z = np.abs(rng.normal(size=spec.p))
        z[root] = -np.linalg.solve(d4_gram.Q_root, np.ones(spec.N))
        theta, active = project_cone_q(z, d4_gram, cons, warm_active=root)
        assert np.array_equal(theta[root], np.zeros(spec.N))
        assert np.isin(root, active).all()
        ref = bvls_projection(dense_gram(d4_gram), z, cons)
        assert np.allclose(theta, ref, atol=1e-8)

    def test_active_set_is_a_sorted_index_array(self, d4_gram):
        spec = d4_gram.spec
        cons = spec.constrained
        rng = np.random.default_rng(7)
        z = rng.normal(size=spec.p)
        theta, active = project_cone_q(z, d4_gram, cons)
        assert isinstance(active, np.ndarray)
        assert active.dtype == np.intp and active.ndim == 1
        assert np.all(np.diff(active) > 0)
        # exactly the constrained zeros of theta, so len() counts |A|
        assert np.array_equal(active, np.flatnonzero(cons & (theta == 0.0)))
        assert 0 < len(active) < cons.sum()
        # warm starts from it (also with unconstrained indices mixed in,
        # which are ignored) reach the oracle at a nearby point
        z2 = z + 0.3 * rng.normal(size=spec.p)
        ref = bvls_projection(dense_gram(d4_gram), z2, cons)
        for warm_active in (active,
                            np.union1d(active, np.flatnonzero(~cons))):
            warm, warm_set = project_cone_q(z2, d4_gram, cons,
                                            warm_active=warm_active)
            assert np.allclose(warm, ref, atol=1e-8)
            assert np.array_equal(warm_set,
                                  np.flatnonzero(cons & (warm == 0.0)))


    def test_same_working_set_reuses_the_factor(self, d4_gram,
                                                monkeypatch):
        spec = d4_gram.spec
        cons = spec.constrained
        z = np.random.default_rng(14).normal(size=spec.p)
        factor = optimizer.cho_factor
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return factor(*args, **kwargs)

        monkeypatch.setattr(optimizer, "cho_factor", counted)
        gram = ssvi.gram_matrix(spec)
        first, active = project_cone_q(z, gram, cons)
        n_first = len(calls)
        assert n_first > 0
        second, again = project_cone_q(z, gram, cons, warm_active=active)
        assert len(calls) == n_first
        assert np.array_equal(again, active)
        fresh, _ = project_cone_q(z, ssvi.gram_matrix(spec), cons,
                                  warm_active=active)
        assert first.tobytes() == second.tobytes() == fresh.tobytes()

    def test_subproblems_are_factored_in_place(self, d4_gram, monkeypatch):
        # this z factors both kinds: Q_FF in the root and leaves, W_AA in
        # the leaves; each is handed over as a Fortran-ordered view, which
        # LAPACK overwrites instead of copying
        spec = d4_gram.spec
        z = np.random.default_rng(15).normal(size=spec.p)
        factor = optimizer.cho_factor
        seen = []

        def spy(a, *args, **kwargs):
            cho = factor(a, *args, **kwargs)
            seen.append((a.flags.f_contiguous, np.shares_memory(cho[0], a)))
            return cho

        monkeypatch.setattr(optimizer, "cho_factor", spy)
        project_cone_q(z, ssvi.gram_matrix(spec), spec.constrained)
        assert seen and set(seen) == {(True, True)}


class TestFreeSideMultipliers:
    """A free-side sweep forms μ = Q(θ − z) from the free rows of Q only."""

    @pytest.fixture(scope="class")
    def leaf(self):
        # the (2, 4, ½) leaf (m = 560): this z ends with 145 free indices,
        # at most m/3, so the final sweep takes the free rows of Q, in two
        # chunks of at most 117 rows
        gram = ssvi.gram_matrix(ssvi.build_dictionary(2, 4.0, 0.5))
        cons = gram.spec.constrained[gram.spec.leaf_index[0]]
        z = np.random.default_rng(0).normal(size=cons.size)
        return gram.Q_leaf, z, cons

    def test_residual_matches_a_dense_recompute(self, leaf):
        Q, z, cons = leaf
        active = cons & (z < 0)
        theta, r, s = optimizer._project_block(
            z, Q, lambda: symmetric_inverse(Q), {}, cons, active)
        n_free = int((~active).sum())
        assert optimizer.FREE_CHUNK // Q.shape[0] < n_free
        assert 3 * n_free <= Q.shape[0]
        assert np.allclose(theta, bvls_projection(Q, z, cons), atol=1e-8)
        dense = np.abs(Q @ (theta - z))[~active].max()
        assert s == np.abs(Q @ z).max()
        assert abs(r - dense) <= 1e-12 * max(1.0, s)

    def test_perturbed_free_solve_fails_the_kkt_check(self, leaf,
                                                      monkeypatch):
        Q, z, cons = leaf
        _, active = project_cone_q(z, FakeGram(Q), cons)
        solve = optimizer.cho_solve

        def perturbed(*args, **kwargs):
            return solve(*args, **kwargs) * (1.0 + 1e-6)

        monkeypatch.setattr(optimizer, "cho_solve", perturbed)
        # warm from the answer's set: one free-side sweep, then the check
        with pytest.raises(OptimizerError, match="KKT residual"):
            project_cone_q(z, FakeGram(Q), cons, warm_active=active)


    def test_cycling_single_pivots_fail_in_sweeps(self, leaf, monkeypatch):
        # solves 1e-3 off break Murty's rule, whose single pivots then
        # revisit a working set; that ends the projection, not the budget
        # of 10·m + 100 = 5 700 sweeps
        Q, z, cons = leaf
        solve = optimizer.cho_solve
        calls = []

        def perturbed(*args, **kwargs):
            calls.append(None)
            return solve(*args, **kwargs) * (1.0 + 1e-3)

        monkeypatch.setattr(optimizer, "cho_solve", perturbed)
        with pytest.raises(OptimizerError, match="revisit a working set"):
            project_cone_q(z, FakeGram(Q), cons)
        assert len(calls) < 200


class TestUpsilon:
    def test_hand_value(self):
        spec = ssvi.build_dictionary(2, 1.0, 0.5)
        consts = ssvi.RegularityConstants(ell=1.0, L=1.0, ell_root=1.0,
                                          L_root=4.0)

        class G:
            inv_norm = 2.0

        # 9/delta^2 * (sqrt(4) + 1*sqrt(1))^2 * 2 = 36 * 9 * 2 = 648
        assert np.isclose(compute_upsilon(consts, spec, G()), 648.0)


class TestMapPoint:
    def test_gaussian_map_is_mean(self):
        cov = np.array([[1.0, 0.4], [0.4, 2.0]])
        t = ssvi.GaussianTarget(np.array([0.7, -1.2]), cov)
        assert np.allclose(map_point(t), [0.7, -1.2], atol=1e-8)

    def test_glm_map_is_stationary(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 2))
        y = X @ np.array([1.0, -0.5]) + rng.normal(size=30)
        t = ssvi.GlmLocationTarget(X, y, family="linear")
        x = map_point(t)
        assert np.linalg.norm(t.grad(x)) < 1e-8


class TestPgdConfig:
    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown optimizer config"):
            PgdConfig.from_dict({"step": 0.1})

    def test_accepts_known_keys(self):
        cfg = PgdConfig.from_dict({"step_size": 0.2, "max_iters": 10})
        assert cfg.step_size == 0.2

    @pytest.mark.parametrize("field, value", [
        ("max_iters", 2.5), ("max_iters", "10"), ("seed", 1.0),
        ("seed", None), ("n_samples", 500.5), ("n_samples", True),
        ("step_size", "0.5"), ("tol", "x"), ("tol", None)])
    def test_rejects_wrong_types(self, field, value):
        with pytest.raises(TypeError, match=field):
            PgdConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("step_size", math.inf), ("step_size", math.nan), ("max_iters", -3),
        ("tol", math.nan), ("tol", -1e-6), ("tol", math.inf)])
    def test_rejects_values_that_would_fail_later(self, field, value):
        # inf steps end in a NaN projection and NaN or negative tolerances
        # silently disable the tolerance stop: all are rejected up front
        with pytest.raises(ValueError, match=field):
            PgdConfig(**{field: value})

    def test_accepts_zero_iterations_and_zero_tolerance(self):
        cfg = PgdConfig(max_iters=0, tol=0.0)
        assert (cfg.max_iters, cfg.tol) == (0, 0.0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            PgdConfig(seed=-1)

    def test_accepts_numpy_scalars(self):
        cfg = PgdConfig(step_size=np.float64(0.5), max_iters=np.int64(3),
                        tol=np.float32(1e-6), seed=np.uint64(7),
                        n_samples=np.int32(100))
        assert cfg.n_samples == 100 and PgdConfig().step_size is None


@pytest.fixture(scope="module")
def fit(gauss2_target):
    spec = ssvi.build_dictionary(2, 2.0, 1.0)
    gram = ssvi.gram_matrix(spec)
    cfg = PgdConfig(step_size=0.5, max_iters=60, n_samples=4000, seed=0)
    return spec, run_pgd(gauss2_target, spec, gram, cfg)


class TestRunPgd:
    def test_free_energy_nonincreasing(self, fit):
        _, res = fit
        assert np.all(np.diff(res.free_energy_trace) <= 1e-10)

    def test_traces_aligned(self, fit):
        _, res = fit
        assert res.free_energy_trace.size == res.iterations + 1
        assert res.grad_norm_trace.size == res.iterations
        assert res.halving_trace.size == res.iterations

    def test_stays_in_cone(self, fit):
        spec, res = fit
        assert res.params.lam[spec.constrained].min() >= 0.0

    def test_deterministic(self, gauss2_target, fit):
        spec, res = fit
        gram = ssvi.gram_matrix(spec)
        cfg = PgdConfig(step_size=0.5, max_iters=60, n_samples=4000, seed=0)
        res2 = run_pgd(gauss2_target, spec, gram, cfg)
        assert np.array_equal(res.params.lam, res2.params.lam)
        assert np.array_equal(res.free_energy_trace, res2.free_energy_trace)

    def test_rejects_the_gram_of_another_dictionary(self, gauss2_target):
        # (2, 4, 1/2) and (2, 2, 1/4) both have p = 576
        spec = ssvi.build_dictionary(2, 4.0, 0.5)
        other = ssvi.build_dictionary(2, 2.0, 0.25)
        assert spec.p == other.p
        cfg = PgdConfig(step_size=0.5, max_iters=1, n_samples=1000, seed=0)
        with pytest.raises(ValueError, match="Gram matrix is of the "
                                             "dictionary"):
            run_pgd(gauss2_target, spec, ssvi.gram_matrix(other), cfg)

    def test_default_step_size_is_tiny_but_valid(self, gauss2_target):
        spec = ssvi.build_dictionary(2, 2.0, 1.0)
        gram = ssvi.gram_matrix(spec)
        cfg = PgdConfig(max_iters=3, n_samples=1000, seed=0)
        res = run_pgd(gauss2_target, spec, gram, cfg)
        consts = gauss2_target.regularity_constants()
        L = max(consts.L, consts.L_root / 2)
        assert np.isclose(res.step_size, 1.0 / (L + res.upsilon))
        assert np.all(np.diff(res.free_energy_trace) <= 1e-10)

    def test_only_a_given_step_is_halved(self, gauss2_target):
        # halving is always on, but the default 1/(L+Υ) from the target's
        # own constants descends, so only the too-long given step halves
        spec = ssvi.build_dictionary(2, 2.0, 1.0)
        gram = ssvi.gram_matrix(spec)
        given = run_pgd(gauss2_target, spec, gram,
                        PgdConfig(step_size=50.0, max_iters=5,
                                  n_samples=1000, seed=0))
        assert given.halving_trace.sum() >= 1
        assert np.all(np.diff(given.free_energy_trace) <= 1e-10)
        default = run_pgd(gauss2_target, spec, gram,
                          PgdConfig(max_iters=5, n_samples=1000, seed=0))
        assert not default.halving_trace.any()

    def test_understated_constants_are_halved(self, gauss2_target):
        # constants far below the true curvature and without warnings make
        # the default step far too long; halving keeps F̂ nonincreasing
        spec = ssvi.build_dictionary(2, 2.0, 1.0)
        gram = ssvi.gram_matrix(spec)
        consts = ssvi.RegularityConstants(1e-6, 1e-6, 1e-6, 1e-6)
        assert not consts.warnings
        res = run_pgd(gauss2_target, spec, gram,
                      PgdConfig(max_iters=8, n_samples=1000, seed=0),
                      consts=consts, init=ssvi.identity_params(spec))
        assert res.iterations == 8
        assert res.halving_trace.sum() >= 1
        assert np.all(np.diff(res.free_energy_trace) <= 1e-12)

    def test_overflowing_trial_is_halved(self, gauss2_target, monkeypatch):
        # the first trial's potential overflows: it is halved, and the fit
        # goes on from the halved step
        spec = ssvi.build_dictionary(2, 2.0, 1.0)
        cfg = PgdConfig(step_size=0.5, max_iters=3, n_samples=1000, seed=0)
        evaluate = optimizer.free_energy
        calls = []

        def overflow_once(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:  # call 1 is the initial point
                raise TargetOverflowError("overflow")
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(optimizer, "free_energy", overflow_once)
        res = run_pgd(gauss2_target, spec, ssvi.gram_matrix(spec), cfg)
        assert res.iterations == 3
        assert res.halving_trace[0] >= 1
        assert np.all(np.isfinite(res.free_energy_trace))
        assert np.all(np.diff(res.free_energy_trace) <= 1e-12)

    def test_overflow_after_the_last_halving_is_raised(self, gauss2_target,
                                                       monkeypatch):
        spec = ssvi.build_dictionary(2, 2.0, 1.0)
        cfg = PgdConfig(step_size=0.5, max_iters=3, n_samples=1000, seed=0)
        evaluate = optimizer.free_energy
        calls = []
        error = TargetOverflowError("every trial overflows")

        def overflow_after_init(*args, **kwargs):
            calls.append(None)
            if len(calls) > 1:
                raise error
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(optimizer, "free_energy", overflow_after_init)
        with pytest.raises(TargetOverflowError) as info:
            run_pgd(gauss2_target, spec, ssvi.gram_matrix(spec), cfg)
        assert info.value is error
        # the initial point, then the first trial and MAX_HALVINGS halvings
        assert len(calls) == 1 + 1 + MAX_HALVINGS

    def test_halvings_warm_start_from_the_rejected_trial(
            self, gauss2_target, monkeypatch):
        spec = ssvi.build_dictionary(2, 2.0, 1.0)
        gram = ssvi.gram_matrix(spec)
        cfg = PgdConfig(step_size=50.0, max_iters=5, n_samples=1000, seed=0)
        project = optimizer.project_cone_q
        calls = []  # (warm_active, returned active set) per projection

        def spy(*args, **kwargs):
            out = project(*args, **kwargs)
            calls.append((kwargs["warm_active"], out[1]))
            return out

        monkeypatch.setattr(optimizer, "project_cone_q", spy)
        warm = run_pgd(gauss2_target, spec, gram, cfg)
        assert warm.halving_trace.sum() >= 1
        assert len(calls) == warm.iterations + warm.halving_trace.sum()
        accepted = None
        for n_halved in warm.halving_trace:
            trials = calls[:n_halved + 1]
            del calls[:n_halved + 1]
            # the first trial starts from the iterate's set (the initial
            # iterate's zero set at first), each halving from the set the
            # trial it rejected returned
            first = trials[0][0]
            if accepted is None:
                assert np.array_equal(first, np.flatnonzero(spec.constrained))
            else:
                assert np.array_equal(first, accepted)
            assert first.dtype == np.intp
            for (_, rejected), (warm_active, _) in zip(trials, trials[1:]):
                assert np.array_equal(warm_active, rejected)
                assert warm_active.dtype == np.intp
            accepted = trials[-1][1]

        def cold(*args, **kwargs):
            kwargs["warm_active"] = None
            return project(*args, **kwargs)

        monkeypatch.setattr(optimizer, "project_cone_q", cold)
        ref = run_pgd(gauss2_target, spec, gram, cfg)
        assert np.array_equal(warm.halving_trace, ref.halving_trace)
        assert np.allclose(warm.free_energy_trace, ref.free_energy_trace,
                           rtol=1e-9, atol=0.0)

    def test_free_side_leaves_never_build_their_inverse(
            self, gauss2_target, monkeypatch):
        # the fine-d2 benchmark config (criterion 1's grid), one iteration:
        # every leaf sweep takes the Q_FF side, and some root sweep the W one
        spec = ssvi.build_dictionary(2, 4.0, 0.25)
        gram = ssvi.gram_matrix(spec)
        inverse = GramMatrix.inverse
        fetched = []

        def spy(self, block):
            fetched.append(block)
            return inverse(self, block)

        monkeypatch.setattr(GramMatrix, "inverse", spy)
        cfg = PgdConfig(step_size=0.5, max_iters=1, n_samples=20000, seed=0)
        run_pgd(gauss2_target, spec, gram, cfg)
        assert "root" in fetched
        assert "leaf" not in fetched

    def test_one_forward_pass_per_evaluated_point(self, gauss2_target,
                                                  monkeypatch):
        # criterion-12 config: gradient reuses the forward pass that
        # free_energy made at the accepted point
        calls = {"forward": 0, "free_energy": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(objective, "forward",
                            counted("forward", objective.forward))
        monkeypatch.setattr(optimizer, "free_energy",
                            counted("free_energy", optimizer.free_energy))
        spec = ssvi.build_dictionary(2, 2.0, 1.0)
        cfg = PgdConfig(step_size=0.5, max_iters=25, n_samples=4000, seed=0)
        res = run_pgd(gauss2_target, spec, ssvi.gram_matrix(spec), cfg)
        assert res.iterations == 25
        assert calls["free_energy"] >= res.iterations + 1
        assert calls["forward"] == calls["free_energy"]


class BlasRecordingTarget(ssvi.GaussianTarget):
    """Records both BLAS pools' thread counts at each potential call; with
    ``overflow``, every batch after the initial point's overflows."""

    def __init__(self, mean, cov, overflow=False):
        super().__init__(mean, cov)
        self.overflow = overflow
        self.batches = 0
        self.seen = []

    def potential(self, z):
        self.seen.append((thread_count("numpy"), thread_count("scipy")))
        out = super().potential(z)
        if np.ndim(z) > 1:
            self.batches += 1
            if self.overflow and self.batches > 1:
                return np.full_like(out, np.inf)
        return out


class TestBlasThreads:
    """run_pgd runs both pools at one thread and restores them."""

    def fit(self, gauss2_target, overflow):
        target = BlasRecordingTarget(gauss2_target.mean, gauss2_target.cov,
                                     overflow=overflow)
        spec = ssvi.build_dictionary(2, 2.0, 1.0)
        cfg = PgdConfig(step_size=0.5, max_iters=3, n_samples=1000, seed=0)
        return target, lambda: run_pgd(target, spec, ssvi.gram_matrix(spec),
                                       cfg)

    @pytest.mark.parametrize("overflow", [False, True],
                             ids=["returns", "raises"])
    def test_pins_numpy_and_restores_both(self, gauss2_target, overflow):
        with two_threads():
            target, fit = self.fit(gauss2_target, overflow)
            if overflow:
                with pytest.raises(TargetOverflowError):
                    fit()
            else:
                assert fit().iterations == 3
            assert (thread_count("numpy"), thread_count("scipy")) == (2, 2)
        assert target.seen
        assert set(target.seen) == {(1, 1)}

    def test_gram_matrix_pins_both_and_restores_them(self, monkeypatch):
        seen = []
        real_factor = dictionary.cho_factor

        def factor(*args, **kwargs):
            seen.append((thread_count("numpy"), thread_count("scipy")))
            return real_factor(*args, **kwargs)

        monkeypatch.setattr(dictionary, "cho_factor", factor)
        with two_threads():
            dictionary.gram_matrix(ssvi.build_dictionary(2, 2.0, 1.0))
            assert (thread_count("numpy"), thread_count("scipy")) == (2, 2)
        assert len(seen) == 2 and set(seen) == {(1, 1)}


def test_library_fit_does_not_depend_on_the_launch_thread_count():
    # gram_matrix plus run_pgd, as a library caller runs them, in fresh
    # interpreters whose OpenBLAS pools start at one and at two threads
    script = textwrap.dedent("""
        import hashlib
        import numpy as np
        import ssvi
        spec = ssvi.build_dictionary(2, 4.0, 0.5)
        gram = ssvi.gram_matrix(spec)
        target = ssvi.GaussianTarget(np.zeros(2),
                                     np.array([[1.0, 0.5], [0.5, 1.0]]))
        cfg = ssvi.PgdConfig(step_size=0.5, max_iters=3, n_samples=2000)
        res = ssvi.run_pgd(target, spec, gram, cfg)
        for name, arr in [("Q_root", gram.Q_root), ("Q_leaf", gram.Q_leaf),
                          ("lambda", res.params.lam), ("v", res.params.v),
                          ("F", res.free_energy_trace)]:
            print(name, hashlib.sha256(arr.tobytes()).hexdigest())
    """)
    src = os.path.dirname(os.path.dirname(ssvi.__file__))
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout.splitlines())
    assert len(out[0]) == 5
    assert [a for a, b in zip(*out) if a != b] == []


def test_fit_allocates_no_dense_gram():
    # wide-d10 geometry (nine leaf blocks, p=2928) at a small sample: the
    # Gram build plus one PGD iteration stay below one dense p x p array
    d = 10
    target = ssvi.GaussianTarget(np.zeros(d),
                                 np.full((d, d), 0.3) + 0.7 * np.eye(d))
    spec = ssvi.build_dictionary(d, 3.0, 0.5)
    assert spec.p == 2928
    cfg = PgdConfig(step_size=0.5, max_iters=1, n_samples=500, seed=0)
    tracemalloc.start()
    try:
        res = run_pgd(target, spec, ssvi.gram_matrix(spec), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.iterations == 1
    assert peak < 8 * spec.p ** 2
