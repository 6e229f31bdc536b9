"""Tests of the fit benchmark harness.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys

import pytest

import run
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tr = spans.Tracer(clock)

    def leaf(dt):
        clock.now += dt

    def middle():
        clock.now += 1.0
        tr.wrap("leaf", leaf)(2.0)
        clock.now += 0.5

    def outer():
        clock.now += 1.0
        tr.wrap("middle", middle)()
        tr.wrap("leaf", leaf)(3.0)
        clock.now += 0.25

    tr.wrap("outer", outer)()
    # outer 0..7.75, middle 1..4.5 (leaf 2..4), leaf 4.5..7.5
    assert [s[0] for s in tr.spans] == ["outer", "middle", "leaf", "leaf"]
    assert [s[3] for s in tr.spans] == [None, 0, 1, 0]
    assert spans.self_times(tr.spans) == pytest.approx([1.25, 1.5, 2.0, 3.0])
    m = spans.span_metrics(tr.spans, ("outer", "middle", "leaf"))
    assert m["leaf.calls"] == 2
    assert m["leaf.total_s"] == pytest.approx(5.0)
    assert m["middle.total_s"] == pytest.approx(3.5)
    assert m["middle.self_s"] == pytest.approx(1.5)
    assert m["outer.self_s"] == pytest.approx(1.25)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tr = spans.Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("boom", boom)()
    assert tr.spans[0][1:3] == [0.0, 1.0]
    assert tr.wrap("after", lambda: None)() is None
    assert tr.spans[1][3] is None


def test_missing_hook_is_null_not_zero(monkeypatch):
    monkeypatch.setattr(spans, "HOOKS", spans.HOOKS + (
        ("dictionary.gone", "ssvi.dictionary", "GramMatrix.no_such_entry"),
        ("optimizer.gone", "ssvi.optimizer", "no_such_function"),
    ))
    tr = spans.Tracer()
    undo = spans.install(tr)
    try:
        installed = {attr for _owner, attr, _value in undo}
        assert "no_such_entry" not in installed
        assert "project_cone_q" in installed
    finally:
        spans.uninstall(undo)
    m = spans.span_metrics(tr.spans, ("dictionary.gone", "optimizer.gone"))
    assert set(m.values()) == {None}
    layers = spans.layer_metrics(tr, None)
    assert layers["optimizer.project_cone_q.calls"] is None
    assert layers["optimizer.project_cone_q.ms_p50"] is None
    assert layers["optimizer.iter_ms_p50"] is None
    assert layers["targets.potential.per_iter"] is None


def test_uninstall_restores_every_entry_point():
    import ssvi.dictionary
    import ssvi.optimizer
    before = (ssvi.optimizer.project_cone_q,
              ssvi.dictionary.GramMatrix.__dict__["inverse"])
    undo = spans.install(spans.Tracer())
    assert ssvi.optimizer.project_cone_q is not before[0]
    spans.uninstall(undo)
    assert (ssvi.optimizer.project_cone_q,
            ssvi.dictionary.GramMatrix.__dict__["inverse"]) == before


def test_output_check_rejects_perturbed_free_energy():
    ref = {"final_free_energy": 1.1429353443636, "l2_to_oracle": 0.1109}
    good = {"error": None, "final_free_energy": ref["final_free_energy"],
            "l2_to_oracle": ref["l2_to_oracle"]}
    assert run.check_output(good, ref) == []
    # thread-count noise in F̂ is ~1e-14
    noisy = dict(good, final_free_energy=ref["final_free_energy"] + 1e-13)
    assert run.check_output(noisy, ref) == []
    bad = dict(good, final_free_energy=ref["final_free_energy"] * (1 + 1e-5))
    assert run.check_output(bad, ref)
    assert run.check_output(dict(good, l2_to_oracle=0.2), ref)
    assert run.check_output(dict(good, final_free_energy=float("nan")), ref)
    assert run.check_output(dict(good, error="OptimizerError: x"), ref)
    assert run.check_output(good, None)


def test_inputs_depend_on_the_seed_alone():
    def gen(name, seed):
        return workloads.inputs(name, workloads.variant_of(name, seed))

    a, b, c = (gen("spikeslab-d10", s) for s in (3, 3, 4))
    assert (a["target"][1] == b["target"][1]).all()
    assert (a["target"][2] == b["target"][2]).all()
    assert not (a["target"][1] == c["target"][1]).all()
    assert workloads.variant_of("spikeslab-d10", 3 + workloads.VARIANTS) == 3
    assert workloads.variant_of("fine-d2", 3) == 0
    assert (gen("fine-d2", 3)["target"][2] == gen("fine-d2", 4)["target"][2]
            ).all()


def test_every_workload_variant_has_a_reference():
    refs = run.load_references()
    for name, w in workloads.ALL.items():
        for v in range(workloads.VARIANTS if w.seeded else 1):
            assert f"{name}/{v}" in refs, (name, v)


def _harness(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_of_the_harness(trace):
    result, out = _harness("--workload", "smoke-d2", "--seed", "5",
                           "--seconds", "1", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == (2 if trace == "1" else 1)
    expected = run.LAYER_UNITS if trace == "1" else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, m in result["metrics"].items():
        assert m["unit"] == expected[name]
        if trace == "0" or name != "trace.overhead_s":
            assert m["value"] is not None and m["value"] >= 0, name
    if trace == "1":
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        assert layers["optimizer.iterations"] == 25
        assert layers["objective.gradient.calls"] == 25
        assert layers["starmap.forward.rows"] % 4000 == 0
    assert '"ssvi_cache_dir_unset": true' in out


def test_refuses_to_run_without_the_library(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "smoke-d2", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
