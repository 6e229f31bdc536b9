"""The fit benchmark (``perfbench/``) can read every fit it makes.

The harness reports a span that never fired as null, and a null per-layer
value makes a benchmark run unreadable; a fit whose F̂ or l2 distance to the
closed-form map leaves ``perfbench/references.json`` counts as incorrect.
This runs one traced fit per benchmark workload, plus the harness's smoke
workload, in this process with the harness's own tracer, and checks every
span name and the fit's output with the harness's own check.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import fit_child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ssvi import (diagnostics, dictionary, gaussian_oracle,  # noqa: E402
                  optimizer, targets)

NAMES = [*workloads.WORKLOADS, workloads.SMOKE.name]


@pytest.fixture(scope="module", params=NAMES)
def traced_fit(request):
    """(workload, tracer, target, spec, result) of variant 0's traced fit."""
    inp = workloads.inputs(request.param, 0)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        target, spec, gram = fit_child._setup(inp, dictionary, targets)
        spans.hook_target(tracer, target)
        result = optimizer.run_pgd(target, spec, gram,
                                   optimizer.PgdConfig(**inp["pgd"]))
    finally:
        spans.uninstall(undo)
    return request.param, tracer, target, spec, result


def test_every_span_fires(traced_fit):
    _, tracer, _, _, result = traced_fit
    fired = {s[0] for s in tracer.spans}
    assert set(spans.SPAN_NAMES) - fired == set()
    layers = spans.layer_metrics(tracer, result)
    assert [k for k, v in layers.items() if v is None] == []


def test_output_matches_reference(traced_fit):
    # the record fit_child.fit_once reports, checked as run.py checks it
    name, _, target, spec, result = traced_fit
    record = {"error": None,
              "final_free_energy": float(result.free_energy_trace[-1]),
              "l2_to_oracle": None}
    if isinstance(target, targets.GaussianTarget):
        tmap = gaussian_oracle.closed_form_star_map(target.mean, target.cov)
        dist, _ = diagnostics.l2_map_distance(
            result.params, tmap, spec, fit_child.L2_MC_N, fit_child.L2_SEED)
        record["l2_to_oracle"] = float(dist)
    ref = run.load_references().get(f"{name}/0")
    assert run.check_output(record, ref) == []
