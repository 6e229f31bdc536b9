"""Every span the fit benchmark (``perfbench/``) reports fires on its fits.

The harness reports a span that never fired as null, and a null per-layer
value makes a benchmark run unreadable.  This runs one traced fit per
benchmark workload, plus the harness's smoke workload, in this process with
the harness's own tracer, and checks every span name.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import fit_child  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ssvi import dictionary, optimizer, targets  # noqa: E402


@pytest.mark.parametrize("name", [*workloads.WORKLOADS, workloads.SMOKE.name])
def test_every_span_fires(name):
    inp = workloads.inputs(name, 0)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        target, spec, gram = fit_child._setup(inp, dictionary, targets)
        spans.hook_target(tracer, target)
        result = optimizer.run_pgd(target, spec, gram,
                                   optimizer.PgdConfig(**inp["pgd"]))
    finally:
        spans.uninstall(undo)
    fired = {s[0] for s in tracer.spans}
    assert set(spans.SPAN_NAMES) - fired == set()
    layers = spans.layer_metrics(tracer, result)
    assert [k for k, v in layers.items() if v is None] == []
