"""In-memory spans around the public entry points of each ssvi module.

The hooks are installed from the benchmark's side by replacing module and
class attributes where the caller looks them up; nothing inside ``ssvi`` is
edited.  A span records its name, start, end and the span that was open when
it started, so self time is the span's duration minus the time its direct
children cover.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# Span name -> (module, attribute path) where the caller looks it up.
# The target hooks are installed on the target instance (see hook_target).
HOOKS = (
    ("dictionary.gram_matrix", "ssvi.dictionary", "gram_matrix"),
    ("dictionary.factor", "ssvi.dictionary", "GramMatrix.__init__"),
    ("dictionary.inv_norm", "ssvi.dictionary", "GramMatrix.inv_norm"),
    ("dictionary.inverse", "ssvi.dictionary", "GramMatrix.inverse"),
    ("dictionary.solve", "ssvi.dictionary", "GramMatrix.solve"),
    ("optimizer.run_pgd", "ssvi.optimizer", "run_pgd"),
    ("optimizer.map_point", "ssvi.optimizer", "map_point"),
    ("optimizer.project_cone_q", "ssvi.optimizer", "project_cone_q"),
    ("objective.free_energy", "ssvi.optimizer", "free_energy"),
    ("objective.gradient", "ssvi.optimizer", "gradient"),
    ("starmap.forward", "ssvi.objective", "forward"),
)
TARGET_HOOKS = (("targets.potential", "potential"),
                ("targets.grad", "grad"))
SPAN_NAMES = tuple(h[0] for h in HOOKS) + tuple(h[0] for h in TARGET_HOOKS)


class Tracer:
    """Collects spans as ``[name, start, end, parent_index, info]``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []

    def wrap(self, name, fn, info=None):
        """``fn`` recorded as span ``name``; ``info(args, result)`` adds data."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = [name, self.clock(), None, parent, None]
            self.spans.append(span)
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                span[2] = self.clock()
            if info is not None:
                span[4] = info(args, result)
            return result
        return traced

    def of(self, name):
        return [s for s in self.spans if s[0] == name]


def self_times(spans):
    """Self time of every span: duration minus its direct children's."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def span_metrics(spans, names=SPAN_NAMES):
    """``<name>.calls``, ``.total_s`` and ``.self_s``; None if never fired."""
    selfs = self_times(spans)
    out = {}
    for name in names:
        idx = [i for i, s in enumerate(spans) if s[0] == name]
        fired = bool(idx)
        out[f"{name}.calls"] = len(idx) if fired else None
        out[f"{name}.total_s"] = (
            sum(spans[i][2] - spans[i][1] for i in idx) if fired else None)
        out[f"{name}.self_s"] = sum(selfs[i] for i in idx) if fired else None
    return out


def _rows(args, _result):
    """Batch rows of the array argument (1 for a single point)."""
    arr = args[-1]
    shape = getattr(arr, "shape", ())
    return shape[0] if len(shape) > 1 else 1


def _active_size(_args, result):
    if isinstance(result, tuple) and len(result) == 2:
        return len(result[1])
    return None


_INFO = {"starmap.forward": _rows, "targets.potential": _rows,
         "optimizer.project_cone_q": _active_size}


def _resolve(module, path):
    """(owner, attribute name, current value) or None if absent."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


def install(tracer):
    """Hook every entry point in HOOKS that exists; return the undo list."""
    undo = []
    for name, module, path in HOOKS:
        found = _resolve(module, path)
        if found is None:
            continue
        owner, attr, value = found
        if isinstance(value, property):
            new = property(tracer.wrap(name, value.fget, _INFO.get(name)))
        else:
            new = tracer.wrap(name, value, _INFO.get(name))
        setattr(owner, attr, new)
        undo.append((owner, attr, value))
    return undo


def uninstall(undo):
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


def hook_target(tracer, target):
    """Trace ``potential`` and ``grad`` on this target instance."""
    for name, attr in TARGET_HOOKS:
        fn = getattr(target, attr, None)
        if fn is not None:
            setattr(target, attr, tracer.wrap(name, fn, _INFO.get(name)))


def layer_metrics(tracer, result):
    """Every per-layer metric of one traced fit (None where unmeasured)."""
    m = span_metrics(tracer.spans)
    proj = tracer.of("optimizer.project_cone_q")
    grads = tracer.of("objective.gradient")
    pgd = tracer.of("optimizer.run_pgd")
    iters = int(result.iterations) if result is not None else None

    m["optimizer.project_cone_q.ms_p50"] = (
        1000.0 * statistics.median(s[2] - s[1] for s in proj)
        if proj else None)
    active = [s[4] for s in proj if s[4] is not None]
    m["optimizer.active_p50"] = statistics.median(active) if active else None
    m["optimizer.iterations"] = iters
    m["optimizer.halvings"] = (int(result.halving_trace.sum())
                               if result is not None else None)
    m["optimizer.step_accept_ratio"] = (iters / len(proj)
                                        if proj and iters is not None
                                        else None)
    # One iteration runs from a gradient call to the next one, the last to
    # the end of run_pgd.
    if grads and pgd:
        starts = [s[1] for s in grads] + [pgd[-1][2]]
        m["optimizer.iter_ms_p50"] = 1000.0 * statistics.median(
            b - a for a, b in zip(starts, starts[1:]))
    else:
        m["optimizer.iter_ms_p50"] = None
    for name in ("starmap.forward", "targets.potential"):
        spans = tracer.of(name)
        m[f"{name}.rows"] = sum(s[4] for s in spans) if spans else None
    pot = tracer.of("targets.potential")
    m["targets.potential.per_iter"] = (len(pot) / iters
                                       if pot and iters else None)
    return m
