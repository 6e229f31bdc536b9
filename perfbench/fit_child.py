"""One benchmark fit in a fresh process; prints one JSON object.

Run by run.py with the BLAS thread count and PYTHONPATH set in the
environment and SSVI_CACHE_DIR removed, so the Gram build is always cold:

    python3 perfbench/fit_child.py --workload fine-d2 --variant 0 --trace 0

It mirrors ``ssvi fit`` through the public calls: build the target,
``build_dictionary``, ``gram_matrix``, then ``run_pgd``.  After the timed
region it reports the final F̂ and, for Gaussian targets, the l2 distance
to the closed-form star map; run.py checks both against references.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

import spans
import workloads

# Set-up is repeated (each time with a cold Gram build) and its median
# reported: at least SETUP_MIN_REPS times, then until SETUP_MIN_S of set-up
# time or SETUP_MAX_REPS repetitions.  Short set-ups (demo-d2 takes ~20 ms)
# need many repetitions to give a steady median.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 25
SETUP_MIN_S = 1.0
L2_MC_N = 20000
L2_SEED = 1


def _setup(inp, dictionary, targets):
    kind, a, b = inp["target"]
    if kind == "gaussian":
        target = targets.GaussianTarget(a, b)
    else:
        target = targets.SpikeSlabGlmTarget(a, b, **workloads.SPIKESLAB_PRIOR)
    spec = dictionary.build_dictionary(target.d, inp["R"], inp["delta"])
    gram = dictionary.gram_matrix(spec)
    return target, spec, gram


def fit_once(workload, variant, trace):
    from ssvi import diagnostics, dictionary, gaussian_oracle, optimizer, \
        targets

    inp = workloads.inputs(workload, variant)
    pgd = optimizer.PgdConfig(**inp["pgd"])
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        spans.install(tracer)

    setups = []
    while len(setups) < SETUP_MIN_REPS or (
            sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPS):
        if tracer is not None:
            tracer.spans.clear()  # keep only the spans of the last set-up
        built = None  # free the previous Gram before building the next
        t0 = time.perf_counter()
        built = _setup(inp, dictionary, targets)
        setups.append(time.perf_counter() - t0)
    target, spec, gram = built
    if tracer is not None:
        spans.hook_target(tracer, target)

    record = {"setup_s": statistics.median(setups),
              "setup_reps": len(setups), "error": None}
    result = None
    t0 = time.perf_counter()
    try:
        result = optimizer.run_pgd(target, spec, gram, pgd)
    except Exception as exc:  # a failed fit is counted, not fatal
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["fit_s"] = time.perf_counter() - t0

    if result is not None:
        record["final_free_energy"] = float(result.free_energy_trace[-1])
        record["iterations"] = int(result.iterations)
        if inp["target"][0] == "gaussian":
            tmap = gaussian_oracle.closed_form_star_map(target.mean,
                                                        target.cov)
            dist, _ = diagnostics.l2_map_distance(result.params, tmap, spec,
                                                  L2_MC_N, L2_SEED)
            record["l2_to_oracle"] = float(dist)
        else:
            record["l2_to_oracle"] = None
    if tracer is not None:
        record["layers"] = spans.layer_metrics(tracer, result)
    record["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return record


def environment():
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ssvi_cache_dir_unset": "SSVI_CACHE_DIR" not in os.environ,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.ALL)
    ap.add_argument("--variant", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    record = fit_once(args.workload, args.variant, bool(args.trace))
    record["env"] = environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
