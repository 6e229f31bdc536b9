"""Fit benchmark of ssvi: cold set-up, PGD fit and peak memory per workload.

Run from the root of a checkout (the library is imported from ./src):

    python3 perfbench/run.py --workload fine-d2 --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --record-references

Every fit runs in a fresh child process (fit_child.py) with SSVI_CACHE_DIR
removed and a fixed BLAS thread count.  Children run one after another until
the next one would end past ``--seconds``; at least one runs (with
``--trace 1``, one untraced and one traced).  ``--trace 0`` reports the
end-to-end medians, ``--trace 1`` the per-layer split of the traced
children.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "fit_child.py")
REFERENCES = os.path.join(HERE, "references.json")
CHILD_TIMEOUT_S = 170.0
# Wide enough for thread-count and reduction-order differences (F̂ moves by
# ~1e-14, λ by ~1e-10 across BLAS thread counts), narrow enough to catch a
# fit that took a different path.
RTOL = 1e-7

END_TO_END = {"setup_s": "s", "fit_s": "s", "peak_rss_mb": "MB"}
_SPAN_UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}
LAYER_UNITS = {f"{name}.{kind}": unit
               for name in spans.SPAN_NAMES
               for kind, unit in _SPAN_UNITS.items()}
LAYER_UNITS.update({
    "optimizer.project_cone_q.ms_p50": "ms",
    "optimizer.active_p50": "count",
    "optimizer.iterations": "count",
    "optimizer.halvings": "count",
    "optimizer.step_accept_ratio": "ratio",
    "optimizer.iter_ms_p50": "ms",
    "starmap.forward.rows": "count",
    "targets.potential.rows": "count",
    "targets.potential.per_iter": "calls/iter",
    "trace.overhead_s": "s",
})


def blas_threads():
    """BLAS threads for every child: two, or fewer if fewer cores."""
    return min(2, len(os.sched_getaffinity(0)))


def child_env(root, threads):
    env = dict(os.environ)
    env.pop("SSVI_CACHE_DIR", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed fit)."""


def run_child(workload, variant, trace, env, timeout):
    """One fit in a fresh process: its record, or a failed-fit record."""
    cmd = [sys.executable, CHILD, "--workload", workload,
           "--variant", str(variant), "--trace", str(int(trace))]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"fit exceeded {timeout:.0f} s", "timed_out": True,
                "trace": trace, "wall_s": time.perf_counter() - t0}
    if proc.returncode != 0:
        raise HarnessError(f"fit child exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise HarnessError(f"fit child printed no result: {exc}") from exc
    record["trace"] = trace
    record["wall_s"] = time.perf_counter() - t0
    return record


def check_output(record, ref):
    """Problems with one fit's output against its reference ([] if none)."""
    if record.get("error"):
        return [record["error"]]
    if ref is None:
        return ["no reference recorded"]
    problems = []
    for key in ("final_free_energy", "l2_to_oracle"):
        if ref.get(key) is None:
            continue
        value = record.get(key)
        if not isinstance(value, float) or not (
                abs(value - ref[key]) <= RTOL * max(1.0, abs(ref[key]))):
            problems.append(f"{key} {value!r} != reference {ref[key]!r}")
    return problems


def load_references():
    try:
        with open(REFERENCES) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def run_workload(workload, seed, seconds, trace, root):
    """Run the fits of one workload; returns (records, threads)."""
    threads = blas_threads()
    env = child_env(root, threads)
    variant = workloads.variant_of(workload, seed)
    # --trace 1 alternates untraced and traced children, untraced first.
    kinds = [False, True] if trace else [False]
    records = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        kind = kinds[len(records) % len(kinds)]
        if len(records) >= len(kinds):
            mean_wall = statistics.mean(r["wall_s"] for r in records)
            if elapsed + mean_wall > seconds:
                break
        record = run_child(workload, variant, kind, env,
                           max(1.0, CHILD_TIMEOUT_S - elapsed))
        records.append(record)
        if record.get("timed_out"):
            break
    return records, threads


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def summarize(records, trace):
    """Metric name -> value (None where nothing was measured)."""
    plain = [r for r in records if not r["trace"] and "fit_s" in r]
    if not trace:
        return {name: _median(r.get(name) for r in plain)
                for name in END_TO_END}
    traced = [r for r in records if r["trace"] and "layers" in r]
    out = {name: _median(r["layers"].get(name) for r in traced)
           for name in LAYER_UNITS if name != "trace.overhead_s"}
    untraced_fit = _median(r["fit_s"] for r in plain)
    traced_fit = _median(r["fit_s"] for r in traced)
    out["trace.overhead_s"] = (traced_fit - untraced_fit
                               if None not in (traced_fit, untraced_fit)
                               else None)
    return out


def git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def report(workload, seed, seconds, trace, root):
    """Run and print one workload; returns (attempted, failed, metrics)."""
    records, threads = run_workload(workload, seed, seconds, trace, root)
    refs = load_references()
    variant = workloads.variant_of(workload, seed)
    ref = refs.get(f"{workload}/{variant}")
    failed = 0
    for i, r in enumerate(records):
        problems = check_output(r, ref)
        failed += bool(problems)
        print(f"# {workload} fit {i} trace={int(r['trace'])} "
              f"setup_s={r.get('setup_s')} fit_s={r.get('fit_s')} "
              f"peak_rss_mb={r.get('peak_rss_mb')} "
              f"F={r.get('final_free_energy')} "
              f"l2_to_oracle={r.get('l2_to_oracle')} "
              f"{'FAILED: ' + '; '.join(problems) if problems else 'ok'}")
    env = next((r["env"] for r in records if "env" in r), {})
    stamp = {"workload": workload, "seed": seed, "variant": variant,
             "git_commit": git_commit(root), **env,
             "reference_blas_threads": ref.get("blas_threads") if ref
             else None}
    print("# env " + json.dumps(stamp))
    metrics = summarize(records, trace)
    units = LAYER_UNITS if trace else END_TO_END
    shown = " ".join(f"{k}={v:.6g} {units[k]}" if v is not None
                     else f"{k}=null" for k, v in metrics.items())
    print(f"# {workload}: {shown} "
          f"fit_failures={failed / len(records):.3g} ratio "
          f"({failed} of {len(records)} fits; blas_threads={threads})")
    return len(records), failed, {
        k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def record_references(names, root):
    """Rewrite references.json entries from one untraced fit per variant."""
    threads = blas_threads()
    env = child_env(root, threads)
    refs = load_references()
    for name in names:
        count = workloads.VARIANTS if workloads.ALL[name].seeded else 1
        for variant in range(count):
            r = run_child(name, variant, False, env, CHILD_TIMEOUT_S)
            if r.get("error"):
                raise HarnessError(f"{name}/{variant}: {r['error']}")
            refs[f"{name}/{variant}"] = {
                "final_free_energy": r["final_free_energy"],
                "l2_to_oracle": r["l2_to_oracle"],
                "iterations": r["iterations"],
                "blas_threads": threads,
            }
            print(f"{name}/{variant}: {refs[f'{name}/{variant}']}",
                  flush=True)
    with open(REFERENCES, "w") as fh:
        json.dump(dict(sorted(refs.items())), fh, indent=1)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *workloads.ALL])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-references", action="store_true",
                    help="refit every variant and rewrite references.json")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ssvi", "__init__.py")):
        print("error: run from the root of an ssvi checkout "
              "(src/ssvi not found)", file=sys.stderr)
        return 2
    if args.workload != "all":
        names = [args.workload]
    elif args.record_references:
        names = list(workloads.ALL)
    else:
        names = list(workloads.WORKLOADS)
    try:
        if args.record_references:
            record_references(names, root)
            return 0
        attempted = failed = 0
        metrics = {}
        for name in names:
            a, f, m = report(name, args.seed, args.seconds, bool(args.trace),
                             root)
            attempted += a
            failed += f
            if len(names) == 1:
                metrics = m
            else:
                metrics.update({f"{name}.{k}": v for k, v in m.items()})
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
