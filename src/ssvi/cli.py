"""Batch front-end: fit / oracle-gaussian / diagnose / compare.

Exit codes: 0 success, 2 configuration error (message names the offending
field path), 3 runtime or optimizer error.  Every command runs with both
OpenBLAS pools, numpy's and scipy's, at one thread, so its primary outputs
are byte-reproducible for a fixed config and seed whatever thread count the
process was launched with; ``--threads`` is accepted and ignored.  Every
emitted file carries the tool version and the dictionary ordering version.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .blas import one_thread
from .dictionary import (ORDERING_VERSION, FieldTypeError, build_dictionary,
                         check_keys, gram_matrix)
from .diagnostics import (DiagnosticsError, approximation_bound,
                          check_residual_settings, pushforward_moments,
                          self_consistency_residual)
from .gaussian_oracle import (GaussianDist, kl_gaussians, mfvi_gaussian,
                              ssvi_gaussian, ssvi_mfvi_gap)
from .optimizer import OptimizerError, PgdConfig, run_pgd
from .starmap import params_from_json, params_to_json
from .targets import GaussianTarget, target_from_json


class ConfigError(ValueError):
    """Configuration failure; the message names the offending field path."""


_TOP_KEYS = {"target", "dictionary", "optimizer", "diagnostics",
             "output_dir", "seed"}


def _load_config(args):
    """The config at ``--config``, with ``--seed`` in place of its seed."""
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    check_keys(cfg, _TOP_KEYS, "config keys", ConfigError)
    cfg["seed"] = seed = cfg.get("seed", 0) if args.seed is None else args.seed
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed: must be a nonnegative integer, got {seed!r}")
    if not isinstance(cfg.get("output_dir", ""), str):
        raise ConfigError("output_dir: must be a string")
    return cfg


def _section(cfg, name, build, optional=False):
    """``build(cfg[name])``, any failure reported as ``<name>[.<key>]: …``
    (with the key when the error names one)."""
    block = cfg.get(name, {} if optional else None)
    if not isinstance(block, dict):
        raise ConfigError(f"{name}: a JSON object is required")
    try:
        return build(block)
    except KeyError as exc:
        raise ConfigError(f"{name}.{exc.args[0]}: missing") from exc
    except FieldTypeError as exc:
        raise ConfigError(f"{name}.{exc}") from exc
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _target(cfg, gaussian=False):
    """The target and its regularity constants."""
    def build(block):
        target = target_from_json(block)
        if gaussian and not isinstance(target, GaussianTarget):
            raise ValueError("family must be gaussian for this command")
        return target, target.regularity_constants()
    return _section(cfg, "target", build)


def _dictionary(cfg, d):
    def build(block):
        check_keys(block, {"R", "delta"})
        return build_dictionary(d, block["R"], block["delta"])
    return _section(cfg, "dictionary", build)


def _pgd_config(cfg, **flags):
    """The optimizer block; seed defaults to the top-level one, flags win."""
    def build(block):
        given = {k: v for k, v in flags.items() if v is not None}
        return PgdConfig.from_dict({"seed": cfg["seed"], **block, **given})
    return _section(cfg, "optimizer", build, optional=True)


def _diagnostics(cfg, args):
    """(grid_sizes, mc_n, params_path); ``--mc-samples`` wins over mc_n."""
    def build(block):
        check_keys(block, {"grid_sizes", "mc_n", "params_path"})
        grid_sizes = block.get("grid_sizes", 9)
        mc_n = (args.mc_samples if args.mc_samples is not None
                else block.get("mc_n", 2000))
        check_residual_settings(grid_sizes, mc_n)
        return grid_sizes, mc_n, block.get("params_path")
    return _section(cfg, "diagnostics", build, optional=True)


def _load_params(path, spec):
    try:
        with open(os.fspath(path)) as fh:
            return params_from_json(json.load(fh), spec)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(
            f"diagnostics.params_path: {type(exc).__name__}: {exc}") from exc


def _output(cfg, args, name):
    out = args.out or cfg.get("output_dir") or "."
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _write_json(path, obj):
    obj.update(tool_version=__version__, ordering_version=ORDERING_VERSION)
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# tool_version={__version__},"
                 f"ordering_version={ORDERING_VERSION}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fit(cfg, args):
    target, consts = _target(cfg)
    spec = _dictionary(cfg, target.d)
    pgd = _pgd_config(cfg, seed=args.seed, n_samples=args.mc_samples)
    t0 = time.perf_counter()
    result = run_pgd(target, spec, gram_matrix(spec), pgd, consts=consts)
    runtime_ms = 1000.0 * (time.perf_counter() - t0)

    _write_json(_output(cfg, args, "params.json"),
                params_to_json(result.params, spec))
    fe = result.free_energy_trace
    _write_csv(_output(cfg, args, "trace.csv"),
               ["iter", "free_energy", "grad_theta_norm", "step_halvings"],
               [[0, repr(float(fe[0])), "", ""]]
               + [[it + 1, repr(float(fe[it + 1])),
                   repr(float(result.grad_norm_trace[it])),
                   int(result.halving_trace[it])]
                  for it in range(result.iterations)])
    _write_json(_output(cfg, args, "summary.json"), {
        "final_free_energy": float(result.free_energy_trace[-1]),
        "iters": int(result.iterations),
        "runtime_ms": runtime_ms,
        "dict_size": int(spec.p),
        "termination": result.termination,
        "step_size": result.step_size,
    })
    return 0


def _gaussian_oracle(target):
    """Closed-form star and mean-field fits, their KLs and the exact gap."""
    star = ssvi_gaussian(target.mean, target.cov)
    bar = mfvi_gaussian(target.mean, target.cov)
    exact = GaussianDist(target.mean, target.cov)
    return {
        "ssvi_cov": star.cov.tolist(),
        "mfvi_cov": bar.cov.tolist(),
        "kl_ssvi": kl_gaussians(star, exact),
        "kl_mfvi": kl_gaussians(bar, exact),
        "gap": ssvi_mfvi_gap(target.cov),
    }


def cmd_oracle_gaussian(cfg, args):
    oracle = _gaussian_oracle(_target(cfg, gaussian=True)[0])
    _write_json(_output(cfg, args, "oracle.json"), oracle)
    return 0


def cmd_compare(cfg, args):
    target, consts = _target(cfg, gaussian=True)
    pgd = None
    if "optimizer" in cfg:
        spec = _dictionary(cfg, target.d)
        pgd = _pgd_config(cfg, seed=args.seed, n_samples=args.mc_samples)
    oracle = _gaussian_oracle(target)
    kl_s, kl_m, gap = oracle["kl_ssvi"], oracle["kl_mfvi"], oracle["gap"]

    fit_gap = None
    if pgd is not None:
        result = run_pgd(target, spec, gram_matrix(spec), pgd, consts=consts)
        # KL of the fitted pushforward from a Gaussian target:
        # F̂ − d/2 + ½ log det Σ (the free energy misses only the target's
        # normalizing constant and the base entropy).
        sign, logdet = np.linalg.slogdet(target.cov)
        kl_fit = (result.free_energy_trace[-1] - target.d / 2.0
                  + 0.5 * logdet)
        fit_gap = float(kl_fit - kl_s)

    _write_json(_output(cfg, args, "compare.json"), {
        "kl_ssvi_fit_free_energy_gap": fit_gap,
        "kl_ssvi_exact": kl_s,
        "kl_mfvi_exact": kl_m,
        "gap_exact": gap,
        "gap_identity_residual": abs(gap - (kl_s - kl_m)),
    })
    return 0


def cmd_diagnose(cfg, args):
    target, consts = _target(cfg)
    spec = _dictionary(cfg, target.d)
    grid_sizes, mc_n, params_path = _diagnostics(cfg, args)
    seed = cfg["seed"]
    if params_path is not None:
        params, spec = _load_params(params_path, spec)
    else:  # --mc-samples sets mc_n only; the fit keeps the optimizer's
        pgd = _pgd_config(cfg, seed=args.seed)
        params = run_pgd(target, spec, gram_matrix(spec), pgd,
                         consts=consts).params

    report = self_consistency_residual(params, spec, target,
                                       grid_sizes, mc_n, seed)
    cert = approximation_bound(target, consts, mc_n=mc_n, seed=seed,
                               params=params, spec=spec)
    mean, cov, mean_se, _ = pushforward_moments(params, spec, mc_n, seed)

    _write_csv(_output(cfg, args, "residuals.csv"),
               ["equation", "coordinate", "z1", "zi", "residual", "std_error"],
               [[row[0], row[1]] + [repr(float(v)) for v in row[2:]]
                for row in report.to_rows()])
    _write_json(_output(cfg, args, "diagnose.json"), {
        "worst_normalized_residual": report.worst_normalized,
        "bound_rhs": cert.rhs,
        "bound_rhs_std_error": cert.std_error,
        "bound_kl_exact": cert.kl_exact,
        "bound_slack": cert.slack,
        "bound_assumptions_verified": cert.assumptions_verified,
        "pushforward_mean": mean.tolist(),
        "pushforward_cov": cov.tolist(),
        "pushforward_mean_std_error": mean_se.tolist(),
    })
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "fit": cmd_fit,
    "oracle-gaussian": cmd_oracle_gaussian,
    "diagnose": cmd_diagnose,
    "compare": cmd_compare,
}


def _parser():
    p = argparse.ArgumentParser(
        prog="ssvi",
        description="Star-structured variational inference by convex "
                    "optimization over piecewise-linear transport maps.",
        epilog="Exit codes: 0 success, 2 configuration error, "
               "3 runtime/optimizer error.")
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, metavar="PATH")
        sp.add_argument("--out", metavar="DIR", default=None)
        sp.add_argument("--seed", type=int, default=None, metavar="U64")
        sp.add_argument("--threads", type=int, default=None, metavar="N",
                        help="ignored: every command runs BLAS at one thread")
        sp.add_argument("--mc-samples", type=int, default=None, metavar="N")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # gram_matrix and run_pgd pin themselves; this pin also covers the
        # diagnostics' own products and solves
        with one_thread():
            cfg = _load_config(args)
            return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OptimizerError, DiagnosticsError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
