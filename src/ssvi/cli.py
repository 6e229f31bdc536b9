"""Batch front-end: fit / oracle-gaussian / diagnose / compare.

Exit codes: 0 success, 2 configuration error (message names the offending
field path), 3 runtime or optimizer error.  All primary outputs are
byte-reproducible for a fixed config and seed regardless of ``--threads``;
every emitted file carries the tool version and the dictionary ordering
version.
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
from .dictionary import ORDERING_VERSION, build_dictionary, gram_matrix
from .diagnostics import (approximation_bound, pushforward_moments,
                          self_consistency_residual)
from .gaussian_oracle import (GaussianDist, kl_gaussians, mfvi_gaussian,
                              ssvi_gaussian, ssvi_mfvi_gap)
from .optimizer import OptimizerError, PgdConfig, run_pgd
from .starmap import params_from_json, params_to_json
from .targets import target_from_json


class ConfigError(ValueError):
    """Configuration failure; the message names the offending field path."""


_TOP_KEYS = {"target", "dictionary", "optimizer", "diagnostics",
             "output_dir", "seed"}


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _build_dictionary(cfg, d):
    block = cfg.get("dictionary")
    if not isinstance(block, dict):
        raise ConfigError("dictionary: block required")
    unknown = set(block) - {"R", "delta"}
    if unknown:
        raise ConfigError(f"dictionary: unknown keys {sorted(unknown)}")
    try:
        return build_dictionary(d, block["R"], block["delta"])
    except KeyError as exc:
        raise ConfigError(f"dictionary.{exc.args[0]}: missing") from exc
    except ValueError as exc:
        raise ConfigError(f"dictionary: {exc}") from exc


def _build_target(cfg):
    block = cfg.get("target")
    if not isinstance(block, dict):
        raise ConfigError("target: block required")
    try:
        return target_from_json(block)
    except KeyError as exc:
        raise ConfigError(f"target.{exc.args[0]}: missing") from exc
    except ValueError as exc:
        raise ConfigError(f"target: {exc}") from exc


def _pgd_config(cfg, args):
    block = dict(cfg.get("optimizer", {}))
    if args.seed is not None:
        block["seed"] = args.seed
    elif "seed" in cfg and "seed" not in block:
        block["seed"] = cfg["seed"]
    if args.mc_samples is not None:
        block["n_samples"] = args.mc_samples
    try:
        return PgdConfig.from_dict(block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"optimizer: {exc}") from exc


def _constants(target):
    try:
        return target.regularity_constants()
    except ValueError as exc:
        raise ConfigError(f"target: {exc}") from exc


def _fit(cfg, args, target, spec):
    """Run the optimizer block of ``cfg`` on ``target`` over ``spec``."""
    pgd = _pgd_config(cfg, args)
    consts = _constants(target)
    return run_pgd(target, spec, gram_matrix(spec), pgd, consts=consts)


def _load_params(path, spec):
    try:
        with open(path) as fh:
            return params_from_json(json.load(fh), spec)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(
            f"diagnostics.params_path: {type(exc).__name__}: {exc}") from exc


def _out_dir(cfg, args):
    out = args.out or cfg.get("output_dir") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _stamp(obj):
    obj["tool_version"] = __version__
    obj["ordering_version"] = ORDERING_VERSION
    return obj


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(_stamp(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _csv_header(fh):
    fh.write(f"# tool_version={__version__},"
             f"ordering_version={ORDERING_VERSION}\n")


def _set_threads(n):
    if n is None:
        return
    try:
        from threadpoolctl import threadpool_limits
        threadpool_limits(limits=int(n))
    except ImportError:
        pass  # without threadpoolctl installed, --threads does nothing


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fit(cfg, args):
    target = _build_target(cfg)
    spec = _build_dictionary(cfg, target.d)
    t0 = time.perf_counter()
    result = _fit(cfg, args, target, spec)
    runtime_ms = 1000.0 * (time.perf_counter() - t0)
    out = _out_dir(cfg, args)

    _write_json(os.path.join(out, "params.json"),
                params_to_json(result.params, spec))
    with open(os.path.join(out, "trace.csv"), "w", newline="") as fh:
        _csv_header(fh)
        w = csv.writer(fh)
        w.writerow(["iter", "free_energy", "grad_theta_norm",
                    "step_halvings"])
        w.writerow([0, repr(float(result.free_energy_trace[0])), "", ""])
        for it in range(result.iterations):
            w.writerow([it + 1,
                        repr(float(result.free_energy_trace[it + 1])),
                        repr(float(result.grad_norm_trace[it])),
                        int(result.halving_trace[it])])
    _write_json(os.path.join(out, "summary.json"), {
        "final_free_energy": float(result.free_energy_trace[-1]),
        "iters": int(result.iterations),
        "runtime_ms": runtime_ms,
        "dict_size": int(spec.p),
        "termination": result.termination,
        "step_size": result.step_size,
    })
    return 0


def _gaussian_target_or_fail(cfg):
    target = _build_target(cfg)
    if not (hasattr(target, "cov") and hasattr(target, "precision")):
        raise ConfigError("target.family: must be gaussian for this command")
    return target


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
    oracle = _gaussian_oracle(_gaussian_target_or_fail(cfg))
    out = _out_dir(cfg, args)
    _write_json(os.path.join(out, "oracle.json"), oracle)
    return 0


def cmd_compare(cfg, args):
    target = _gaussian_target_or_fail(cfg)
    oracle = _gaussian_oracle(target)
    kl_s, kl_m, gap = oracle["kl_ssvi"], oracle["kl_mfvi"], oracle["gap"]

    fit_gap = None
    if "optimizer" in cfg:
        result = _fit(cfg, args, target, _build_dictionary(cfg, target.d))
        # KL of the fitted pushforward from a Gaussian target:
        # F̂ − d/2 + ½ log det Σ (the free energy misses only the target's
        # normalizing constant and the base entropy).
        sign, logdet = np.linalg.slogdet(target.cov)
        kl_fit = (result.free_energy_trace[-1] - target.d / 2.0
                  + 0.5 * logdet)
        fit_gap = float(kl_fit - kl_s)

    out = _out_dir(cfg, args)
    _write_json(os.path.join(out, "compare.json"), {
        "kl_ssvi_fit_free_energy_gap": fit_gap,
        "kl_ssvi_exact": kl_s,
        "kl_mfvi_exact": kl_m,
        "gap_exact": gap,
        "gap_identity_residual": abs(gap - (kl_s - kl_m)),
    })
    return 0


def cmd_diagnose(cfg, args):
    target = _build_target(cfg)
    spec = _build_dictionary(cfg, target.d)
    dblock = dict(cfg.get("diagnostics", {}))
    unknown = set(dblock) - {"grid_sizes", "mc_n", "params_path"}
    if unknown:
        raise ConfigError(f"diagnostics: unknown keys {sorted(unknown)}")
    grid_sizes = dblock.get("grid_sizes", 9)
    mc_n = (args.mc_samples if args.mc_samples is not None
            else dblock.get("mc_n", 2000))
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    consts = _constants(target)

    if "params_path" in dblock:
        params, spec = _load_params(dblock["params_path"], spec)
    else:
        params = _fit(cfg, args, target, spec).params

    try:
        report = self_consistency_residual(params, spec, target,
                                           grid_sizes, mc_n, seed)
    except ValueError as exc:
        raise ConfigError(f"diagnostics: {exc}") from exc
    cert = approximation_bound(target, consts, mc_n=mc_n, seed=seed,
                               params=params, spec=spec)
    mean, cov, mean_se, _ = pushforward_moments(params, spec, mc_n, seed)

    out = _out_dir(cfg, args)
    with open(os.path.join(out, "residuals.csv"), "w", newline="") as fh:
        _csv_header(fh)
        w = csv.writer(fh)
        w.writerow(["equation", "coordinate", "z1", "zi", "residual",
                    "std_error"])
        for row in report.to_rows():
            w.writerow([row[0], row[1]] + [repr(float(v)) for v in row[2:]])
    _write_json(os.path.join(out, "diagnose.json"), {
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
        sp.add_argument("--threads", type=int, default=None, metavar="N")
        sp.add_argument("--mc-samples", type=int, default=None, metavar="N")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _set_threads(args.threads)
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OptimizerError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
