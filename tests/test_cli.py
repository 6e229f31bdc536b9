import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import ssvi
from ssvi.blas import thread_count
from ssvi.cli import main
from ssvi.optimizer import OptimizerError

from conftest import two_threads


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "target": {"family": "gaussian", "mean": [0.0, 0.0],
                   "cov": [[1.0, 0.5], [0.5, 1.0]]},
        "dictionary": {"R": 2.0, "delta": 1.0},
        "optimizer": {"step_size": 0.5, "max_iters": 25,
                      "n_samples": 4000},
        "seed": 0,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_trace(path):
    with open(path) as fh:
        header = fh.readline()
        assert header.startswith("# tool_version=")
        assert "ordering_version=class-major-v1" in header
        return list(csv.DictReader(fh))


class TestFit:
    def test_writes_outputs_exit_zero(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "params.json").exists()
        assert (out / "trace.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["dict_size"] == 4 + 2 * 16 + 3 * 4  # N=4, d=2
        assert summary["iters"] == 25
        assert summary["runtime_ms"] > 0
        assert summary["tool_version"]

    def test_stops_at_tolerance(self, tmp_path):
        # the first step's gradient norm (0.92 here) already meets tol
        block = {"step_size": 0.5, "max_iters": 25, "n_samples": 4000,
                 "tol": 1.0}
        target = ssvi.GaussianTarget([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
        spec = ssvi.build_dictionary(2, 2.0, 1.0)
        res = ssvi.run_pgd(target, spec, ssvi.gram_matrix(spec),
                           ssvi.PgdConfig(seed=0, **block))
        assert res.termination == "tolerance"
        assert res.iterations == 1
        assert res.free_energy_trace.size == 2
        cfg = write_config(tmp_path, optimizer=block)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == "tolerance"
        assert summary["iters"] == 1

    def test_trace_nonincreasing(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["fit", "--config", str(cfg), "--out", str(out)])
        rows = read_trace(out / "trace.csv")
        fe = [float(r["free_energy"]) for r in rows]
        assert np.all(np.diff(fe) <= 1e-10)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["fit", "--config", str(cfg), "--out", str(a), "--threads", "1"])
        main(["fit", "--config", str(cfg), "--out", str(b), "--threads", "2"])
        assert (a / "params.json").read_bytes() \
            == (b / "params.json").read_bytes()
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()

    def test_bad_grid_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dictionary={"R": 2.0, "delta": 0.3})
        assert main(["fit", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "dictionary" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        for key in ("extra_block", "bench"):
            cfg = write_config(tmp_path, **{key: {"x": 1}})
            assert main(["fit", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
            assert "unknown config keys" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["fit", "--config", str(tmp_path / "nope.json")]) == 2

    def test_params_json_reloadable(self, tmp_path):
        import ssvi
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["fit", "--config", str(cfg), "--out", str(out)])
        blob = json.loads((out / "params.json").read_text())
        params, spec = ssvi.params_from_json(blob)
        assert spec.d == 2


class TestOracleGaussian:
    def test_emits_oracle_json(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["oracle-gaussian", "--config", str(cfg),
                     "--out", str(out)]) == 0
        o = json.loads((out / "oracle.json").read_text())
        assert np.isclose(o["gap"], 0.5 * np.log(0.75), atol=1e-10)
        assert np.isclose(o["kl_ssvi"], 0.0, atol=1e-12)
        assert np.shape(o["ssvi_cov"]) == (2, 2)


class TestCompare:
    def test_identity_residual_small(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg),
                     "--out", str(out)]) == 0
        o = json.loads((out / "compare.json").read_text())
        assert o["gap_identity_residual"] < 1e-10
        assert o["kl_ssvi_fit_free_energy_gap"] is not None

    def test_without_optimizer_block(self, tmp_path):
        cfg = write_config(tmp_path)
        blob = json.loads(cfg.read_text())
        del blob["optimizer"]
        cfg.write_text(json.dumps(blob))
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg),
                     "--out", str(out)]) == 0
        o = json.loads((out / "compare.json").read_text())
        assert o["kl_ssvi_fit_free_energy_gap"] is None

    def test_diagonal_gap_zero(self, tmp_path):
        cfg = write_config(
            tmp_path, target={"family": "gaussian", "mean": [0.0, 0.0],
                              "cov": [[1.0, 0.0], [0.0, 2.0]]})
        out = tmp_path / "out"
        main(["compare", "--config", str(cfg), "--out", str(out)])
        o = json.loads((out / "compare.json").read_text())
        assert abs(o["gap_exact"]) < 1e-14

    def test_non_gaussian_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, target={"family": "glm_location",
                              "design": [[1.0, 0.0], [0.0, 1.0]],
                              "response": [1.0, -1.0]})
        assert main(["compare", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2


class TestDiagnose:
    def test_writes_reports(self, tmp_path):
        cfg = write_config(tmp_path,
                           diagnostics={"grid_sizes": [5, 3], "mc_n": 300})
        out = tmp_path / "out"
        assert main(["diagnose", "--config", str(cfg),
                     "--out", str(out)]) == 0
        d = json.loads((out / "diagnose.json").read_text())
        assert np.isfinite(d["worst_normalized_residual"])
        assert np.shape(d["pushforward_cov"]) == (2, 2)
        rows = read_trace(out / "residuals.csv")
        assert {"equation", "residual", "std_error"} <= set(rows[0])

    def test_small_mc_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, diagnostics={"mc_n": 10})
        assert main(["diagnose", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("damage", [None, "not-json", "short-lambda",
                                        "short-alpha", "other-grid",
                                        "nan-alpha", "decreasing-root",
                                        "decreasing-leaf"])
    def test_params_path(self, tmp_path, capsys, damage):
        import ssvi
        spec = ssvi.build_dictionary(2, 2.0, 1.0)
        blob = ssvi.params_to_json(ssvi.identity_params(spec), spec)
        if damage == "short-lambda":
            blob["lambda"] = blob["lambda"][:-1]
        if damage == "short-alpha":
            blob["alpha"] = blob["alpha"][:1]
        if damage == "other-grid":  # the same p on another grid
            blob["dict"].update(R=4.0, delta=2.0)
        if damage == "nan-alpha":  # json writes and reads NaN
            blob["alpha"][0] = float("nan")
        if damage == "decreasing-root":  # slope 1 − 5/δ on one root cell
            blob["lambda"][0] = -5.0
        if damage == "decreasing-leaf":  # slope 1 − 5/δ on one leaf cell
            blob["lambda"][int(spec.leaf_index[0][0])] = -5.0
        path = tmp_path / "params.json"
        path.write_text("{" if damage == "not-json" else json.dumps(blob))
        cfg = write_config(tmp_path, diagnostics={
            "params_path": str(path), "grid_sizes": [3, 3], "mc_n": 100})
        code = main(["diagnose", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        if damage is None:
            assert code == 0
        else:
            assert code == 2
            assert "diagnostics.params_path: " in capsys.readouterr().err


@pytest.mark.parametrize("overrides, flags, field", [
    ({"optimizer": {"step_size": -0.5}}, [], "optimizer"),
    ({"optimizer": {"n_samples": 0}}, [], "optimizer"),
    ({}, ["--mc-samples", "0"], "optimizer"),
    ({"target": {"family": "glm_location", "log_partition": "poisson",
                 "design": [[1.0, 0.0], [0.0, 1.0]], "response": [1.0, 0.0]}},
     [], "target"),
], ids=["negative-step", "zero-samples", "zero-mc-flag", "poisson"])
def test_bad_config_value_exits_2(tmp_path, capsys, overrides, flags, field):
    cfg = write_config(tmp_path, **overrides)
    assert main(["fit", "--config", str(cfg),
                 "--out", str(tmp_path / "o")] + flags) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")


@pytest.mark.parametrize("key, value", [
    ("step_size", math.inf), ("max_iters", -3), ("tol", math.nan),
    ("tol", -1.0)], ids=["infinite-step", "negative-iters", "nan-tol",
                         "negative-tol"])
def test_optimizer_value_that_would_fail_later_exits_2(tmp_path, capsys,
                                                       key, value):
    cfg = write_config(tmp_path, optimizer={"step_size": 0.5, key: value})
    assert main(["fit", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: optimizer: {key} must be ")


def test_bench_is_not_a_subcommand(tmp_path):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


@pytest.mark.parametrize("command",
                         ["fit", "oracle-gaussian", "compare", "diagnose"])
def test_target_built_once(tmp_path, monkeypatch, command):
    import ssvi.cli
    calls = []
    real = ssvi.cli.target_from_json

    def counting(block):
        calls.append(block)
        return real(block)

    monkeypatch.setattr(ssvi.cli, "target_from_json", counting)
    cfg = write_config(tmp_path,
                       optimizer={"step_size": 0.5, "max_iters": 2,
                                  "n_samples": 500},
                       diagnostics={"grid_sizes": [3, 3], "mc_n": 100})
    assert main([command, "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


SPIKE_SLAB = {"family": "spike_slab", "design": [[1.0, 0.0], [0.0, 1.0],
                                                 [1.0, 1.0]],
              "response": [1.0, 0.0, 0.5], "eta": 0.5, "tau0": 2.0,
              "tau1": 1.0}
BOTH = ("fit", "diagnose")


# Each row is malformed in one section.  The diagnostics rows are read by
# `diagnose` only: `fit` ignores that block.
@pytest.mark.parametrize("overrides, section, commands", [
    ({"optimizer": 5}, "optimizer", BOTH),
    ({"diagnostics": [1]}, "diagnostics", ("diagnose",)),
    ({"diagnostics": {"mc_n": "abc"}}, "diagnostics", ("diagnose",)),
    ({"diagnostics": {"mc_n": 50}}, "diagnostics", ("diagnose",)),
    ({"diagnostics": {"grid_sizes": 0}}, "diagnostics", ("diagnose",)),
    ({"diagnostics": {"grid_sizes": True}}, "diagnostics", ("diagnose",)),
    ({"seed": "x"}, "seed", BOTH),
    ({"dictionary": {"R": "a", "delta": 1.0}}, "dictionary", BOTH),
    ({"optimizer": {"step_size": 0.5, "max_iters": 2.5}}, "optimizer", BOTH),
    ({"optimizer": {"step_size": 0.5, "tol": "x"}}, "optimizer", BOTH),
    ({"target": dict(SPIKE_SLAB, eta="x")}, "target", BOTH),
    ({"output_dir": 5}, "output_dir", BOTH),
    (lambda tmp: {"target": {"family": "glm_location",
                             "design_csv": str(tmp / "missing.csv"),
                             "response": [1.0, 0.0]}}, "target", BOTH),
    ({"target": dict(SPIKE_SLAB, debias_precison=5.0)}, "target", BOTH),
    ({"dictionary": {"R": 2.0, "delta": 1.0, "detla": 1.0}}, "dictionary",
     BOTH),
    ({"optimizer": {"step": 0.5}}, "optimizer", BOTH),
    ({"diagnostics": {"mc_m": 100}}, "diagnostics", ("diagnose",)),
], ids=["optimizer-not-object", "diagnostics-not-object", "mc-n-string",
        "mc-n-small", "grid-sizes-zero", "grid-sizes-bool", "seed-string",
        "dictionary-R-string", "max-iters-float", "tol-string", "eta-string",
        "output-dir-number", "missing-design-csv", "target-key-typo",
        "dictionary-key-typo", "optimizer-key-typo",
        "diagnostics-key-typo"])
def test_malformed_config_exits_2_before_any_work(
        tmp_path, monkeypatch, capsys, overrides, section, commands):
    import ssvi.cli
    calls = []

    def spy(real):
        def wrapped(*a, **kw):
            calls.append(real.__name__)
            return real(*a, **kw)
        return wrapped

    for name in ("gram_matrix", "run_pgd"):
        monkeypatch.setattr(ssvi.cli, name, spy(getattr(ssvi.cli, name)))
    monkeypatch.chdir(tmp_path)  # the default output directory
    if callable(overrides):
        overrides = overrides(tmp_path)
    cfg = write_config(tmp_path, **overrides)
    for command in commands:
        assert main([command, "--config", str(cfg)]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {section}"), err
        assert calls == []


def test_diagnose_mc_samples_sets_only_mc_n(tmp_path, monkeypatch):
    import ssvi.cli
    seen = {}
    real_fit = ssvi.cli.run_pgd
    real_residual = ssvi.cli.self_consistency_residual

    def fit(target, spec, gram, config, **kw):
        seen["n_samples"] = config.n_samples
        return real_fit(target, spec, gram, config, **kw)

    def residual(params, spec, target, grid_sizes, mc_n, seed):
        seen["mc_n"] = mc_n
        return real_residual(params, spec, target, grid_sizes, mc_n, seed)

    monkeypatch.setattr(ssvi.cli, "run_pgd", fit)
    monkeypatch.setattr(ssvi.cli, "self_consistency_residual", residual)
    cfg = write_config(tmp_path,
                       optimizer={"step_size": 0.5, "max_iters": 2,
                                  "n_samples": 500},
                       diagnostics={"grid_sizes": [3, 3], "mc_n": 300})
    out = str(tmp_path / "o")
    assert main(["diagnose", "--config", str(cfg), "--out", out,
                 "--mc-samples", "100"]) == 0
    assert seen == {"n_samples": 500, "mc_n": 100}
    # fit keeps reading the flag as its sample size
    assert main(["fit", "--config", str(cfg), "--out", out,
                 "--mc-samples", "100"]) == 0
    assert seen["n_samples"] == 100


def run_module(args, **env):
    """``python -m ssvi.cli *args`` in a fresh interpreter that imports this
    ssvi, with ``env`` added to the environment."""
    import ssvi
    src = os.path.dirname(os.path.dirname(ssvi.__file__))
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "ssvi.cli", *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def test_module_entry_point_exits_2_with_one_line(tmp_path):
    cfg = write_config(tmp_path, optimizer={"max_iters": 2.5})
    proc = run_module(["fit", "--config", str(cfg),
                       "--out", str(tmp_path / "o")])
    assert proc.returncode == 2
    assert proc.stderr.startswith(
        "config error: optimizer.max_iters: must be an integer, got 2.5")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_outputs_do_not_depend_on_the_launch_thread_count(tmp_path):
    # criterion 12's config, run by processes whose OpenBLAS pools start at
    # one and at two threads
    cfg = write_config(tmp_path)
    commands = ("fit", "diagnose", "compare", "oracle-gaussian")
    for threads in ("1", "2"):
        for command in commands:
            proc = run_module([command, "--config", str(cfg),
                               "--out", str(tmp_path / threads)],
                              OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
    a, b = tmp_path / "1", tmp_path / "2"
    files = sorted(os.listdir(a))
    assert files == sorted(os.listdir(b)) == [
        "compare.json", "diagnose.json", "oracle.json", "params.json",
        "residuals.csv", "summary.json", "trace.csv"]

    def primary(path):
        if path.name != "summary.json":
            return path.read_bytes()
        summary = json.loads(path.read_text())
        del summary["runtime_ms"]  # a wall time
        return summary

    assert [name for name in files
            if primary(a / name) != primary(b / name)] == []


def pool_counts():
    return thread_count("numpy"), thread_count("scipy")


class TestBlasPin:
    """main runs every command with both OpenBLAS pools at one thread and
    puts back the counts it found, whatever the exit code."""

    @pytest.fixture
    def seen(self, monkeypatch):
        import ssvi.cli
        seen = []
        real_potential = ssvi.GaussianTarget.potential
        real_gram = ssvi.cli.gram_matrix

        def potential(self, z):
            seen.append(pool_counts())
            return real_potential(self, z)

        def gram(spec):  # the set-up before the fit
            seen.append(pool_counts())
            return real_gram(spec)

        monkeypatch.setattr(ssvi.GaussianTarget, "potential", potential)
        monkeypatch.setattr(ssvi.cli, "gram_matrix", gram)
        return seen

    def run(self, tmp_path, command, code, **overrides):
        cfg = write_config(tmp_path, **{
            "optimizer": {"step_size": 0.5, "max_iters": 2,
                          "n_samples": 500},
            "diagnostics": {"grid_sizes": [3, 3], "mc_n": 100},
            **overrides})
        with two_threads():
            assert main([command, "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == code
            assert pool_counts() == (2, 2)

    @pytest.mark.parametrize("command", ["fit", "diagnose"])
    def test_pins_both_pools(self, tmp_path, seen, command):
        self.run(tmp_path, command, 0)
        assert seen and set(seen) == {(1, 1)}

    def test_restores_after_a_config_error(self, tmp_path, seen):
        # the dictionary section is read inside the command, under the pin
        self.run(tmp_path, "fit", 2, dictionary={"R": 2.0, "delta": 0.3})
        assert seen == []

    def test_restores_after_an_optimizer_error(self, tmp_path, seen,
                                                monkeypatch):
        import ssvi.cli

        def failing(*args, **kwargs):
            seen.append(pool_counts())
            raise OptimizerError("no step accepted")

        monkeypatch.setattr(ssvi.cli, "run_pgd", failing)
        self.run(tmp_path, "fit", 3)
        assert seen == [(1, 1), (1, 1)]  # the Gram build, then the fit


GLM = {"family": "glm_location", "design": [[1.0, 0.0], [0.0, 1.0]],
       "response": [1.0, 0.0]}


# A value of the wrong type inside a block is named by its key, in every
# block that reads numbers.
@pytest.mark.parametrize("overrides, field", [
    ({"dictionary": {"R": "a", "delta": 1.0}}, "dictionary.R"),
    ({"dictionary": {"R": 2.0, "delta": [1.0]}}, "dictionary.delta"),
    ({"target": dict(SPIKE_SLAB, eta="x")}, "target.eta"),
    ({"target": dict(SPIKE_SLAB, tau1=None)}, "target.tau1"),
    ({"target": dict(GLM, dispersion="x")}, "target.dispersion"),
    ({"target": dict(GLM, psi_lower=True)}, "target.psi_lower"),
    ({"target": dict(GLM, prior={"precision": "x"})},
     "target.prior.precision"),
    ({"target": dict(GLM, hyperprior={"type": "logistic", "scale": "x"})},
     "target.hyperprior.scale"),
], ids=["dictionary-R", "dictionary-delta", "spike-slab-eta",
        "spike-slab-tau1", "glm-dispersion", "glm-psi-lower",
        "glm-prior-precision", "glm-hyperprior-scale"])
def test_wrong_type_names_its_key(tmp_path, capsys, overrides, field):
    cfg = write_config(tmp_path, **overrides)
    assert main(["fit", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: must be a real number, "
                          "got "), err


@pytest.mark.parametrize("key", ["prior", "hyperprior"])
def test_prior_that_is_not_an_object_names_its_key(tmp_path, capsys, key):
    cfg = write_config(tmp_path, target=dict(GLM, **{key: 5}))
    assert main(["fit", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: target.{key}: must be an object, got 5\n"


@pytest.mark.parametrize("R", [float("inf"), float("nan")])
def test_nonfinite_grid_exits_2(tmp_path, capsys, R):
    # JSON's Infinity and NaN literals parse to floats
    cfg = write_config(tmp_path, dictionary={"R": R, "delta": 1.0})
    assert main(["fit", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: dictionary: R and delta must be positive and finite")


def nan_design_csv(tmp):
    (tmp / "X.csv").write_text("1.0,nan\n0.0,1.0\n")
    return {"family": "glm_location", "design_csv": str(tmp / "X.csv"),
            "response": [1.0, 0.0]}


# JSON's NaN and Infinity, a CSV "nan", an entry whose curvature bounds
# overflow and out-of-range parameters are target errors found before a fit
@pytest.mark.parametrize("target", [
    dict(GLM, design=[[math.inf, 0.0], [0.0, 1.0]]),
    nan_design_csv,
    dict(GLM, design=[[1e200, 0.0], [0.0, 1.0]]),
    dict(GLM, response=[math.nan, 0.0]),
    dict(GLM, dispersion=math.nan),
    dict(GLM, dispersion=math.inf),
    dict(GLM, prior={"precision": math.nan}),
    dict(GLM, hyperprior={"precision": math.inf}),
    dict(GLM, prior={"type": "logistic", "scale": math.nan}),
    dict(GLM, log_partition="logistic", psi_lower=0.0),
    dict(GLM, log_partition="logistic", psi_lower=math.nan),
    {"family": "gaussian", "mean": [math.nan, 0.0],
     "cov": [[1.0, 0.0], [0.0, 1.0]]},
    dict(SPIKE_SLAB, debias_precision=-1.0),
    dict(SPIKE_SLAB, debias_precision=math.nan),
    dict(SPIKE_SLAB, tau0=math.inf),
], ids=["design-inf", "design-csv-nan", "design-overflow", "response-nan",
        "dispersion-nan", "dispersion-inf", "prior-nan", "hyperprior-inf",
        "logistic-prior-nan", "psi-lower-zero", "psi-lower-nan", "mean-nan",
        "debias-negative", "debias-nan", "tau0-inf"])
def test_nonfinite_or_out_of_range_target_exits_2(tmp_path, capsys, target):
    if callable(target):
        target = target(tmp_path)
    cfg = write_config(tmp_path, target=target)
    assert main(["fit", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: target")


def test_log_partition_of_wrong_type_names_its_key(tmp_path, capsys):
    cfg = write_config(tmp_path, target=dict(GLM, log_partition=5))
    assert main(["fit", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: target.log_partition: must be one of")


def test_ragged_design_csv_exits_2_naming_the_line(tmp_path, capsys):
    csv_path = tmp_path / "X.csv"
    csv_path.write_text("1.0,0.0\n0.0,1.0\n2.0\n")
    cfg = write_config(tmp_path, target={
        "family": "glm_location", "design_csv": str(csv_path),
        "response": [1.0, 0.0, 0.5]})
    assert main(["fit", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: target: {csv_path}: line 3 has 1 values, expected 2")


@pytest.mark.parametrize("extra, field", [
    ({"design_csv": "no-such.csv"}, "design_csv"),
    ({"design_csv_header": True}, "design_csv_header"),
], ids=["design-and-csv", "header-without-csv"])
def test_ambiguous_design_exits_2(tmp_path, capsys, extra, field):
    cfg = write_config(tmp_path, target=dict(GLM, **extra))
    assert main(["fit", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: target: {field}: given with an inline design")
