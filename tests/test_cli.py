import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kdvlab
from conftest import dense_plan
from kdvlab.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    cli_entry,
    parse_init,
)
from kdvlab.flow import MAX_STEPS
from kdvlab.kdve_io import write_ensemble
from kdvlab.measures import WeightedEnsemble
from kdvlab.spectral import cosine_mode, sine_mode


def test_parse_init_forms():
    single = parse_init("c1", 64)
    assert np.allclose(single.modes, cosine_mode(1).modes)
    combo = parse_init("c1+0.5*c2-0.25*s3", 64)
    expect = cosine_mode(1, 3) + 0.5 * cosine_mode(2, 3) + (-0.25) * sine_mode(3)
    assert np.allclose(combo.modes, expect.modes)
    spaced = parse_init(" 2*s1 - c2 ", 64)
    expect2 = 2.0 * sine_mode(1, 2) + (-1.0) * cosine_mode(2)
    assert np.allclose(spaced.modes, expect2.modes)
    for bad in ("", "q3", "c0", "c1*2"):
        with pytest.raises(ValueError):
            parse_init(bad, 64)


def test_solve_writes_outputs(tmp_path, capsys):
    out = tmp_path / "solve"
    rc = cli_entry(
        ["solve", "--modes", "32", "--dt", "1e-3", "--t", "0.5",
         "--init", "c1", "--out", str(out)]
    )
    assert rc == EXIT_OK
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,l2_norm,hamiltonian,linf_norm,mean"
    assert len(lines) == 21
    report = json.loads((out / "conserved_report.json").read_text())
    assert report["l2_rel_drift"] < 1e-8
    assert report["mean_abs_drift"] == 0.0
    printed = json.loads(capsys.readouterr().out)
    assert printed["l2_rel_drift"] == report["l2_rel_drift"]


def test_sample_and_inspect(tmp_path, capsys):
    path = tmp_path / "g.kdve"
    rc = cli_entry(["sample", "--measure", "gibbs", "--modes", "8", "--n", "128",
                    "--seed", "3", "--out", str(path)])
    assert rc == EXIT_OK
    info = json.loads(capsys.readouterr().out)
    assert info["n"] == 128 and info["kappa"] > 0
    rc = cli_entry(["inspect", "--file", str(path)])
    assert rc == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["modes"] == 8 and summary["resampled"] is False


def test_distance_zero_and_outputs(tmp_path, capsys):
    path = tmp_path / "a.kdve"
    cli_entry(["sample", "--measure", "gaussian", "--modes", "6", "--n", "32",
               "--seed", "1", "--out", str(path)])
    capsys.readouterr()
    out = tmp_path / "dist"
    rc = cli_entry(["distance", "--a", str(path), "--b", str(path),
                    "--s", "0.25", "--p", "2", "--out", str(out)])
    assert rc == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    assert printed["distance"] == 0.0
    saved = json.loads((out / "distance.json").read_text())
    assert saved["distance"] == 0.0
    assert (out / "plan.csv").read_text().splitlines()[0] == "i,j,mass,cost"


def test_experiment_subcommand(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "experiment = tails\nmeasure = gaussian\nmodes = 8\nensemble_size = 1024\nseed = 2\n"
    )
    out = tmp_path / "run"
    rc = cli_entry(["experiment", "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_OK
    assert (out / "report.json").exists()
    printed = json.loads(capsys.readouterr().out)
    assert printed["experiment"] == "tails"
    # the positional name overrides the config key
    rc = cli_entry(["experiment", "galerkin", "--config", str(cfg), "--out", str(tmp_path / "g")])
    assert rc == EXIT_OK
    assert json.loads(capsys.readouterr().out)["experiment"] == "galerkin"


def test_exit_codes(tmp_path, capsys):
    assert cli_entry(["bogus"]) == EXIT_USAGE
    assert cli_entry(["solve", "--unknown-flag", "1"]) == EXIT_USAGE
    assert cli_entry(["inspect", "--file", str(tmp_path / "missing.kdve")]) == EXIT_IO
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("experiment = bogus\n")
    assert cli_entry(["experiment", "--config", str(bad_cfg)]) == EXIT_CONFIG
    # an unparseable --init is a usage error, like any other bad argument value
    assert cli_entry(["solve", "--t", "0.1", "--init", "zzz"]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    for line in err:
        payload = json.loads(line)
        assert set(payload) == {"error", "message"}


def test_a_time_too_small_to_space_the_samples_is_a_usage_error(tmp_path, capsys):
    # linspace(t/3, t, 3) of a subnormal t repeats a time; flow refuses the times
    argv = ["solve", "--t", "5e-324", "--samples", "3", "--modes", "8", "--init", "c1",
            "--out", str(tmp_path / "s")]
    assert cli_entry(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = _one_json_line(captured.err)
    assert payload["error"] == "usage" and "--t" in payload["message"], payload
    assert not (tmp_path / "s").exists()
    assert cli_entry(argv[:4] + ["1"] + argv[5:]) == EXIT_OK  # one sample needs no spacing


def test_solve_rejects_nonpositive_samples(tmp_path, capsys, monkeypatch):
    # every sample costs at least one step, so more samples than flow.MAX_STEPS
    # (read when the flag is parsed) is a usage error too
    monkeypatch.setattr(kdvlab.flow, "MAX_STEPS", 5)
    for bad in ("0", "-3", "two", "6", str(10**12)):
        rc = cli_entry(["solve", "--t", "0.1", "--init", "c1", "--samples", bad,
                        "--out", str(tmp_path / "s")])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        assert payload["error"] == "usage" and "--samples" in payload["message"]
    assert not (tmp_path / "s").exists()
    rc = cli_entry(["solve", "--t", "0.001", "--init", "c1", "--samples", "5",
                    "--out", str(tmp_path / "s")])
    assert rc == EXIT_OK and "l2_rel_drift" in _one_json_line(capsys.readouterr().out)


def test_bad_argument_values_are_usage_errors(tmp_path, capsys):
    solve = ["solve", "--t", "0.1", "--out", str(tmp_path / "s")]
    sample = ["sample", "--out", str(tmp_path / "e.kdve")]
    gibbs = sample + ["--n", "50", "--measure", "gibbs"]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = continuity\nmodes = 4\nensemble_size = 16\n")
    experiment = ["experiment", "--config", str(cfg), "--out", str(tmp_path / "run")]
    bad_calls = [
        ("--init", solve + ["--init", "c1+"]),
        ("--modes", solve + ["--init", "c1", "--modes", "2"]),
        ("--dt", solve + ["--init", "c1", "--dt", "0"]),
        ("--t", ["solve", "--init", "c1", "--t", "0", "--out", str(tmp_path / "s")]),
        ("--t", ["solve", "--init", "c1", "--t", "-0.5", "--out", str(tmp_path / "s")]),
        ("--dt", solve + ["--init", "c1", "--dt", "nan"]),
        ("--n", sample + ["--n", "0"]),
        ("--modes", sample + ["--n", "8", "--modes", "0"]),
        ("--cutoff", sample + ["--n", "8", "--measure", "gibbs", "--cutoff", "-1"]),
        ("--cutoff", gibbs + ["--cutoff", "0"]),
        ("--cutoff", gibbs + ["--cutoff", "nan"]),
        ("--coeff", gibbs + ["--coeff", "inf"]),
        ("--coeff", gibbs + ["--coeff", "nan"]),
        ("--projection", gibbs + ["--projection", "-1"]),
        ("--threads", experiment + ["--threads", "0"]),
        ("--threads", experiment + ["--threads", "-1"]),
        ("--no-dealias", solve + ["--init", "c1", "--no-dealias"]),  # the grid has no switch
    ]
    for flag, argv in bad_calls:
        assert cli_entry(argv) == EXIT_USAGE, flag
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "usage" and flag in payload["message"], payload
    for out in ("s", "e.kdve", "run"):
        assert not (tmp_path / out).exists()

    # a ValueError raised by the numerics is still a numerical failure
    too_big_step = solve + ["--init", "c1", "--modes", "64", "--dt", "0.5"]
    assert cli_entry(too_big_step) == EXIT_NUMERIC
    assert json.loads(capsys.readouterr().err)["error"] == "numeric"


@pytest.mark.parametrize("flag, value", [("--t", "nan"), ("--t", "inf"), ("--dt", "inf"),
                                         ("--dt", "nan")])
def test_non_finite_time_or_step_is_a_usage_error(tmp_path, capsys, flag, value):
    argv = ["solve", "--init", "c1", "--modes", "8", "--out", str(tmp_path / "s")]
    argv += [flag, value] if flag == "--t" else ["--t", "0.1", flag, value]
    assert cli_entry(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "usage" and flag in payload["message"], payload
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("flag, value", [
    ("--s", "-0.1"), ("--s", "nan"), ("--s", "inf"),
    ("--p", "0.5"), ("--p", "inf"), ("--p", "nan"),
    ("--epsilon", "-1"), ("--epsilon", "0"), ("--epsilon", "nan"), ("--epsilon", "inf"),
])
def test_bad_distance_values_are_usage_errors(tmp_path, capsys, flag, value):
    ens = tmp_path / "g.kdve"
    assert cli_entry(["sample", "--measure", "gibbs", "--modes", "4", "--n", "16",
                      "--out", str(ens)]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "dist"
    argv = ["distance", "--a", str(ens), "--b", str(ens), "--backend", "entropic",
            flag, value, "--out", str(out)]
    assert cli_entry(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == "usage" and flag in payload["message"], payload
    assert not out.exists()


@pytest.mark.parametrize("line, word", [("p = inf", "transport order"),
                                        ("backend = entropic\nepsilon = -1", "epsilon")])
def test_metric_values_transport_rejects_are_config_errors(tmp_path, capsys, count_calls, line, word):
    from kdvlab.measures import sample_gibbs

    draws = count_calls(sample_gibbs)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = continuity\nmodes = 4\nensemble_size = 160\nsolver_modes = 16\n"
                   f"time_grid = 0.1\n{line}\n")
    out = tmp_path / "run"
    assert cli_entry(["experiment", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == "config" and word in payload["message"], payload
    assert draws == [] and not out.exists()


@pytest.mark.parametrize("experiment", ["continuity", "stability"])
def test_vanishing_perturbation_is_a_config_error(tmp_path, capsys, experiment):
    for perturbation, delta in [("mode_shift", "0"), ("rescale", "0.0"), ("mode_shift", "nan"),
                                ("rescale", "inf")]:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"experiment = {experiment}\nmodes = 4\nensemble_size = 8\nsolver_modes = 16\n"
            f"time_grid = 0.1, 0.2\nperturbation = {perturbation}\nperturbation_delta = {delta}\n"
        )
        out = tmp_path / "run"
        assert cli_entry(["experiment", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        assert payload["error"] == "config" and "perturbation_delta" in payload["message"]
        assert not out.exists()


@pytest.mark.parametrize("text, word", [
    pytest.param("experiment = invariance_nonlinear\ntime_grid =\n", "time grid",
                 id="empty-grid-invariance"),
    pytest.param("experiment = galerkin\nmeasure = gaussian\ntime_grid =\n", "time grid",
                 id="empty-grid-galerkin"),
    pytest.param("experiment = continuity\ntime_grid = 0.1\n", "time grid",
                 id="one-time-continuity"),
    pytest.param("experiment = tails\nmeasure = gaussian\ntail_functionals = linf, sup\n",
                 "tail functionals", id="unknown-tail-functional"),
    pytest.param("experiment = galerkin\nmeasure = gaussian\nprojection_grid = 8, 8\n",
                 "projection_grid", id="one-band-galerkin"),
    pytest.param("experiment = invariance_nonlinear\nbootstrap_replicas = 1\n",
                 "bootstrap_replicas", id="one-replica-invariance"),
    pytest.param("experiment = continuity\ncubic_coefficient = inf\n", "cubic_coefficient",
                 id="infinite-cubic-coefficient"),
    pytest.param("experiment = invariance_nonlinear\ncubic_coefficient = nan\n",
                 "cubic_coefficient", id="nan-cubic-coefficient"),
    pytest.param("experiment = continuity\ntime_grid = 0.1, nan\n", "time grid",
                 id="nan-time"),
    pytest.param("experiment = continuity\ndt = inf\n", "dt", id="infinite-dt"),
    pytest.param("experiment = continuity\ndt = nan\n", "dt", id="nan-dt"),
    pytest.param("experiment = continuity\nperturbation_mode = 0\n", "perturbation_mode",
                 id="zero-perturbation-mode"),
    pytest.param("experiment = continuity\ncutoff_radius = -1\n", "cutoff_radius",
                 id="negative-cutoff-radius"),
    pytest.param("experiment = continuity\ncutoff_radius = 0\n", "cutoff_radius",
                 id="zero-cutoff-radius"),
    pytest.param("experiment = continuity\nmodes = 0\n", "modes", id="zero-modes"),
    pytest.param("experiment = galerkin\nmeasure = gaussian\nprojection_grid = 8, 32\n",
                 "projection_grid", id="projection-above-solver-modes"),
    pytest.param("experiment = galerkin\nmeasure = gaussian\nprojection_grid = 0, 8\n",
                 "projection_grid", id="zero-band-galerkin"),
    pytest.param("experiment = tails\nmeasure = gaussian\ntail_functionals =\n",
                 "tail functionals", id="empty-tail-functionals"),
    pytest.param("experiment = continuity\nsolver_modes = 3\n", "solver", id="three-solver-modes"),
    pytest.param("experiment = continuity\nmodes = 20\n", "modes",
                 id="modes-above-solver-modes"),
    pytest.param("experiment = invariance_nonlinear\nmodes = 3\n", "solver",
                 id="three-modes-invariance"),
    pytest.param("experiment = invariance_nonlinear\ncubic_coefficient = 0.2\n",
                 "cubic_coefficient", id="non-gibbs-cubic-coefficient"),
    pytest.param("experiment = stability\nperturbation_mode = 20\n", "perturbation_mode",
                 id="shift-above-solver-modes"),
])
def test_configs_no_run_can_use_are_rejected_before_sampling(tmp_path, capsys, count_calls, text, word):
    from kdvlab.measures import _gaussian_coeffs

    draws = count_calls(_gaussian_coeffs)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("modes = 4\nensemble_size = 16\nsolver_modes = 16\n" + text)
    out = tmp_path / "run"
    assert cli_entry(["experiment", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "config" and word in payload["message"], payload
    assert draws == [] and not out.exists()


def test_continuity_evolves_a_pair_with_different_mode_counts(tmp_path, capsys):
    # the draws carry 8 modes, their shift by mode 12 carries 12, the solver 16
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = continuity\nmodes = 8\nperturbation_mode = 12\n"
                   "solver_modes = 16\nensemble_size = 32\ntime_grid = 0.01, 0.02\n")
    out = tmp_path / "run"
    assert cli_entry(["experiment", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["summary"]["bound_dominates"] is True
    assert (out / "report.json").exists() and (out / "base.kdve").exists()


def test_invariance_runs_with_modes_above_the_unread_solver_modes(tmp_path, capsys):
    # invariance_nonlinear pushes its draws by the Galerkin flow at their own 20 modes
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = invariance_nonlinear\nmodes = 20\nsolver_modes = 16\n"
                   "cutoff_radius = 3\nensemble_size = 32\ntime_grid = 0.01\n"
                   "bootstrap_replicas = 2\n")
    out = tmp_path / "run"
    assert cli_entry(["experiment", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert math.isfinite(json.loads(captured.out)["summary"]["distance"])


def test_projection_and_init_above_the_truncation_are_usage_errors(tmp_path, capsys):
    bad_calls = {
        "--projection": ["sample", "--measure", "gibbs", "--n", "8", "--projection", "-1",
                         "--out", str(tmp_path / "e.kdve")],
        "--init": ["solve", "--t", "0.1", "--init", "c80", "--modes", "64",
                   "--out", str(tmp_path / "s")],
    }
    for flag, argv in bad_calls.items():
        assert cli_entry(argv) == EXIT_USAGE, flag
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        assert payload["error"] == "usage" and flag in payload["message"], payload
    assert not (tmp_path / "s").exists() and not (tmp_path / "e.kdve").exists()
    # a zero amplitude above the truncation is no usage error, nor is projection 0
    assert cli_entry(["solve", "--t", "0.01", "--samples", "1", "--init", "c1+0*c80",
                      "--modes", "64", "--out", str(tmp_path / "s")]) == EXIT_OK
    assert cli_entry(["sample", "--measure", "gibbs", "--n", "64", "--projection", "0",
                      "--cutoff", "10", "--out", str(tmp_path / "e.kdve")]) == EXIT_OK


def test_a_negative_value_in_exponent_form_is_a_value(tmp_path, capsys):
    # argparse took "-1e-3" for an option and exited 2 with "expected one argument"
    gibbs = ["sample", "--measure", "gibbs", "--n", "8", "--modes", "4", "--cutoff", "10"]
    assert cli_entry(gibbs + ["--coeff", "-1e-3", "--out", str(tmp_path / "a.kdve")]) == EXIT_OK
    assert cli_entry(gibbs + ["--coeff=-1e-3", "--out", str(tmp_path / "b.kdve")]) == EXIT_OK
    assert (tmp_path / "a.kdve").read_bytes() == (tmp_path / "b.kdve").read_bytes()
    assert capsys.readouterr().err == ""
    # an option-like --init is still no value
    assert cli_entry(["solve", "--t", "1", "--init", "-c1", "--out", str(tmp_path / "s")]) \
        == EXIT_USAGE
    assert "expected one argument" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("module", ["kdvlab", "kdvlab.cli"])
def test_python_m_follows_the_exit_codes(tmp_path, module):
    src = str(Path(kdvlab.__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    missing = subprocess.run(
        [sys.executable, "-m", module, "inspect", "--file", str(tmp_path / "missing.kdve")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert missing.returncode == EXIT_IO, missing.stderr
    assert missing.stdout == ""
    assert json.loads(missing.stderr)["error"] == "io"
    usage = subprocess.run([sys.executable, "-m", module, "bogus"],
                           capture_output=True, text=True, env=env, timeout=120)
    assert usage.returncode == EXIT_USAGE
    assert json.loads(usage.stderr)["error"] == "usage"


def test_distance_solves_exact_transport_once_and_prices_only_the_plan(tmp_path, capsys, count_calls):
    import csv

    from kdvlab.kdve_io import read_ensemble
    from kdvlab.transport import cost_matrix, wasserstein_p_exact

    files = []
    for seed in (1, 2):
        files.append(tmp_path / f"g{seed}.kdve")
        assert cli_entry(["sample", "--measure", "gibbs", "--modes", "6", "--n", "96",
                          "--seed", str(seed), "--out", str(files[-1])]) == EXIT_OK
    capsys.readouterr()
    solves = count_calls(wasserstein_p_exact)
    dense = count_calls(cost_matrix)
    out = tmp_path / "dist"
    rc = cli_entry(["distance", "--a", str(files[0]), "--b", str(files[1]), "--out", str(out)])
    assert rc == EXIT_OK
    assert len(solves) == 1 and dense == []

    a, b = read_ensemble(files[0]), read_ensemble(files[1])
    assert np.any(a.weights == 0) and np.any(b.weights == 0)  # dead draws are present
    value, plan = wasserstein_p_exact(a, b, 0.25, 2.0)
    saved = json.loads((out / "distance.json").read_text())
    assert saved["w_p"] == value
    assert saved["marginal_residuals"] == [plan.row_residual, plan.col_residual]
    cost = cost_matrix(a, b, 0.25, 2.0)
    with open(out / "plan.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    full = dense_plan(plan)
    support = list(zip(*np.nonzero(full > 1e-15)))
    assert [(int(r["i"]), int(r["j"])) for r in rows] == [(int(i), int(j)) for i, j in support]
    for r in rows:
        i, j = int(r["i"]), int(r["j"])
        assert r["mass"] == repr(float(full[i, j])) and r["cost"] == repr(float(cost[i, j]))
        assert float(r["mass"]) == full[i, j] and float(r["cost"]) == cost[i, j]


def test_distance_json_reports_the_sinkhorn_iterations(tmp_path, capsys):
    from kdvlab.kdve_io import read_ensemble
    from kdvlab.transport import combined_metric_parts

    files = []
    for seed in (1, 2):
        files.append(tmp_path / f"g{seed}.kdve")
        assert cli_entry(["sample", "--measure", "gibbs", "--modes", "6", "--n", "96",
                          "--seed", str(seed), "--out", str(files[-1])]) == EXIT_OK
    a, b = read_ensemble(files[0]), read_ensemble(files[1])
    for backend in ("exact", "entropic"):
        out = tmp_path / backend
        assert cli_entry(["distance", "--a", str(files[0]), "--b", str(files[1]),
                          "--backend", backend, "--out", str(out)]) == EXIT_OK
        saved = json.loads((out / "distance.json").read_text())
        if backend == "exact":
            assert saved["iterations"] is None
        else:
            want = combined_metric_parts(a, b, 0.25, 2.0, "entropic").iterations
            assert isinstance(want, int) and want > 0
            assert saved["iterations"] == want


def test_sample_has_no_metric_flags(tmp_path, capsys):
    for flag in ("--s", "--p"):
        out = tmp_path / "e.kdve"
        assert cli_entry(["sample", "--n", "8", flag, "0.3", "--out", str(out)]) == EXIT_USAGE
        assert json.loads(capsys.readouterr().err)["error"] == "usage"
        assert not out.exists()


def _one_json_line(text):
    (line,) = text.splitlines()
    return json.loads(line)


def test_init_above_the_truncation_builds_no_array(tmp_path, capsys, monkeypatch):
    from kdvlab import cli

    def bounded(make):
        def guarded(n, m=None):
            assert n <= 16, f"built a basis field of {n} modes"
            return make(n, m)

        return guarded

    monkeypatch.setattr(cli, "cosine_mode", bounded(cli.cosine_mode))
    monkeypatch.setattr(cli, "sine_mode", bounded(cli.sine_mode))
    solve = ["solve", "--t", "1", "--modes", "16", "--out", str(tmp_path / "s")]
    for init in ("c99999999999", "c1-0.5*s99999999999", "c17"):
        assert cli_entry(solve + ["--init", init]) == EXIT_USAGE, init
        captured = capsys.readouterr()
        assert captured.out == "" and _one_json_line(captured.err) == {
            "error": "usage",
            "message": "argument --init: carries modes above the solver truncation --modes 16",
        }
    assert not (tmp_path / "s").exists()
    # terms above the truncation that sum to zero are no error, as zero amplitudes
    short = ["solve", "--t", "0.01", "--samples", "1", "--modes", "16"]
    for init in ("c1+0*c99999999999", "c1+s99999999999-s99999999999"):
        assert cli_entry(short + ["--init", init, "--out", str(tmp_path / init)]) == EXIT_OK
    capsys.readouterr()
    reference = tmp_path / "c1"
    assert cli_entry(short + ["--init", "c1", "--out", str(reference)]) == EXIT_OK
    for init in ("c1+0*c99999999999", "c1+s99999999999-s99999999999"):
        for name in ("trajectory.csv", "conserved_report.json"):
            assert (tmp_path / init / name).read_bytes() == (reference / name).read_bytes()


def test_memory_error_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # an impossible size fails where numpy allocates; stand in for it so that
    # the test allocates nothing
    def too_big(*args, **kwargs):
        raise MemoryError("Unable to allocate 23.3 TiB for an array")

    monkeypatch.setattr(kdvlab.cli, "sample_gaussian", too_big)
    monkeypatch.setattr(kdvlab.experiments, "sample_gaussian", too_big)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = tails\nmeasure = gaussian\nmodes = 8\n")
    for argv in (["sample", "--n", "8", "--out", str(tmp_path / "e.kdve")],
                 ["experiment", "--config", str(cfg), "--out", str(tmp_path / "run")]):
        assert cli_entry(argv) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == "" and _one_json_line(captured.err) == {
            "error": "numeric", "message": "Unable to allocate 23.3 TiB for an array"}
    assert not (tmp_path / "e.kdve").exists()


def test_solve_past_the_step_limit_fails_before_stepping(tmp_path, capsys):
    # amplitude 1e100 sizes a step of about 1e-102, so t = 1 asks for ~1e101 steps
    start = time.perf_counter()
    rc = cli_entry(["solve", "--modes", "16", "--t", "1", "--samples", "1", "--init", "1e100*c1",
                    "--out", str(tmp_path / "s")])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert rc == EXIT_NUMERIC and elapsed < 5.0
    assert captured.out == "" and _one_json_line(captured.err)["error"] == "numeric"
    assert f"more than {MAX_STEPS} steps" in _one_json_line(captured.err)["message"]
    assert not (tmp_path / "s").exists()


# initial data strings: terms with a bounded coefficient, so that no example
# asks for many steps, and mode indices up to 10^4 or the single 10^11,
# joined by separators that also make malformed strings
_coefficients = st.one_of(st.just(""), st.floats(0, 100).map(lambda c: f"{c!r}*"))
_terms = st.builds(
    lambda sign, coeff, kind, index: f"{sign}{coeff}{kind}{index}",
    st.sampled_from(["", "+", "-"]), _coefficients, st.sampled_from("csx"),
    st.one_of(st.integers(0, 10**4), st.integers(0, 20), st.just(10**11)),
)
_inits = st.lists(st.tuples(st.sampled_from(["", "", " ", "+", "*", ".", "c", "1e999*"]), _terms),
                  max_size=4).map(lambda parts: "".join(sep + term for sep, term in parts))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(text=_inits)
def test_parse_init_returns_a_field_within_the_modes_or_raises_value_error(text):
    try:
        field = parse_init(text, 16)
    except ValueError:
        return
    assert 1 <= field.n_modes <= 16


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_inits)
def test_solve_on_generated_init_strings_succeeds_or_is_a_usage_error(tmp_path, capsys, text):
    out = tmp_path / "s"
    rc = cli_entry(["solve", "--modes", "16", "--t", "0.001", "--samples", "1", "--init", text,
                    "--out", str(out)])
    captured = capsys.readouterr()
    assert rc in (EXIT_OK, EXIT_USAGE)
    if rc == EXIT_OK:
        assert captured.err == "" and "l2_rel_drift" in _one_json_line(captured.out)
    else:
        assert captured.out == "" and _one_json_line(captured.err)["error"] == "usage"


def test_readme_documents_every_flag_and_its_commands_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, sub in commands.choices.items():
        for action in sub._actions:
            for option in action.option_strings:
                assert re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", readme), (name, option)
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("kdvlab ")]
    assert {shlex.split(line)[1] for line in lines} == set(commands.choices)
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_a_non_finite_solve_names_the_field_and_writes_no_json(tmp_path, capsys):
    out = tmp_path / "D"
    argv = ["solve", "--init", "1e110*c1+1e110*c2", "--t", "1e-200", "--samples", "2",
            "--out", str(out)]
    assert cli_entry(argv) == EXIT_NUMERIC
    captured = capsys.readouterr()
    payload = _one_json_line(captured.err)
    assert captured.out == "" and payload["error"] == "numeric"
    assert "hamiltonian_rel_drift" in payload["message"]
    for path in out.rglob("*.json"):
        assert not re.search(r"NaN|Infinity", path.read_text()), path
    assert not (out / "trajectory.csv").exists()


def test_a_non_finite_result_names_the_command_and_field(tmp_path, capsys):
    path = tmp_path / "huge.kdve"
    write_ensemble(path, WeightedEnsemble(np.array([[1e200 + 0j]]), np.array([1.0])))
    assert cli_entry(["inspect", "--file", str(path)]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == "" and _one_json_line(captured.err) == {
        "error": "numeric", "message": "non-finite value at inspect.mean_l2_sq"}


@pytest.mark.parametrize("backend", ["exact", "entropic"])
@pytest.mark.parametrize("other, s", [("b", "300"), ("c", "200")])
def test_overflowing_costs_are_named_on_both_backends(tmp_path, capsys, other, s, backend):
    # square (3 vs 3 draws) and rectangular (3 vs 5) pairs: the assignment
    # and the LP refuse infinite costs with messages of their own
    files = {}
    for name, modes, n, seed in (("a", 4, 3, 0), ("b", 4, 3, 1), ("c", 12, 5, 0)):
        files[name] = str(tmp_path / f"{name}.kdve")
        assert cli_entry(["sample", "--measure", "gaussian", "--modes", str(modes), "--n", str(n),
                          "--seed", str(seed), "--out", files[name]]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "dist"
    argv = ["distance", "--a", files["a"], "--b", files[other], "--s", s, "--backend", backend,
            "--out", str(out)]
    assert cli_entry(argv) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == "" and _one_json_line(captured.err) == {
        "error": "numeric", "message": "transport costs overflow float64"}
    assert not out.exists()


@pytest.fixture(scope="module")
def tiny_kdve_files(tmp_path_factory):
    """Four tiny ensembles: uniform Gaussian ones of 3 and 5 draws, a weighted Gibbs one
    with dead draws, and a one-draw field of large amplitude."""
    root = tmp_path_factory.mktemp("tiny")
    files = {}
    for name, flags in (("g3", ["--modes", "4", "--n", "3"]),
                        ("g5", ["--modes", "12", "--n", "5", "--seed", "1"]),
                        ("gibbs", ["--measure", "gibbs", "--modes", "4", "--n", "12", "--seed", "2"])):
        files[name] = str(root / f"{name}.kdve")
        assert cli_entry(["sample", *flags, "--out", files[name]]) == EXIT_OK
    files["big"] = str(root / "big.kdve")
    write_ensemble(files["big"], WeightedEnsemble(np.array([[3e150 + 1e150j, 0, 2e150j]]),
                                                  np.array([1.0])))
    return files


# values of a numeric distance flag: ordinary and extreme floats, their
# negatives, non-finite and malformed text
_flag_values = st.one_of(
    st.floats(0, 10).map(repr), st.floats(0, 400).map(repr), st.floats(1e-300, 1e300).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "1", "-1", "1e999", "-0.0", "nan", "inf", "x", "", "1e-320"]),
)


def _distance_contract(captured, rc):
    """Exit 0 with one JSON line on stdout, or a documented failure code with one on stderr."""
    assert "Traceback" not in captured.err
    if rc == EXIT_OK:
        assert captured.err == "" and {"distance", "w_inf", "w_p"} <= set(_one_json_line(captured.out))
    else:
        assert rc in (EXIT_USAGE, EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC)
        payload = _one_json_line(captured.err)
        assert captured.out == "" and set(payload) == {"error", "message"}


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pair=st.sampled_from([("g3", "g3"), ("g3", "g5"), ("gibbs", "g3"), ("big", "g5")]),
       s=_flag_values, p=_flag_values, backend=st.sampled_from(["exact", "entropic"]))
def test_distance_on_generated_orders_and_regularities_keeps_the_contract(
        tiny_kdve_files, capsys, pair, s, p, backend):
    a, b = (tiny_kdve_files[name] for name in pair)
    rc = cli_entry(["distance", "--a", a, "--b", b, "--s", s, "--p", p, "--backend", backend])
    _distance_contract(capsys.readouterr(), rc)


# The weighted Gibbs pair is not in this one: at a small epsilon its Sinkhorn
# potentials drift by a fixed step per sweep, so a call spends all 20,000
# sweeps (about 6 s) before it exits 5, within the contract but not the budget.
@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pair=st.sampled_from([("g3", "g3"), ("g3", "g5"), ("big", "g5")]),
       epsilon=_flag_values, s=st.sampled_from(["0", "0.25", "1"]), p=st.sampled_from(["1", "2", "3.5"]))
def test_distance_on_generated_sinkhorn_epsilons_keeps_the_contract(
        tiny_kdve_files, capsys, pair, epsilon, s, p):
    a, b = (tiny_kdve_files[name] for name in pair)
    rc = cli_entry(["distance", "--a", a, "--b", b, "--backend", "entropic", "--epsilon", epsilon,
                    "--s", s, "--p", p])
    _distance_contract(capsys.readouterr(), rc)


# values of solve's numeric flags, three in four of them ordinary. A valid run
# from these is short: every ordinary --t is at most 1e-2 and every ordinary
# --dt at least 1e-4, so a run takes at most 50 samples + 1e-2 / 1e-4 = 150
# steps on at most 32 modes. Left out are only valid runs beyond that (many
# modes, many samples, t/dt up to MAX_STEPS); every value that must be
# refused is in.
def _mostly(ordinary, refused):
    return st.sampled_from([True, True, True, False]).flatmap(
        lambda ok: ordinary if ok else st.sampled_from(refused))


_refused_floats = ["0", "-1", "-0.0", "inf", "-inf", "nan", "1e300", "-1e300", "x", ""]
_solve_t = _mostly(st.floats(1e-6, 1e-2).map(repr), _refused_floats + ["1e-320"])
_solve_dt = st.one_of(st.none(), _mostly(st.floats(1e-4, 1.0).map(repr), _refused_floats + ["1e-300"]))
_solve_modes = _mostly(st.integers(4, 32).map(str), ["0", "-4", "1", "2", "3", "inf", "1e300", "x"])
_solve_samples = _mostly(st.integers(1, 50).map(str), ["0", "-1", str(MAX_STEPS + 1), str(10**12),
                                                      "inf", "nan", "1e300", "1.5", "x"])


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(t=_solve_t, dt=_solve_dt, modes=_solve_modes, samples=_solve_samples,
       init=st.sampled_from(["c1", "0.5*c2-0.25*s3", "1e100*c1"]))
def test_solve_on_generated_numeric_flags_keeps_the_contract(
        tmp_path, capsys, t, dt, modes, samples, init):
    argv = ["solve", "--t", t, "--modes", modes, "--samples", samples, "--init", init,
            "--out", str(tmp_path / "s")]
    rc = cli_entry(argv + ([] if dt is None else ["--dt", dt]))
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if rc == EXIT_OK:
        assert captured.err == "" and "l2_rel_drift" in _one_json_line(captured.out)
    else:
        assert rc in (EXIT_USAGE, EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC)
        payload = _one_json_line(captured.err)
        assert captured.out == "" and set(payload) == {"error", "message"}


# values of sample's numeric flags, three in four of them ordinary, and the
# extremes each flag must refuse or survive. A valid draw from these is small:
# every ordinary --n is at most 64 and every ordinary --modes at most 32, so
# a call draws at most 64 x 32 amplitudes. Left out are only valid draws
# beyond that bound; every value that must be refused is in.
_sample_n = _mostly(st.integers(1, 64).map(str), ["0", "-1", "inf", "nan", "1e300", "1.5", "x"])
_sample_modes = _mostly(st.integers(1, 32).map(str), ["0", "-4", "inf", "nan", "1e300", "x", ""])
_sample_cutoff = _mostly(st.floats(0.1, 10).map(repr),
                         ["0", "-1", "-0.0", "nan", "inf", "-inf", "1e300", "1e-320", "x"])
_sample_coeff = _mostly(st.floats(-1, 1).map(repr),
                        ["0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "x"])
_sample_projection = st.one_of(st.none(), _mostly(st.integers(0, 40).map(str),
                                                  ["0", "-1", "nan", "inf", "1e300", "1.5", "x"]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=_sample_n, modes=_sample_modes, cutoff=_sample_cutoff, coeff=_sample_coeff,
       projection=_sample_projection, measure=st.sampled_from(["gaussian", "gibbs"]))
def test_sample_on_generated_numeric_flags_keeps_the_contract(
        tmp_path, capsys, n, modes, cutoff, coeff, projection, measure):
    argv = ["sample", "--measure", measure, "--n", n, "--modes", modes, "--cutoff", cutoff,
            "--coeff", coeff, "--out", str(tmp_path / "e.kdve")]
    rc = cli_entry(argv + ([] if projection is None else ["--projection", projection]))
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if rc == EXIT_OK:
        assert captured.err == "" and "effective_sample_size" in _one_json_line(captured.out)
    else:
        assert rc in (EXIT_USAGE, EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC)
        payload = _one_json_line(captured.err)
        assert captured.out == "" and set(payload) == {"error", "message"}
