import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kdvlab
from conftest import dense_plan
from kdvlab.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, cli_entry, parse_init
from kdvlab.spectral import cosine_mode, sine_mode


def test_parse_init_forms():
    single = parse_init("c1")
    assert np.allclose(single.modes, cosine_mode(1).modes)
    combo = parse_init("c1+0.5*c2-0.25*s3")
    expect = cosine_mode(1, 3) + 0.5 * cosine_mode(2, 3) + (-0.25) * sine_mode(3)
    assert np.allclose(combo.modes, expect.modes)
    spaced = parse_init(" 2*s1 - c2 ")
    expect2 = 2.0 * sine_mode(1, 2) + (-1.0) * cosine_mode(2)
    assert np.allclose(spaced.modes, expect2.modes)
    for bad in ("", "q3", "c0", "c1*2"):
        with pytest.raises(ValueError):
            parse_init(bad)


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


def test_solve_rejects_nonpositive_samples(tmp_path, capsys):
    for bad in ("0", "-3", "two"):
        rc = cli_entry(["solve", "--t", "0.1", "--init", "c1", "--samples", bad,
                        "--out", str(tmp_path / "s")])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        assert payload["error"] == "usage" and "--samples" in payload["message"]
    assert not (tmp_path / "s").exists()


def test_bad_argument_values_are_usage_errors(tmp_path, capsys):
    solve = ["solve", "--t", "0.1", "--out", str(tmp_path / "s")]
    sample = ["sample", "--out", str(tmp_path / "e.kdve")]
    bad_calls = {
        "--init": solve + ["--init", "c1+"],
        "--modes": solve + ["--init", "c1", "--modes", "2"],
        "--dt": solve + ["--init", "c1", "--dt", "0"],
        "--n": sample + ["--n", "0"],
        "--cutoff": sample + ["--n", "8", "--measure", "gibbs", "--cutoff", "-1"],
    }
    for flag, argv in bad_calls.items():
        assert cli_entry(argv) == EXIT_USAGE, flag
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        assert payload["error"] == "usage" and flag in payload["message"], payload
    assert not (tmp_path / "s").exists() and not (tmp_path / "e.kdve").exists()

    # a ValueError raised by the numerics is still a numerical failure
    too_big_step = solve + ["--init", "c1", "--modes", "64", "--dt", "0.5"]
    assert cli_entry(too_big_step) == EXIT_NUMERIC
    assert json.loads(capsys.readouterr().err)["error"] == "numeric"


@pytest.mark.parametrize("flag, value", [("--t", "nan"), ("--t", "inf"), ("--dt", "inf")])
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
            f"time_grid = 0.1\nperturbation = {perturbation}\nperturbation_delta = {delta}\n"
        )
        out = tmp_path / "run"
        assert cli_entry(["experiment", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        assert payload["error"] == "config" and "perturbation_delta" in payload["message"]
        assert not out.exists()


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
