"""Tests of the benchmark itself: tracer, output checks, work counts, seed profile.

Run from the repository root with ``python -m pytest perfbench``. The
profile tests run one warm-up call and two traced passes per workload
(about a minute in all on two cores).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
from layers import DETERMINISTIC, PER_LAYER, LayerProbe, layer_share  # noqa: E402
from workloads import (  # noqa: E402
    SETUPS,
    WHY,
    check_continuity,
    check_distance,
    check_gibbs,
    check_solve,
)

import kdvlab.cli  # noqa: E402
import kdvlab.experiments  # noqa: E402
import kdvlab.transport  # noqa: E402

PREDICTIONS = {
    name: group
    for group in json.loads((HERE / "predictions.json").read_text())["groups"]
    for name in group["metrics"]
}


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]}.items() <= WHY.items()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(PER_LAYER)
    assert set(PREDICTIONS) == {name for name, _, _ in PER_LAYER}


def test_tracer_rebinds_every_lookup_and_restores_it():
    from scipy.optimize import linprog

    originals = (
        kdvlab.experiments.combined_metric_parts,
        kdvlab.transport.evolve_many,
        kdvlab.cli.wasserstein_p_exact,
        kdvlab.transport.linprog,
    )
    assert kdvlab.transport.linprog is linprog
    tracer = LayerProbe().tracer()
    with tracer:
        for original, now in zip(
            originals,
            (
                kdvlab.experiments.combined_metric_parts,
                kdvlab.transport.evolve_many,
                kdvlab.cli.wasserstein_p_exact,
                kdvlab.transport.linprog,
            ),
        ):
            assert now is not original and now.__wrapped__ is original
        assert kdvlab.cli.wasserstein_p_exact is kdvlab.transport.wasserstein_p_exact
    assert (
        kdvlab.experiments.combined_metric_parts,
        kdvlab.transport.evolve_many,
        kdvlab.cli.wasserstein_p_exact,
        kdvlab.transport.linprog,
    ) == originals


def test_output_checks_reject_wrong_outputs(tmp_path):
    gibbs = {"summary": {"l2_sq_drift_z": 0.01, "kappa": 2.0, "effective_sample_size": 40.0}}
    assert check_gibbs(json.dumps(gibbs), tmp_path, 640) is None
    for key, bad in (("l2_sq_drift_z", 3.5), ("kappa", 0.0), ("effective_sample_size", 641.0),
                     ("effective_sample_size", math.nan)):
        broken = {"summary": {**gibbs["summary"], key: bad}}
        assert check_gibbs(json.dumps(broken), tmp_path, 640) is not None

    (tmp_path / "series.csv").write_text("t,ratio\n0.0,1.0\n0.25,1.001\n")
    ok = json.dumps({"summary": {"bound_dominates": True, "base_distance": 0.3}})
    assert check_continuity(ok, tmp_path) is None
    assert check_continuity(json.dumps({"summary": {"bound_dominates": False}}), tmp_path)
    (tmp_path / "series.csv").write_text("t,ratio\n0.0,0.999\n0.25,1.001\n")
    assert check_continuity(ok, tmp_path) is not None

    def distance_files(value, residual):
        (tmp_path / "distance.json").write_text(
            json.dumps({"distance": value, "marginal_residuals": [residual, 0.0]})
        )
        return json.dumps({"distance": value})

    assert check_distance(distance_files(0.0, 0.0), tmp_path, zero=True) is None
    assert check_distance(distance_files(1e-17, 0.0), tmp_path, zero=True) is not None
    assert check_distance(distance_files(0.4, 1e-6), tmp_path) is not None

    assert check_solve(json.dumps({"l2_rel_drift": 1e-9, "hamiltonian_rel_drift": 1e-7,
                                   "mean_abs_drift": 0.0}), tmp_path) is None
    assert check_solve(json.dumps({"l2_rel_drift": math.inf, "hamiltonian_rel_drift": 1e-7,
                                   "mean_abs_drift": 0.0}), tmp_path) is not None


def _traced(name: str, seed: int, work: Path):
    warmup, ops = SETUPS[name](seed, work)
    runner = run.Run(kdvlab.cli, name)
    runner.call(warmup)
    probe = LayerProbe()
    tracer = probe.tracer()
    wall, metrics = run.traced_pass(probe, tracer, lambda: runner.run_pass(ops, tracer), True)
    assert runner.failures == [], runner.failures
    return metrics, list(tracer.spans), wall


@pytest.fixture(scope="module")
def profiles(tmp_path_factory):
    """Two traced passes per workload on seed 0, each from its own set-up."""
    out = {}
    for name in run.WORKLOADS:
        first = _traced(name, 0, tmp_path_factory.mktemp(f"{name}_a"))
        second = _traced(name, 0, tmp_path_factory.mktemp(f"{name}_b"))
        out[name] = (first, second)
    return out


def test_two_traced_runs_give_identical_work_counts(profiles):
    for name, ((m1, _, _), (m2, _, _)) in profiles.items():
        for key in DETERMINISTIC:
            if key == "src.lines":
                continue
            assert m1[key] == m2[key], (name, key, m1[key], m2[key])


def test_every_layer_metric_is_nonzero_where_it_is_mapped(profiles):
    for key, prediction in PREDICTIONS.items():
        if key in ("src.lines", "trace.overhead_s"):
            continue  # added by the full run, not per pass
        for name in prediction["nonzero_on"]:
            value = profiles[name][0][0][key]
            assert value > 0, (key, name, value)


def test_seed_profile_reads_as_measured(profiles):
    (gibbs, gibbs_spans, gibbs_wall), _ = profiles["gibbs_invariance"]
    (cont, cont_spans, cont_wall), _ = profiles["continuity"]
    (uniform, _, _), _ = profiles["uniform_distance"]
    assert layer_share(gibbs_spans, "transport", gibbs_wall) >= 0.80
    assert layer_share(cont_spans, "flow", cont_wall) >= 0.85
    assert gibbs["transport.live_pair_frac"] < 0.01
    assert uniform["transport.live_pair_frac"] == 1.0
    assert cont["flow.live_row_frac"] < 0.2


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "single_field", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_each_workload_reports_its_own_peak_rss():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "0",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    peak = {name: metrics[f"{name}.peak_rss_mb"]["value"] for name in run.WORKLOADS}
    # single_field runs last and holds no n x n matrix: a peak carried over would equal gibbs's
    assert peak["single_field"] < 0.5 * peak["gibbs_invariance"], peak
