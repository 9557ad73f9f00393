"""The four kdvlab workloads: inputs made from a seed, CLI calls, output checks.

Every operation is one in-process ``kdvlab`` CLI call (``cli_entry``), so a
run exercises the same argument parsing, file I/O and exit-code handling a
user gets. Each workload's ``setup`` writes its inputs (configs, ``.kdve``
files, init strings) under a work directory and returns a warm-up operation
plus the ordered operations of one pass. Inputs depend only on the seed.

Sizes are scaled down from the acceptance experiments so that one call takes
a second or two; what each workload stresses (see ``WHY``) is kept:
* gibbs_invariance: the c10 pipeline (Gibbs, 16 modes, 48 solver modes)
  with ``GIBBS_DRAWS`` (640) draws instead of 2048, a 4-replica null band
  instead of 200, and t = 0.25 instead of 0.5. About 7% of draws are live, so transport still
  builds dense n x n matrices over mostly zero-weight samples.
* continuity: the c09 pipeline with 160 draws instead of 256 and the time
  grid 0.064/0.128/0.256 instead of 0.25/0.5/1.0, so the flow (including
  ``pushforward_cost`` re-evolving every row from t = 0) stays dominant.
* uniform_distance: 768-sample uniform files instead of 2048.
* single_field: as specified, 64-96 modes, t up to 3, 20 samples.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WHY = {
    "gibbs_invariance": "transport on Gibbs ensembles where ~7% of draws are live: dense n x n "
    "H^s builds, max-flow bisection and HiGHS LPs dominate; sampler and flow are minor",
    "continuity": "flow-dominated: pushforward_cost re-evolves every row, most of zero weight, "
    "from t = 0; transport is a few percent",
    "uniform_distance": "CLI distance on uniform-weight .kdve files: every sample is live, dense "
    "cost builds, assignment and matching probes, file reads and writes",
    "single_field": "flow at batch 1 through kdvlab solve, where per-call overhead dominates, "
    "plus the scalar spectral functionals",
}

GIBBS_CONFIG = """experiment = invariance_nonlinear
measure = gibbs
modes = 16
ensemble_size = {n}
solver_modes = 48
time_grid = 0.25
bootstrap_replicas = 4
threads = 1
seed = {seed}
"""

CONTINUITY_CONFIG = """experiment = continuity
measure = gibbs
modes = 16
ensemble_size = 160
solver_modes = 48
time_grid = 0.064, 0.128, 0.256
perturbation = mode_shift
perturbation_mode = 3
perturbation_delta = 1e-3
s = 0.25
p = 2
threads = 1
seed = {seed}
"""

GIBBS_DRAWS = 640
EXPERIMENTS_PER_PASS = 2
DISTANCE_SAMPLES = 768
DISTANCE_MODES = 16
DISTANCE_PAIRS = 2
SOLVES = ((64, 1.0), (80, 2.0), (96, 3.0))  # (modes, t) of the calls in one pass
MARGINAL_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI call and the check of its output (None when the output is right)."""

    argv: list[str]
    out_dir: Path
    check: Callable[[str, Path], str | None]


# --- output checks --------------------------------------------------------------


def _non_finite(obj, where="") -> str | None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            bad = _non_finite(value, f"{where}.{key}")
            if bad:
                return bad
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            bad = _non_finite(value, f"{where}[{i}]")
            if bad:
                return bad
    elif isinstance(obj, float) and not math.isfinite(obj):
        return f"non-finite value at {where or 'top'}"
    return None


def check_gibbs(stdout: str, out_dir: Path, n: int) -> str | None:
    summary = json.loads(stdout)["summary"]
    bad = _non_finite(summary, "summary")
    if bad:
        return bad
    if not summary["l2_sq_drift_z"] <= 3.0:
        return f"l2_sq_drift_z {summary['l2_sq_drift_z']} > 3"
    if not summary["kappa"] > 0:
        return f"kappa {summary['kappa']} <= 0"
    if not 0 < summary["effective_sample_size"] <= n * (1 + 1e-12):
        return f"effective sample size {summary['effective_sample_size']} outside (0, {n}]"
    return None


def check_continuity(stdout: str, out_dir: Path) -> str | None:
    summary = json.loads(stdout)["summary"]
    bad = _non_finite(summary, "summary")
    if bad:
        return bad
    if summary["bound_dominates"] is not True:
        return "coupled-plan bound does not dominate"
    with open(out_dir / "series.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return "empty series"
    for i, row in enumerate(rows):
        if not all(math.isfinite(float(v)) for v in row.values()):
            return f"non-finite series row {i}"
    if float(rows[0]["t"]) != 0.0 or float(rows[0]["ratio"]) != 1.0:
        return f"t = 0 row has t {rows[0]['t']} and ratio {rows[0]['ratio']}, expected 0 and 1"
    return None


def check_distance(stdout: str, out_dir: Path, zero: bool = False) -> str | None:
    printed = json.loads(stdout)
    saved = json.loads((out_dir / "distance.json").read_text())
    residuals = saved["marginal_residuals"]
    if residuals is None or not all(0 <= r <= MARGINAL_TOL for r in residuals):
        return f"marginal residuals {residuals} exceed {MARGINAL_TOL}"
    if zero and (printed["distance"] != 0.0 or saved["distance"] != 0.0):
        return f"distance(a, a) is {printed['distance']}, expected exactly 0.0"
    if not math.isfinite(printed["distance"]) or printed["distance"] < 0:
        return f"distance {printed['distance']} is not a finite nonnegative number"
    return None


def check_solve(stdout: str, out_dir: Path) -> str | None:
    report = json.loads(stdout)
    for key in ("l2_rel_drift", "hamiltonian_rel_drift", "mean_abs_drift"):
        if not math.isfinite(report[key]):
            return f"{key} is {report[key]}"
    return None


# --- input generation -----------------------------------------------------------


def write_kdve(path: Path, coeffs: np.ndarray, weights: np.ndarray) -> None:
    """Write a .kdve file (magic, version 1, M, n, flags; then weight + (re, im) pairs)."""
    n, m = coeffs.shape
    record = np.empty((n, 1 + 2 * m), dtype="<f8")
    record[:, 0] = weights
    record[:, 1::2] = coeffs.real
    record[:, 2::2] = coeffs.imag
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIQB", b"KDVE", 1, m, n, 0))
        fh.write(record.tobytes())


def gaussian_coeffs(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Draws of sum_k (h_k cos kx + l_k sin kx) / k in kdvlab's amplitude convention."""
    h = rng.standard_normal((n, m))
    l = rng.standard_normal((n, m))
    return (h - 1j * l) * (np.sqrt(np.pi) / 2.0) / np.arange(1, m + 1)


def init_string(rng: np.random.Generator) -> str:
    """A sum of three distinct low modes with amplitudes in [0.15, 0.6]."""
    modes = rng.choice(5, size=3, replace=False) + 1
    terms = []
    for mode in modes:
        amp = rng.uniform(0.15, 0.6)
        sign = "-" if rng.random() < 0.5 else "+"
        kind = "c" if rng.random() < 0.5 else "s"
        terms.append(f"{sign}{amp:.3f}*{kind}{mode}")
    return "".join(terms).lstrip("+")


def _experiment_ops(template: str, name: str, seed: int, work: Path, check) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for i, exp_seed in enumerate(rng.integers(0, 2**31 - 1, size=EXPERIMENTS_PER_PASS)):
        cfg = work / f"{name}_{i}.cfg"
        cfg.write_text(template.format(seed=int(exp_seed), n=GIBBS_DRAWS))
        out = work / f"out_{i}"
        ops.append(Op(["experiment", "--config", str(cfg), "--out", str(out), "--threads", "1"],
                      out, check))
    return ops


def setup_gibbs_invariance(seed: int, work: Path) -> tuple[Op, list[Op]]:
    ops = _experiment_ops(GIBBS_CONFIG, "gibbs", seed, work,
                          lambda out, d: check_gibbs(out, d, GIBBS_DRAWS))
    return ops[0], ops


def setup_continuity(seed: int, work: Path) -> tuple[Op, list[Op]]:
    ops = _experiment_ops(CONTINUITY_CONFIG, "continuity", seed, work, check_continuity)
    return ops[0], ops


def setup_uniform_distance(seed: int, work: Path) -> tuple[Op, list[Op]]:
    rng = np.random.default_rng(seed)
    weights = np.full(DISTANCE_SAMPLES, 1.0 / DISTANCE_SAMPLES)
    files = []
    for i in range(2 * DISTANCE_PAIRS):
        path = work / f"ens_{i}.kdve"
        write_kdve(path, gaussian_coeffs(rng, DISTANCE_SAMPLES, DISTANCE_MODES), weights)
        files.append(path)

    def distance(a: Path, b: Path, out: Path, zero: bool) -> Op:
        argv = ["distance", "--a", str(a), "--b", str(b), "--backend", "exact", "--out", str(out)]
        return Op(argv, out, lambda stdout, d: check_distance(stdout, d, zero))

    warmup = distance(files[0], files[0], work / "out_self", zero=True)
    ops = [
        distance(files[2 * i], files[2 * i + 1], work / f"out_{i}", zero=False)
        for i in range(DISTANCE_PAIRS)
    ]
    return warmup, ops


def setup_single_field(seed: int, work: Path) -> tuple[Op, list[Op]]:
    rng = np.random.default_rng(seed)
    ops = []
    for i, (modes, t) in enumerate(SOLVES):
        out = work / f"out_{i}"
        argv = ["solve", "--modes", str(modes), "--t", repr(t), "--samples", "20",
                f"--init={init_string(rng)}", "--out", str(out)]
        ops.append(Op(argv, out, check_solve))
    return ops[0], ops


SETUPS = {
    "gibbs_invariance": setup_gibbs_invariance,
    "continuity": setup_continuity,
    "uniform_distance": setup_uniform_distance,
    "single_field": setup_single_field,
}
