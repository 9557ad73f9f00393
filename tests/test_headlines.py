"""Each pipeline's reported numbers, held against ``headlines.json``.

``headlines.json`` holds, for one small config of every experiment, the
summary and series the pipeline reported when the file was written.  Floats
must agree within ``REL_TOL`` (summation order may differ across SIMD
builds); every other value, and every series row's key order (the CSV
header), must agree exactly.  A change that moves a number rewrites the file
in the same commit with ``PYTHONPATH=src python tests/test_headlines.py``
and lists what moved.
"""

import json
import math
from pathlib import Path

import pytest

from kdvlab.experiments import EXPERIMENTS, parse_config_text, run_experiment

HEADLINES = Path(__file__).with_name("headlines.json")
REL_TOL = 1e-12

CONFIGS = {
    "continuity": (
        "experiment = continuity\nmeasure = gibbs\nmodes = 8\nensemble_size = 64\n"
        "solver_modes = 16\ntime_grid = 0.05, 0.1\nseed = 3\n"
    ),
    "stability": (
        "experiment = stability\nmeasure = gibbs\nmodes = 8\nensemble_size = 64\n"
        "solver_modes = 16\ntime_grid = -0.1, 0.0, 0.1\nseed = 3\n"
    ),
    "invariance_linear": (
        "experiment = invariance_linear\nmeasure = gaussian\nmodes = 8\nensemble_size = 64\n"
        "time_grid = 0.5, 1.0\nseed = 4\n"
    ),
    "invariance_nonlinear": (
        "experiment = invariance_nonlinear\nmeasure = gibbs\nmodes = 8\nensemble_size = 128\n"
        "time_grid = 0.2\nbootstrap_replicas = 6\nseed = 5\n"
    ),
    "galerkin": (
        "experiment = galerkin\nmeasure = gaussian\nmodes = 16\nsolver_modes = 24\n"
        "projection_grid = 4, 8, 12\ntime_grid = 0.1\ns = 0.2\nseed = 2\n"
    ),
    "tails": "experiment = tails\nmeasure = gaussian\nmodes = 8\nensemble_size = 600\nseed = 6\n",
}


def outputs(name: str) -> dict:
    report = run_experiment(parse_config_text(CONFIGS[name]))
    return {"summary": report.summary, "series": report.series}


def moved(got, want, where: str):
    """Paths at which ``got`` differs from ``want``, floats within REL_TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            yield f"{where} keys"
            return
        for key in want:
            yield from moved(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            yield f"{where} length"
            return
        for i, (g, w) in enumerate(zip(got, want)):
            yield from moved(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        if not (isinstance(got, float) and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)):
            yield f"{where}: {got!r} != {want!r}"
    elif type(got) is not type(want) or got != want:
        yield f"{where}: {got!r} != {want!r}"


def test_headlines_cover_every_pipeline():
    assert set(json.loads(HEADLINES.read_text())) == set(CONFIGS) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_pipeline_reports_its_recorded_numbers(name):
    want = json.loads(HEADLINES.read_text())[name]
    got = outputs(name)
    assert list(moved(got, want, name)) == []
    # the series header order is part of the output: series.csv writes it
    assert [list(row) for row in got["series"]] == [list(row) for row in want["series"]]


def test_a_moved_number_is_named():
    want = {"summary": {"x": 0.1, "ok": True}, "series": [{"t": 1.0}]}
    assert list(moved({"summary": {"x": 0.1 * (1 + 1e-13), "ok": True}, "series": [{"t": 1.0}]},
                      want, "c")) == []
    got = {"summary": {"x": 0.1 * (1 + 1e-11), "ok": True}, "series": [{"t": 1.0}]}
    assert list(moved(got, want, "c")) == [f"c.summary.x: {got['summary']['x']!r} != 0.1"]
    assert list(moved({"summary": {"x": 0.1, "ok": 1}, "series": []}, want, "c")) == [
        "c.summary.ok: 1 != True",
        "c.series length",
    ]


if __name__ == "__main__":  # rewrite the file from the current tree
    HEADLINES.write_text(json.dumps({name: outputs(name) for name in CONFIGS}, indent=1) + "\n")
