"""Each pipeline's reported numbers, held against ``headlines.json``.

``headlines.json`` holds, for one small config of every experiment, the
summary and series the pipeline reported when the file was written, and the
numbers of the diagnostics that no pipeline reports: c12's probe ratios,
c06's tail fits and both distance backends on two small fixed pairs.  Floats
must agree within ``REL_TOL`` (summation order may differ across SIMD
builds); every other value, and every series row's key order (the CSV
header), must agree exactly.  A change that moves a number rewrites the file
in the same commit with ``PYTHONPATH=src python tests/test_headlines.py``
and lists what moved.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from kdvlab.bourgain import bilinear_scaling_probe, l4_inequality_probe, traveling_wave
from kdvlab.experiments import EXPERIMENTS, parse_config_text, run_experiment
from kdvlab.measures import GaussianSpec, GibbsSpec, sample_gaussian, sample_gibbs, tail_fit
from kdvlab.spectral import cosine_mode, linf_norms_many
from kdvlab.transport import combined_metric_parts

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


def _l4_ratios(resolution) -> dict:
    return {"ratios": l4_inequality_probe(100, resolution, seed=0).ratios.tolist()}


def _bilinear_ratios() -> dict:
    wave = traveling_wave(cosine_mode(1), 64, 512)
    probe = bilinear_scaling_probe(wave, wave, 0.25, [1.0, 0.5, 0.25, 0.125])
    return {"ratios": probe.ratios.tolist()}


def _tail_fits() -> dict:
    """c06's three fits: 8192 Gaussian draws on 16 modes, radii at 12 survival targets."""
    ens = sample_gaussian(GaussianSpec(n_modes=16, seed=1), 8192)
    targets = np.exp(np.linspace(np.log(0.45), np.log(2e-3), 12))
    out = {}
    for functional, values in (
        ("linf", linf_norms_many(ens.coeffs)),
        ("l2", ens.l2_norms()),
        ("hs", ens.hs_norms(0.25)),
    ):
        fit = tail_fit(ens, values, np.quantile(values, 1.0 - targets))
        out[functional] = {"slope": fit.slope, "intercept": fit.intercept,
                           "r_squared": fit.r_squared, "survival": fit.survival.tolist()}
    return out


def _distances(a, b) -> dict:
    out = {}
    for backend in ("exact", "entropic"):
        d = combined_metric_parts(a, b, 0.25, 2.0, backend)
        out[backend] = {"w_inf": d.w_inf, "w_p": d.w_p, "iterations": d.iterations,
                        "epsilon": d.epsilon}
    return out


def _gaussian_pair() -> dict:
    return _distances(sample_gaussian(GaussianSpec(n_modes=4, seed=1), 16),
                      sample_gaussian(GaussianSpec(n_modes=4, seed=2), 16))


def _gibbs_pair() -> dict:
    # 64 weighted draws each, of which 11 and 12 are live
    return _distances(sample_gibbs(GibbsSpec(GaussianSpec(n_modes=4, seed=3)), 64)[0],
                      sample_gibbs(GibbsSpec(GaussianSpec(n_modes=4, seed=4)), 64)[0])


DIAGNOSTICS = {
    "c12_l4_64x64": lambda: _l4_ratios((64, 64)),
    "c12_l4_128x128": lambda: _l4_ratios((128, 128)),
    "c12_bilinear": _bilinear_ratios,
    "c06_tails": _tail_fits,
    "distance_gaussian": _gaussian_pair,
    "distance_gibbs": _gibbs_pair,
}


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
    assert set(CONFIGS) == set(EXPERIMENTS) and not set(CONFIGS) & set(DIAGNOSTICS)
    assert set(json.loads(HEADLINES.read_text())) == set(CONFIGS) | set(DIAGNOSTICS)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_pipeline_reports_its_recorded_numbers(name):
    want = json.loads(HEADLINES.read_text())[name]
    got = outputs(name)
    assert list(moved(got, want, name)) == []
    # the series header order is part of the output: series.csv writes it
    assert [list(row) for row in got["series"]] == [list(row) for row in want["series"]]


@pytest.mark.parametrize("name", list(DIAGNOSTICS))
def test_diagnostic_reports_its_recorded_numbers(name):
    want = json.loads(HEADLINES.read_text())[name]
    assert list(moved(DIAGNOSTICS[name](), want, name)) == []


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
    entries = {name: outputs(name) for name in CONFIGS}
    entries.update({name: entry() for name, entry in DIAGNOSTICS.items()})
    HEADLINES.write_text(json.dumps(entries, indent=1) + "\n")
