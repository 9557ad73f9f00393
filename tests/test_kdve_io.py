import csv
import json
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kdvlab.bourgain import bilinear_scaling_probe, l4_inequality_probe, traveling_wave
from kdvlab.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, cli_entry
from kdvlab.experiments import ExperimentReport, write_report
from kdvlab.kdve_io import (
    KdveFormatError,
    read_ensemble,
    require_finite,
    write_ensemble,
    write_json,
)
from kdvlab.measures import GaussianSpec, GibbsSpec, WeightedEnsemble, sample_gaussian, sample_gibbs
from kdvlab.spectral import cosine_mode
from kdvlab.transport import wasserstein_p_exact, write_plan_csv


def test_round_trip_bytes(tmp_path):
    ens = sample_gaussian(GaussianSpec(n_modes=5, seed=3), 17)
    path = tmp_path / "e.kdve"
    write_ensemble(path, ens)
    back = read_ensemble(path)
    assert np.array_equal(back.coeffs, ens.coeffs)
    assert np.array_equal(back.weights, ens.weights)
    assert back.resampled is False

    write_ensemble(tmp_path / "f.kdve", back)
    assert (tmp_path / "e.kdve").read_bytes() == (tmp_path / "f.kdve").read_bytes()


def test_exact_binary_layout(tmp_path):
    # one sample, two modes; the byte layout is normative
    coeffs = np.array([[1.5 - 2.5j, 0.25 + 0.75j]])
    ens = WeightedEnsemble(coeffs, [1.0])
    path = tmp_path / "tiny.kdve"
    write_ensemble(path, ens)
    blob = path.read_bytes()
    assert blob[:4] == b"KDVE"
    version, m, n = struct.unpack("<II", blob[4:12]) + struct.unpack("<Q", blob[12:20])[:1]
    flags = blob[20]
    assert (version, m, n, flags) == (1, 2, 1, 0)
    body = struct.unpack("<5d", blob[21:])
    assert body == (1.0, 1.5, -2.5, 0.25, 0.75)
    assert len(blob) == 21 + 1 * (1 + 2 * 2) * 8


def test_resampled_flag_round_trip(tmp_path):
    ens, _ = sample_gibbs(GibbsSpec(GaussianSpec(n_modes=4, seed=2)), 64, resample=True)
    path = tmp_path / "r.kdve"
    write_ensemble(path, ens)
    assert path.read_bytes()[20] == 1
    assert read_ensemble(path).resampled is True


def test_format_errors(tmp_path):
    bad = tmp_path / "bad.kdve"
    bad.write_bytes(b"NOPE" + bytes(17))
    with pytest.raises(KdveFormatError):
        read_ensemble(bad)

    short = tmp_path / "short.kdve"
    short.write_bytes(b"KDVE")
    with pytest.raises(KdveFormatError):
        read_ensemble(short)

    ens = sample_gaussian(GaussianSpec(n_modes=3, seed=1), 4)
    good = tmp_path / "good.kdve"
    write_ensemble(good, ens)
    truncated = tmp_path / "trunc.kdve"
    truncated.write_bytes(good.read_bytes()[:-8])
    with pytest.raises(KdveFormatError):
        read_ensemble(truncated)

    blob = bytearray(good.read_bytes())
    blob[4] = 9  # unsupported version
    versioned = tmp_path / "v9.kdve"
    versioned.write_bytes(bytes(blob))
    with pytest.raises(KdveFormatError):
        read_ensemble(versioned)


def _raw_kdve(path, m, n, body):
    """A file with a valid header for (M, n) followed by the given f64 body."""
    path.write_bytes(struct.pack("<4sIIQB", b"KDVE", 1, m, n, 0) + np.asarray(body, "<f8").tobytes())
    return path


def test_invalid_ensembles_are_format_errors(tmp_path):
    # (M, n, body) per file: each body has the size its header announces
    cases = {
        "no_samples": (3, 0, []),
        "no_modes": (0, 2, [0.5, 0.5]),
        "weights_off_one": (1, 2, [0.5, 0.1, 0.0, 0.25, 0.1, 0.0]),
        "negative_weight": (1, 2, [1.5, 0.1, 0.0, -0.5, 0.1, 0.0]),
        "nan_weight": (1, 2, [np.nan, 0.1, 0.0, 1.0, 0.1, 0.0]),
        "nan_coefficient": (1, 2, [0.5, np.nan, 0.0, 0.5, 0.1, 0.0]),
        "inf_coefficient": (1, 2, [0.5, 0.1, 0.0, 0.5, 0.1, -np.inf]),
    }
    for name, (m, n, body) in cases.items():
        path = _raw_kdve(tmp_path / f"{name}.kdve", m, n, body)
        with pytest.raises(KdveFormatError):
            read_ensemble(path)
    # the same layout with valid numbers reads back
    ok = read_ensemble(_raw_kdve(tmp_path / "ok.kdve", 1, 2, [0.5, 0.1, 0.0, 0.5, 0.1, 0.2]))
    assert ok.n == 2 and ok.n_modes == 1 and ok.coeffs[1, 0] == 0.1 + 0.2j


def test_inspect_rejects_invalid_ensembles_with_exit_4(tmp_path, capsys):
    for name, m, n, body in (
        ("nan.kdve", 1, 1, [1.0, np.nan, 0.0]),
        ("empty.kdve", 2, 0, []),
        ("weights.kdve", 1, 1, [0.5, 0.1, 0.0]),
    ):
        path = _raw_kdve(tmp_path / name, m, n, body)
        assert cli_entry(["inspect", "--file", str(path)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "io"


def _read_csv(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def test_every_csv_writer_writes_numbers_float_reads_back(tmp_path, capsys):
    # each writer's numeric fields, numpy scalars among them, read back by float()
    # to the values written
    def numbers(path, text_columns=()):
        header, rows = _read_csv(path)
        keep = [i for i, name in enumerate(header) if name not in text_columns]
        return np.array([[float(row[i]) for i in keep] for row in rows])

    assert cli_entry(["solve", "--modes", "16", "--t", "0.05", "--samples", "3",
                      "--init", "c1+0.5*s2", "--out", str(tmp_path / "solve")]) == EXIT_OK
    table = numbers(tmp_path / "solve" / "trajectory.csv")
    assert table.shape == (3, 5) and np.array_equal(table[:, 0], np.linspace(0.05 / 3, 0.05, 3))

    l4 = l4_inequality_probe(100, (32, 32))
    l4.write_csv(tmp_path / "l4.csv")
    table = numbers(tmp_path / "l4.csv", ("resolution",))
    assert np.array_equal(table, np.column_stack([np.arange(100), l4.lhs, l4.rhs, l4.ratios]))

    u = traveling_wave(cosine_mode(1), 32, 64)
    bil = bilinear_scaling_probe(u, u, 0.0, [1.0, 0.5, 0.25, 0.125])
    bil.write_csv(tmp_path / "bil.csv")
    want = np.column_stack([np.arange(4), bil.t_grid, bil.numerators, bil.denominators,
                            bil.ratios])
    assert np.array_equal(numbers(tmp_path / "bil.csv"), want)

    row = {"t": 0.5, "value": np.float64(1.25), "low": np.float32(0.1), "n": np.int64(3)}
    write_report(ExperimentReport("demo", [row], {}, {}), tmp_path / "rep")
    assert numbers(tmp_path / "rep" / "series.csv").tolist() == [[0.5, 1.25, float(row["low"]), 3]]

    a = sample_gaussian(GaussianSpec(n_modes=3, seed=1), 5)
    b = sample_gaussian(GaussianSpec(n_modes=4, seed=2), 6)
    _, plan = wasserstein_p_exact(a, b, 0.25, 2.0)
    write_plan_csv(tmp_path / "plan.csv", plan, a, b, 0.25, 2.0)
    table = numbers(tmp_path / "plan.csv")
    assert np.array_equal(table[:, 2], plan.mass)


# a valid file of 4 draws on 3 modes: a 21-byte header, then 56 bytes per draw
_ENS = sample_gaussian(GaussianSpec(n_modes=3, seed=1), 4)
_HEADER = struct.pack("<4sIIQB", b"KDVE", 1, 3, 4, 0)
_RECORDS = np.column_stack([_ENS.weights, _ENS.coeffs.view(np.float64)]).astype("<f8")
_VALID = _HEADER + _RECORDS.tobytes()

_sizes = st.one_of(st.integers(0, 40), st.integers(0, 2**32 - 1))
_headers = st.builds(
    lambda magic, version, m, n, flags: struct.pack("<4sIIQB", magic, version, m, n, flags),
    st.sampled_from([b"KDVE", b"KDVF", b"\0\0\0\0"]), st.integers(0, 3), _sizes,
    st.one_of(_sizes, st.integers(0, 2**64 - 1)), st.integers(0, 255),
)
_BODY = len(_HEADER)


def _with_weight(i, w):
    """The valid file with draw i's weight replaced by w."""
    at = _BODY + 56 * i
    return _VALID[:at] + struct.pack("<d", w) + _VALID[at + 8 :]


_mutants = st.one_of(
    st.builds(lambda k: _VALID[:k], st.integers(0, len(_VALID))),
    st.builds(lambda head: head + _VALID[_BODY:], _headers),
    st.builds(_with_weight, st.integers(0, 3),
              st.sampled_from([np.nan, np.inf, -np.inf, -0.25, 0.0, 1.0, 2.0])),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=_mutants)
@example(blob=_VALID)
def test_mutated_kdve_bytes_read_or_fail_as_format_errors(tmp_path, capsys, blob):
    path = tmp_path / "m.kdve"
    path.write_bytes(blob)
    try:
        ens = read_ensemble(path)
    except KdveFormatError:
        ens = None
    rc = cli_entry(["inspect", "--file", str(path)])
    captured = capsys.readouterr()
    assert rc == (EXIT_IO if ens is None else EXIT_OK)
    if ens is None:
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line)["error"] == "io"
    else:
        assert captured.err == "" and json.loads(captured.out)["n"] == ens.n


# valid files whose first draw carries finite but huge amplitudes: its squared
# norms, and its distances to ordinary draws, overflow float64
_huge = st.builds(lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]),
                  st.floats(1e150, np.finfo(np.float64).max))
_small = st.floats(-2.0, 2.0)


@st.composite
def _huge_ensembles(draw):
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    parts = np.array(draw(st.lists(_small, min_size=2 * m * n, max_size=2 * m * n)))
    coeffs = (parts[::2] + 1j * parts[1::2]).reshape(n, m)
    for k in draw(st.sets(st.integers(0, m - 1), min_size=1)):
        coeffs[0, k] = complex(draw(_huge), draw(st.one_of(_huge, _small)))
    return WeightedEnsemble(coeffs, np.full(n, 1.0 / n))


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ens=_huge_ensembles())
def test_huge_amplitudes_keep_the_exit_code_contract(tmp_path, capsys, ens):
    path, normal = tmp_path / "huge.kdve", tmp_path / "normal.kdve"
    write_ensemble(path, ens)
    write_ensemble(normal, sample_gaussian(GaussianSpec(n_modes=2, seed=4), 3))
    for argv in (["inspect", "--file", str(path)],
                 ["distance", "--a", str(path), "--b", str(normal)],
                 ["distance", "--a", str(normal), "--b", str(path), "--p", "1"],
                 ["distance", "--a", str(path), "--b", str(path)]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli_entry(argv)
        captured = capsys.readouterr()
        assert caught == [], argv  # no numpy warning reaches stderr
        assert rc in (EXIT_OK, EXIT_NUMERIC), argv
        if rc == EXIT_OK:
            # standard JSON: a NaN or Infinity would raise
            json.loads(captured.out, parse_constant=lambda name: 1 / 0)
            assert captured.err == ""
        else:
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert json.loads(line)["error"] == "numeric"


def test_write_json_writes_sorted_indented_json_and_refuses_non_finite_values(tmp_path):
    payload = {"b": [1.0, np.float64(0.1)], "a": {"n": 3, "s": "x", "none": None}}
    path = tmp_path / "ok.json"
    write_json(path, payload)
    assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    for bad, where in (({"a": {"x": np.float64(np.nan)}}, "bad.json.a.x"),
                       ({"m": [0.0, (1.0, -np.inf)]}, "bad.json.m[1][1]")):
        with pytest.raises(ValueError, match=re.escape(f"non-finite value at {where}") + "$"):
            write_json(tmp_path / "bad.json", bad)
        assert not (tmp_path / "bad.json").exists()
    require_finite({"n": 1, "v": [0.5, "nan"]}, "ok")  # strings are not numbers
