import json
import struct

import numpy as np
import pytest

from kdvlab.cli import EXIT_IO, cli_entry
from kdvlab.kdve_io import KdveFormatError, read_ensemble, write_ensemble
from kdvlab.measures import GaussianSpec, GibbsSpec, WeightedEnsemble, sample_gaussian, sample_gibbs


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
