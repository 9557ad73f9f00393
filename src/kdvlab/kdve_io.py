"""Binary persistence of weighted ensembles (the .kdve format).

Layout, little-endian throughout:

    magic   4 bytes  b"KDVE"
    version u32      1
    M       u32      modes per sample
    n       u64      sample count
    flags   u8       bit 0: ensemble was multinomially resampled
                     (``WeightedEnsemble.resampled``)
    then per sample: f64 weight, then M pairs (f64 re, f64 im) of u_hat(k),
    k = 1..M.

The byte layout is normative; writers must not insert padding.  A file is
valid only if n >= 1, M >= 1, every number is finite, the weights are
nonnegative and they sum to one within 1e-12.  The resampled flag is the
only state of an ensemble besides its draws and weights, so a write and a
read give back the same ensemble.

Every CSV file the package writes goes through ``write_rows``, and every
JSON file through ``write_json``, which refuses a non-finite number before
it opens the file.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct

import numpy as np

from .measures import WeightedEnsemble

MAGIC = b"KDVE"
VERSION = 1
_HEADER = struct.Struct("<4sIIQB")

FLAG_RESAMPLED = 0x01


class KdveFormatError(RuntimeError):
    """File does not follow the ensemble binary layout."""


def write_rows(path, header, rows) -> None:
    """A CSV file of a header and rows; a float (numpy's too) is written as ``repr(float(x))``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(x)) if isinstance(x, (float, np.floating)) else x for x in row]
                         for row in rows)


def require_finite(obj, where: str) -> None:
    """Raise ``ValueError`` naming the path (``where.key[i]``) of obj's first non-finite float."""

    def walk(obj, where):
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(v, f"{where}.{k}")
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                walk(v, f"{where}[{i}]")
        elif isinstance(obj, float) and not math.isfinite(obj):
            raise ValueError(f"non-finite value at {where}")

    walk(obj, where)


def write_json(path, payload) -> None:
    """Payload as JSON: sorted keys, indent 2, final newline; a non-finite float raises first."""
    require_finite(payload, os.path.basename(path))
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_ensemble(path, ens: WeightedEnsemble) -> None:
    flags = FLAG_RESAMPLED if ens.resampled else 0
    record = np.empty((ens.n, 1 + 2 * ens.n_modes), dtype="<f8")
    record[:, 0] = ens.weights
    record[:, 1::2] = ens.coeffs.real
    record[:, 2::2] = ens.coeffs.imag
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, ens.n_modes, ens.n, flags))
        fh.write(record.tobytes())


def read_ensemble(path) -> WeightedEnsemble:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise KdveFormatError("truncated header")
        magic, version, m, n, flags = _HEADER.unpack(head)
        if magic != MAGIC:
            raise KdveFormatError("bad magic; not an ensemble file")
        if version != VERSION:
            raise KdveFormatError(f"unsupported version {version}")
        body = fh.read()
    expected = n * (1 + 2 * m) * 8
    if len(body) != expected:
        raise KdveFormatError(
            f"body has {len(body)} bytes, expected {expected} for n={n}, M={m}"
        )
    record = np.frombuffer(body, dtype="<f8").reshape(n, 1 + 2 * m)
    weights = record[:, 0].copy()
    with np.errstate(invalid="ignore"):  # non-finite numbers are rejected below
        coeffs = record[:, 1::2] + 1j * record[:, 2::2]
    try:
        return WeightedEnsemble(coeffs, weights, bool(flags & FLAG_RESAMPLED))
    except ValueError as exc:
        # an empty ensemble, bad weights or non-finite numbers are a bad file
        raise KdveFormatError(f"not a valid ensemble: {exc}") from None
