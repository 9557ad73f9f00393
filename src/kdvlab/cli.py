"""Command-line interface: solve, sample, distance, experiment, inspect.

A command prints its result as one line of standard JSON to stdout.
Failures print a machine-readable JSON object to stderr and exit with a
documented code: 2 usage error, 3 malformed config, 4 I/O failure,
5 numerical failure (divergence, degenerate ensemble, non-convergence, a
result that is not a finite number).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from .experiments import (
    EXPERIMENTS,
    ConfigError,
    load_config,
    run_and_write,
)
from . import flow
from .flow import FlowDivergenceError, SolverConfig, conserved_report, trajectory
from .kdve_io import (KdveFormatError, read_ensemble, require_finite, write_ensemble, write_json,
                      write_rows)
from .measures import (
    DegenerateEnsembleError,
    GaussianSpec,
    GibbsSpec,
    InsufficientDataError,
    sample_gaussian,
    sample_gibbs,
)
from .spectral import cosine_mode, linf_norms_many, sine_mode, squared_norms_many, zero_field
from .transport import (
    SinkhornConvergenceError,
    TransportSolveError,
    combined_metric_parts,
    write_distance_json,
    write_plan_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_IO = 4
EXIT_NUMERIC = 5

_EPILOG = """exit codes:
  0  success
  2  usage error (unknown subcommand or flag, bad argument syntax or value)
  3  malformed or inconsistent configuration
  4  I/O failure (missing file, bad ensemble format, unwritable output)
  5  numerical failure (solver divergence, degenerate ensemble,
     transport non-convergence, invalid data for a fit, out of memory,
     a result that is not a finite number)

initial data strings are sums of scaled basis modes, e.g.
  "c1", "0.5*c2", "c1+0.5*c2-0.25*s3"
"""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-1e-3" for an option; a negative number in any float form is a value
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise _UsageError(message)


def _checked(kind, accept, what: str):
    """argparse type for an int or float that must satisfy accept."""

    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected a {what}, got {text!r}")
        return value

    return convert


def _held(spec, kind, name: str):
    """argparse type for the value ``spec`` holds as ``name``, checked by ``spec`` alone."""

    def convert(text: str):
        try:
            return getattr(spec(**{name: kind(text)}), name)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


_positive_int = _checked(int, lambda v: v > 0, "positive int")
_finite_positive = _checked(float, lambda v: 0 < v < math.inf, "finite positive float")
_regularity = _checked(float, lambda v: 0 <= v < math.inf, "finite float >= 0")
_order = _checked(float, lambda v: 1 <= v < math.inf, "finite float >= 1")
_gibbs = functools.partial(GibbsSpec, GaussianSpec(1))
# every sample costs at least one step; flow.MAX_STEPS is read at parse time
_samples = _checked(int, lambda v: 0 < v <= flow.MAX_STEPS, "positive int <= flow.MAX_STEPS")


def _fail(kind: str, message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return code


_TERM = re.compile(r"([+-]?)(?:([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)\*)?([cs])([0-9]+)")


def parse_init(text: str, modes: int):
    """Parse sums like ``c1 + 0.5*c2 - 0.25*s3`` into a field of at most ``modes`` modes.

    Terms above ``modes`` are summed per mode on one-mode fields, so their
    index sizes no array, and must cancel to zero.
    """
    compact = text.replace(" ", "")
    out = zero_field(1)
    above = {}  # mode -> sum of its terms, on one-mode fields
    pos = 0
    if not compact:
        raise ValueError("empty initial data string")
    while pos < len(compact):
        m = _TERM.match(compact, pos)
        if not m:
            raise ValueError(f"cannot parse initial data near {compact[pos:]!r}")
        sign, coeff_s, kind, idx = m.groups()
        coeff = float(coeff_s) if coeff_s else 1.0
        if sign == "-":
            coeff = -coeff
        mode = int(idx)  # a mode below 1 is refused by cosine_mode or sine_mode
        high = mode > modes
        basis = (cosine_mode if kind == "c" else sine_mode)(1 if high else mode)
        if high:
            above[mode] = above.get(mode, zero_field(1)) + coeff * basis
        else:
            out = out + coeff * basis
        pos = m.end()
    if any(np.any(f.modes != 0) for f in above.values()):
        raise ValueError(f"carries modes above the solver truncation --modes {modes}")
    return out


def _cmd_solve(args) -> dict:
    try:
        init = parse_init(args.init, args.modes)
    except ValueError as exc:
        raise _UsageError(f"argument --init: {exc}") from None
    try:  # a --t too small to space --samples distinct times
        times = flow.sample_times(np.linspace(args.t / args.samples, args.t, args.samples))
    except ValueError as exc:
        raise _UsageError(f"argument --t: {args.t!r} cannot space {args.samples} samples: {exc}")
    traj = trajectory(init, times, SolverConfig(n_modes=args.modes, dt=args.dt))
    drift = conserved_report(traj)
    # the mean column is the structural 0 that mean_abs_drift reports
    rows = [(*row, 0.0) for row in zip(traj.times, traj.l2_norms, traj.hamiltonians,
                                        linf_norms_many(traj.coeffs))]
    report = {
        "l2_rel_drift": drift.l2_rel_drift,
        "hamiltonian_rel_drift": drift.hamiltonian_rel_drift,
        "mean_abs_drift": drift.mean_abs_drift,
        "t_final": args.t,
        "modes": args.modes,
        "dt": args.dt,
    }
    # a non-finite report or row is refused before either file is opened
    require_finite(report, "conserved_report.json")
    require_finite(rows, "trajectory.csv")
    os.makedirs(args.out, exist_ok=True)
    write_rows(os.path.join(args.out, "trajectory.csv"),
               ["t", "l2_norm", "hamiltonian", "linf_norm", "mean"], rows)
    write_json(os.path.join(args.out, "conserved_report.json"), report)
    return report


def _cmd_sample(args) -> dict:
    gauss = GaussianSpec(n_modes=args.modes, seed=args.seed)
    if args.measure == "gaussian":
        ens, kappa = sample_gaussian(gauss, args.n), None
    else:
        spec = GibbsSpec(gauss, cubic_coefficient=args.coeff, cutoff_radius=args.cutoff,
                         projection=args.projection)
        ens, kappa = sample_gibbs(spec, args.n, resample=args.resample)
    write_ensemble(args.out, ens)
    return {"file": args.out, "n": ens.n, "modes": ens.n_modes, "kappa": kappa,
            "effective_sample_size": ens.effective_sample_size()}


def _cmd_distance(args) -> dict:
    a = read_ensemble(args.a)
    b = read_ensemble(args.b)
    parts = combined_metric_parts(a, b, args.s, args.p, args.backend, args.epsilon)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_distance_json(os.path.join(args.out, "distance.json"), parts)
        write_plan_csv(os.path.join(args.out, "plan.csv"), parts.plan, a, b, args.s, args.p)
    return {"distance": parts.total, "w_inf": parts.w_inf, "w_p": parts.w_p,
            "backend": parts.backend}


def _cmd_experiment(args) -> dict:
    flags = {"experiment": args.name, "seed": args.seed, "threads": args.threads,
             "format": args.format}
    cfg = load_config(args.config, **{k: v for k, v in flags.items() if v is not None})
    report = run_and_write(cfg, out_dir=args.out)
    return {"experiment": report.name, "summary": report.summary}


def _cmd_inspect(args) -> dict:
    ens = read_ensemble(args.file)
    return {
        "file": args.file,
        "n": ens.n,
        "modes": ens.n_modes,
        "resampled": ens.resampled,
        "effective_sample_size": ens.effective_sample_size(),
        "mean_l2_sq": float(np.sum(ens.weights * squared_norms_many(ens.coeffs, 0.0))),
        "mean_hs_sq_s0.25": float(np.sum(ens.weights * squared_norms_many(ens.coeffs, 0.25))),
    }


def build_parser() -> _Parser:
    parser = _Parser(
        prog="kdvlab",
        description="KdV flow, random ensembles and transport distances on the torus",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="integrate one initial state, write trajectory")
    p_solve.add_argument("--modes", type=_held(SolverConfig, int, "n_modes"), default=64)
    p_solve.add_argument("--dt", type=_held(SolverConfig, float, "dt"), default=None)
    p_solve.add_argument("--t", type=_finite_positive, required=True)
    p_solve.add_argument("--init", type=str, required=True)
    p_solve.add_argument("--samples", type=_samples, default=20)
    p_solve.add_argument("--out", type=str, default="runs/solve")

    p_sample = sub.add_parser("sample", help="draw an ensemble, write a .kdve file")
    p_sample.add_argument("--measure", choices=["gaussian", "gibbs"], default="gaussian")
    p_sample.add_argument("--modes", type=_held(GaussianSpec, int, "n_modes"), default=16)
    p_sample.add_argument("--n", type=_positive_int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--cutoff", type=_held(_gibbs, float, "cutoff_radius"), default=1.0)
    p_sample.add_argument("--coeff", type=_held(_gibbs, float, "cubic_coefficient"), default=1 / 6)
    p_sample.add_argument("--projection", type=_held(_gibbs, int, "projection"), default=None)
    p_sample.add_argument("--resample", action="store_true")
    p_sample.add_argument("--out", type=str, required=True)

    p_dist = sub.add_parser("distance", help="combined metric between two ensembles")
    p_dist.add_argument("--a", type=str, required=True)
    p_dist.add_argument("--b", type=str, required=True)
    p_dist.add_argument("--s", type=_regularity, default=0.25)
    p_dist.add_argument("--p", type=_order, default=2.0)
    p_dist.add_argument("--backend", choices=["exact", "entropic"], default="exact")
    p_dist.add_argument("--epsilon", type=_finite_positive, default=None)
    p_dist.add_argument("--out", type=str, default=None)

    p_exp = sub.add_parser("experiment", help="run a configured experiment")
    p_exp.add_argument("name", nargs="?", choices=list(EXPERIMENTS), default=None)
    p_exp.add_argument("--config", type=str, required=True)
    p_exp.add_argument("--out", type=str, default=None)
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--threads", type=_positive_int, default=None)
    p_exp.add_argument("--format", choices=["csv", "json"], default=None)

    p_ins = sub.add_parser("inspect", help="summarise a .kdve ensemble file")
    p_ins.add_argument("--file", type=str, required=True)

    return parser


_HANDLERS = {
    "solve": _cmd_solve,
    "sample": _cmd_sample,
    "distance": _cmd_distance,
    "experiment": _cmd_experiment,
    "inspect": _cmd_inspect,
}


def cli_entry(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # an overflow shows as a non-finite result, which is refused by name
        with np.errstate(all="ignore"):
            result = _HANDLERS[args.command](args)
        require_finite(result, args.command)
        line = json.dumps(result, sort_keys=True, allow_nan=False)
    except _UsageError as exc:
        return _fail("usage", str(exc), EXIT_USAGE)
    except ConfigError as exc:
        return _fail("config", str(exc), EXIT_CONFIG)
    except (OSError, KdveFormatError) as exc:
        return _fail("io", str(exc), EXIT_IO)
    except (
        FlowDivergenceError,
        DegenerateEnsembleError,
        SinkhornConvergenceError,
        TransportSolveError,
        InsufficientDataError,
        ValueError,
        MemoryError,
    ) as exc:
        return _fail("numeric", str(exc), EXIT_NUMERIC)
    print(line)
    return EXIT_OK


def main() -> None:
    sys.exit(cli_entry(sys.argv[1:]))


if __name__ == "__main__":
    main()
