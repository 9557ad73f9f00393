"""Command-line interface: solve, sample, distance, experiment, inspect.

Failures print a machine-readable JSON object to stderr and exit with a
documented code: 2 usage error, 3 malformed config, 4 I/O failure,
5 numerical failure (divergence, degenerate ensemble, non-convergence).
"""

from __future__ import annotations

import argparse
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
from .flow import FlowDivergenceError, SolverConfig, conserved_report, trajectory
from .kdve_io import KdveFormatError, read_ensemble, write_ensemble
from .measures import (
    DegenerateEnsembleError,
    GaussianSpec,
    GibbsSpec,
    InsufficientDataError,
    sample_gaussian,
    sample_gibbs,
)
from .spectral import cosine_mode, linf_norm, sine_mode, zero_field
from .transport import (
    SinkhornConvergenceError,
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
     transport non-convergence, invalid data for a fit)

initial data strings are sums of scaled basis modes, e.g.
  "c1", "0.5*c2", "c1+0.5*c2-0.25*s3"
"""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
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


def _usage_type(parse):
    """argparse type that reports the ValueError of parse as a usage error."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


_positive_int = _checked(int, lambda v: v > 0, "positive int")
_positive_float = _checked(float, lambda v: v > 0, "positive float")
_non_negative_int = _checked(int, lambda v: v >= 0, "non-negative int")
_finite_float = _checked(float, math.isfinite, "finite float")
_finite_positive = _checked(float, lambda v: 0 < v < math.inf, "finite positive float")
_regularity = _checked(float, lambda v: 0 <= v < math.inf, "finite float >= 0")
_order = _checked(float, lambda v: 1 <= v < math.inf, "finite float >= 1")
_solver_modes = _usage_type(lambda text: SolverConfig(n_modes=int(text)).n_modes)


def _fail(kind: str, message: str, code: int) -> int:
    json.dump({"error": kind, "message": message}, sys.stderr)
    sys.stderr.write("\n")
    return code


_TERM = re.compile(r"([+-]?)(?:([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)\*)?([cs])([0-9]+)")


def parse_init(text: str):
    """Parse sums like ``c1 + 0.5*c2 - 0.25*s3`` into a field."""
    compact = text.replace(" ", "")
    out = zero_field(1)
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
        mode = int(idx)
        if mode < 1:
            raise ValueError("mode indices start at 1")
        basis = cosine_mode(mode) if kind == "c" else sine_mode(mode)
        out = out + coeff * basis
        pos = m.end()
    return out


_init_field = _usage_type(parse_init)


def _cmd_solve(args) -> int:
    if np.any(args.init.modes[args.modes :] != 0):
        return _fail(
            "usage",
            f"argument --init: carries modes above the solver truncation --modes {args.modes}",
            EXIT_USAGE,
        )
    cfg = SolverConfig(n_modes=args.modes, dt=args.dt, dealias=not args.no_dealias)
    times = np.linspace(args.t / args.samples, args.t, args.samples)
    traj = trajectory(args.init, times, cfg)
    drift = conserved_report(traj)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "trajectory.csv")
    with open(path, "w") as fh:
        fh.write("t,l2_norm,hamiltonian,linf_norm,mean\n")
        for i, t in enumerate(traj.times):
            fh.write(
                f"{t!r},{traj.l2_norms[i]!r},{traj.hamiltonians[i]!r},"
                f"{linf_norm(traj.states[i])!r},{traj.means[i]!r}\n"
            )
    report = {
        "l2_rel_drift": drift.l2_rel_drift,
        "hamiltonian_rel_drift": drift.hamiltonian_rel_drift,
        "mean_abs_drift": drift.mean_abs_drift,
        "t_final": args.t,
        "modes": args.modes,
        "dt": args.dt,
    }
    with open(os.path.join(args.out, "conserved_report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def _cmd_sample(args) -> int:
    gauss = GaussianSpec(n_modes=args.modes, seed=args.seed)
    if args.measure == "gaussian":
        ens = sample_gaussian(gauss, args.n)
        kappa = None
    else:
        spec = GibbsSpec(
            base=gauss,
            cubic_coefficient=args.coeff,
            cutoff_radius=args.cutoff,
            projection=args.projection,
        )
        ens, kappa = sample_gibbs(spec, args.n, resample=args.resample)
    write_ensemble(args.out, ens)
    print(
        json.dumps(
            {
                "file": args.out,
                "n": ens.n,
                "modes": ens.n_modes,
                "kappa": kappa,
                "effective_sample_size": ens.effective_sample_size(),
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


def _cmd_distance(args) -> int:
    a = read_ensemble(args.a)
    b = read_ensemble(args.b)
    parts = combined_metric_parts(a, b, args.s, args.p, args.backend, args.epsilon)
    print(json.dumps({"distance": parts.total, "w_inf": parts.w_inf, "w_p": parts.w_p,
                      "backend": parts.backend}, sort_keys=True))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_distance_json(os.path.join(args.out, "distance.json"), parts)
        write_plan_csv(os.path.join(args.out, "plan.csv"), parts.plan, a, b, args.s, args.p)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    overrides = {}
    if args.name:
        overrides["experiment"] = args.name
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.format:
        overrides["format"] = args.format
    cfg = load_config(args.config, **overrides)
    report = run_and_write(cfg, out_dir=args.out)
    print(json.dumps({"experiment": report.name, "summary": report.summary}, sort_keys=True))
    return EXIT_OK


def _cmd_inspect(args) -> int:
    ens = read_ensemble(args.file)
    info = {
        "file": args.file,
        "n": ens.n,
        "modes": ens.n_modes,
        "resampled": ens.provenance.get("resampled", False),
        "effective_sample_size": ens.effective_sample_size(),
        "mean_l2_sq": float(np.sum(ens.weights * ens.l2_norms() ** 2)),
        "mean_hs_sq_s0.25": float(np.sum(ens.weights * ens.hs_norms(0.25) ** 2)),
    }
    print(json.dumps(info, sort_keys=True))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="kdvlab",
        description="KdV flow, random ensembles and transport distances on the torus",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="integrate one initial state, write trajectory")
    p_solve.add_argument("--modes", type=_solver_modes, default=64)
    p_solve.add_argument("--dt", type=_finite_positive, default=None)
    p_solve.add_argument("--t", type=_finite_float, required=True)
    p_solve.add_argument("--init", type=_init_field, required=True)
    p_solve.add_argument("--samples", type=_positive_int, default=20)
    p_solve.add_argument("--no-dealias", action="store_true")
    p_solve.add_argument("--out", type=str, default="runs/solve")

    p_sample = sub.add_parser("sample", help="draw an ensemble, write a .kdve file")
    p_sample.add_argument("--measure", choices=["gaussian", "gibbs"], default="gaussian")
    p_sample.add_argument("--modes", type=_positive_int, default=16)
    p_sample.add_argument("--n", type=_positive_int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--cutoff", type=_positive_float, default=1.0)
    p_sample.add_argument("--coeff", type=float, default=1.0 / 6.0)
    p_sample.add_argument("--projection", type=_non_negative_int, default=None)
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
    p_exp.add_argument("--threads", type=int, default=None)
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
    except _UsageError as exc:
        return _fail("usage", str(exc), EXIT_USAGE)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        return _fail("config", str(exc), EXIT_CONFIG)
    except (OSError, KdveFormatError) as exc:
        return _fail("io", str(exc), EXIT_IO)
    except (
        FlowDivergenceError,
        DegenerateEnsembleError,
        SinkhornConvergenceError,
        InsufficientDataError,
        ValueError,
    ) as exc:
        return _fail("numeric", str(exc), EXIT_NUMERIC)


def main() -> None:
    # SystemExit(2) from argparse --help paths is left untouched
    try:
        code = cli_entry(sys.argv[1:])
    except SystemExit:
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
