"""kdvlab benchmark: four pipeline workloads, end-to-end times, traced layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload gibbs_invariance --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all              # every workload, one command

One command, one client, closed loop: each call into ``kdvlab`` starts when
the previous one has returned. The package is imported from ``src/`` next to
this directory; nothing is installed. Set-up (imports, input generation, one
warm-up call) is repeated ``SETUP_ROUNDS`` times. The timed phase then runs
whole passes over the workload's calls until ``--seconds`` have elapsed;
``wall_s`` and ``cpu_s`` sum each call's fastest repeat, and ``op_s_p50`` is
the median of those fastest repeats.
Each workload runs in a forked child of the process that did the imports, so
``peak_rss_mb`` is that workload's own peak, also under ``--workload all``.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
alternates untraced and traced passes for the same time and reports the
per-layer metrics (medians over traced passes; work counts are identical in
every pass). Spans of the first traced pass are written to
``.perfbench_work/<workload>/spans.jsonl``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

# pinned before numpy loads: one BLAS thread, so cpu_s shows any parallelism the program adds
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("gibbs_invariance", "continuity", "uniform_distance", "single_field")
SETUP_ROUNDS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_s_p50", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _run_op(cli, op) -> tuple[float, float, str | None]:
    """Run one CLI call; return (wall seconds, CPU seconds, failure or None)."""
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.cli_entry(op.argv)
    except Exception as exc:  # a leaked exception is a failed call, not a crash of the run
        return time.perf_counter() - t0, time.process_time() - c0, f"raised {exc!r}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if code != 0:
        return wall, cpu, f"exit code {code}: {err.getvalue().strip()}"
    try:
        return wall, cpu, op.check(out.getvalue(), op.out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return wall, cpu, f"unreadable output: {exc!r}"


class Run:
    """Counts every checked call of one workload run."""

    def __init__(self, cli, name: str):
        self.cli = cli
        self.name = name
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, op) -> tuple[float, float]:
        wall, cpu, failure = _run_op(self.cli, op)
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"{self.name}: {op.argv[0]}: {failure}")
        return wall, cpu

    def run_pass(self, ops, tracer=None) -> tuple[list[float], list[float]]:
        """Run every call once, in order; return each call's wall and CPU seconds."""
        walls, cpus = [], []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.call_id = i
            wall, cpu = self.call(op)
            walls.append(wall)
            cpus.append(cpu)
        return walls, cpus


def traced_pass(probe, tracer, body, capture: bool = False):
    """Run ``body()`` once with the tracer installed.

    Returns (wall, per-layer metrics of the pass). With ``capture`` set the
    probe keeps the flow's inputs and outputs and the metrics include
    ``flow_h_drift``.
    """
    from layers import pass_metrics

    tracer.reset()
    probe.reset()
    probe.capture = capture
    with tracer:
        t0 = time.perf_counter()
        body()
        wall = time.perf_counter() - t0
    metrics = pass_metrics(tracer.spans, tracer.counts, wall)
    if capture:
        metrics["flow_h_drift"] = probe.h_drift()
    return wall, metrics


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool, import_s: float):
    """One workload: set-up rounds, then the timed or traced phase. Returns (run, metrics)."""
    from layers import PER_LAYER, LayerProbe, median_metrics, src_lines
    from workloads import SETUPS

    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    run = Run(cli, name)
    rounds = []
    for r in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        round_dir = work / f"setup{r}"
        round_dir.mkdir(parents=True)
        warmup, ops = SETUPS[name](seed, round_dir)
        run.call(warmup)
        rounds.append(time.perf_counter() - t0)
    metrics = {"setup_s": (import_s + statistics.median(rounds), "s")}

    deadline = time.perf_counter() + seconds
    if not trace:
        passes = []
        while True:
            passes.append(run.run_pass(ops))
            if time.perf_counter() >= deadline:
                break
        # each call at its fastest repeat: other tenants of the host only ever add time, and
        # they slow it by up to 1.6x for seconds at a time (see README, Steadiness)
        best_wall = [min(times) for times in zip(*(walls for walls, _ in passes))]
        best_cpu = [min(times) for times in zip(*(cpus for _, cpus in passes))]
        metrics["wall_s"] = (sum(best_wall), "s")
        metrics["op_s_p50"] = (statistics.median(best_wall), "s")
        metrics["cpu_s"] = (sum(best_cpu), "s")
        # run_workload runs in a child of its own (run_in_child): this peak is the workload's
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["calls"] = (len(passes) * len(ops), "count")
    else:
        probe = LayerProbe()
        tracer = probe.tracer()
        untraced, traced, per_pass = [], [], []
        while True:
            untraced.append(sum(run.run_pass(ops)[0]))
            first = not per_pass
            wall, values = traced_pass(probe, tracer, lambda: run.run_pass(ops, tracer), first)
            traced.append(wall)
            if first:
                h_drift = values.pop("flow_h_drift")
                tracer.dump(work / "spans.jsonl")
            per_pass.append(values)
            if time.perf_counter() >= deadline:
                break
        values = median_metrics(per_pass)
        values["flow_h_drift"] = h_drift
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        values["src.lines"] = src_lines(SRC)
        for key, unit, _ in PER_LAYER:
            metrics[key] = (values[key], unit)
    metrics["failed_frac"] = (len(run.failures) / run.attempted, "frac")
    return run, metrics


def run_in_child(cli, name: str, seed: int, seconds: float, trace: bool, import_s: float):
    """``run_workload`` in a forked child, so that its peak RSS is this workload's own.

    The child starts from the parent's state just after the imports and sends
    back (attempted, failures, metrics) as JSON through a pipe. Returns None if
    the child failed.
    """
    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            # the child must not outlive a parent that is killed: PR_SET_PDEATHSIG (Linux)
            ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)
            if os.getppid() != parent:
                raise SystemExit("parent exited during fork")
            run, metrics = run_workload(cli, name, seed, seconds, trace, import_s)
            with os.fdopen(write_fd, "w") as pipe:
                json.dump([run.attempted, run.failures, metrics], pipe)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        return None
    attempted, failures, metrics = json.loads(payload)
    return attempted, failures, {key: tuple(pair) for key, pair in metrics.items()}


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kdvlab" / "__init__.py").is_file():
        print(f"kdvlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import kdvlab.cli as cli

    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"kdvlab was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    print("environment " + json.dumps(environment(), sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.trace:
        from layers import PER_LAYER

        reported = {key for key, _, _ in PER_LAYER}
    else:
        reported = {key for key, _ in END_TO_END}
    attempted, failures, result = 0, [], {}
    for name in names:
        outcome = run_in_child(cli, name, args.seed, args.seconds, bool(args.trace), import_s)
        if outcome is None:
            print(f"{name}: the workload's process failed", file=sys.stderr)
            return 1
        attempted += outcome[0]
        failures += outcome[1]
        metrics = outcome[2]
        for key, (value, unit) in metrics.items():
            print(f"{name:<17} {key:<40} {value:.6g} {unit}")
            if key not in reported:
                continue
            result[key if len(names) == 1 else f"{name}.{key}"] = {"value": value, "unit": unit}
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": result,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
