"""curvebeam benchmark: one command, three workloads, every metric by name.

    python3 benchmarks/run.py --workload offset_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  It imports the package from ``src/`` of the
same checkout (nothing is installed) and prints a report followed, on the
last line, by one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` they are the per-layer ones from a traced run, and the
report adds a self-time table and the tracing overhead.  ``--smoke`` runs
one round of each workload on the 64-element test scene, for the
benchmark's own test.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import os

# One thread, as the closed-loop workloads are defined; must precede numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"


def import_program():
    """Import curvebeam from this checkout's sources, never from elsewhere."""
    if not (SRC / "curvebeam" / "__init__.py").is_file():
        raise SystemExit(f"error: curvebeam sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import curvebeam

    if Path(curvebeam.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported curvebeam from {curvebeam.__file__}, not {SRC}")
    return curvebeam


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_setup(workload) -> float:
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def check(workload, inp, op) -> str | None:
    """The workload's oracle; an exception inside it fails the op too."""
    try:
        return workload.check(inp, op)
    except Exception as err:  # counted in error_rate, never hidden
        return f"check raised {type(err).__name__}: {err}"


class Loop:
    """Closed-loop runner: runs rounds, times each op, runs the oracle on
    each op outside the timed region, and keeps the counts.  The set-up is
    timed again after every op, so its samples spread over the run like the
    rounds' do."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.round_s: list[float] = []
        self.round_rates: list[float] = []
        self.setup_s: list[float] = []
        self.op_s: dict[str, list[float]] = {}
        self.powers = 0
        self.attempted = 0
        self.failures: list[str] = []

    def round(self, index: int, inp) -> None:
        w, t = self.workload, self.tracer
        start = time.perf_counter()
        if t is None:
            ops = w.run(inp)
        else:
            t.run_id, t.active = index, True
            try:
                ops = t.call("bench.round", w.run, inp)
            finally:
                t.active = False
        self.round_s.append(time.perf_counter() - start)
        self.round_rates.append(sum(op.powers for op in ops) / self.round_s[-1])
        for op in ops:
            self.attempted += 1
            self.op_s.setdefault(op.kind, []).append(op.seconds)
            self.powers += op.powers
            problem = op.error if op.error is not None else check(w, inp, op)
            if problem is not None:
                self.failures.append(f"round {index} {op.kind}: {problem}")
            self.setup_s.append(timed_setup(w))

    @property
    def timed_s(self) -> float:
        return sum(self.round_s)


def run_budget(loop: Loop, inputs, seconds: float, rounds: int | None) -> list:
    """Run exactly ``rounds`` rounds, or else at least one and then more
    while the next, at the mean round time, would end mostly inside
    ``seconds`` of timed work."""
    done = []

    def more() -> bool:
        if rounds is not None:
            return len(done) < rounds
        return loop.timed_s + 0.5 * loop.timed_s / len(done) < seconds

    while not done or more():
        inp = next(inputs)
        loop.round(len(done), inp)
        done.append(inp)
    return done


def median_line(name: str, values: list[float], unit: str) -> str:
    return f"{name:<34} {statistics.median(values):>14.6g} {unit:<6} (median of {len(values)})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round on the 64-element test scene")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    package = import_program()
    import numpy
    import scipy

    import spans
    import workloads

    import_s = time.perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    work_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](
        scenario="tiny" if args.smoke else "default", work_dir=work_dir
    )
    first_setup_s = timed_setup(workload)

    rng = random.Random(args.seed)
    inputs = workload.inputs(rng)
    rounds = 1 if args.smoke else None
    print(f"# curvebeam benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} smoke={int(args.smoke)}")
    record = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "curvebeam": package.__version__,
        "commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "scenario": workload.scenario,
        "import_s": round(import_s, 6),
    }
    print("run-record " + json.dumps(record, sort_keys=True))

    try:
        if args.trace == 0:
            loop = Loop(workload)
            run_budget(loop, inputs, args.seconds, rounds)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setup_s = [first_setup_s] + loop.setup_s
            metrics = {
                "setup_s": (statistics.median(setup_s), "s"),
                "wall_s": (statistics.median(loop.round_s), "s"),
                "powers_per_s": (statistics.median(loop.round_rates), "1/s"),
                "peak_rss_mb": (peak_mb, "MB"),
            }
            print(median_line("setup_s", setup_s, "s"))
            print(median_line("wall_s (per round)", loop.round_s, "s"))
            for kind, values in loop.op_s.items():
                print(median_line(f"{kind}_s.p50", values, "s"))
            print(median_line("powers_per_s (per round)", loop.round_rates, "1/s")
                  + f", {loop.powers} powers in {loop.timed_s:.3f} s")
            print(f"{'peak_rss_mb':<34} {peak_mb:>14.6g} MB")
        else:
            # untraced first, then the same rounds traced: the difference is
            # the tracing overhead
            plain = Loop(workload)
            done = run_budget(plain, inputs, args.seconds / 2.0, rounds)
            tracer = spans.Tracer()
            tracer.install(package)
            try:
                traced = Loop(workload, tracer)
                run_budget(traced, iter(done), 0.0, len(done))
            finally:
                tracer.uninstall()
            loop = traced
            overhead = 100.0 * (traced.timed_s / plain.timed_s - 1.0)
            layer = spans.layer_metrics(tracer.spans)
            layer["tracing.overhead_pct"] = (overhead, "%", len(done))
            layer["bench.rounds"] = (float(len(done)), "count", len(done))
            metrics = {name: (v, unit) for name, (v, unit, _) in layer.items()}
            loop.attempted += plain.attempted
            loop.failures = plain.failures + loop.failures
            print(f"self time, {len(done)} traced rounds, {traced.timed_s:.3f} s:")
            for line in spans.self_time_table(tracer.spans):
                print("  " + line)
            steps = layer["propagation.plane_steps"][0]
            print(f"fft_count = 2 x plane_steps = 2 x {steps:.0f} = {2 * steps:.0f}")
            print(f"tracing overhead: untraced {plain.timed_s:.4f} s, traced {traced.timed_s:.4f} s "
                  f"over the same {len(done)} rounds: {overhead:+.2f} %")
            for name, (v, unit, n) in layer.items():
                print(f"{name:<34} {v:>14.6g} {unit:<6} (samples {n})")
            tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    error_rate = len(loop.failures) / loop.attempted
    print(f"{'error_rate':<34} {error_rate:>14.6g} ratio  ({len(loop.failures)} of {loop.attempted} ops)")
    for failure in loop.failures:
        print(f"FAILED {failure}")
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
