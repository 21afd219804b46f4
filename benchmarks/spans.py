"""Span tracing for the benchmark, done from outside the program.

The tracer replaces public curvebeam functions at every module binding that
refers to them (``curvebeam.optimizer.propagate``,
``curvebeam.experiments.propagate_batch``, ...), so a call made from inside
another traced call becomes its child span.  Spans are kept in memory and
written out once, at the end of the run.  Nothing in ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

# Public functions traced, as "module.function" of the defining module.
TRACED = (
    "propagation.propagate",
    "propagation.propagate_batch",
    "propagation.excitation_to_slice",
    "propagation.received_power",
    "optimizer.optimize_trajectory",
    "optimizer.estimate_offset",
    "beamformer.airy_rhs",
    "beamformer.airy_ula",
    "beamformer.focused_rhs",
    "rhs.radiate_equivalent",
    "trajectory.solve_ab_from_c",
    "trajectory.feasible_offset",
    "experiments.build_bench",
    "experiments.calibrate_noise",
    "experiments.sweep_offsets",
    "experiments.run_single",
    "experiments.write_csv",
    "experiments.write_pgm",
    "config.load_config",
    "cli.main",
)
MODULES = ("propagation", "optimizer", "beamformer", "rhs", "trajectory", "experiments", "config", "cli")
SYNTHESIS = ("beamformer.airy_rhs", "beamformer.airy_ula", "beamformer.focused_rhs")
REJECTIONS = ("InfeasibleOffsetError", "DegenerateExcitationError")

# Bytes one plane step moves per complex128 row of N samples, counted from
# the array operations of the march (read + write of each whole-array pass):
# fft 32N, multiply by the transfer function 48N, inverse fft 32N, each
# obstacle mask or absorber taper multiply 40N (16N field in, 8N real
# profile in, 16N out), and a 32N copy per plane when slices are kept.
_STEP_BYTES = 112
_PROFILE_BYTES = 40
_KEEP_BYTES = 32


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    run_id: int
    start: float
    end: float = 0.0
    error: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while ``active``; ``run_id`` tags every span with the
    benchmark round that caused it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._masked_planes: dict = {}

    # -- span recording ---------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(
            sid=len(self.spans),
            name=name,
            parent=self._stack[-1] if self._stack else None,
            run_id=self.run_id,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (used for the benchmark's
        own round boundary)."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        probe = _PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                self._close(span)
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = probe(self, bound.arguments, result)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced function at each module binding that holds it."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        for name in TRACED:
            home, attr = name.split(".")
            original = getattr(modules[home], attr)
            wrapper = self._wrap(name, original)
            for module in modules.values():
                if vars(module).get(attr) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def masked_planes(self, scene) -> int:
        """Planes of a march that apply an obstacle mask (cached per scene)."""
        if scene not in self._masked_planes:
            self._masked_planes[scene] = sum(
                1
                for step in range(1, scene.plane_count + 1)
                if any(o.occupies_depth(step * scene.plane_spacing) for o in scene.obstacles)
            )
        return self._masked_planes[scene]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _march_info(tracer: Tracer, a: dict, rows: int, keep: bool) -> dict:
    scene, grid = a["scene"], a["grid"]
    planes = scene.plane_count
    per_row = (
        planes * (_STEP_BYTES + (_KEEP_BYTES if keep else 0))
        + tracer.masked_planes(scene) * _PROFILE_BYTES
        + (planes * _PROFILE_BYTES if a["absorber_fraction"] else 0)
    )
    return {
        "rows": rows,
        "plane_steps": rows * planes,
        "bytes": rows * per_row * grid.count,
    }


def _bytes_of(tracer, a, path) -> dict:
    return {"bytes": Path(path).stat().st_size}


_PROBES = {
    "propagation.propagate": lambda t, a, r: _march_info(t, a, 1, bool(a["keep_slices"])),
    "propagation.propagate_batch": lambda t, a, r: _march_info(t, a, len(a["excitations"]), False),
    "optimizer.optimize_trajectory": lambda t, a, r: {
        "evaluations": len(r.trace),
        "accepted": sum(1 for p in r.trace if p.accepted),
    },
    "experiments.write_csv": _bytes_of,
    "experiments.write_pgm": _bytes_of,
}


# -- per-layer metrics ------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover (calls are
    single-threaded, so children never overlap)."""
    child = {s.sid: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    return {s.sid: s.seconds - child[s.sid] for s in spans}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics as name -> (value, unit, samples)."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def group(name):
        return by_name.get(name, [])

    def secs(name):
        g = group(name)
        return (_median([s.seconds for s in g]), "s", len(g))

    def calls(name):
        n = len(group(name))
        return (float(n), "count", n)

    def total(name, key):
        return sum(s.info.get(key, 0) for s in group(name))

    marches = group("propagation.propagate") + group("propagation.propagate_batch")
    plane_steps = sum(s.info["plane_steps"] for s in marches)
    powers = len(group("propagation.received_power"))
    evaluations = total("optimizer.optimize_trajectory", "evaluations")
    accepted = total("optimizer.optimize_trajectory", "accepted")
    synth = [s for n in SYNTHESIS for s in group(n)]
    rejected = sum(1 for s in synth if s.error in REJECTIONS)
    written = group("experiments.write_csv") + group("experiments.write_pgm")

    m = {
        "propagation.propagate.s": secs("propagation.propagate"),
        "propagation.propagate.calls": calls("propagation.propagate"),
        "propagation.propagate_batch.s": secs("propagation.propagate_batch"),
        "propagation.propagate_batch.rows": (
            float(total("propagation.propagate_batch", "rows")), "count",
            len(group("propagation.propagate_batch")),
        ),
        "propagation.excitation_to_slice.s": secs("propagation.excitation_to_slice"),
        "propagation.received_power.s": secs("propagation.received_power"),
        "propagation.plane_steps": (float(plane_steps), "count", len(marches)),
        "propagation.fft_count": (float(2 * plane_steps), "count", len(marches)),
        "propagation.plane_steps_per_power": (
            plane_steps / powers if powers else 0.0, "count", powers,
        ),
        "propagation.computed_mb": (
            sum(s.info["bytes"] for s in marches) / 1e6, "MB", len(marches),
        ),
        "optimizer.optimize_trajectory.s": secs("optimizer.optimize_trajectory"),
        "optimizer.estimate_offset.s": secs("optimizer.estimate_offset"),
        "optimizer.evaluations": (
            float(evaluations), "count", len(group("optimizer.optimize_trajectory")),
        ),
        "optimizer.accept_ratio": (
            accepted / evaluations if evaluations else 0.0, "ratio", evaluations,
        ),
        "beamformer.airy_rhs.s": secs("beamformer.airy_rhs"),
        "beamformer.airy_rhs.calls": calls("beamformer.airy_rhs"),
        "beamformer.airy_ula.s": secs("beamformer.airy_ula"),
        "beamformer.airy_ula.calls": calls("beamformer.airy_ula"),
        "beamformer.focused_rhs.s": secs("beamformer.focused_rhs"),
        "beamformer.focused_rhs.calls": calls("beamformer.focused_rhs"),
        "beamformer.rejected_ratio": (
            rejected / len(synth) if synth else 0.0, "ratio", len(synth),
        ),
        "rhs.radiate_equivalent.s": secs("rhs.radiate_equivalent"),
        "trajectory.solve_ab_from_c.calls": calls("trajectory.solve_ab_from_c"),
        "trajectory.feasible_offset.calls": calls("trajectory.feasible_offset"),
        "experiments.calibrate_noise.s": secs("experiments.calibrate_noise"),
        "experiments.sweep_offsets.s": secs("experiments.sweep_offsets"),
        "experiments.run_single.s": secs("experiments.run_single"),
        "experiments.write_csv.s": secs("experiments.write_csv"),
        "experiments.write_pgm.s": secs("experiments.write_pgm"),
        "experiments.bytes_written": (
            float(sum(s.info["bytes"] for s in written)), "bytes", len(written),
        ),
        "config.load_config.s": secs("config.load_config"),
        "cli.main.s": secs("cli.main"),
    }
    return m


def self_time_table(spans: list[Span]) -> list[str]:
    """Rows of calls, inclusive and self seconds per span name, largest
    self time first; the share is of the summed self time."""
    own = self_times(spans)
    rows: dict[str, list[float]] = {}
    for s in spans:
        r = rows.setdefault(s.name, [0, 0.0, 0.0])
        r[0] += 1
        r[1] += s.seconds
        r[2] += own[s.sid]
    whole = sum(r[2] for r in rows.values()) or 1.0
    lines = [f"{'span':<36}{'calls':>8}{'total_s':>11}{'self_s':>11}{'self_%':>8}"]
    for name, (n, tot, slf) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:<36}{n:>8d}{tot:>11.4f}{slf:>11.4f}{100.0 * slf / whole:>8.1f}")
    return lines
