"""The three benchmark workloads, their seeded inputs and their oracles.

Every workload is a closed loop in one thread: a round starts when the
previous one has returned.  ``inputs`` draws round inputs from the seed
only; ``run`` is the timed part and returns one ``Op`` per public call whose
latency a user sees; ``check`` re-derives each op's result by an independent
route, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import curvebeam
from curvebeam import beamformer, cli, config, experiments, optimizer, propagation
from curvebeam.rhs import DegenerateExcitationError
from curvebeam.trajectory import InfeasibleOffsetError, Trajectory

# The scene of tests/test_experiments.py, copied so the benchmark does not
# depend on the test tree: 64 elements on a coarse 0.2 mm grid.
TINY = {
    "rhs": {"element_count": 64},
    "scene": {
        "user": [-0.04, 0.4],
        "obstacles": [
            {"x_start": -0.05, "z_start": 0.15, "x_size": 0.08, "z_size": 0.05}
        ],
    },
    "propagation": {"max_dx": 0.0002},
}

# Receiver depths drawn by depth_optimize, behind the obstacle of each scene.
DEPTHS = {"default": (1.6, 2.4), "tiny": (0.3, 0.5)}
DEPTH_CELLS = 5

# offset_sweep marches every 15th offset of the optimizer grid: 20 rows of
# the default window (a quarter aperture beyond each edge), 300 grid steps.
SWEEP_STRIDE = 15
SWEEP_ROWS = 20

REL_TOL = 1e-9
REJECTED = (InfeasibleOffsetError, DegenerateExcitationError)


@dataclass
class Op:
    """One timed call: its kind, latency, the received powers it delivered,
    what the oracle needs, and the error it raised, if any."""

    kind: str
    seconds: float
    powers: int = 0
    payload: object = None
    error: str | None = None


def timed(kind: str, fn, *args, **kwargs) -> Op:
    """Time one public call; a raised exception becomes a failed op so the
    loop keeps running and the failure is counted."""
    start = time.perf_counter()
    try:
        payload = fn(*args, **kwargs)
    except Exception as err:  # counted in error_rate, never hidden
        return Op(kind, time.perf_counter() - start, error=f"{type(err).__name__}: {err}")
    return Op(kind, time.perf_counter() - start, payload=payload)


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)


class Workload:
    """Base: ``scenario`` is "default" or "tiny"; ``setup`` builds the
    bench, the part a user pays before the first result."""

    def __init__(self, scenario: str, work_dir: Path):
        self.scenario = scenario
        self.work_dir = work_dir

    def load(self):
        if self.scenario == "tiny":
            return config.config_from_dict(TINY)
        return config.load_config(None)

    def setup(self) -> None:
        self.cfg = self.load()
        self.bench = experiments.build_bench(self.cfg)

    def march_power(self, exc, scene) -> float:
        """Independent oracle route: one plain forward march and readout."""
        b = self.bench
        final = propagation.propagate(
            exc, scene, b.grid, b.rhs.wavenumber,
            absorber_fraction=self.cfg.propagation.absorber_fraction,
        )
        return propagation.received_power(final, b.receiver, scene.receiver_x)


class OffsetSweep(Workload):
    """fig4's anchored offset sweep, holographic and ULA, sub-sampled."""

    def inputs(self, rng: random.Random):
        while True:
            # phase of the sub-sampled grid, then which rows the oracle re-marches
            yield (rng.random(), rng.random(), rng.random())

    def run(self, inp) -> list[Op]:
        phase = inp[0]
        step = SWEEP_STRIDE * self.cfg.grid_step()
        c_lo = -self.bench.rhs.aperture_length / 4.0 + phase * step
        op = timed(
            "sweep", experiments.sweep_offsets, self.bench,
            c_lo=c_lo, c_hi=c_lo + (SWEEP_ROWS - 1) * step, step=step,
        )
        if op.error is None:
            op.powers = sum(
                int(np.isfinite(r.p_rhs)) + int(np.isfinite(r.p_ula)) for r in op.payload
            )
        return [op]

    def check(self, inp, op: Op) -> str | None:
        b, rhs = self.bench, self.bench.rhs
        rows = op.payload
        if len(rows) != SWEEP_ROWS:
            return f"sweep returned {len(rows)} rows, expected {SWEEP_ROWS}"
        rhs_rows = [r for r in rows if np.isfinite(r.p_rhs)]
        ula_rows = [r for r in rows if np.isfinite(r.p_ula)]
        if not rhs_rows or not ula_rows:
            return "sweep has no finite holographic or ULA power"
        r = rhs_rows[int(inp[1] * len(rhs_rows))]
        exc = beamformer.airy_rhs(rhs, Trajectory(r.a, r.b, r.c), self.cfg.optimizer.min_active)
        if rel_err(self.march_power(exc, b.scene), r.p_rhs) > REL_TOL:
            return f"p_rhs at c={r.c!r} disagrees with a single march"
        r = ula_rows[int(inp[2] * len(ula_rows))]
        exc = beamformer.airy_ula(
            Trajectory(r.a, r.b, r.c), rhs.wavenumber, rhs.aperture_length,
            self.cfg.ula_spacing(), rhs.feed_power,
        )
        if rel_err(self.march_power(exc, b.scene), r.p_ula) > REL_TOL:
            return f"p_ula at c={r.c!r} disagrees with a single march"
        return None


class DepthOptimize(Workload):
    """fig7/fig8 without the ULA sweep.  A round is one position sweep over
    the depth lattice; each depth gets a new scene, the optimizer on the
    fine and on the half-density aperture, and the focused baseline."""

    def setup(self) -> None:
        super().setup()
        self.coarse = self.cfg.rhs_model_with_spacing(2.0 * self.bench.rhs.element_spacing)

    def inputs(self, rng: random.Random):
        # The seed orders the midpoints of DEPTH_CELLS equal cells.  The
        # evaluation count of a solve jumps between 3 and 12 from one depth
        # to the next, so freely drawn depths would move the round time by
        # about 20% between seeds; every round covers the whole lattice.
        lo, hi = DEPTHS[self.scenario]
        depths = [lo + (hi - lo) * (i + 0.5) / DEPTH_CELLS for i in range(DEPTH_CELLS)]
        while True:
            rng.shuffle(depths)
            yield list(depths)

    def scene_at(self, depth: float):
        s = self.bench.scene
        return propagation.Scene(
            receiver_x=s.receiver_x, receiver_z=depth,
            obstacles=s.obstacles, plane_spacing=s.plane_spacing,
        )

    def run(self, depths) -> list[Op]:
        b, cfg = self.bench, self.cfg
        kwargs = dict(
            waist=cfg.optimizer_waist(), grid_step=cfg.grid_step(),
            min_active=cfg.optimizer.min_active, clearance=cfg.optimizer.clearance,
            absorber_fraction=cfg.propagation.absorber_fraction,
        )
        ops = []
        for depth in depths:
            scene = self.scene_at(depth)
            for aperture in (b.rhs, self.coarse):
                op = timed(
                    "solve", optimizer.optimize_trajectory, scene, aperture, b.grid, b.receiver,
                    delta_c=aperture.element_spacing, **kwargs,
                )
                if op.error is None:
                    op.powers = len(op.payload.trace)
                    op.payload = (scene, aperture, op.payload)
                ops.append(op)
            op = timed("focused", self.focused_power, scene)
            if op.error is None:
                op.powers = 1
                op.payload = (scene, op.payload)
            ops.append(op)
        return ops

    def focused_power(self, scene) -> float:
        b = self.bench
        exc = beamformer.focused_rhs(b.rhs, (scene.receiver_x, scene.receiver_z))
        final = propagation.propagate(
            exc, scene, b.grid, b.rhs.wavenumber,
            absorber_fraction=self.cfg.propagation.absorber_fraction,
        )
        return propagation.received_power(final, b.receiver, scene.receiver_x)

    def check(self, depths, op: Op) -> str | None:
        cfg = self.cfg
        if op.kind == "focused":
            _, power = op.payload
            if not (math.isfinite(power) and power >= 0.0):
                return f"focused power {power!r} is not finite and nonnegative"
            return None
        scene, aperture, res = op.payload
        min_active = cfg.optimizer.min_active
        exc = beamformer.airy_rhs(aperture, res.trajectory, min_active)
        if rel_err(self.march_power(exc, scene), res.power) > REL_TOL:
            return f"power at c_opt={res.c_opt!r} disagrees with a forward march"
        user = (scene.receiver_x, scene.receiver_z)
        anchor = optimizer.pick_circumvention_point(scene, aperture, cfg.optimizer.clearance)
        for c in (res.c_opt - aperture.element_spacing, res.c_opt + aperture.element_spacing):
            try:
                a, b = curvebeam.solve_ab_from_c(user, anchor, c)
                report = curvebeam.feasible_offset(
                    np.sign(a), c, aperture.aperture_length, aperture.element_spacing, min_active
                )
                if not report.feasible:
                    continue
                neighbour = beamformer.airy_rhs(aperture, Trajectory(a, b, c), min_active)
            except REJECTED:
                continue
            if self.march_power(neighbour, scene) > res.power * (1.0 + REL_TOL):
                return f"neighbour c={c!r} beats c_opt={res.c_opt!r}"
        return None


class FieldMap(Workload):
    """``curvebeam run`` in-process for seeded beams: every run keeps all
    planes, reads the whole field and writes CSV, PGM and summary."""

    def setup(self) -> None:
        super().setup()
        b = self.bench
        self.anchor = optimizer.pick_circumvention_point(
            b.scene, b.rhs, self.cfg.optimizer.clearance
        )
        self.overrides = [
            f"--set={section}.{key}={json.dumps(value)}"
            for section, block in (TINY.items() if self.scenario == "tiny" else ())
            for key, value in block.items()
        ]

    def _trajectory(self, rng, beam: str) -> Trajectory:
        """Seeded launch offset that the beam kind can synthesize."""
        b = self.bench
        length = b.rhs.aperture_length
        while True:
            if beam == "airy_rhs":
                c = length * (0.1 + 0.8 * rng.random())
            else:
                u = rng.random()
                c = -length / 4.0 * u if u < 0.5 else length * (1.0 + (u - 0.5) / 2.0)
            try:
                a, bb = curvebeam.solve_ab_from_c(b.user, self.anchor, c)
                traj = Trajectory(a, bb, c)
                if beam == "airy_rhs":
                    beamformer.airy_rhs(b.rhs, traj, self.cfg.optimizer.min_active)
                else:
                    beamformer.airy_ula(
                        traj, b.rhs.wavenumber, length, self.cfg.ula_spacing(), b.rhs.feed_power
                    )
                return traj
            except (ValueError, *REJECTED):
                continue

    def inputs(self, rng: random.Random):
        while True:
            yield [
                (beam, self._trajectory(rng, beam) if beam != "focused" else None)
                for beam in ("airy_rhs", "airy_ula", "focused")
            ]

    def run(self, beams) -> list[Op]:
        ops = []
        for beam, traj in beams:
            argv = ["run", "--beam", beam, "--out", str(self.work_dir), *self.overrides]
            if traj is not None:
                argv.append(f"--trajectory={traj.a!r},{traj.b!r},{traj.c!r}")
            # the CLI's report lines must not precede the benchmark's result line
            with contextlib.redirect_stdout(io.StringIO()):
                op = timed("map", cli.main, argv)
            if op.error is None:
                op.powers = 1
                op.payload = (beam, op.payload)
            ops.append(op)
        return ops

    def check(self, beams, op: Op) -> str | None:
        beam, status = op.payload
        if status != 0:
            return f"{beam}: exit code {status}"
        b = self.bench
        pixels = (self.work_dir / f"{beam}_heatmap.pgm").read_bytes()
        magic, size, depth, body = pixels.split(b"\n", 3)
        width, height = (int(v) for v in size.split())
        if (magic, depth) != (b"P5", b"255") or (width, height) != (
            b.grid.count, b.scene.plane_count + 1
        ) or len(body) != width * height:
            return f"{beam}: malformed PGM header {pixels[:32]!r}"
        summary = _csv_rows(self.work_dir / f"{beam}_summary.csv")
        power = float(summary[1][summary[0].index("power")])
        cols = np.array(_csv_rows(self.work_dir / f"{beam}_final_slice.csv")[1:], dtype=float)
        z = b.scene.plane_count * b.scene.plane_spacing
        sl = propagation.FieldSlice(z=z, grid=b.grid, values=cols[:, 1] + 1j * cols[:, 2])
        readout = propagation.received_power(sl, b.receiver, b.scene.receiver_x)
        if rel_err(readout, power) > REL_TOL:
            return f"{beam}: summary power {power!r} != final-slice readout {readout!r}"
        return None


def _csv_rows(path: Path) -> list[list[str]]:
    """Header and data rows of a curvebeam CSV (comment lines dropped)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines if not line.startswith("#")]


WORKLOADS = {
    "offset_sweep": OffsetSweep,
    "depth_optimize": DepthOptimize,
    "field_map": FieldMap,
}
