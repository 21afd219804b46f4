"""Scenario runners: single simulations, parameter sweeps and the stock
figure-reproduction experiments.

Received powers come from the receiver response of their scene: one
adjoint march per sweep or optimizer run, then one dot product per
excitation.  Heatmaps, final slices and the noise calibration march the
field forward.  Everything here is deterministic, and every output file
starts with the config hash and a one-line parameter echo.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .beamformer import airy_rhs, airy_ula, focused_rhs
from .config import ScenarioConfig, config_hash
from .optimizer import OptimizationResult, geometric_estimate, optimize_trajectory, pick_circumvention_point
from .propagation import (
    GridSpec,
    ReceiverModel,
    Scene,
    achievable_rate,
    propagate,
    received_power,
    receiver_response,
    response_power,
)
from .rhs import DegenerateExcitationError, RhsConfig
from .trajectory import (
    InfeasibleOffsetError,
    ObstaclePoint,
    Trajectory,
    caustic_reach,
    feasible_offset,
    solve_ab_from_c,
)

# The default noise floor is tied to the scenario itself: the power a focused
# beam delivers over 1 m of free space, divided by a reference SNR of 20 dB.
CALIBRATION_DISTANCE = 1.0
CALIBRATION_SNR = 100.0

_HEATMAP_FLOOR_DB = -60.0


@dataclass(frozen=True)
class Bench:
    """A fully wired scenario: models resolved, receiver noise calibrated."""

    config: ScenarioConfig
    rhs: RhsConfig
    scene: Scene
    grid: GridSpec
    receiver: ReceiverModel

    @property
    def user(self) -> tuple[float, float]:
        return (self.scene.receiver_x, self.scene.receiver_z)

    def power(self, exc, scene: Scene | None = None) -> float:
        return float(self.batch_powers([exc], scene)[0])

    def batch_powers(self, excitations, scene: Scene | None = None) -> np.ndarray:
        """Received power of each excitation, all read from one receiver
        response (no march at all for an empty list)."""
        if not excitations:
            return np.zeros(0)
        scene = scene if scene is not None else self.scene
        response = receiver_response(
            scene, self.grid, self.rhs.wavenumber,
            absorber_fraction=self.config.propagation.absorber_fraction,
        )
        return np.array([response_power(response, exc, self.receiver) for exc in excitations])

    def optimize(self, scene: Scene | None = None, rhs: RhsConfig | None = None) -> OptimizationResult:
        """``optimize_trajectory`` with the configured optimizer settings.  An
        explicit ``rhs`` steps c by its own element spacing."""
        cfg = self.config
        return optimize_trajectory(
            scene if scene is not None else self.scene,
            rhs if rhs is not None else self.rhs,
            self.grid, self.receiver,
            delta_c=rhs.element_spacing if rhs is not None else cfg.delta_c(),
            waist=cfg.optimizer_waist(),
            grid_step=cfg.grid_step(),
            min_active=cfg.optimizer.min_active,
            clearance=cfg.optimizer.clearance,
            absorber_fraction=cfg.propagation.absorber_fraction,
        )

    def field_map(self, exc, scene: Scene | None = None) -> np.ndarray:
        """|E|^2 on every propagation plane; row 0 is the aperture plane."""
        scene = scene if scene is not None else self.scene
        slices = propagate(
            exc, scene, self.grid, self.rhs.wavenumber, keep_slices=True,
            absorber_fraction=self.config.propagation.absorber_fraction,
        )
        return np.stack([np.abs(sl.values) ** 2 for sl in slices])


def calibrate_noise(config: ScenarioConfig) -> float:
    """Noise power such that a beam focused 1 m into free space sees an SNR
    of exactly CALIBRATION_SNR at its focus."""
    rhs = config.rhs_model()
    grid = config.grid_model()
    focus = (rhs.aperture_length / 2.0, CALIBRATION_DISTANCE)
    free = Scene(
        receiver_x=focus[0], receiver_z=focus[1], obstacles=(),
        plane_spacing=config.propagation.plane_spacing,
    )
    probe = ReceiverModel(
        effective_aperture=config.receiver_model(noise_power=1.0).effective_aperture,
        noise_power=1.0,
        impedance=config.receiver.impedance,
    )
    final = propagate(
        focused_rhs(rhs, focus), free, grid, rhs.wavenumber,
        absorber_fraction=config.propagation.absorber_fraction,
    )
    return received_power(final, probe, focus[0]) / CALIBRATION_SNR


def build_bench(config: ScenarioConfig) -> Bench:
    noise = config.receiver.noise_power
    if noise is None:
        noise = calibrate_noise(config)
    return Bench(
        config=config,
        rhs=config.rhs_model(),
        scene=config.scene_model(),
        grid=config.grid_model(),
        receiver=config.receiver_model(noise_power=noise),
    )


# ---------------------------------------------------------------------------
# offset sweep (the received-power-versus-c comparison)

@dataclass(frozen=True)
class OffsetRow:
    c: float
    a: float
    b: float
    z_max: float
    feasible: bool  # synthesizable and inside the curvature-sign offset bound
    reach_ok: bool  # caustic ends at or before the receiver plane
    p_rhs: float  # nan where the holographic beam is not synthesizable
    p_ula: float  # nan where the fixed aperture cannot follow the profile


def sweep_offsets(
    bench: Bench,
    c_lo: float | None = None,
    c_hi: float | None = None,
    step: float | None = None,
    anchor: ObstaclePoint | None = None,
    include_rhs: bool = True,
    include_ula: bool = True,
) -> list[OffsetRow]:
    """Anchored-trajectory offset sweep of the holographic beam against the
    uniform fixed-aperture baseline.  Default window: a quarter aperture
    beyond each edge."""
    rhs = bench.rhs
    l = rhs.aperture_length
    if c_lo is None:
        c_lo = -l / 4.0
    if c_hi is None:
        c_hi = l + l / 4.0
    if step is None:
        step = bench.config.grid_step()
    if c_hi < c_lo or step <= 0.0:
        raise ValueError("empty offset range")
    if anchor is None:
        anchor = pick_circumvention_point(bench.scene, rhs, bench.config.optimizer.clearance)
    ula_spacing = bench.config.ula_spacing()
    min_active = bench.config.optimizer.min_active

    entries = []
    for c in np.arange(c_lo, c_hi + step / 2.0, step):
        c = float(c)
        try:
            a, b = solve_ab_from_c(bench.user, anchor, c)
        except ValueError:
            continue
        traj = Trajectory(a=a, b=b, c=c)
        rhs_exc = None
        if include_rhs:
            try:
                rhs_exc = airy_rhs(rhs, traj, min_active)
            except (InfeasibleOffsetError, DegenerateExcitationError):
                rhs_exc = None
        ula_exc = None
        if include_ula:
            try:
                ula_exc = airy_ula(traj, rhs.wavenumber, l, ula_spacing, rhs.feed_power)
            except InfeasibleOffsetError:
                ula_exc = None
        report = feasible_offset(np.sign(a), c, l, rhs.element_spacing, min_active)
        entries.append((c, traj, rhs_exc, ula_exc, report.feasible))

    rhs_jobs = [e[2] for e in entries if e[2] is not None]
    ula_jobs = [e[3] for e in entries if e[3] is not None]
    powers = bench.batch_powers(rhs_jobs + ula_jobs)
    p_rhs = iter(powers[: len(rhs_jobs)])
    p_ula = iter(powers[len(rhs_jobs) :])
    rows = []
    for c, traj, rhs_exc, ula_exc, feasible in entries:
        try:
            z_max = caustic_reach(traj, l)
        except InfeasibleOffsetError:
            # the offset contradicts the bend direction, no beam forms
            z_max = float("nan")
        rows.append(
            OffsetRow(
                c=c,
                a=traj.a,
                b=traj.b,
                z_max=z_max,
                feasible=feasible,
                reach_ok=bool(z_max <= bench.scene.receiver_z),
                p_rhs=float(next(p_rhs)) if rhs_exc is not None else float("nan"),
                p_ula=float(next(p_ula)) if ula_exc is not None else float("nan"),
            )
        )
    if not rows:
        raise ValueError("no synthesizable offset in the requested range")
    return rows


def best_rhs_offset(rows: list[OffsetRow]) -> OffsetRow:
    """Strongest holographic beam over the launchable offsets."""
    candidates = [r for r in rows if r.feasible and np.isfinite(r.p_rhs)]
    if not candidates:
        raise InfeasibleOffsetError("no launchable offset in the sweep")
    return max(candidates, key=lambda r: r.p_rhs)

def ula_baseline(rows: list[OffsetRow]) -> OffsetRow | None:
    """Best fixed-aperture beam among offsets that actually form their
    caustic before the receiver plane.  Undistorted beams whose caustic
    begins beyond the receiver are excluded: they never bend around
    anything, they just graze the scene (their numbers still sit in the
    sweep rows for inspection)."""
    candidates = [r for r in rows if np.isfinite(r.p_ula) and r.reach_ok]
    if not candidates:
        return None
    return max(candidates, key=lambda r: r.p_ula)


# ---------------------------------------------------------------------------
# user-position sweep (rate and trajectory trends)

@dataclass(frozen=True)
class PositionRow:
    z_r: float
    c_est: float
    c_opt: float
    a: float
    b: float
    z_max: float
    d_r: float
    theta_r: float
    p_rhs: float
    rate_rhs: float
    evaluations: int
    c_coarse: float
    p_coarse: float
    rate_coarse: float
    c_ula: float
    p_ula: float
    rate_ula: float
    p_focused: float
    result: OptimizationResult


def _position_row(bench: Bench, z_r: float, coarse: RhsConfig) -> PositionRow:
    cfg = bench.config
    scene = Scene(
        receiver_x=bench.scene.receiver_x,
        receiver_z=z_r,
        obstacles=bench.scene.obstacles,
        plane_spacing=bench.scene.plane_spacing,
    )
    user = (scene.receiver_x, scene.receiver_z)
    res = bench.optimize(scene)
    res_coarse = bench.optimize(scene, coarse)
    anchor = pick_circumvention_point(scene, bench.rhs, cfg.optimizer.clearance)
    geom = geometric_estimate(
        user, anchor, res.c_opt, bench.rhs, cfg.optimizer_waist(), cfg.optimizer.min_active
    )

    # fixed-aperture baseline: its own best offset in the default window
    ula_rows = [
        r
        for r in sweep_offsets(replace(bench, scene=scene), anchor=anchor, include_rhs=False)
        if np.isfinite(r.p_ula)
    ]
    base = ula_baseline(ula_rows)
    p_ula = base.p_ula if base is not None else 0.0
    c_ula = base.c if base is not None else float("nan")

    p_focused = bench.power(focused_rhs(bench.rhs, user), scene)
    return PositionRow(
        z_r=z_r,
        c_est=res.estimate.c,
        c_opt=res.c_opt,
        a=res.trajectory.a,
        b=res.trajectory.b,
        z_max=geom.z_max,
        d_r=geom.d_r,
        theta_r=geom.theta_r,
        p_rhs=res.power,
        rate_rhs=achievable_rate(res.power, bench.receiver),
        evaluations=len(res.trace),
        c_coarse=res_coarse.c_opt,
        p_coarse=res_coarse.power,
        rate_coarse=achievable_rate(res_coarse.power, bench.receiver),
        c_ula=c_ula,
        p_ula=p_ula,
        rate_ula=achievable_rate(p_ula, bench.receiver),
        p_focused=p_focused,
        result=res,
    )


def sweep_positions(bench: Bench, positions: list[float] | None = None) -> list[PositionRow]:
    """Optimize the trajectory at several receiver depths and collect the
    rate/geometry trends, together with a half-density aperture and the
    fixed-aperture baseline."""
    if positions is None:
        positions = [float(z) for z in np.linspace(1.6, 2.3, 5)]
    if not positions:
        raise ValueError("empty position list")
    coarse = bench.config.rhs_model_with_spacing(2.0 * bench.rhs.element_spacing)
    return [_position_row(bench, z, coarse) for z in positions]


# ---------------------------------------------------------------------------
# output files

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.12g" % value
    return str(value)


def write_csv(path: Path, config: ScenarioConfig, columns: list[str], rows, note: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        f"# curvebeam {note}",
        f"# config-hash: {config_hash(config)}",
        f"# config: {json.dumps(config.to_dict(), sort_keys=True)}",
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_offset_sweep(path: Path, config: ScenarioConfig, rows: list[OffsetRow]) -> Path:
    """Offset sweep CSV, one column per OffsetRow field."""
    columns = [f.name for f in fields(OffsetRow)]
    return write_csv(path, config, columns, [astuple(r) for r in rows], "offset sweep")


def write_pgm(path: Path, intensity: np.ndarray, floor_db: float = _HEATMAP_FLOOR_DB) -> Path:
    """Grayscale heatmap of a |E|^2 map, normalized to its peak and displayed
    on a dB scale down to floor_db."""
    path.parent.mkdir(parents=True, exist_ok=True)
    peak = float(np.max(intensity))
    if peak <= 0.0:
        level = np.zeros_like(intensity)
    else:
        with np.errstate(divide="ignore"):
            db = 10.0 * np.log10(intensity / peak)
        level = np.clip(1.0 - db / floor_db, 0.0, 1.0)
    pixels = np.round(255.0 * level).astype(np.uint8)
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode()
    path.write_bytes(header + pixels.tobytes())
    return path


# ---------------------------------------------------------------------------
# single runs and sweeps behind the CLI

@dataclass(frozen=True)
class SingleReport:
    beam: str
    trajectory: Trajectory | None
    power: float
    rate: float
    files: tuple[Path, ...]


def _auto_trajectory(bench: Bench, beam: str) -> Trajectory:
    if beam == "airy_rhs":
        return bench.optimize().trajectory
    rows = sweep_offsets(bench)
    base = ula_baseline(rows)
    if base is None:
        raise InfeasibleOffsetError("no undistorted fixed-aperture offset in the sweep window")
    return Trajectory(a=base.a, b=base.b, c=base.c)


def run_single(
    config: ScenarioConfig,
    beam: str,
    out_dir: Path,
    trajectory: Trajectory | None = None,
) -> SingleReport:
    """Build one excitation, propagate it and write the final slice, the
    field heatmap and a one-row summary."""
    if beam not in ("airy_rhs", "airy_ula", "focused"):
        raise ValueError(f"unknown beam kind '{beam}'")
    bench = build_bench(config)
    if beam == "focused":
        traj = None
        exc = focused_rhs(bench.rhs, config.focused_target())
    else:
        traj = trajectory if trajectory is not None else _auto_trajectory(bench, beam)
        if beam == "airy_rhs":
            exc = airy_rhs(bench.rhs, traj, config.optimizer.min_active)
        else:
            exc = airy_ula(
                traj, bench.rhs.wavenumber, bench.rhs.aperture_length,
                config.ula_spacing(), bench.rhs.feed_power,
            )
    slices = propagate(
        exc, bench.scene, bench.grid, bench.rhs.wavenumber, keep_slices=True,
        absorber_fraction=config.propagation.absorber_fraction,
    )
    intensity = np.stack([np.abs(sl.values) ** 2 for sl in slices])
    final = intensity[-1]
    final_slice = slices[-1]
    z_final = final_slice.z
    power = received_power(final_slice, bench.receiver, bench.scene.receiver_x)
    rate = achievable_rate(power, bench.receiver)

    out_dir = Path(out_dir)
    x = bench.grid.x
    slice_rows = [
        (x[i], final_slice.values[i].real, final_slice.values[i].imag, final[i])
        for i in range(bench.grid.count)
    ]
    f_slice = write_csv(
        out_dir / f"{beam}_final_slice.csv", config,
        ["x", "re", "im", "intensity"], slice_rows, f"final slice z={_fmt(z_final)}",
    )
    f_map = write_pgm(out_dir / f"{beam}_heatmap.pgm", intensity)
    t = traj if traj is not None else Trajectory(a=float("nan"), b=float("nan"), c=float("nan"))
    f_summary = write_csv(
        out_dir / f"{beam}_summary.csv", config,
        ["beam", "a", "b", "c", "power", "rate"],
        [(beam, t.a, t.b, t.c, power, rate)],
        "single run summary",
    )
    return SingleReport(beam=beam, trajectory=traj, power=power, rate=rate,
                        files=(f_slice, f_map, f_summary))


def run_sweep(config: ScenarioConfig, kind: str, out_dir: Path,
              c_lo: float | None = None, c_hi: float | None = None,
              step: float | None = None, positions: list[float] | None = None) -> Path:
    """Parameter sweep to CSV.  kind is offset_c, user_z or spacing."""
    out_dir = Path(out_dir)
    bench = build_bench(config)
    if kind == "offset_c":
        rows = sweep_offsets(bench, c_lo, c_hi, step)
        return write_offset_sweep(out_dir / "sweep_offset_c.csv", config, rows)
    if kind == "user_z":
        rows = sweep_positions(bench, positions)
        return write_csv(
            out_dir / "sweep_user_z.csv", config,
            ["z_r", "c_est", "c_opt", "a", "b", "z_max", "d_r", "theta_r",
             "p_rhs", "rate_rhs", "c_coarse", "p_coarse", "rate_coarse",
             "c_ula", "p_ula", "rate_ula", "p_focused", "evaluations"],
            [(r.z_r, r.c_est, r.c_opt, r.a, r.b, r.z_max, r.d_r, r.theta_r,
              r.p_rhs, r.rate_rhs, r.c_coarse, r.p_coarse, r.rate_coarse,
              r.c_ula, r.p_ula, r.rate_ula, r.p_focused, r.evaluations) for r in rows],
            "user depth sweep",
        )
    if kind == "spacing":
        d = bench.rhs.element_spacing
        out_rows = []
        for spacing in (d, 2.0 * d):
            res = bench.optimize(rhs=config.rhs_model_with_spacing(spacing))
            out_rows.append(("airy_rhs", spacing, res.c_opt, res.power,
                             achievable_rate(res.power, bench.receiver)))
        base = ula_baseline(sweep_offsets(bench))
        if base is not None:
            out_rows.append(("airy_ula", config.ula_spacing(), base.c, base.p_ula,
                             achievable_rate(base.p_ula, bench.receiver)))
        return write_csv(
            out_dir / "sweep_spacing.csv", config,
            ["beam", "spacing", "c", "power", "rate"], out_rows, "spacing sweep",
        )
    raise ValueError(f"unknown sweep kind '{kind}'")


# ---------------------------------------------------------------------------
# stock experiments

def repro_fig3(config: ScenarioConfig, out_dir: Path) -> list[Path]:
    """Free-space synthesis comparison: the adjustable aperture forms a
    curved beam for an offset inside the aperture, the fixed aperture
    radiating over its full length distorts it."""
    bench = build_bench(config)
    anchor = pick_circumvention_point(bench.scene, bench.rhs, config.optimizer.clearance)
    free = Scene(
        receiver_x=bench.scene.receiver_x, receiver_z=bench.scene.receiver_z,
        obstacles=(), plane_spacing=bench.scene.plane_spacing,
    )
    l = bench.rhs.aperture_length
    step = config.grid_step()
    c = round((l / 2.0) / step) * step
    a, b = solve_ab_from_c(bench.user, anchor, c)
    traj = Trajectory(a=a, b=b, c=c)
    rhs_exc = airy_rhs(bench.rhs, traj, config.optimizer.min_active)
    ula_exc = airy_ula(
        traj, bench.rhs.wavenumber, l, config.ula_spacing(), bench.rhs.feed_power,
        allow_partial=True,
    )
    p_rhs, p_ula = bench.batch_powers([rhs_exc, ula_exc], free)
    out_dir = Path(out_dir)
    files = [
        write_pgm(out_dir / "fig3_rhs_curved.pgm", bench.field_map(rhs_exc, free)),
        write_pgm(out_dir / "fig3_ula_distorted.pgm", bench.field_map(ula_exc, free)),
        write_csv(
            out_dir / "fig3_summary.csv", config,
            ["beam", "a", "b", "c", "power"],
            [("airy_rhs", a, b, c, p_rhs), ("airy_ula_partial", a, b, c, p_ula)],
            "free-space synthesis comparison",
        ),
    ]
    return files


def repro_fig4(config: ScenarioConfig, out_dir: Path) -> list[Path]:
    """Received power against the launch offset for both architectures, plus
    heatmaps of each architecture's best beam."""
    bench = build_bench(config)
    rows = sweep_offsets(bench)
    best_rhs = best_rhs_offset(rows)
    base = ula_baseline(rows)
    finite_ula = [r for r in rows if np.isfinite(r.p_ula)]
    any_ula = max(finite_ula, key=lambda r: r.p_ula) if finite_ula else None

    out_dir = Path(out_dir)
    files = [write_offset_sweep(out_dir / "fig4_sweep.csv", config, rows)]
    summary = [("airy_rhs_best", best_rhs.c, best_rhs.p_rhs)]
    exc = airy_rhs(bench.rhs, Trajectory(a=best_rhs.a, b=best_rhs.b, c=best_rhs.c),
                   config.optimizer.min_active)
    files.append(write_pgm(out_dir / "fig4_best_rhs.pgm", bench.field_map(exc)))
    if base is not None:
        summary.append(("airy_ula_best", base.c, base.p_ula))
        exc = airy_ula(Trajectory(a=base.a, b=base.b, c=base.c), bench.rhs.wavenumber,
                       bench.rhs.aperture_length, config.ula_spacing(), bench.rhs.feed_power)
        files.append(write_pgm(out_dir / "fig4_best_ula.pgm", bench.field_map(exc)))
        summary.append(("margin_db", float("nan"), 10.0 * np.log10(best_rhs.p_rhs / base.p_ula)))
    if any_ula is not None:
        summary.append(("airy_ula_best_any_reach", any_ula.c, any_ula.p_ula))
    files.append(write_csv(out_dir / "fig4_summary.csv", config,
                           ["entry", "c", "value"], summary, "offset sweep summary"))
    return files


def repro_fig6(config: ScenarioConfig, out_dir: Path) -> list[Path]:
    """Blocked-user comparison: the optimized curved beam against a beam
    focused straight at the user, with the optimizer search trace."""
    bench = build_bench(config)
    res = bench.optimize()
    curved = airy_rhs(bench.rhs, res.trajectory, config.optimizer.min_active)
    focused = focused_rhs(bench.rhs, bench.user)
    p_curved = res.power
    p_focused = bench.power(focused)
    out_dir = Path(out_dir)
    files = [
        write_pgm(out_dir / "fig6_curved.pgm", bench.field_map(curved)),
        write_pgm(out_dir / "fig6_focused.pgm", bench.field_map(focused)),
        write_csv(
            out_dir / "fig6_trace.csv", config,
            ["phase", "c", "a", "b", "z_max", "d_r", "theta_r", "score", "power", "accepted"],
            [(p.phase, p.c, p.a, p.b, p.z_max, p.d_r, p.theta_r, p.score, p.power, p.accepted)
             for p in res.trace],
            "search trace",
        ),
        write_csv(
            out_dir / "fig6_summary.csv", config,
            ["beam", "c", "power", "margin_db"],
            [("curved", res.c_opt, p_curved, 10.0 * np.log10(p_curved / p_focused)),
             ("focused", float("nan"), p_focused, 0.0)],
            "blocked-user comparison",
        ),
    ]
    return files


def repro_fig7(config: ScenarioConfig, out_dir: Path) -> list[Path]:
    """Achievable rate against receiver depth for three element densities."""
    bench = build_bench(config)
    rows = sweep_positions(bench)
    return [
        write_csv(
            Path(out_dir) / "fig7_rates.csv", config,
            ["z_r", "rate_rhs", "rate_coarse", "rate_ula", "p_rhs", "p_coarse", "p_ula", "p_focused"],
            [(r.z_r, r.rate_rhs, r.rate_coarse, r.rate_ula,
              r.p_rhs, r.p_coarse, r.p_ula, r.p_focused) for r in rows],
            "rate versus receiver depth",
        )
    ]


def repro_fig8(config: ScenarioConfig, out_dir: Path) -> list[Path]:
    """Optimized trajectory parameters against receiver depth."""
    bench = build_bench(config)
    rows = sweep_positions(bench)
    return [
        write_csv(
            Path(out_dir) / "fig8_trajectory.csv", config,
            ["z_r", "c_est", "c_opt", "a", "b", "z_max", "d_r", "theta_r", "p_rhs"],
            [(r.z_r, r.c_est, r.c_opt, r.a, r.b, r.z_max, r.d_r, r.theta_r, r.p_rhs)
             for r in rows],
            "trajectory parameters versus receiver depth",
        )
    ]


REPRO = {
    "fig3": repro_fig3,
    "fig4": repro_fig4,
    "fig6": repro_fig6,
    "fig7": repro_fig7,
    "fig8": repro_fig8,
}
