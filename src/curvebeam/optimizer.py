"""Trajectory search for a blocked receiver.

Given a scene whose direct paths from the aperture to the receiver are all
blocked, pick a point the beam must round, seed the launch offset c with a
cheap geometric power proxy, then refine c on a fixed grid by marching in
both directions while the simulated received power keeps improving.  Each
candidate c fixes the remaining parabola coefficients through the two
anchor points (receiver and circumvention point).  The scene is fixed
during a search, so every candidate is read from one receiver response
(see ``propagation``) instead of being marched on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .beamformer import airy_rhs
from .propagation import (
    FieldSlice,
    GridSpec,
    ReceiverModel,
    Scene,
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


@dataclass(frozen=True)
class GeometricEstimate:
    """Geometry and proxy score of one candidate offset.

    ``z_max``/``x_max`` locate the end of the caustic; ``d_r`` is the
    distance from there to the receiver and ``theta_r`` the angle between
    the caustic tangent and the direction to the receiver.  The score is
    the free-space power proxy of a Gaussian source of waist ``waist``
    launched from the caustic end along its tangent.
    """

    c: float
    a: float
    b: float
    z_max: float
    x_max: float
    d_r: float
    theta_r: float
    score: float

    @property
    def trajectory(self) -> Trajectory:
        return Trajectory(a=self.a, b=self.b, c=self.c)


@dataclass(frozen=True)
class SearchPoint:
    """One evaluated candidate in the offset search trace."""

    phase: str  # "seed", "down" or "up"
    c: float
    a: float
    b: float
    z_max: float
    d_r: float
    theta_r: float
    score: float
    power: float
    accepted: bool


@dataclass(frozen=True)
class OptimizationResult:
    c_opt: float
    trajectory: Trajectory
    power: float
    estimate: GeometricEstimate
    trace: tuple[SearchPoint, ...] = field(repr=False)


def _segment_hits_box(
    p: tuple[float, float],
    q: tuple[float, float],
    x_lo: float,
    x_hi: float,
    z_lo: float,
    z_hi: float,
) -> bool:
    """Slab test: does the segment p-q intersect the axis-aligned box?"""
    t0, t1 = 0.0, 1.0
    for lo, hi, start, delta in (
        (x_lo, x_hi, p[0], q[0] - p[0]),
        (z_lo, z_hi, p[1], q[1] - p[1]),
    ):
        if abs(delta) < 1e-15:
            if start < lo or start > hi:
                return False
            continue
        ta, tb = (lo - start) / delta, (hi - start) / delta
        if ta > tb:
            ta, tb = tb, ta
        t0, t1 = max(t0, ta), min(t1, tb)
        if t0 > t1:
            return False
    return True


def is_fully_blocked(scene: Scene, cfg: RhsConfig) -> bool:
    """True when every element's straight path to the receiver crosses an
    obstacle."""
    user = (scene.receiver_x, scene.receiver_z)
    for x in cfg.element_positions:
        if not any(
            _segment_hits_box(
                (float(x), 0.0), user, o.x_start, o.x_end, o.z_start, o.z_end
            )
            for o in scene.obstacles
        ):
            return False
    return True


def pick_circumvention_point(
    scene: Scene, cfg: RhsConfig, clearance: float = 0.01
) -> ObstaclePoint:
    """Corner of the blocking obstacle the curved beam should round.

    Requires the receiver to be fully shadowed.  The detour rays have to
    slip past the obstacle laterally, and they can only do that on a side
    where the aperture sticks out beyond the obstacle footprint, so the
    trajectory is anchored at the far (large-z) corner on the side with the
    larger aperture overhang, pushed outward by ``clearance``.  Ties break
    toward the receiver's side.
    """
    if not scene.obstacles:
        raise ValueError("scene has no obstacles")
    if not is_fully_blocked(scene, cfg):
        raise ValueError(
            "receiver is not fully shadowed; a curved detour is not needed"
        )
    mid = (0.5 * (cfg.element_positions[0] + cfg.element_positions[-1]), 0.0)
    user = (scene.receiver_x, scene.receiver_z)
    blocking = [
        o
        for o in scene.obstacles
        if _segment_hits_box(mid, user, o.x_start, o.x_end, o.z_start, o.z_end)
    ]
    obstacle = max(blocking or scene.obstacles, key=lambda o: o.z_end)
    aperture_lo = float(cfg.element_positions[0])
    aperture_hi = float(cfg.element_positions[-1])
    overhang_left = obstacle.x_start - aperture_lo
    overhang_right = aperture_hi - obstacle.x_end
    if abs(overhang_left - overhang_right) < 1e-12:
        go_left = abs(scene.receiver_x - obstacle.x_start) <= abs(
            scene.receiver_x - obstacle.x_end
        )
    else:
        go_left = overhang_left > overhang_right
    if go_left:
        return ObstaclePoint(x=obstacle.x_start - clearance, z=obstacle.z_end)
    return ObstaclePoint(x=obstacle.x_end + clearance, z=obstacle.z_end)


def geometric_estimate(
    user: tuple[float, float],
    anchor: ObstaclePoint,
    c: float,
    cfg: RhsConfig,
    waist: float | None = None,
    min_active: int = 8,
) -> GeometricEstimate:
    """Proxy received power for offset c without running the propagator.

    Past the caustic end the beam behaves like a Gaussian source of waist
    ``waist`` (default two wavelengths) launched along the final tangent,
    so the receiver sees free-space spreading over the distance ``d_r``
    discounted by the angular mismatch ``theta_r``.  Raises
    InfeasibleOffsetError when c cannot launch a beam or when the receiver
    sits before the caustic end.
    """
    lam = cfg.wavelength
    if waist is None:
        waist = 2.0 * lam
    a, b = solve_ab_from_c(user, anchor, c)
    report = feasible_offset(
        np.sign(a), c, cfg.aperture_length, cfg.element_spacing, min_active
    )
    if not report.feasible:
        raise InfeasibleOffsetError(f"offset c={c:g} is not launchable")
    traj = Trajectory(a=a, b=b, c=c)
    z_max = caustic_reach(traj, cfg.aperture_length)
    x_r, z_r = user
    if z_max >= z_r:
        raise InfeasibleOffsetError("receiver lies inside the caustic region")
    x_max = float(traj.position(z_max))
    dx, dz = x_r - x_max, z_r - z_max
    d_r = float(np.hypot(dx, dz))
    tangent = float(traj.slope(z_max))
    theta_r = float(np.arctan2(abs(dx - dz * tangent), dz + tangent * dx))
    score = (lam / (4.0 * np.pi * d_r)) ** 2 * np.exp(
        -2.0 * np.pi**2 * waist**2 * theta_r**2 / lam**2
    )
    return GeometricEstimate(
        c=c,
        a=a,
        b=b,
        z_max=z_max,
        x_max=x_max,
        d_r=d_r,
        theta_r=theta_r,
        score=float(score),
    )


def estimate_offset(
    user: tuple[float, float],
    anchor: ObstaclePoint,
    cfg: RhsConfig,
    waist: float | None = None,
    grid_step: float | None = None,
    min_active: int = 8,
) -> GeometricEstimate:
    """Best offset according to the geometric proxy, scanned on a dense grid
    over [0, aperture_length]."""
    if grid_step is None:
        grid_step = cfg.aperture_length / 200.0
    best: GeometricEstimate | None = None
    for c in np.arange(0.0, cfg.aperture_length + 0.5 * grid_step, grid_step):
        try:
            est = geometric_estimate(user, anchor, float(c), cfg, waist, min_active)
        except InfeasibleOffsetError:
            continue
        if best is None or est.score > best.score:
            best = est
    if best is None:
        raise InfeasibleOffsetError("no launchable offset on the scan grid")
    return best


def optimize_trajectory(
    scene: Scene,
    cfg: RhsConfig,
    grid: GridSpec,
    rx: ReceiverModel,
    anchor: ObstaclePoint | None = None,
    delta_c: float | None = None,
    waist: float | None = None,
    grid_step: float | None = None,
    min_active: int = 8,
    clearance: float = 0.01,
    power_fn=None,
    absorber_fraction: float | None = 0.1,
) -> OptimizationResult:
    """Search the launch offset for maximum simulated received power.

    Starting from the proxy estimate, march c in steps of ``delta_c``
    (default: the element spacing) downward and upward for as long as the
    received power does not drop, stopping at launch-constraint violations;
    the better of the two directional optima wins.  ``power_fn(c)`` may be
    injected for testing; the default builds the holographic excitation and
    reads its power from the receiver response, which the first evaluation
    computes with one adjoint march and the later ones reuse.
    """
    if anchor is None:
        anchor = pick_circumvention_point(scene, cfg, clearance)
    if delta_c is None:
        delta_c = cfg.element_spacing
    user = (scene.receiver_x, scene.receiver_z)
    response: FieldSlice | None = None

    def default_power(c: float) -> float:
        nonlocal response
        a, b = solve_ab_from_c(user, anchor, c)
        report = feasible_offset(
            np.sign(a), c, cfg.aperture_length, cfg.element_spacing, min_active
        )
        if not report.feasible:
            raise InfeasibleOffsetError(f"offset c={c:g} is not launchable")
        exc = airy_rhs(cfg, Trajectory(a=a, b=b, c=c), min_active)
        if response is None:
            response = receiver_response(scene, grid, cfg.wavenumber, absorber_fraction)
        return response_power(response, exc, rx)

    evaluate = power_fn if power_fn is not None else default_power
    trace: list[SearchPoint] = []

    def record(phase: str, c: float, power: float, accepted: bool) -> None:
        try:
            g = geometric_estimate(user, anchor, c, cfg, waist, min_active)
            geom = (g.a, g.b, g.z_max, g.d_r, g.theta_r, g.score)
        except InfeasibleOffsetError:
            nan = float("nan")
            try:
                a, b = solve_ab_from_c(user, anchor, c)
            except (InfeasibleOffsetError, ValueError):
                a = b = nan
            geom = (a, b, nan, nan, nan, nan)
        trace.append(SearchPoint(phase, c, *geom, power=power, accepted=accepted))

    seed = estimate_offset(user, anchor, cfg, waist, grid_step, min_active)
    try:
        p_seed = evaluate(seed.c)
    except (InfeasibleOffsetError, DegenerateExcitationError) as err:
        raise InfeasibleOffsetError(
            f"seed offset c={seed.c:g} cannot be evaluated: {err}"
        ) from err
    record("seed", seed.c, p_seed, accepted=True)

    def march(direction: float) -> tuple[float, float]:
        best_c, best_p = seed.c, p_seed
        c, p = best_c, best_p
        while p >= best_p:
            best_c, best_p = c, p
            c = c + direction * delta_c
            try:
                p = evaluate(c)
            except (InfeasibleOffsetError, DegenerateExcitationError):
                break
            phase = "down" if direction < 0 else "up"
            record(phase, c, p, accepted=p >= best_p)
        return best_c, best_p

    c_down, p_down = march(-1.0)
    c_up, p_up = march(+1.0)
    c_opt, p_opt = (c_down, p_down) if p_down >= p_up else (c_up, p_up)
    a, b = solve_ab_from_c(user, anchor, c_opt)
    return OptimizationResult(
        c_opt=c_opt,
        trajectory=Trajectory(a=a, b=b, c=c_opt),
        power=p_opt,
        estimate=seed,
        trace=tuple(trace),
    )
