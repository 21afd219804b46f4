"""Scalar field marching: spectral propagator, reference quadrature, scenes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvebeam.propagation import (
    FREE_SPACE_IMPEDANCE,
    FieldSlice,
    GridSpec,
    Obstacle,
    ReceiverModel,
    Scene,
    absorber_profile,
    achievable_rate,
    asm_step,
    band_energy,
    blockage_profile,
    excitation_to_slice,
    make_grid,
    propagate,
    propagate_batch,
    received_power,
    receiver_response,
    response_power,
    rs_direct,
    transfer_function,
)
from curvebeam.rhs import ApertureExcitation


def gaussian_slice(grid, waist=0.01, k=None):
    x = grid.x - 0.5 * (grid.x[0] + grid.x[-1])
    return FieldSlice(z=0.0, grid=grid, values=np.exp(-(x / waist) ** 2) + 0j)


def test_make_grid_power_of_two_cover():
    grid = make_grid(-0.5, 0.5, 1e-3)
    assert grid.count == 1024
    assert grid.dx <= 1e-3
    assert grid.x_start == -0.5
    assert grid.x_end == pytest.approx(0.5 - grid.dx)
    with pytest.raises(ValueError):
        make_grid(0.5, -0.5, 1e-3)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(x_start=0.0, dx=1e-3, count=100)  # not a power of two
    with pytest.raises(ValueError):
        GridSpec(x_start=0.0, dx=-1e-3, count=128)


def test_transfer_function_plane_wave_phase():
    # a uniform field is the kx = 0 plane wave: one step multiplies by
    # exp(-1j k dz) exactly
    grid = GridSpec(x_start=0.0, dx=1e-3, count=256)
    sl = FieldSlice(z=0.0, grid=grid, values=np.ones(256, dtype=complex))
    out = asm_step(sl, 0.02, 2000.0)
    assert np.allclose(out.values, np.exp(-1j * 2000.0 * 0.02))
    assert out.z == pytest.approx(0.02)


def test_transfer_function_kills_evanescent_components():
    grid = GridSpec(x_start=0.0, dx=1e-3, count=256)
    h = transfer_function(grid, 0.01, 1000.0)
    evanescent = np.abs(grid.kx) > 1000.0
    assert np.all(h[evanescent] == 0.0)
    assert np.all(np.abs(np.abs(h[~evanescent]) - 1.0) < 1e-12)


def test_band_limited_energy_conservation():
    grid = make_grid(-0.2, 0.2, 5e-4)
    k = 2.0 * np.pi / 3e-3
    sl = gaussian_slice(grid)
    e0 = band_energy(sl, k)
    out = sl
    for _ in range(50):
        out = asm_step(out, 5e-3, k)
    assert band_energy(out, k) == pytest.approx(e0, rel=1e-12)


def test_step_splitting_composes():
    grid = make_grid(-0.2, 0.2, 5e-4)
    k = 2.0 * np.pi / 3e-3
    sl = gaussian_slice(grid)
    once = asm_step(sl, 0.03, k)
    twice = asm_step(asm_step(sl, 0.01, k), 0.02, k)
    assert np.allclose(once.values, twice.values, atol=1e-12)


def test_asm_matches_direct_quadrature():
    # small version of the propagator cross-check (the full-size run lives
    # in the acceptance suite)
    grid = make_grid(-0.1, 0.1, 2e-3)
    k = 2.0 * np.pi / 3e-3
    sl = gaussian_slice(grid, waist=0.02)
    a = asm_step(sl, 0.05, k)
    b = rs_direct(sl, 0.05, k)
    mid = slice(grid.count // 4, 3 * grid.count // 4)
    err = np.linalg.norm(a.values[mid] - b.values[mid]) / np.linalg.norm(a.values[mid])
    assert err < 1e-3
    with pytest.raises(ValueError):
        rs_direct(sl, -0.01, k)


def test_absorber_profile_shape():
    grid = GridSpec(x_start=0.0, dx=1e-3, count=128)
    taper = absorber_profile(grid, 0.1)
    assert taper[0] == 0.0 and taper[64] == 1.0
    assert np.all(taper >= 0.0) and np.all(taper <= 1.0)
    assert np.allclose(taper, taper[::-1])
    with pytest.raises(ValueError):
        absorber_profile(grid, 0.6)


def test_blockage_profile_masks_obstacle_extent():
    grid = GridSpec(x_start=-0.1, dx=1e-3, count=256)
    scene = Scene(
        receiver_x=0.0, receiver_z=1.0,
        obstacles=(Obstacle(x_start=-0.05, z_start=0.4, x_size=0.06, z_size=0.1),),
    )
    assert blockage_profile(scene, 0.3, grid) is None
    mask = blockage_profile(scene, 0.45, grid)
    inside = (grid.x >= -0.05) & (grid.x <= 0.01)
    assert np.all(mask[inside] == 0.0)
    assert np.all(mask[~inside] == 1.0)


def test_attenuating_obstacle_scales_amplitude():
    grid = GridSpec(x_start=-0.1, dx=1e-3, count=256)
    scene = Scene(
        receiver_x=0.0, receiver_z=1.0,
        obstacles=(Obstacle(x_start=-0.2, z_start=0.4, x_size=0.6, z_size=0.1,
                            attenuation=0.5),),
    )
    mask = blockage_profile(scene, 0.45, grid)
    assert np.all(mask == 0.5)


def test_excitation_deposit_preserves_energy():
    grid = GridSpec(x_start=0.0, dx=1e-3, count=128)
    exc = ApertureExcitation(
        positions=np.array([0.01, 0.02, 0.03]),
        weights=np.array([0.5, 0.4j, 0.3]),
        total_power=1.0,
    )
    sl = excitation_to_slice(exc, grid)
    assert sl.energy == pytest.approx(exc.radiated_power)
    assert sl.values[10] == 0.5
    outside = ApertureExcitation(
        positions=np.array([0.2]), weights=np.array([0.5 + 0j]), total_power=1.0
    )
    with pytest.raises(ValueError):
        excitation_to_slice(outside, grid)


def test_excitation_deposit_rejects_collisions():
    grid = GridSpec(x_start=0.0, dx=1e-3, count=128)
    exc = ApertureExcitation(
        positions=np.array([0.01, 0.0104]),
        weights=np.array([0.5, 0.5 + 0j]),
        total_power=1.0,
    )
    with pytest.raises(ValueError):
        excitation_to_slice(exc, grid)


def test_propagation_is_linear():
    grid = make_grid(-0.1, 0.1, 1e-3)
    k = 2.0 * np.pi / 3e-3
    scene = Scene(receiver_x=0.0, receiver_z=0.2,
                  obstacles=(Obstacle(x_start=-0.02, z_start=0.1, x_size=0.01,
                                      z_size=0.02),))

    def run(w):
        exc = ApertureExcitation(positions=np.array([0.0, 0.01]), weights=w,
                                 total_power=10.0)
        return propagate(exc, scene, grid, k).values

    w1 = np.array([0.5 + 0j, 0.0j])
    w2 = np.array([0.0j, 0.25j])
    assert np.allclose(run(w1) + run(w2), run(w1 + w2), atol=1e-13)


def test_batch_propagation_matches_single_runs():
    grid = make_grid(-0.1, 0.1, 1e-3)
    k = 2.0 * np.pi / 3e-3
    scene = Scene(receiver_x=0.0, receiver_z=0.25)
    excs = [
        ApertureExcitation(positions=np.array([0.0, 0.01]),
                           weights=np.array([0.5, 0.3j]), total_power=1.0),
        ApertureExcitation(positions=np.array([-0.01, 0.02]),
                           weights=np.array([0.2j, 0.6]), total_power=1.0),
    ]
    batch = propagate_batch(excs, scene, grid, k)
    singles = [propagate(e, scene, grid, k).values for e in excs]
    # bit-identical, not just close: sweeps must not depend on batching
    assert np.array_equal(batch[0], singles[0])
    assert np.array_equal(batch[1], singles[1])
    assert propagate_batch([], scene, grid, k).shape == (0, grid.count)


def test_propagate_keep_slices():
    grid = make_grid(-0.1, 0.1, 1e-3)
    scene = Scene(receiver_x=0.0, receiver_z=0.02, plane_spacing=5e-3)
    exc = ApertureExcitation(positions=np.array([0.0]),
                             weights=np.array([1.0 + 0j]), total_power=1.0)
    slices = propagate(exc, scene, grid, 2e3, keep_slices=True)
    assert len(slices) == scene.plane_count + 1
    assert slices[0].z == 0.0
    assert slices[-1].z == pytest.approx(0.02)
    final = propagate(exc, scene, grid, 2e3)
    assert np.array_equal(final.values, slices[-1].values)


def test_opaque_obstacle_cuts_received_power():
    grid = make_grid(-0.2, 0.2, 5e-4)
    k = 2.0 * np.pi / 3e-3
    exc = ApertureExcitation(positions=np.array([0.0]),
                             weights=np.array([1.0 + 0j]), total_power=1.0)
    rx = ReceiverModel(effective_aperture=1e-6, noise_power=1e-15)
    open_scene = Scene(receiver_x=0.0, receiver_z=0.3)
    wall = Scene(receiver_x=0.0, receiver_z=0.3,
                 obstacles=(Obstacle(x_start=-0.15, z_start=0.1, x_size=0.3,
                                     z_size=0.05),))
    p_open = received_power(propagate(exc, open_scene, grid, k), rx, 0.0)
    p_wall = received_power(propagate(exc, wall, grid, k), rx, 0.0)
    assert p_wall < 1e-6 * p_open


def test_received_power_interpolates():
    grid = GridSpec(x_start=0.0, dx=1e-3, count=128)
    values = np.zeros(128, dtype=complex)
    values[10] = 3.0
    values[11] = 1.0
    sl = FieldSlice(z=0.1, grid=grid, values=values)
    rx = ReceiverModel(effective_aperture=2.0, noise_power=1e-12,
                       impedance=FREE_SPACE_IMPEDANCE)
    # halfway between samples: amplitude 2.0
    p = received_power(sl, rx, 0.0105)
    assert p == pytest.approx(2.0 * 4.0 / FREE_SPACE_IMPEDANCE)
    with pytest.raises(ValueError):
        received_power(sl, rx, 0.2)


def test_achievable_rate_formula():
    rx = ReceiverModel(effective_aperture=1.0, noise_power=1e-12)
    assert achievable_rate(3e-12, rx) == pytest.approx(2.0)
    assert achievable_rate(0.0, rx) == 0.0
    with pytest.raises(ValueError):
        achievable_rate(-1.0, rx)


def test_scene_plane_count():
    scene = Scene(receiver_x=0.0, receiver_z=2.4, plane_spacing=5e-3)
    assert scene.plane_count == 480
    assert Scene(receiver_x=0.0, receiver_z=1e-4).plane_count == 1


# Small scene for the adjoint property test: 256 samples, up to 40 planes.
_ADJ_GRID = make_grid(-0.05, 0.05, 5e-4)
_ADJ_K = 2.0 * np.pi / 3e-3
_ADJ_RX = ReceiverModel(effective_aperture=1e-6, noise_power=1e-15)
_ADJ_X = _ADJ_GRID.x


@st.composite
def _adjoint_cases(draw):
    n = _ADJ_GRID.count
    idx = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12, unique=True))
    mags = draw(st.lists(st.floats(0.01, 1.0), min_size=len(idx), max_size=len(idx)))
    phases = draw(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=len(idx), max_size=len(idx)))
    weights = np.array(mags) * np.exp(1j * np.array(phases))
    exc = ApertureExcitation(positions=_ADJ_X[idx], weights=weights,
                             total_power=float(np.sum(np.abs(weights) ** 2)))
    obstacle = st.builds(
        Obstacle,
        x_start=st.floats(-0.05, 0.04),
        z_start=st.floats(0.0, 0.03),
        x_size=st.floats(1e-3, 0.03),
        z_size=st.floats(1e-3, 0.02),
        attenuation=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    )
    receiver_x = draw(st.one_of(
        st.sampled_from(list(_ADJ_X)),  # exactly on a sample, edges included
        st.floats(_ADJ_X[-2], _ADJ_X[-1]),  # inside the last grid interval
        st.floats(_ADJ_X[0], _ADJ_X[-1]),
    ))
    scene = Scene(
        receiver_x=receiver_x,
        receiver_z=draw(st.floats(2e-3, 0.04)),
        obstacles=tuple(draw(st.lists(obstacle, max_size=2))),
        plane_spacing=1e-3,
    )
    return exc, scene, draw(st.sampled_from([0.1, None]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_adjoint_cases())
def test_receiver_response_matches_forward_march(case):
    exc, scene, absorber = case
    final = propagate(exc, scene, _ADJ_GRID, _ADJ_K, absorber_fraction=absorber)
    forward = received_power(final, _ADJ_RX, scene.receiver_x)
    response = receiver_response(scene, _ADJ_GRID, _ADJ_K, absorber_fraction=absorber)
    adjoint = response_power(response, exc, _ADJ_RX)
    assert adjoint == pytest.approx(forward, rel=1e-10, abs=0.0)


def test_receiver_response_keeps_range_checks():
    grid = GridSpec(x_start=0.0, dx=1e-3, count=128)
    rx = ReceiverModel(effective_aperture=1e-6, noise_power=1e-15)
    with pytest.raises(ValueError, match="receiver lies outside the grid window"):
        receiver_response(Scene(receiver_x=0.2, receiver_z=0.01), grid, 2e3)
    response = receiver_response(Scene(receiver_x=0.05, receiver_z=0.01), grid, 2e3)
    outside = ApertureExcitation(
        positions=np.array([0.2]), weights=np.array([0.5 + 0j]), total_power=1.0
    )
    with pytest.raises(ValueError, match="outside the grid window"):
        response_power(response, outside, rx)
    collide = ApertureExcitation(
        positions=np.array([0.01, 0.0104]),
        weights=np.array([0.5, 0.5 + 0j]),
        total_power=1.0,
    )
    with pytest.raises(ValueError, match="two elements map to the same grid sample"):
        response_power(response, collide, rx)
