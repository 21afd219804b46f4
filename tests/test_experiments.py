"""Scenario runners, sweep determinism and output writers."""

from dataclasses import astuple

import numpy as np
import pytest

from curvebeam.beamformer import airy_rhs, airy_ula
from curvebeam.config import config_from_dict, config_hash
from curvebeam.experiments import (
    REPRO,
    best_rhs_offset,
    build_bench,
    calibrate_noise,
    run_single,
    sweep_offsets,
    sweep_positions,
    ula_baseline,
    write_csv,
    write_pgm,
)
from curvebeam.propagation import propagate, received_power
from curvebeam.trajectory import Trajectory

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


@pytest.fixture(scope="module")
def tiny_bench():
    return build_bench(config_from_dict(TINY))


def test_noise_calibration_tracks_feed_power(tiny_bench):
    cfg = tiny_bench.config
    noise = calibrate_noise(cfg)
    assert noise > 0.0
    assert tiny_bench.receiver.noise_power == pytest.approx(noise)
    # doubling the feed power doubles the free-space focus power and the
    # calibrated noise floor with it
    louder = config_from_dict({**TINY, "rhs": {"element_count": 64, "feed_power": 2.0}})
    assert calibrate_noise(louder) == pytest.approx(2.0 * noise, rel=1e-6)


def test_sweep_rows_cover_window_and_flag_validity(tiny_bench):
    rows = sweep_offsets(tiny_bench)
    l = tiny_bench.rhs.aperture_length
    assert rows[0].c == pytest.approx(-l / 4.0)
    assert rows[-1].c == pytest.approx(l + l / 4.0, abs=1e-9)
    assert any(np.isfinite(r.p_rhs) for r in rows)
    assert any(np.isfinite(r.p_ula) for r in rows)
    for r in rows:
        # the fixed aperture only radiates undistorted outside its span
        if np.isfinite(r.p_ula):
            assert r.c <= 0.0 + 1e-12 or r.c >= l - 1e-12
        if r.feasible:
            assert np.isfinite(r.p_rhs)
        # anchored at the receiver and the corner regardless of c
        traj = Trajectory(a=r.a, b=r.b, c=r.c)
        assert traj.position(0.4) == pytest.approx(-0.04, abs=1e-9)


def test_sweep_best_helpers(tiny_bench):
    rows = sweep_offsets(tiny_bench)
    best = best_rhs_offset(rows)
    assert best.feasible
    assert best.p_rhs == max(r.p_rhs for r in rows if r.feasible)
    base = ula_baseline(rows)
    assert base is not None and base.reach_ok
    assert np.isfinite(base.p_ula)
    eligible = [r.p_ula for r in rows if r.reach_ok and np.isfinite(r.p_ula)]
    assert base.p_ula == max(eligible)


def test_sweep_repeats_bit_identical(tiny_bench):
    first = sweep_offsets(tiny_bench)
    second = sweep_offsets(tiny_bench)
    assert len(first) == len(second)
    for r1, r2 in zip(first, second):
        # bit-identical rows (nan-aware: nan marks unbuildable beams)
        assert np.array_equal(astuple(r1), astuple(r2), equal_nan=True)


def test_sweep_powers_match_forward_marches(tiny_bench):
    b = tiny_bench
    rows = sweep_offsets(b)
    rhs_rows = [r for r in rows if np.isfinite(r.p_rhs)]
    ula_rows = [r for r in rows if np.isfinite(r.p_ula)]
    checks = [
        (airy_rhs(b.rhs, Trajectory(r.a, r.b, r.c), b.config.optimizer.min_active), r.p_rhs)
        for r in (rhs_rows[0], rhs_rows[-1])
    ] + [
        (airy_ula(Trajectory(r.a, r.b, r.c), b.rhs.wavenumber, b.rhs.aperture_length,
                  b.config.ula_spacing(), b.rhs.feed_power), r.p_ula)
        for r in (ula_rows[0], ula_rows[-1])
    ]
    for exc, power in checks:
        final = propagate(exc, b.scene, b.grid, b.rhs.wavenumber,
                          absorber_fraction=b.config.propagation.absorber_fraction)
        forward = received_power(final, b.receiver, b.scene.receiver_x)
        assert power == pytest.approx(forward, rel=1e-10)


def test_position_sweep_reports_all_architectures(tiny_bench):
    rows = sweep_positions(tiny_bench, positions=[0.4])
    (row,) = rows
    assert row.z_r == 0.4
    assert row.p_rhs > 0.0 and row.rate_rhs > 0.0
    assert row.p_coarse > 0.0
    assert row.evaluations >= 2
    assert row.z_max < row.z_r
    assert row.d_r > 0.0 and row.theta_r >= 0.0
    assert np.isfinite(row.p_focused)


def test_write_csv_layout(tmp_path):
    cfg = config_from_dict(TINY)
    path = write_csv(
        tmp_path / "t.csv", cfg, ["x", "flag", "v"],
        [(1.0, True, 0.123456789012), (2.0, False, float("nan"))], "unit test",
    )
    lines = path.read_text().splitlines()
    assert lines[0] == "# curvebeam unit test"
    assert lines[1] == f"# config-hash: {config_hash(cfg)}"
    assert lines[2].startswith("# config: {")
    assert lines[3] == "x,flag,v"
    assert lines[4] == "1,1,0.123456789012"
    assert lines[5] == "2,0,nan"


def test_write_pgm_normalizes_peak(tmp_path):
    field = np.zeros((3, 8))
    field[1, 4] = 2.0
    field[2, 2] = 0.02  # -20 dB: a third of the way down a -60 dB scale
    path = write_pgm(tmp_path / "t.pgm", field)
    raw = path.read_bytes()
    header, pixels = raw.split(b"255\n", 1)
    assert header == b"P5\n8 3\n"
    img = np.frombuffer(pixels, dtype=np.uint8).reshape(3, 8)
    assert img[1, 4] == 255
    assert img[0, 0] == 0
    assert img[2, 2] == round(255 * (1 - 20.0 / 60.0))


def test_run_single_with_fixed_trajectory(tmp_path):
    cfg = config_from_dict(TINY)
    report = run_single(cfg, "airy_rhs", tmp_path, Trajectory(a=-1.5, b=0.5, c=0.0))
    assert report.power > 0.0
    slice_lines = (tmp_path / "airy_rhs_final_slice.csv").read_text().splitlines()
    grid = cfg.grid_model()
    assert len(slice_lines) == 4 + grid.count
    with pytest.raises(ValueError):
        run_single(cfg, "bad_kind", tmp_path)


def test_repro_experiments_write_expected_files(tmp_path):
    cfg = config_from_dict(TINY)
    written = {p.name for p in REPRO["fig3"](cfg, tmp_path)}
    assert written == {"fig3_rhs_curved.pgm", "fig3_ula_distorted.pgm",
                       "fig3_summary.csv"}
    written = {p.name for p in REPRO["fig6"](cfg, tmp_path)}
    assert written == {"fig6_curved.pgm", "fig6_focused.pgm", "fig6_trace.csv",
                       "fig6_summary.csv"}
    trace = (tmp_path / "fig6_trace.csv").read_text().splitlines()
    assert trace[3] == "phase,c,a,b,z_max,d_r,theta_r,score,power,accepted"
    assert trace[4].startswith("seed,")


def test_repro_fig4_summary_contains_margin(tmp_path):
    cfg = config_from_dict(TINY)
    files = REPRO["fig4"](cfg, tmp_path)
    names = {p.name for p in files}
    assert "fig4_sweep.csv" in names and "fig4_summary.csv" in names
    text = (tmp_path / "fig4_summary.csv").read_text()
    assert "airy_rhs_best" in text and "margin_db" in text
