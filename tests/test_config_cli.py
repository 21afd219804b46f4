"""Scenario configuration loading and the command line front end."""

import numpy as np
import pytest

from curvebeam import cli
from curvebeam.config import (
    ConfigError,
    ScenarioConfig,
    apply_overrides,
    config_from_dict,
    config_hash,
    load_config,
)

TINY = """\
rhs:
  element_count: 64
scene:
  user: [-0.04, 0.4]
  obstacles:
    - {x_start: -0.05, z_start: 0.15, x_size: 0.08, z_size: 0.05}
propagation:
  max_dx: 0.0002
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY)
    return path


def test_default_scenario():
    cfg = load_config(None)
    rhs = cfg.rhs_model()
    lam = 299792458.0 / 100e9
    assert rhs.element_count == 668
    assert rhs.element_spacing == pytest.approx(lam / 10.0)
    assert rhs.aperture_length == pytest.approx(667 * lam / 10.0)
    scene = cfg.scene_model()
    assert (scene.receiver_x, scene.receiver_z) == (-0.2, 2.4)
    assert len(scene.obstacles) == 1
    assert scene.obstacles[0].x_start == -0.1
    assert scene.obstacles[0].attenuation == 0.0
    assert cfg.ula_spacing() == pytest.approx(lam / 2.0)
    assert cfg.focused_target() == (-0.2, 2.4)
    assert cfg.optimizer_waist() == pytest.approx(2.0 * lam)
    assert cfg.delta_c() == pytest.approx(rhs.element_spacing)
    assert cfg.grid_step() == pytest.approx(rhs.aperture_length / 200.0)


def test_default_grid_covers_scene():
    cfg = load_config(None)
    grid = cfg.grid_model()
    rhs = cfg.rhs_model()
    assert grid.count & (grid.count - 1) == 0
    assert grid.dx <= cfg.wavelength / 16.0
    assert grid.x_start <= -0.5 and grid.x_end >= rhs.aperture_length + 0.3 - grid.dx


def test_aperture_sizing_combinations():
    lam = 299792458.0 / 100e9
    by_length = config_from_dict(
        {"rhs": {"element_count": None, "aperture_length": 667 * lam / 10.0}}
    ).rhs_model()
    assert by_length.element_count == 668
    derived_spacing = config_from_dict(
        {"rhs": {"element_count": 101, "aperture_length": 0.1}}
    ).rhs_model()
    assert derived_spacing.element_spacing == pytest.approx(1e-3)
    with pytest.raises(ConfigError):
        config_from_dict(
            {"rhs": {"element_count": 100, "element_spacing": 1e-3,
                     "aperture_length": 0.1}}
        )
    with pytest.raises(ConfigError):
        config_from_dict({"rhs": {"element_count": None}})


def test_numeric_strings_coerced():
    # YAML 1.1 reads exponent forms without a signed exponent as strings
    cfg = config_from_dict({"rhs": {"carrier_frequency": "100.0e9"}})
    assert cfg.rhs.carrier_frequency == 100e9
    assert cfg.rhs_model().carrier_frequency == 100e9
    cfg = config_from_dict({"rhs": {"element_count": "64"}})
    assert cfg.rhs.element_count == 64
    cfg = load_config(None, ["propagation.max_dx=1.5e-4"])
    assert cfg.propagation.max_dx == pytest.approx(1.5e-4)
    assert cfg.grid_model().dx <= 1.5e-4


def test_non_numeric_strings_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"rhs": {"feed_power": "strong"}})
    with pytest.raises(ConfigError, match="integer"):
        config_from_dict({"rhs": {"element_count": 64.5}})
    with pytest.raises(ConfigError):
        config_from_dict({"receiver": {"impedance": [377.0]}})


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"rsh": {}})
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"rhs": {"element_cuont": 64}})
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict(
            {"scene": {"obstacles": [{"x_start": 0, "z_start": 0.1,
                                      "x_size": 0.1, "z_size": 0.1,
                                      "alpha": 0.5}]}}
        )


def test_malformed_sections_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"rhs": [1, 2]})
    with pytest.raises(ConfigError):
        config_from_dict({"scene": {"user": [1.0]}})
    with pytest.raises(ConfigError):
        config_from_dict({"scene": {"obstacles": [{"x_start": 0.0}]}})
    with pytest.raises(ConfigError):
        # validated models fail fast at load time
        config_from_dict({"scene": {"user": [0.0, -1.0]}})


def test_receiver_noise_resolution():
    cfg = load_config(None)
    with pytest.raises(ConfigError):
        cfg.receiver_model()
    rx = cfg.receiver_model(noise_power=1e-14)
    assert rx.noise_power == 1e-14
    assert rx.effective_aperture == pytest.approx(cfg.wavelength**2 / (4 * np.pi))
    explicit = config_from_dict({"receiver": {"noise_power": 2e-13}})
    assert explicit.receiver_model().noise_power == 2e-13


def test_rhs_model_with_spacing_keeps_span():
    cfg = load_config(None)
    base = cfg.rhs_model()
    coarse = cfg.rhs_model_with_spacing(2.0 * base.element_spacing)
    assert coarse.element_count == (base.element_count - 1) // 2 + 1
    # the coarser pitch cannot land exactly on the far edge; it may stop
    # short by up to one of its spacings
    assert base.aperture_length - coarse.aperture_length <= coarse.element_spacing
    assert coarse.aperture_length <= base.aperture_length + 1e-12


def test_apply_overrides():
    data = apply_overrides({}, ["rhs.element_count=32", "scene.user=[-0.1, 1.0]"])
    assert data["rhs"]["element_count"] == 32
    assert data["scene"]["user"] == [-0.1, 1.0]
    nested = apply_overrides({"rhs": {"feed_power": 2.0}}, ["rhs.element_count=16"])
    assert nested["rhs"] == {"feed_power": 2.0, "element_count": 16}
    with pytest.raises(ConfigError):
        apply_overrides({}, ["no_equals_sign"])
    with pytest.raises(ConfigError):
        apply_overrides({}, ["rhs..x=1"])
    with pytest.raises(ConfigError):
        apply_overrides({"rhs": {"feed_power": 2.0}}, ["rhs.feed_power.sub=1"])


def test_config_hash_tracks_content(tiny_config):
    h0 = config_hash(load_config(None))
    assert len(h0) == 12
    assert config_hash(load_config(None)) == h0
    assert config_hash(load_config(str(tiny_config))) != h0
    assert config_hash(load_config(None, ["rhs.feed_power=2.0"])) != h0


def test_cli_run_writes_outputs(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(
        ["run", "--beam", "focused", "--config", str(tiny_config), "--out", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "wrote" in printed
    expected_hash = config_hash(load_config(str(tiny_config)))
    assert f"config-hash: {expected_hash}" in printed
    for name in ("focused_final_slice.csv", "focused_heatmap.pgm",
                 "focused_summary.csv"):
        assert (out / name).exists()
    header = (out / "focused_summary.csv").read_text().splitlines()
    assert header[1] == f"# config-hash: {expected_hash}"
    assert (out / "focused_heatmap.pgm").read_bytes()[:2] == b"P5"


def test_cli_explicit_trajectory(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(
        ["run", "--beam", "airy_rhs", "--config", str(tiny_config),
         "--out", str(out), "--trajectory=-1.5,0.5,0.0"]
    )
    assert code == 0
    summary = (out / "airy_rhs_summary.csv").read_text().splitlines()[-1]
    assert summary.startswith("airy_rhs,-1.5,0.5,0")


def test_cli_sweep_repeats_byte_identical(tiny_config, tmp_path):
    outs = []
    for run in ("first", "second"):
        out = tmp_path / run
        code = cli.main(
            ["sweep", "--kind", "offset_c", "--config", str(tiny_config),
             "--out", str(out)]
        )
        assert code == 0
        outs.append((out / "sweep_offset_c.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_config_errors(tmp_path, capsys):
    code = cli.main(["run", "--beam", "focused", "--config",
                     str(tmp_path / "missing.yaml")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert '"code": "config"' in err

    bad = tmp_path / "bad.yaml"
    bad.write_text("rhs: {element_cuont: 64}\n")
    assert cli.main(["run", "--beam", "focused", "--config", str(bad)]) == 2

    assert cli.main(
        ["run", "--beam", "focused", "--trajectory", "1,2", "--out", str(tmp_path)]
    ) == 2


def test_cli_auto_beam_needs_obstacles(tiny_config, tmp_path, capsys):
    code = cli.main(
        ["run", "--beam", "airy_rhs", "--config", str(tiny_config),
         "--out", str(tmp_path), "--set", "scene.obstacles=[]"]
    )
    assert code == 2
    assert "error: " in capsys.readouterr().err


def test_cli_infeasible_trajectory(tiny_config, tmp_path, capsys):
    # fixed aperture cannot follow an offset inside its span
    code = cli.main(
        ["run", "--beam", "airy_ula", "--config", str(tiny_config),
         "--out", str(tmp_path), "--trajectory=-1.5,0.5,0.01"]
    )
    assert code == 3
    assert '"code": "infeasible"' in capsys.readouterr().err


def test_cli_rejects_unknown_subcommand_arguments():
    with pytest.raises(SystemExit) as exc:
        cli.main(["repro", "fig5"])
    assert exc.value.code == 2


def test_scenario_config_roundtrips_to_dict():
    cfg = ScenarioConfig()
    data = cfg.to_dict()
    assert set(data) == {"rhs", "scene", "propagation", "receiver", "optimizer",
                         "baselines"}
    assert data["scene"]["obstacles"][0]["x_size"] == 0.2
