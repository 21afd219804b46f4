"""Command line front end.

Exit codes: 0 success, 2 configuration or argument problems, 3 infeasible
scenario (no launchable beam), 4 output errors.  Failures print one
machine-readable line to stderr:  error: {"code": ..., "message": ...}
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, ScenarioConfig, config_hash, load_config
from .experiments import REPRO, run_single, run_sweep
from .rhs import DegenerateExcitationError
from .trajectory import InfeasibleOffsetError, Trajectory

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="YAML scenario file (default: built-in)")
    parser.add_argument("--out", metavar="DIR", default="out", help="output directory (default: out)")
    parser.add_argument(
        "--set", dest="overrides", metavar="SEC.KEY=VAL", action="append", default=[],
        help="override one config entry, repeatable (example: --set scene.user=[-0.2,2.0])",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvebeam",
        description="Curved-beam synthesis and obstacle-avoiding trajectory optimization "
        "for an amplitude-controlled holographic aperture.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one beam and write slice, heatmap and summary")
    p_run.add_argument(
        "--beam", required=True, choices=("airy_rhs", "airy_ula", "focused"),
        help="beam kind: curved holographic, curved fixed-aperture or focused",
    )
    p_run.add_argument(
        "--trajectory", metavar="A,B,C",
        help="parabola coefficients x = a z^2 + b z + c (default: optimize automatically)",
    )
    _add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="sweep one scenario parameter to CSV")
    p_sweep.add_argument("--kind", required=True, choices=("offset_c", "user_z", "spacing"))
    p_sweep.add_argument("--lo", type=float, help="offset sweep start (offset_c only)")
    p_sweep.add_argument("--hi", type=float, help="offset sweep end (offset_c only)")
    p_sweep.add_argument("--step", type=float, help="offset sweep step (offset_c only)")
    p_sweep.add_argument(
        "--positions", metavar="Z1,Z2,...",
        help="receiver depths for user_z sweeps (default: 1.6 to 2.3, 5 points)",
    )
    _add_common(p_sweep)

    p_repro = sub.add_parser("repro", help="rerun a stock experiment")
    p_repro.add_argument("figure", choices=sorted(REPRO))
    _add_common(p_repro)
    return parser


def _parse_trajectory(text: str) -> Trajectory:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError("--trajectory expects three comma-separated numbers a,b,c")
    try:
        a, b, c = (float(p) for p in parts)
    except ValueError as err:
        raise ConfigError(f"--trajectory: {err}") from err
    return Trajectory(a=a, b=b, c=c)


def _parse_positions(text: str | None) -> list[float] | None:
    if text is None:
        return None
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError as err:
        raise ConfigError(f"--positions: {err}") from err
    if not values:
        raise ConfigError("--positions is empty")
    return values


def _dispatch(args: argparse.Namespace, config: ScenarioConfig) -> list[Path]:
    out = Path(args.out)
    if args.command == "run":
        trajectory = _parse_trajectory(args.trajectory) if args.trajectory else None
        report = run_single(config, args.beam, out, trajectory)
        t = report.trajectory
        shape = f"a={t.a:.6g} b={t.b:.6g} c={t.c:.6g}" if t is not None else "focused"
        print(f"{report.beam}: {shape}  power={report.power:.6g} W  rate={report.rate:.6g} bit/s/Hz")
        return list(report.files)
    if args.command == "sweep":
        path = run_sweep(
            config, args.kind, out, c_lo=args.lo, c_hi=args.hi, step=args.step,
            positions=_parse_positions(args.positions),
        )
        return [path]
    return list(REPRO[args.figure](config, out))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.overrides)
        files = _dispatch(args, config)
    except ConfigError as err:
        return _fail("config", err, EXIT_CONFIG)
    except (InfeasibleOffsetError, DegenerateExcitationError) as err:
        return _fail("infeasible", err, EXIT_INFEASIBLE)
    except ValueError as err:
        return _fail("config", err, EXIT_CONFIG)
    except OSError as err:
        return _fail("io", err, EXIT_IO)
    print(f"config-hash: {config_hash(config)}")
    for path in files:
        print(f"wrote {path}")
    return EXIT_OK


def _fail(code: str, err: Exception, status: int) -> int:
    print(f"error: {json.dumps({'code': code, 'message': str(err)})}", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
