"""Command-line front end for the simulator.

Data goes to files (or stdout for single-shot utilities); progress goes to
stderr, so outputs stay pipeline-safe.  Exit codes: 0 ok, 2 config error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import harness
from .attacks import AttackKind
from .config import ConfigError, Scenario, node_geometry
from .metrics import write_metrics_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _add_common(parser: argparse.ArgumentParser, out: bool = False) -> None:
    parser.add_argument("--config", metavar="PATH", help="scenario config JSON; defaults reproduce the reference setup")
    parser.add_argument("--seed", type=int, metavar="U64", help="override the master seed")
    parser.add_argument("--trials", type=int, metavar="N", help="override Monte-Carlo trials per sweep point")
    parser.add_argument("--grid-step", type=float, metavar="DEG", help="estimator grid resolution in degrees")
    if out:
        parser.add_argument("--out", metavar="DIR", default="out", help="output directory")


# argparse dest of an override flag -> the scenario field it sets
_OVERRIDES = {
    "seed": "master_seed",
    "trials": "trials",
    "grid_step": "grid_step_deg",
    "attack": "attack",
}


# command -> its transmitter position flags (angle, distance)
_POSITIONS = {
    "cost-curve": ("--eve-theta", "--eve-distance"),
    "estimate": ("--theta", "--distance"),
}


def _check_position(args) -> None:
    """Reject position flags that ``NodeGeometry`` refuses, before anything is
    computed or written."""
    if args.command not in _POSITIONS:
        return
    theta_flag, distance_flag = flags = _POSITIONS[args.command]
    theta, distance = (getattr(args, flag[2:].replace("-", "_")) for flag in flags)
    node_geometry(distance, theta, distance_flag, theta_flag)


def _load_scenario(args) -> Scenario:
    _check_position(args)
    if getattr(args, "workers", 1) < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers!r}")
    scenario = Scenario.from_file(args.config) if args.config else Scenario()
    for flag, name in _OVERRIDES.items():
        value = getattr(args, flag, None)
        if value is not None:
            setattr(scenario, name, value)
    scenario.validate()
    return scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoa-auth",
        description="Monte-Carlo simulator for angle-of-arrival physical-layer "
        "authentication under impersonation attacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cost-curve", help="ML objective versus angle for each signal source")
    _add_common(p, out=True)
    p.add_argument("--eve-theta", type=float, default=45.0, metavar="DEG", help="attacker angle in degrees")
    p.add_argument("--eve-distance", type=float, default=10.0, metavar="M", help="attacker distance in meters")

    p = sub.add_parser("rmse-sweep", help="estimation error versus attacker distance/angle")
    _add_common(p, out=True)
    p.add_argument("--attack", choices=["code-based", "location-based"], help="attack under test")

    p = sub.add_parser("auth-sweep", help="authentication accuracy/P_MD versus attacker distance/angle")
    _add_common(p, out=True)
    p.add_argument("--attack", choices=[k.value for k in AttackKind], help="attack under test")
    p.add_argument("--workers", type=int, default=1, metavar="N", help="parallel workers, at most one per repetition (never changes results)")

    p = sub.add_parser("estimate", help="single-shot angle estimate for one synthesized frame")
    _add_common(p)
    p.add_argument("--theta", type=float, required=True, metavar="DEG", help="transmitter angle in degrees")
    p.add_argument("--distance", type=float, default=10.0, metavar="M", help="transmitter distance in meters")
    p.add_argument("--attack", choices=[k.value for k in AttackKind], default="none", help="pilot precoding applied by the transmitter")

    p = sub.add_parser("validate-config", help="check a config file and exit")
    p.add_argument("--config", metavar="PATH", required=True, help="scenario config JSON")

    return parser


def _cost_curves(scenario, args):
    curves = harness.run_cost_curve_experiment(scenario, args.eve_theta, args.eve_distance)
    return {f"cost_curve_{name}.csv": curve.write_csv for name, curve in curves.items()}


def _metrics_csv(csv_name, rows):
    return {csv_name: lambda path: write_metrics_csv(path, rows)}


# file-writing command -> its run, returning {file name in --out: writer}
_EXPERIMENTS = {
    "cost-curve": _cost_curves,
    "rmse-sweep": lambda scenario, args: _metrics_csv(
        "rmse.csv", harness.run_rmse_sweep(scenario)),
    "auth-sweep": lambda scenario, args: _metrics_csv(
        "auth.csv", harness.run_auth_sweep(scenario, workers=args.workers)),
}


def _cmd_experiment(args) -> int:
    scenario = _load_scenario(args)
    os.makedirs(args.out, exist_ok=True)
    _log(f"{args.command}: seed={scenario.master_seed} "
         f"config_hash={scenario.config_hash()[:12]}")
    files = _EXPERIMENTS[args.command](scenario, args)
    for name, write in files.items():
        write(os.path.join(args.out, name))
    harness.write_manifest(args.out, scenario, args.command)
    _log(f"wrote {len(files)} files and manifest.json to {args.out}/")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    estimate = harness.run_estimate(_load_scenario(args), args.theta, args.distance)
    print(f"theta_hat_deg={estimate.theta_hat_deg!r}")
    print(f"cost_at_min={estimate.cost_at_min!r}")
    return EXIT_OK


def _cmd_validate_config(args) -> int:
    Scenario.from_file(args.config)
    _log("config ok")
    return EXIT_OK


_COMMANDS = {
    **dict.fromkeys(_EXPERIMENTS, _cmd_experiment),
    "estimate": _cmd_estimate,
    "validate-config": _cmd_validate_config,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        _log(f"config error: {e}")
        return EXIT_CONFIG
    except FileNotFoundError as e:
        _log(f"io error: {e}")
        return EXIT_RUNTIME
    except Exception as e:  # noqa: BLE001 - CLI boundary
        _log(f"runtime error ({type(e).__name__}): {e}")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
