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
from .config import ConfigError, Scenario
from .estimator import ResponseGrid
from .metrics import write_metrics_csv
from .signal_model import (
    NodeGeometry,
    noise_variance,
    received_signal,
    synthesize_observation,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="scenario config JSON; defaults reproduce the reference setup")
    parser.add_argument("--seed", type=int, metavar="U64", help="override the master seed")
    parser.add_argument("--trials", type=int, metavar="N", help="override Monte-Carlo trials per sweep point")
    parser.add_argument("--grid-step", type=float, metavar="DEG", help="estimator grid resolution in degrees")


def _load_scenario(args) -> Scenario:
    if args.config:
        scenario = Scenario.from_file(args.config)
    else:
        scenario = Scenario()
    if getattr(args, "seed", None) is not None:
        scenario.master_seed = args.seed
    if getattr(args, "trials", None) is not None:
        scenario.trials = args.trials
    if getattr(args, "grid_step", None) is not None:
        scenario.grid_step_deg = args.grid_step
    if getattr(args, "attack", None):
        scenario.attack = args.attack
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
    _add_common(p)
    p.add_argument("--out", metavar="DIR", default="out", help="output directory")
    p.add_argument("--eve-theta", type=float, default=45.0, metavar="DEG", help="attacker angle in degrees")
    p.add_argument("--eve-distance", type=float, default=10.0, metavar="M", help="attacker distance in meters")

    p = sub.add_parser("rmse-sweep", help="estimation error versus attacker distance/angle")
    _add_common(p)
    p.add_argument("--out", metavar="DIR", default="out", help="output directory")
    p.add_argument("--attack", choices=["code-based", "location-based"], help="attack under test")

    p = sub.add_parser("auth-sweep", help="authentication accuracy/P_MD versus attacker distance/angle")
    _add_common(p)
    p.add_argument("--out", metavar="DIR", default="out", help="output directory")
    p.add_argument("--attack", choices=[k.value for k in AttackKind], help="attack under test")
    p.add_argument("--workers", type=int, default=1, metavar="N", help="parallel workers (never changes results)")

    p = sub.add_parser("estimate", help="single-shot angle estimate for one synthesized frame")
    _add_common(p)
    p.add_argument("--theta", type=float, required=True, metavar="DEG", help="transmitter angle in degrees")
    p.add_argument("--distance", type=float, default=10.0, metavar="M", help="transmitter distance in meters")
    p.add_argument("--attack", choices=[k.value for k in AttackKind], default="none", help="pilot precoding applied by the transmitter")

    p = sub.add_parser("validate-config", help="check a config file and exit")
    p.add_argument("--config", metavar="PATH", required=True, help="scenario config JSON")

    return parser


def _cmd_cost_curve(args) -> int:
    scenario = _load_scenario(args)
    os.makedirs(args.out, exist_ok=True)
    _log(f"cost-curve: seed={scenario.master_seed} eve=({args.eve_theta} deg, {args.eve_distance} m)")
    curves = harness.run_cost_curve_experiment(scenario, args.eve_theta, args.eve_distance)
    for name, curve in curves.items():
        curve.write_csv(os.path.join(args.out, f"cost_curve_{name}.csv"))
    harness.write_manifest(args.out, scenario, "cost-curve")
    _log(f"wrote {len(curves)} curves to {args.out}/")
    return EXIT_OK


def _cmd_rmse_sweep(args) -> int:
    scenario = _load_scenario(args)
    os.makedirs(args.out, exist_ok=True)
    _log(f"rmse-sweep: attack={scenario.attack} points="
         f"{len(scenario.eve_aoas_deg) * len(scenario.eve_distances_m)} trials={scenario.trials}")
    rows = harness.run_rmse_sweep(scenario)
    write_metrics_csv(os.path.join(args.out, "rmse.csv"), rows)
    harness.write_manifest(args.out, scenario, "rmse-sweep")
    _log(f"wrote {len(rows)} rows to {args.out}/rmse.csv")
    return EXIT_OK


def _cmd_auth_sweep(args) -> int:
    scenario = _load_scenario(args)
    os.makedirs(args.out, exist_ok=True)
    _log(f"auth-sweep: attack={scenario.attack} reps={scenario.repetitions} "
         f"test_size={scenario.test_size} workers={args.workers}")
    rows = harness.run_auth_sweep(scenario, workers=args.workers)
    write_metrics_csv(os.path.join(args.out, "auth.csv"), rows)
    harness.write_manifest(args.out, scenario, "auth-sweep")
    _log(f"wrote {len(rows)} rows to {args.out}/auth.csv")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    scenario = _load_scenario(args)
    schedule = scenario.schedule()
    config = scenario.array_config()
    rng = harness.derive_trial_rng(scenario.master_seed, "estimate")
    kind = AttackKind.from_string(args.attack)
    pilots, _ = harness.eve_pilots(scenario, schedule, kind, args.theta, rng)
    base = received_signal(schedule, NodeGeometry(args.distance, args.theta), pilots, config)
    y = synthesize_observation(base, noise_variance(config), 1, rng)[0]
    grid = ResponseGrid(schedule, scenario.alice_pilots(), scenario.grid_step_deg)
    estimate = grid.estimate(y)
    print(f"theta_hat_deg={estimate.theta_hat_deg!r}")
    print(f"cost_at_min={estimate.cost_at_min!r}")
    return EXIT_OK


def _cmd_validate_config(args) -> int:
    Scenario.from_file(args.config)
    _log("config ok")
    return EXIT_OK


_COMMANDS = {
    "cost-curve": _cmd_cost_curve,
    "rmse-sweep": _cmd_rmse_sweep,
    "auth-sweep": _cmd_auth_sweep,
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
