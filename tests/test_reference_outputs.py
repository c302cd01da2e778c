"""Sweep outputs against the benchmark's reference digests, and the entry
points the benchmark's tracer wraps.

``perfbench/reference.json`` holds the sha256 of the CSV each benchmark
sweep, tiny and full size, writes at its reference master seed, so any
change to the bytes of ``auth.csv`` or ``rmse.csv`` fails here.  ``perfbench/spans.py`` wraps the
names its ``entry_points`` lists; renaming or removing one breaks traced
benchmark runs.
"""

import hashlib
import importlib
import json
import types
from pathlib import Path

import pytest

from aoa_auth import attacks, cli, config, estimator, harness, metrics, ocsvm, signal_model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
SCENARIOS = {
    "full": PERFBENCH / "scenarios",
    "tiny": PERFBENCH / "scenarios" / "tiny",
}
TINY = sorted(p.stem for p in SCENARIOS["tiny"].glob("*.json"))
FULL = sorted(p.stem for p in SCENARIOS["full"].glob("*.json"))
# workload -> (CLI command, CSV it writes)
COMMANDS = {
    "auth-lba": ("auth-sweep", "auth.csv"),
    "rmse-cba": ("rmse-sweep", "rmse.csv"),
    "auth-far": ("auth-sweep", "auth.csv"),
}


def test_every_tiny_scenario_is_checked():
    assert TINY == FULL == sorted(COMMANDS)


def check_sweep(scale, workload, out_dir):
    command, csv_name = COMMANDS[workload]
    argv = [
        command,
        "--config", str(SCENARIOS[scale] / f"{workload}.json"),
        "--seed", str(REFERENCE["seed"]),
        "--out", str(out_dir),
    ]
    if command == "auth-sweep":
        argv += ["--workers", "1"]
    assert cli.main(argv) == cli.EXIT_OK
    digest = hashlib.sha256((out_dir / csv_name).read_bytes()).hexdigest()
    assert digest == REFERENCE["sha256"][f"{scale}/{workload}"]


@pytest.mark.parametrize("workload", TINY)
def test_tiny_sweep_matches_reference_sha256(workload, tmp_path):
    check_sweep("tiny", workload, tmp_path)


@pytest.mark.parametrize("workload", FULL)
def test_full_sweep_matches_reference_sha256(workload, tmp_path):
    # the benchmark's own sweeps: 150 trials per RMSE point, where the tiny
    # scenario runs 4
    check_sweep("full", workload, tmp_path)


def test_benchmark_entry_points_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    aoa = types.SimpleNamespace(
        cli=cli, config=config, harness=harness, estimator=estimator, ocsvm=ocsvm,
        signal_model=signal_model, attacks=attacks, metrics=metrics,
    )
    for name, owner, attr, _ in spans.entry_points(aoa):
        # the tracer reads a class's own __dict__ and a module's attribute
        if isinstance(owner, type):
            assert attr in owner.__dict__, name
        else:
            assert callable(getattr(owner, attr, None)), name
    # the benchmark self-test swaps the CLI's binding of the CSV writer
    assert cli.write_metrics_csv is metrics.write_metrics_csv
