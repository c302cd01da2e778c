"""Deterministic Monte-Carlo experiment pipelines.

Four experiments over a configured Scenario:

  * cost curves  - one realization of the ML objective per signal source,
    for plotting the attack signatures.
  * estimate     - the estimator's output for one frame from a given position.
  * rmse sweep   - angle-estimation error versus the attacker's distance and
    angle, measured against the legitimate node's true angle.
  * auth sweep   - train the one-class verifier on legitimate estimates, then
    score balanced legitimate/attack test streams per sweep point.

All randomness flows through named streams derived from the master seed, so
results are reproducible byte-for-byte and independent of worker count.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterator

import numpy as np

from . import ocsvm
from .attacks import AttackContext, AttackKind, attack_pilots
from .config import Scenario
from .estimator import AoaEstimate, CostCurve, ResponseGrid
from .metrics import ConfusionCounts, accuracy, p_fa, p_md, rmse
from .signal_model import (
    NodeGeometry,
    PilotSequence,
    ProbeSchedule,
    noise_variance,
    received_signal,
    synthesize_observation,
)

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def _label_words(label) -> list[int]:
    """The uint32 words ``SeedSequence`` makes of one label.

    Ints are masked to a 64-bit word; anything else is hashed to one (via its
    repr, so the derivation is independent of platform details).  The word's
    low 32 bits come first, its high 32 bits follow only if non-zero.
    """
    if isinstance(label, (int, np.integer)):
        word = int(label) & _MASK64
    else:
        digest = hashlib.sha256(repr(label).encode()).digest()
        word = int.from_bytes(digest[:8], "big")
    return [word & _MASK32, word >> 32] if word >> 32 else [word]


def _entropy(master_seed: int, *labels) -> np.ndarray:
    """Entropy words of the stream named by (master seed, labels...), as the
    uint32 array that ``SeedSequence`` takes without converting."""
    words = _label_words(int(master_seed))
    for label in labels:
        words += _label_words(label)
    return np.array(words, dtype=np.uint32)


# numpy's SeedSequence hash constants, which NEP 19 keeps stream-compatible
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


class _State(np.random.bit_generator.ISeedSequence):
    """A row of ``generate_state(4, uint64)`` computed ahead, for PCG64."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _streams(prefix, last: np.ndarray) -> Iterator[np.random.Generator]:
    """``derive_trial_rng``'s stream of entropy words ``prefix + [w]`` for
    each uint32 word ``w`` of ``last``, one Generator apiece.

    ``SeedSequence(prefix)`` mixes the shared words once.  The pool then
    takes each row's last word and ``generate_state(4, uint64)`` runs as
    uint32 array operations, which wrap as SeedSequence's do; PCG64 seeds
    itself from each row.  ``prefix`` must hold at least 4 words, so the
    last word falls in SeedSequence's extra mixing loop.  For ``last =
    arange(n)`` the Generators are those of ``SeedSequence(prefix).spawn(n)``'s
    children, but spawning costs about five times as much a trial, so the
    mixing is written out here.
    """
    if len(prefix) < 4:
        raise ValueError("a stream prefix needs at least 4 entropy words")
    pool = np.random.SeedSequence(prefix).pool
    # mix_entropy makes four hashmix calls per word of a prefix this long
    h = _INIT_A * pow(_MULT_A, 4 * len(prefix), 1 << 32) & _MASK32

    def hashmix(value, mult):
        nonlocal h
        value = value ^ h
        h = h * mult & _MASK32
        value = value * h
        return value ^ (value >> 16)

    def mix(x, y):
        result = (_MIX_L * int(x) & _MASK32) - _MIX_R * y
        return result ^ (result >> 16)

    pool = [mix(word, hashmix(last, _MULT_A)) for word in pool]
    h = _INIT_B
    seeds = np.empty((len(last), 8), dtype="<u4")
    for i in range(8):
        seeds[:, i] = hashmix(pool[i % 4], _MULT_B)
    # native-order uint64 words, as generate_state returns them
    for row in seeds.view("<u8").astype(np.uint64):
        yield np.random.Generator(np.random.PCG64(_State(row)))


def derive_trial_rng(master_seed: int, *labels) -> np.random.Generator:
    """Deterministic, collision-free stream from (master seed, labels...).

    Labels may be ints, floats, or strings.  The stream is numpy's own
    seeding of ``_entropy``'s words; ``_streams`` derives the same streams
    for many rows that share all but their last word.
    """
    return np.random.default_rng(_entropy(master_seed, *labels))


def _frames(scenario, schedule, geometry, tx_pilots, count, rng):
    """``count`` noisy frames, shape (count, T), from one transmitter."""
    config = scenario.array_config()
    base = received_signal(schedule, geometry, tx_pilots, config)
    return synthesize_observation(base, noise_variance(config), count, rng)


def eve_pilots(
    scenario: Scenario,
    schedule: ProbeSchedule,
    kind: AttackKind,
    eve_aoa_deg: float,
    rng: np.random.Generator | None = None,
) -> tuple[PilotSequence, float]:
    """(pilots, alpha) Eve transmits from ``eve_aoa_deg`` under attack
    ``kind`` to impersonate the scenario's legitimate node."""
    ctx = AttackContext(
        schedule=schedule,
        alice_pilots=scenario.alice_pilots(),
        target_aoa_deg=scenario.alice_aoa_deg,
        eve_aoa_deg=eve_aoa_deg,
    )
    return attack_pilots(kind, ctx, rng)


# ----------------------------------------------------------------------
# cost curves and single-frame estimates


def run_cost_curve_experiment(
    scenario: Scenario,
    eve_aoa_deg: float = 45.0,
    eve_distance_m: float = 10.0,
) -> dict[str, CostCurve]:
    """One noisy realization of the ML objective for every signal source."""
    scenario.validate()
    schedule = scenario.schedule()
    eve_geom = NodeGeometry(eve_distance_m, eve_aoa_deg)
    grid = ResponseGrid(schedule, scenario.alice_pilots(), scenario.grid_step_deg)

    sources = {
        "alice": (scenario.alice_geometry(), AttackKind.NONE),
        "eve_no_attack": (eve_geom, AttackKind.NONE),
        "random_attack": (eve_geom, AttackKind.RANDOM),
        "code_based": (eve_geom, AttackKind.CODE_BASED),
        "location_based": (eve_geom, AttackKind.LOCATION_BASED),
    }
    frames = []
    for name, (geom, kind) in sources.items():
        rng = derive_trial_rng(scenario.master_seed, "cost-curve", name)
        tx_pilots, _ = eve_pilots(scenario, schedule, kind, eve_aoa_deg, rng)
        frames.append(_frames(scenario, schedule, geom, tx_pilots, 1, rng))
    costs = grid.costs_batch(np.concatenate(frames))
    return {name: CostCurve(grid.angles_deg, row) for name, row in zip(sources, costs)}


def run_estimate(scenario: Scenario, theta_deg: float, distance_m: float) -> AoaEstimate:
    """Estimate from one noisy frame sent from (``theta_deg``, ``distance_m``)
    with the pilots of the scenario's attack."""
    scenario.validate()
    schedule = scenario.schedule()
    rng = derive_trial_rng(scenario.master_seed, "estimate")
    pilots, _ = eve_pilots(scenario, schedule, scenario.attack_kind(), theta_deg, rng)
    y = _frames(scenario, schedule, NodeGeometry(distance_m, theta_deg), pilots, 1, rng)[0]
    grid = ResponseGrid(schedule, scenario.alice_pilots(), scenario.grid_step_deg)
    return grid.estimate(y)


# ----------------------------------------------------------------------
# RMSE sweep


def run_rmse_sweep(scenario: Scenario) -> list[dict]:
    """RMSE of the estimated angle against the legitimate angle, per sweep
    point, over ``scenario.trials`` per-trial-seeded frames.

    Consecutive distances of one attacker angle are estimated in one call,
    as many points as one estimator block holds (at least one), so that no
    call pays for a block it leaves mostly empty; a frame's angle does not
    depend on the batch it is in.
    """
    scenario.validate()
    kind = scenario.attack_kind()
    if kind not in (AttackKind.CODE_BASED, AttackKind.LOCATION_BASED):
        raise ValueError("rmse sweep expects a code-based or location-based attack")
    schedule = scenario.schedule()
    grid = ResponseGrid(schedule, scenario.alice_pilots(), scenario.grid_step_deg)

    # trials < 2**32, so each trial index is one entropy word
    n = scenario.trials
    trials = np.arange(n, dtype=np.uint32)
    per_call = max(1, grid.block_rows // n)
    distances = scenario.eve_distances_m
    ys = np.empty((min(per_call, len(distances)) * n, schedule.num_probes), dtype=complex)
    rows = []
    for theta_e in scenario.eve_aoas_deg:
        pilots, _ = eve_pilots(scenario, schedule, kind, theta_e)
        for lo in range(0, len(distances), per_call):
            group = distances[lo : lo + per_call]
            for k, d_e in enumerate(group):
                # stream of trial k: derive_trial_rng(seed, "rmse", attack, theta_e, d_e, k)
                point = _entropy(scenario.master_seed, "rmse", scenario.attack, theta_e, d_e)
                geometry = NodeGeometry(d_e, theta_e)
                ys[k * n : (k + 1) * n] = _frames(scenario, schedule, geometry, pilots, n, _streams(point, trials))
            estimates = grid.estimate_batch(ys[: len(group) * n])
            for k, d_e in enumerate(group):
                rows.append(
                    {
                        "attack": scenario.attack,
                        "theta_e_deg": float(theta_e),
                        "d_e_m": float(d_e),
                        "trials": n,
                        "rmse_deg": rmse(estimates[k * n : (k + 1) * n], scenario.alice_aoa_deg),
                    }
                )
    return rows


# ----------------------------------------------------------------------
# authentication sweep


def _auth_repetition(scenario: Scenario, grid: ResponseGrid, rep: int):
    """Train one verifier on fresh legitimate estimates and score the test
    streams with the scenario's ``grid``; returns (alice counts, per-point
    attack counts)."""
    schedule = grid.schedule
    alice_pilots = scenario.alice_pilots()
    alice_geom = scenario.alice_geometry()
    half = scenario.test_size // 2

    def stream(*labels):
        return derive_trial_rng(scenario.master_seed, "auth", rep, *labels)

    def estimates(geometry, pilots, count, *labels):
        frames = _frames(scenario, schedule, geometry, pilots, count, stream(*labels))
        return grid.estimate_batch(frames)

    train_thetas = estimates(alice_geom, alice_pilots, scenario.train_size, "train")
    model = ocsvm.train(train_thetas, scenario.ocsvm_params())

    alice_thetas = estimates(alice_geom, alice_pilots, half, "alice-test")
    alice_counts = ConfusionCounts.from_decisions(
        model.decision(alice_thetas) > 0.0, legitimate=True
    )

    kind = scenario.attack_kind()
    eve_counts = {}
    for theta_e in scenario.eve_aoas_deg:
        pilots, _ = eve_pilots(scenario, schedule, kind, theta_e, stream("attack", theta_e))
        for d_e in scenario.eve_distances_m:
            geometry = NodeGeometry(d_e, theta_e)
            eve_thetas = estimates(geometry, pilots, half, "eve", theta_e, d_e)
            eve_counts[(theta_e, d_e)] = ConfusionCounts.from_decisions(
                model.decision(eve_thetas) > 0.0, legitimate=False
            )
    return alice_counts, eve_counts


def run_auth_sweep(scenario: Scenario, workers: int = 1) -> list[dict]:
    """Balanced authentication test per sweep point, merged over repetitions.

    The verifier is retrained per repetition and shared across sweep points,
    so the false-alarm rate is independent of the attacker's parameters.
    """
    scenario.validate()
    # one grid serves every repetition; it holds no scratch state
    grid = ResponseGrid(scenario.schedule(), scenario.alice_pilots(), scenario.grid_step_deg)
    reps = range(scenario.repetitions)
    if workers > 1:
        # imported here: the pool's modules take 18-28 ms to import at start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_auth_repetition, [scenario] * len(reps),
                                    [grid] * len(reps), reps))
    else:
        results = [_auth_repetition(scenario, grid, rep) for rep in reps]

    alice_total = ConfusionCounts()
    eve_totals: dict[tuple, ConfusionCounts] = {}
    for alice_counts, eve_counts in results:
        alice_total = alice_total + alice_counts
        for key, counts in eve_counts.items():
            eve_totals[key] = eve_totals.get(key, ConfusionCounts()) + counts

    rows = []
    for theta_e in scenario.eve_aoas_deg:
        for d_e in scenario.eve_distances_m:
            counts = eve_totals[(theta_e, d_e)] + alice_total
            rows.append(
                {
                    "attack": scenario.attack,
                    "theta_e_deg": float(theta_e),
                    "d_e_m": float(d_e),
                    "trials": counts.total,
                    "p_fa": p_fa(counts),
                    "p_md": p_md(counts),
                    "accuracy": accuracy(counts),
                }
            )
    return rows


# ----------------------------------------------------------------------
# output layout


def _openblas_core() -> str | None:
    """The kernel the OpenBLAS bundled with numpy picked for this CPU, if
    numpy bundles one; the sweeps' bits depend on it."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None


def write_manifest(out_dir, scenario: Scenario, experiment: str) -> None:
    import platform

    try:  # numpy 1.24 has no "dicts" mode
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    manifest = {
        "experiment": experiment,
        "master_seed": scenario.master_seed,
        "config_hash": scenario.config_hash(),
        "config": scenario.to_dict(),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "openblas_core": _openblas_core(),
        },
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
