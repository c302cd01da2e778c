"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Quantitative targets come from the reference operating points for this
system; property checks are exact.  The sweeps below run at desk scale
(test_size 20 000 x 10 repetitions) off a fixed master seed, so reruns are
reproducible.
"""

import json

import numpy as np
import pytest

from aoa_auth import (
    ArrayConfig,
    AttackContext,
    NodeGeometry,
    OcsvmParams,
    PilotSequence,
    ProbeSchedule,
    ResponseGrid,
    Scenario,
    channel_amplitude,
    location_based_attack,
    noise_variance,
    received_signal,
    run_auth_sweep,
    run_rmse_sweep,
    steering_vector,
    synthesize_observation,
    train,
)
from aoa_auth.cli import main as cli_main
from aoa_auth.ocsvm import kernel

from oracles import dual_objective, projected_gradient_ocsvm

pytestmark = pytest.mark.acceptance

MASTER_SEED = 20240
FULL_DISTANCES = [
    1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 150.0,
    200.0, 250.0, 400.0, 500.0, 750.0, 1000.0, 2000.0,
]


@pytest.fixture
def report(capfd):
    def _report(cid, ok, detail):
        with capfd.disabled():
            print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, f"criterion {cid}: {detail}"

    return _report


def _sweep_scenario(**overrides):
    base = dict(
        eve_distances_m=list(FULL_DISTANCES),
        test_size=20_000,
        repetitions=10,
        master_seed=MASTER_SEED,
    )
    base.update(overrides)
    return Scenario(**base)


@pytest.fixture(scope="module")
def lba_sweep():
    s = _sweep_scenario(attack="location-based", eve_aoas_deg=[30.0, 45.0])
    return run_auth_sweep(s)


@pytest.fixture(scope="module")
def lba_50m():
    s = _sweep_scenario(
        attack="location-based",
        eve_aoas_deg=[5.0, 20.0, 60.0],
        eve_distances_m=[50.0],
    )
    return run_auth_sweep(s)


@pytest.fixture(scope="module")
def cba_sweep():
    s = _sweep_scenario(attack="code-based", eve_aoas_deg=[45.0])
    return run_auth_sweep(s)


@pytest.fixture(scope="module")
def rmse_lba():
    s = _sweep_scenario(
        attack="location-based", eve_aoas_deg=[30.0, 45.0], trials=1000
    )
    return run_rmse_sweep(s)


@pytest.fixture(scope="module")
def rmse_cba():
    s = _sweep_scenario(
        attack="code-based", eve_aoas_deg=[45.0], eve_distances_m=[10.0], trials=1000
    )
    return run_rmse_sweep(s)


def _rows_at(rows, theta_e):
    return [r for r in rows if r["theta_e_deg"] == theta_e]


def test_criterion_1_lba45_accuracy_vs_distance(lba_sweep, report):
    rows = _rows_at(lba_sweep, 45.0)
    acc = {r["d_e_m"]: r["accuracy"] for r in rows}
    targets = {1.0: 0.497, 10.0: 0.716, 100.0: 0.959, 1000.0: 0.999}
    errors = []
    for d, want in targets.items():
        if abs(acc[d] - want) > 0.06:
            errors.append(f"acc({d:g} m)={acc[d]:.3f} want {want}+-0.06")
    seq = [r["accuracy"] for r in sorted(rows, key=lambda r: r["d_e_m"])]
    drops = min(np.diff(seq), default=0.0)
    if drops < -0.03:
        errors.append(f"accuracy not monotone (worst drop {drops:.3f})")
    detail = (
        "; ".join(errors)
        if errors
        else "accuracy at 1/10/100/1000 m = "
        + "/".join(f"{acc[d]:.3f}" for d in (1.0, 10.0, 100.0, 1000.0))
    )
    report(1, not errors, detail)


def test_criterion_2_lba45_missed_detection(lba_sweep, lba_50m, report):
    rows = _rows_at(lba_sweep, 45.0)
    pmd = {r["d_e_m"]: r["p_md"] for r in rows}
    errors = []
    if abs(pmd[10.0] - 0.525) > 0.08:
        errors.append(f"P_MD(10 m)={pmd[10.0]:.3f} want 0.525+-0.08")
    if pmd[1.0] < 0.9:
        errors.append(f"P_MD(1 m)={pmd[1.0]:.3f} want >= 0.9")
    at50 = {r["theta_e_deg"]: r["p_md"] for r in lba_50m}
    at50[45.0] = pmd[50.0]
    order = [at50[t] for t in (5.0, 20.0, 45.0, 60.0)]
    if not all(a > b for a, b in zip(order, order[1:])):
        errors.append(
            "ordering at 50 m broken: "
            + " ".join(f"P_MD({t:g})={at50[t]:.4f}" for t in (5.0, 20.0, 45.0, 60.0))
        )
    detail = (
        "; ".join(errors)
        if errors
        else f"P_MD(10 m)={pmd[10.0]:.3f}, P_MD(1 m)={pmd[1.0]:.3f}, ordering holds"
    )
    report(2, not errors, detail)


def test_criterion_3_lba30_attack_always_fails(lba_sweep, report):
    rows = _rows_at(lba_sweep, 30.0)
    worst = max(rows, key=lambda r: r["p_md"])
    ok = worst["p_md"] <= 0.01
    report(
        3,
        ok,
        f"max P_MD over distances = {worst['p_md']:.4f} at {worst['d_e_m']:g} m "
        "(limit 0.01)",
    )


def test_criterion_4_cba45_detected(cba_sweep, report):
    errors = []
    worst_acc = min(cba_sweep, key=lambda r: r["accuracy"])
    if worst_acc["accuracy"] < 0.97:
        errors.append(
            f"accuracy {worst_acc['accuracy']:.3f} at {worst_acc['d_e_m']:g} m < 0.97"
        )
    near = [r for r in cba_sweep if r["d_e_m"] <= 150.0]
    worst_pmd = max(near, key=lambda r: r["p_md"])
    if worst_pmd["p_md"] > 0.01:
        errors.append(
            f"P_MD {worst_pmd['p_md']:.4f} at {worst_pmd['d_e_m']:g} m > 0.01"
        )
    detail = (
        "; ".join(errors)
        if errors
        else f"min accuracy {worst_acc['accuracy']:.3f}, "
        f"max P_MD(<=150 m) {worst_pmd['p_md']:.4f}"
    )
    report(4, not errors, detail)


def test_criterion_5_false_alarm_rate(lba_sweep, lba_50m, cba_sweep, report):
    pfas = [r["p_fa"] for r in lba_sweep + lba_50m + cba_sweep]
    lo, hi = min(pfas), max(pfas)
    errors = []
    if not (0.004 <= lo and hi <= 0.03):
        errors.append(f"P_FA range [{lo:.4f}, {hi:.4f}] outside [0.004, 0.03]")
    if hi - lo >= 0.01:
        errors.append(f"P_FA varies by {hi - lo:.4f} across the sweep (limit 0.01)")
    detail = (
        "; ".join(errors)
        if errors
        else f"P_FA = {lo:.4f} (spread {hi - lo:.2e} across {len(pfas)} points)"
    )
    report(5, not errors, detail)


def test_criterion_6_rmse_trends(rmse_lba, rmse_cba, report):
    lba45 = {r["d_e_m"]: r["rmse_deg"] for r in _rows_at(rmse_lba, 45.0)}
    lba30 = _rows_at(rmse_lba, 30.0)
    cba45_10m = rmse_cba[0]["rmse_deg"]
    errors = []
    if not lba45[1000.0] > lba45[10.0]:
        errors.append(
            f"RMSE 45deg: {lba45[1000.0]:.3f} at 1000 m !> {lba45[10.0]:.3f} at 10 m"
        )
    if not cba45_10m > lba45[10.0]:
        errors.append(
            f"RMSE at (45deg, 10 m): code-based {cba45_10m:.3f} !> "
            f"location-based {lba45[10.0]:.3f}"
        )
    worst30 = min(r["rmse_deg"] for r in lba30)
    if worst30 < 20.0:
        errors.append(f"RMSE 30deg min over distances = {worst30:.1f} < 20")
    detail = (
        "; ".join(errors)
        if errors
        else f"45deg: {lba45[10.0]:.3f} -> {lba45[1000.0]:.3f} deg (10 m -> 1000 m); "
        f"code-based 10 m: {cba45_10m:.3f} deg; 30deg min: {worst30:.1f} deg"
    )
    report(6, not errors, detail)


def test_criterion_7_location_attack_identity(report):
    sched = ProbeSchedule.uniform(17, 16)
    pilots = PilotSequence.constant(17)
    cfg = ArrayConfig()
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    checked = 0
    for _ in range(50):
        theta_a, theta_e = rng.uniform(-89.0, 89.0, 2)
        ctx = AttackContext(sched, pilots, theta_a, theta_e)
        p, alpha = location_based_attack(ctx)
        if alpha == 0.0:
            continue
        y = received_signal(sched, NodeGeometry(10.0, theta_e), p, cfg)
        amp = np.sqrt(cfg.tx_power_watts) * channel_amplitude(10.0, cfg.carrier_freq_hz)
        expected = amp * alpha * sched.beam_gains(theta_a) * pilots.symbols
        live = np.abs(sched.beam_gains(theta_e)) ** 2 >= 1e-12 * 16**2
        rel = np.abs(y[live] - expected[live]) / np.maximum(
            np.abs(expected[live]), 1e-300
        )
        worst = max(worst, float(rel.max()))
        checked += 1
    ok = worst < 1e-10 and checked >= 45
    report(7, ok, f"worst relative error {worst:.2e} over {checked} geometries")


def test_criterion_8_beam_null_algebra(report):
    w = steering_vector(0.0, 16)
    g = abs(ProbeSchedule(np.zeros(2), np.stack([w, w])).beam_gains(30.0)[0])
    report(8, g < 1e-9, f"|broadside beam gain toward 30 deg| = {g:.2e}")


def test_criterion_9_estimator_against_bruteforce(report):
    sched = ProbeSchedule.uniform(17, 16)
    pilots = PilotSequence.constant(17)
    cfg = ArrayConfig()
    coarse = ResponseGrid(sched, pilots, 0.05)
    fine = ResponseGrid(sched, pilots, 0.005)
    rng = np.random.default_rng(MASTER_SEED + 1)
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(-80.0, 80.0)
        # the channel phase, then the noise, from the same stream
        signal = received_signal(sched, NodeGeometry(10.0, theta), pilots, cfg)
        y = synthesize_observation(signal, noise_variance(cfg), 1, rng)[0]
        t_hat = coarse.estimate(y).theta_hat_deg
        brute = fine.angles_deg[int(np.argmin(fine.costs_batch(y[None])[0]))]
        worst = max(worst, abs(t_hat - brute))
    clean = np.exp(0.4j) * received_signal(sched, NodeGeometry(10.0, 0.0), pilots, cfg)
    est = coarse.estimate(clean)
    energy = float(np.sum(np.abs(clean) ** 2))
    rel_min = abs(est.cost_at_min) / energy
    ok = worst <= 0.05 and abs(est.theta_hat_deg) < 1e-6 and rel_min < 1e-12
    report(
        9,
        ok,
        f"max |grid+refine - brute force| = {worst:.4f} deg over 100 noisy frames; "
        f"noiseless minimum {rel_min:.1e} of frame energy at "
        f"{est.theta_hat_deg:.2e} deg",
    )


def test_criterion_10_ocsvm_solver(report):
    rng = np.random.default_rng(MASTER_SEED + 2)
    worst_gap = 0.0
    worst_kkt = 0.0
    for _ in range(20):
        l = int(rng.integers(5, 21))
        x = rng.normal(0.0, 1.0, l)
        nu = float(rng.uniform(0.2, 0.9))
        gamma = float(rng.uniform(0.1, 2.0))
        m = train(x, OcsvmParams(nu=nu, gamma=gamma, solver_tol=1e-8))
        k_matrix = kernel(x[:, None], x[None, :], gamma)
        c = 1.0 / (nu * l)
        ref = projected_gradient_ocsvm(k_matrix, c)
        alpha = np.zeros(l)
        idx = {v: i for i, v in enumerate(x)}
        for p, a in zip(m.support_points, m.alphas):
            alpha[idx[p]] = a
        worst_gap = max(
            worst_gap,
            abs(dual_objective(alpha, k_matrix) - dual_objective(ref, k_matrix)),
        )
        grad = k_matrix @ alpha
        up = alpha < c - 1e-12
        low = alpha > 1e-12
        worst_kkt = max(worst_kkt, float(grad[low].max() - grad[up].min()))

    # nu-property: the training rejection rate tracks nu.  Measured on data
    # the kernel can resolve, with a tight solver tolerance so margin points
    # do not straddle zero numerically.
    nu_gap = 0.0
    rng_nu = np.random.default_rng(MASTER_SEED + 3)
    for nu in (0.015, 0.1, 0.3):
        x = rng_nu.normal(0.0, 1.0, 1000)
        m = train(x, OcsvmParams(nu=nu, solver_tol=1e-8, max_iters=500_000))
        rejected = float(np.mean(m.decision(x) < 0.0))
        nu_gap = max(nu_gap, abs(rejected - nu))

    ok = worst_gap < 1e-6 and worst_kkt < 1e-6 and nu_gap < 0.01
    report(
        10,
        ok,
        f"max dual gap {worst_gap:.2e}, max KKT residual {worst_kkt:.2e}, "
        f"nu-property deviation {nu_gap:.4f}",
    )


def test_criterion_11_deterministic_csv_output(tmp_path, report):
    cfg = dict(
        eve_aoas_deg=[45.0],
        eve_distances_m=[10.0, 100.0],
        trials=20,
        train_size=200,
        test_size=400,
        repetitions=3,
        master_seed=MASTER_SEED,
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for name, workers in (("w1", 1), ("w2", 2), ("w1b", 1)):
        out = tmp_path / name
        rc = cli_main(
            [
                "auth-sweep",
                "--config", str(cfg_path),
                "--out", str(out),
                "--workers", str(workers),
            ]
        )
        assert rc == 0
        outputs.append((out / "auth.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(
        11,
        ok,
        f"auth.csv identical across reruns and worker counts ({len(outputs[0])} bytes)"
        if ok
        else "CSV output differs across runs or worker counts",
    )
