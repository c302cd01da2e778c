import dataclasses

import numpy as np
import pytest

from aoa_auth import (
    ArrayConfig,
    AttackContext,
    AttackKind,
    NodeGeometry,
    PilotSequence,
    ProbeSchedule,
    ResponseGrid,
    attack_pilots,
    channel_amplitude,
    code_based_attack,
    location_based_attack,
    noise_variance,
    random_attack,
    received_signal,
    synthesize_observation,
)
from aoa_auth.attacks import DegenerateAttackError

from oracles import naive_beam_gain


def default_ctx(eve_aoa=None, target=0.0, t_len=17, n=16):
    sched = ProbeSchedule.uniform(t_len, n)
    return AttackContext(
        schedule=sched,
        alice_pilots=PilotSequence.constant(t_len),
        target_aoa_deg=target,
        eve_aoa_deg=eve_aoa,
    )


class TestRandomAttack:
    def test_symbol_moduli(self):
        p = random_attack(17, np.random.default_rng(0))
        assert np.allclose(np.abs(p.symbols), 1.0 / np.sqrt(17.0))

    def test_single_symbol(self):
        p = random_attack(1, np.random.default_rng(1))
        assert abs(abs(p.symbols[0]) - 1.0) < 1e-12

    def test_deterministic_for_fixed_seed(self):
        p1 = random_attack(17, np.random.default_rng(42))
        p2 = random_attack(17, np.random.default_rng(42))
        assert np.array_equal(p1.symbols, p2.symbols)

    def test_unit_energy(self):
        p = random_attack(13, np.random.default_rng(2))
        assert np.sum(np.abs(p.symbols) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_needs_a_symbol(self):
        with pytest.raises(ValueError, match="t_len"):
            random_attack(0, np.random.default_rng(3))


class TestCodeBasedAttack:
    def test_aligned_beams_reproduce_pilot(self):
        # both combiners point straight at the target: the gain N cancels
        # against the normalization and Eve sends the victim pilot itself
        n = 16
        sched = ProbeSchedule.uniform(17, n)
        aligned = np.stack([sched.combiners[8]] * 2)  # the 0-degree beam twice
        sched2 = ProbeSchedule(np.array([0.0, 0.0]), aligned)
        ctx = AttackContext(sched2, PilotSequence.constant(2), 0.0)
        p, alpha = code_based_attack(ctx)
        assert np.allclose(p.symbols, PilotSequence.constant(2).symbols)
        assert alpha == pytest.approx(1.0 / (n * 1.0))

    def test_normalization_matches_bruteforce(self):
        ctx = default_ctx()
        p, alpha = code_based_attack(ctx)
        acc = 0.0
        for t, angle in enumerate(ctx.schedule.probe_angles_deg):
            g = naive_beam_gain(list(ctx.schedule.combiners[t]), 0.0)
            acc += abs(g * (1.0 / np.sqrt(17.0))) ** 2
        assert alpha == pytest.approx(acc ** -0.5)
        assert np.sum(np.abs(p.symbols) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_when_all_beams_null(self):
        # every combiner points broadside while the target sits in its null
        w = np.stack([ProbeSchedule.uniform(3, 16).combiners[1]] * 2)
        sched = ProbeSchedule(np.array([0.0, 0.0]), w)
        ctx = AttackContext(sched, PilotSequence.constant(2), 30.0)
        with pytest.raises(DegenerateAttackError):
            code_based_attack(ctx)

    def test_observation_carries_both_beam_patterns(self):
        # noiseless received sample is proportional to the product of the
        # beam gains toward Eve and toward the target
        ctx = default_ctx(eve_aoa=45.0)
        p, alpha = code_based_attack(ctx)
        cfg = ArrayConfig()
        y = received_signal(ctx.schedule, NodeGeometry(10.0, 45.0), p, cfg)
        amp = np.sqrt(cfg.tx_power_watts) * channel_amplitude(10.0, cfg.carrier_freq_hz)
        for t in range(17):
            gE = naive_beam_gain(list(ctx.schedule.combiners[t]), 45.0)
            gA = naive_beam_gain(list(ctx.schedule.combiners[t]), 0.0)
            expected = amp * alpha * gE * gA / np.sqrt(17.0)
            assert y[t] == pytest.approx(expected, abs=1e-18)


class TestLocationBasedAttack:
    def test_collapses_to_identity_when_angles_match(self):
        ctx = default_ctx(eve_aoa=10.0, target=10.0)
        p, alpha = location_based_attack(ctx)
        assert alpha == pytest.approx(1.0)
        assert np.allclose(p.symbols, ctx.alice_pilots.symbols)

    def test_null_aligned_attack_fails(self):
        # the broadside probe is exactly null toward 30 degrees, so the
        # unit-energy limit parks all power there and the verifier receives
        # nothing
        ctx = default_ctx(eve_aoa=30.0)
        p, alpha = location_based_attack(ctx)
        assert alpha == 0.0
        assert np.sum(np.abs(p.symbols) ** 2) == pytest.approx(1.0, abs=1e-12)
        geom = NodeGeometry(10.0, 30.0)
        y = received_signal(ctx.schedule, geom, p, ArrayConfig())
        # received energy is nil compared to an unattacked frame
        ref = received_signal(ctx.schedule, geom, ctx.alice_pilots, ArrayConfig())
        assert np.sum(np.abs(y) ** 2) < 1e-20 * np.sum(np.abs(ref) ** 2)

    def test_received_signal_mimics_victim(self):
        # gain-inversion cancellation: the noiseless frame equals a positive scalar
        # times the victim's noiseless frame
        ctx = default_ctx(eve_aoa=45.0)
        p, scale = location_based_attack(ctx)
        cfg = ArrayConfig()
        y_eve = received_signal(ctx.schedule, NodeGeometry(10.0, 45.0), p, cfg)
        y_alice = received_signal(
            ctx.schedule, NodeGeometry(10.0, 0.0), ctx.alice_pilots, cfg
        )
        assert 0.0 < scale < 1.0
        live = np.abs(ctx.schedule.beam_gains(45.0)) ** 2 >= 1e-12 * 256
        np.testing.assert_allclose(
            y_eve[live], scale * y_alice[live], rtol=1e-10, atol=0.0
        )

    def test_degenerate_when_target_null_on_every_live_probe(self):
        # Eve and the target at broadside: the second beam, w = [1, -1], is
        # null toward both, so only the first probe is live, and Alice's
        # pilot is zero there, so nothing of the target's signal is left
        sched = ProbeSchedule([0.0, 90.0], [[1.0, 1.0], [1.0, -1.0]])
        ctx = AttackContext(sched, PilotSequence([0.0, 1.0]), 0.0, 0.0)
        with pytest.raises(DegenerateAttackError):
            location_based_attack(ctx)

    def test_requires_eve_angle(self):
        with pytest.raises(ValueError):
            location_based_attack(default_ctx())

    def test_unit_energy_random_geometries(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            theta_a, theta_e = rng.uniform(-85, 85, 2)
            ctx = default_ctx(eve_aoa=theta_e, target=theta_a)
            p, _ = location_based_attack(ctx)
            assert np.sum(np.abs(p.symbols) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestLocationAttackMetamorphic:
    # Eve's noiseless frame under the location-based attack is alpha times
    # Alice's from the same distance, and the channel amplitude falls as 1/d,
    # so Eve at d sends what Alice sends from d / alpha.  With the same noise
    # stream both get the same estimates, so P_MD(theta_e, d) is the
    # verifier's acceptance of Alice at d / alpha.

    @pytest.fixture(scope="class")
    def grid(self):
        ctx = default_ctx()
        return ResponseGrid(ctx.schedule, ctx.alice_pilots)

    @staticmethod
    def estimates(grid, pilots, geometry, seed):
        cfg = ArrayConfig()
        signal = received_signal(grid.schedule, geometry, pilots, cfg)
        frames = synthesize_observation(signal, noise_variance(cfg), 2000, np.random.default_rng(seed))
        return grid.estimate_batch(frames)

    @pytest.mark.parametrize("theta_e", [5.0, 20.0, 45.0, 60.0])
    def test_eve_at_d_is_alice_at_d_over_alpha(self, grid, theta_e):
        ctx = default_ctx(eve_aoa=theta_e)
        pilots, alpha = location_based_attack(ctx)
        assert 0.0 < alpha < 1.0
        for seed, d in enumerate((1.0, 10.0, 25.0)):
            eve = self.estimates(grid, pilots, NodeGeometry(d, theta_e), seed)
            alice = self.estimates(grid, ctx.alice_pilots, NodeGeometry(d / alpha, 0.0), seed)
            assert np.max(np.abs(eve - alice)) <= 1e-9, d

    def test_null_aligned_attack_is_one_distribution_at_every_distance(self, grid):
        # alpha = 0 at 30 deg: the verifier receives only noise, so Eve's
        # estimates, and P_MD(30 deg, d), are the same at every distance
        pilots, alpha = location_based_attack(default_ctx(eve_aoa=30.0))
        assert alpha == 0.0
        far = self.estimates(grid, pilots, NodeGeometry(2000.0, 30.0), seed=3)
        for d in (1.0, 10.0, 100.0):
            near = self.estimates(grid, pilots, NodeGeometry(d, 30.0), seed=3)
            assert np.max(np.abs(near - far)) <= 1e-6, d


class TestDispatch:
    def test_none_returns_victim_pilot(self):
        ctx = default_ctx()
        p, alpha = attack_pilots(AttackKind.NONE, ctx)
        assert p is ctx.alice_pilots
        assert alpha == 1.0

    def test_alpha_is_returned_and_context_is_frozen(self):
        ctx = default_ctx(eve_aoa=45.0)
        rng = np.random.default_rng(3)
        assert attack_pilots(AttackKind.RANDOM, ctx, rng)[1] == 1.0
        _, alpha = attack_pilots(AttackKind.LOCATION_BASED, ctx)
        assert alpha == location_based_attack(ctx)[1] > 0.0
        _, alpha = attack_pilots(AttackKind.CODE_BASED, ctx)
        assert alpha == code_based_attack(ctx)[1] > 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.eve_aoa_deg = 10.0

    def test_random_requires_rng(self):
        with pytest.raises(ValueError):
            attack_pilots(AttackKind.RANDOM, default_ctx())

    def test_kind_parsing(self):
        assert AttackKind.from_string("Location-Based") is AttackKind.LOCATION_BASED
        with pytest.raises(ValueError):
            AttackKind.from_string("sneaky")
