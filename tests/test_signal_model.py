import numpy as np
import pytest
from hypothesis import given, strategies as st

from aoa_auth import (
    ArrayConfig,
    NodeGeometry,
    PilotSequence,
    ProbeSchedule,
    channel_amplitude,
    noise_variance,
    received_signal,
    steering_vector,
    synthesize_observation,
)

from oracles import naive_beam_gain, naive_steering


def beam_gain(combiner, aoa_deg):
    # w^H a(theta) through ProbeSchedule.beam_gains, on a schedule that
    # repeats the one combiner
    sched = ProbeSchedule(np.zeros(2), np.stack([combiner, combiner]))
    return complex(sched.beam_gains(aoa_deg)[0])


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        assert np.allclose(steering_vector(0.0, 16), np.ones(16))

    def test_endfire_alternates(self):
        # sin 90 = 1: entries exp(j*pi*n) = (-1)^n
        assert np.allclose(steering_vector(90.0, 4), [-1, 1, -1, 1])

    def test_thirty_degrees_quarter_turns(self):
        # sin 30 = 1/2: entry n is exp(j*pi*n/2), cycling j, -1, -j, 1
        v = steering_vector(30.0, 16)
        expected = np.array([1j, -1, -1j, 1] * 4)
        assert np.allclose(v, expected)

    def test_matches_naive_oracle(self):
        for theta in [-71.3, -12.0, 8.5, 33.0, 77.7]:
            assert np.allclose(steering_vector(theta, 9), naive_steering(theta, 9))

    @given(st.floats(min_value=-90.0, max_value=90.0), st.integers(1, 64))
    def test_unit_modulus(self, theta, n):
        assert np.allclose(np.abs(steering_vector(theta, n)), 1.0)

    def test_rejects_empty_array(self):
        with pytest.raises(ValueError):
            steering_vector(0.0, 0)


class TestBeamGain:
    def test_aligned_beam_sums_to_n(self):
        w = steering_vector(45.0, 16)
        assert beam_gain(w, 45.0) == pytest.approx(16.0)

    def test_exact_null_at_thirty_degrees(self):
        # sum of j^n over n=1..16 cycles with period 4 and cancels
        w = steering_vector(0.0, 16)
        assert abs(beam_gain(w, 30.0)) < 1e-9
        assert abs(naive_beam_gain(list(w), 30.0)) < 1e-9

    def test_broadside_aligned(self):
        assert beam_gain(steering_vector(0.0, 16), 0.0) == pytest.approx(16.0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t1, t2 = rng.uniform(-90, 90, 2)
            w = steering_vector(t1, 11)
            assert beam_gain(w, t2) == pytest.approx(naive_beam_gain(list(w), t2))

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            t1, t2 = rng.uniform(-90, 90, 2)
            g12 = beam_gain(steering_vector(t1, 8), t2)
            g21 = beam_gain(steering_vector(t2, 8), t1)
            assert g12 == pytest.approx(np.conj(g21))

    def test_magnitude_bounded_by_n(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t1, t2 = rng.uniform(-90, 90, 2)
            assert abs(beam_gain(steering_vector(t1, 16), t2)) <= 16.0 + 1e-9


class TestChannelAmplitude:
    def test_reference_distance(self):
        assert channel_amplitude(10.0, 2.5e9) == pytest.approx(9.5427e-4, rel=1e-4)

    def test_inverse_distance_scaling(self):
        a10 = channel_amplitude(10.0, 2.5e9)
        assert channel_amplitude(100.0, 2.5e9) == pytest.approx(a10 / 10.0)

    def test_one_meter(self):
        assert channel_amplitude(1.0, 2.5e9) == pytest.approx(9.5427e-3, rel=1e-4)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            channel_amplitude(0.0, 2.5e9)


class TestArrayConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("num_antennas", 1), ("carrier_freq_hz", 0.0), ("bandwidth_hz", -20e6),
         ("tx_power_dbm", 4000.0), ("noise_psd_dbm_hz", 4000.0), ("tx_power_dbm", np.nan)],
    )
    def test_rejects_unusable_field(self, field, value):
        # 4000 dBm overflows a float in watts
        with pytest.raises(ValueError, match=field):
            ArrayConfig(**{field: value})

    def test_rejects_infinite_noise_power(self):
        # N0 = 1e297 W/Hz is finite, N0 * W is not
        with pytest.raises(ValueError, match=r"noise_psd_dbm_hz and bandwidth_hz .* N0\*W"):
            ArrayConfig(noise_psd_dbm_hz=3000.0, bandwidth_hz=1e20)

    def test_minus_infinite_dbm_is_zero_watts(self):
        assert ArrayConfig(tx_power_dbm=-np.inf).tx_power_watts == 0.0
        assert noise_variance(ArrayConfig(noise_psd_dbm_hz=-np.inf)) == 0.0


class TestNoiseVariance:
    def test_thermal_floor_20mhz(self):
        cfg = ArrayConfig(noise_psd_dbm_hz=-174.0, bandwidth_hz=20e6)
        assert noise_variance(cfg) == pytest.approx(7.962e-14, rel=1e-3)

    def test_linear_in_bandwidth(self):
        a = noise_variance(ArrayConfig(bandwidth_hz=20e6))
        b = noise_variance(ArrayConfig(bandwidth_hz=2e6))
        assert a == pytest.approx(10.0 * b)

    def test_psd_shift(self):
        a = noise_variance(ArrayConfig(noise_psd_dbm_hz=-174.0))
        b = noise_variance(ArrayConfig(noise_psd_dbm_hz=-204.0))
        assert a == pytest.approx(1e3 * b)


class TestProbeSchedule:
    def test_uniform_spacing_includes_endpoints(self):
        sched = ProbeSchedule.uniform(17, 16)
        assert sched.probe_angles_deg[0] == -90.0
        assert sched.probe_angles_deg[-1] == 90.0
        assert np.allclose(np.diff(sched.probe_angles_deg), 11.25)
        assert 0.0 in sched.probe_angles_deg
        assert 45.0 in sched.probe_angles_deg

    def test_combiners_are_unit_modulus(self):
        sched = ProbeSchedule.uniform(9, 8)
        assert np.allclose(np.abs(sched.combiners), 1.0)

    def test_rejects_single_probe(self):
        with pytest.raises(ValueError):
            ProbeSchedule.uniform(1, 8)

    def test_rejects_non_unit_combiners(self):
        with pytest.raises(ValueError):
            ProbeSchedule(np.array([0.0, 10.0]), np.full((2, 4), 0.5 + 0j))

    @pytest.mark.parametrize(
        "angles, combiners, match",
        [(np.zeros((2, 1)), np.ones((2, 4)), "1-D"), (np.zeros(2), np.ones(4), "2-D"),
         (np.zeros(3), np.ones((2, 4)), "length mismatch"),
         (np.array([0.0, 90.5]), np.ones((2, 4)), r"\[-90, 90\]")],
    )
    def test_rejects_malformed_schedule(self, angles, combiners, match):
        with pytest.raises(ValueError, match=match):
            ProbeSchedule(angles, combiners)


class TestPilotSequence:
    def test_constant_pilot_energy(self):
        p = PilotSequence.constant(17)
        assert np.sum(np.abs(p.symbols) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_wrong_energy(self):
        with pytest.raises(ValueError):
            PilotSequence(np.ones(4))

    def test_rejects_symbols_not_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            PilotSequence(np.full((2, 2), 0.5))

    def test_constant_needs_a_symbol(self):
        with pytest.raises(ValueError, match="t_len"):
            PilotSequence.constant(0)


class TestSynthesizeObservation:
    def setup_method(self):
        self.cfg = ArrayConfig()
        self.sched = ProbeSchedule.uniform(17, 16)
        self.pilots = PilotSequence.constant(17)

    def signal(self, geom, pilots=None, cfg=None):
        return received_signal(
            self.sched, geom, pilots or self.pilots, cfg or self.cfg
        )

    def test_aligned_noiseless_value(self):
        geom = NodeGeometry(10.0, 0.0)
        y = synthesize_observation(self.signal(geom), 0.0, 1, np.random.default_rng(3))
        phase = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi)
        amp = np.sqrt(self.cfg.tx_power_watts) * channel_amplitude(10.0, 2.5e9)
        expected = amp * np.exp(1j * phase) * 16.0 / np.sqrt(17.0)
        t0 = list(self.sched.probe_angles_deg).index(0.0)
        assert y[0, t0] == pytest.approx(expected)

    def test_beam_null_gives_zero_sample(self):
        y = self.signal(NodeGeometry(10.0, 30.0))
        t0 = list(self.sched.probe_angles_deg).index(0.0)
        assert abs(y[t0]) < 1e-12

    def test_zero_power_is_pure_noise(self):
        cfg = ArrayConfig(tx_power_dbm=float("-inf"))
        sigma2 = noise_variance(cfg)
        signal = self.signal(NodeGeometry(10.0, 0.0), cfg=cfg)
        y = synthesize_observation(signal, sigma2, 3, np.random.default_rng(0))
        # the phases are drawn first, then the real and the imaginary noise
        rng2 = np.random.default_rng(0)
        rng2.uniform(0.0, 2.0 * np.pi, 3)
        noise = np.sqrt(sigma2 / 2) * (
            rng2.standard_normal((3, 17)) + 1j * rng2.standard_normal((3, 17))
        )
        assert np.allclose(y, noise)

    def test_sequence_of_streams_equals_stacked_single_frames(self):
        signal = self.signal(NodeGeometry(50.0, 20.0))
        sigma2 = noise_variance(self.cfg)
        seeds = [3, 1, 4, 1, 5, 9]
        y = synthesize_observation(
            signal, sigma2, len(seeds), [np.random.default_rng(s) for s in seeds]
        )
        stacked = np.concatenate([
            synthesize_observation(signal, sigma2, 1, np.random.default_rng(s))
            for s in seeds
        ])
        assert np.array_equal(y, stacked)

    def test_lazy_streams_equal_a_list(self):
        signal = self.signal(NodeGeometry(50.0, 20.0))
        listed = synthesize_observation(
            signal, 1e-12, 4, [np.random.default_rng(s) for s in range(4)]
        )
        lazy = synthesize_observation(
            signal, 1e-12, 4, (np.random.default_rng(s) for s in range(4))
        )
        assert np.array_equal(listed, lazy)

    @pytest.mark.parametrize("streams", [2, 4])
    def test_number_of_streams_must_match_count(self, streams):
        rngs = [np.random.default_rng(s) for s in range(streams)]
        with pytest.raises(ValueError):
            synthesize_observation(self.signal(NodeGeometry(10.0, 0.0)), 1.0, 3, rngs)

    def test_noiseless_linear_in_pilots(self):
        geom = NodeGeometry(25.0, 12.0)
        p1 = PilotSequence.constant(17)
        phases = np.exp(1j * np.linspace(0, 3, 17))
        p2 = PilotSequence(phases / np.sqrt(17.0))
        y1 = self.signal(geom, p1)
        y2 = self.signal(geom, p2)
        assert np.allclose(y2, y1 * phases)

    def test_empirical_noise_variance(self):
        cfg = ArrayConfig(tx_power_dbm=float("-inf"))
        sched = ProbeSchedule.uniform(2, 16)
        pilots = PilotSequence.constant(2)
        signal = received_signal(sched, NodeGeometry(10.0, 0.0), pilots, cfg)
        sigma2 = noise_variance(cfg)
        draws = synthesize_observation(signal, sigma2, 60_000, np.random.default_rng(11))
        measured = np.mean(np.abs(draws) ** 2)
        assert measured == pytest.approx(sigma2, rel=0.02)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            received_signal(
                self.sched, NodeGeometry(10.0, 0.0), PilotSequence.constant(5), self.cfg
            )

    def test_refuses_infinite_amplitude(self):
        # the wavelength at 1e-300 Hz overflows; an infinite amplitude times
        # an exact-zero beam gain would make a NaN sample
        cfg = ArrayConfig(carrier_freq_hz=1e-300)
        with pytest.raises(ValueError, match="received amplitude inf is not finite"):
            received_signal(self.sched, NodeGeometry(10.0, 0.0), self.pilots, cfg)
