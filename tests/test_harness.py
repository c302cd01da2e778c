import numpy as np
import pytest

from aoa_auth import (
    Scenario,
    derive_trial_rng,
    run_auth_sweep,
    run_cost_curve_experiment,
    run_rmse_sweep,
)
from aoa_auth import NodeGeometry, ResponseGrid, harness
from aoa_auth.config import ConfigError
from aoa_auth.metrics import rmse


def small_scenario(**overrides):
    base = dict(
        eve_aoas_deg=[45.0],
        eve_distances_m=[10.0, 100.0],
        trials=50,
        train_size=200,
        test_size=200,
        repetitions=2,
        master_seed=7,
    )
    base.update(overrides)
    return Scenario(**base)


class TestDeriveTrialRng:
    def test_repeatable(self):
        a = derive_trial_rng(7, "auth", 3, "train").standard_normal(5)
        b = derive_trial_rng(7, "auth", 3, "train").standard_normal(5)
        assert np.array_equal(a, b)

    def test_distinct_labels_give_distinct_streams(self):
        a = derive_trial_rng(7, "auth", 3, "train").standard_normal(5)
        b = derive_trial_rng(7, "auth", 4, "train").standard_normal(5)
        c = derive_trial_rng(8, "auth", 3, "train").standard_normal(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_float_and_string_labels(self):
        a = derive_trial_rng(1, "eve", 45.0, 10.0).standard_normal(3)
        b = derive_trial_rng(1, "eve", 45.0, 100.0).standard_normal(3)
        assert not np.array_equal(a, b)

    def test_adjacent_streams_uncorrelated(self):
        n = 100_000
        x = derive_trial_rng(3, "rmse", 0).standard_normal(n)
        y = derive_trial_rng(3, "rmse", 1).standard_normal(n)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.01


# derive_trial_rng(seed, *labels).standard_normal(4), recorded before the
# per-point derivation went in; these pin every stream the simulator draws
PINNED_STREAMS = [
    (0, (), [0.1257302210933933, -0.1321048632913019, 0.6404226504432821, 0.10490011715303971]),
    (0, ("rmse", "code-based", 45.0, 1000.0, 0),
     [1.053277676723883, -0.1492412487869532, -0.5831255851930872, -1.8809635719365412]),
    (2**32 - 1, ("auth", 3, "train"),
     [1.5560600044851713, 0.8339816180701619, -0.40960732535368977, 0.8233649020664644]),
    (2**32, ("estimate",),
     [-0.3685779786168347, 1.0965797189556448, 0.26850112438771695, 1.8375950909026055]),
    (2**64 - 1, ("cost-curve", "alice"),
     [0.5526557278362295, -0.3618525587046471, 0.41983428125869, 1.994262057566697]),
    (20240, ("rmse", "location-based", 5.0, 10.0, -1),
     [-0.7027605081178052, 0.8954208718556919, 1.7516763455686895, 0.7018543910802352]),
    (20240, ("auth", np.int64(5), "eve", 45.0, 1000.0),
     [-1.9537970420673034, -0.45811157482789344, 0.4740022540187803, 0.18790448968667237]),
    (7, ("eve", 0, 2**32, 2**63 + 5),
     [0.4271100090289768, -0.23512271850248645, 1.700985535289087, 1.0879818772527083]),
]


def _state(rng):
    return rng.bit_generator.state


class TestStreamDerivation:
    @pytest.mark.parametrize("seed, labels, expected", PINNED_STREAMS)
    def test_streams_pinned(self, seed, labels, expected):
        drawn = derive_trial_rng(seed, *labels).standard_normal(4)
        assert np.array_equal(drawn, np.array(expected))

    def test_entropy_is_seedsequence_coercion_of_the_words(self):
        # SeedSequence splits each int into uint32 words, low word first, and
        # drops a zero high word
        edge = [0, 1, 2**32 - 1, 2**32, 2**40, 2**63 + 5, 2**64 - 1]
        rng = np.random.default_rng(0)
        random = [
            [int(w) for w in rng.integers(0, 2**64, n, dtype=np.uint64)]
            for n in rng.integers(1, 9, 200)
        ]
        for words in [[w] for w in edge] + [edge, edge[::-1]] + random:
            from_ints = np.random.SeedSequence(words)
            from_words = np.random.SeedSequence(
                np.array(harness._entropy(*words), dtype=np.uint32)
            )
            assert np.array_equal(from_ints.pool, from_words.pool), words

    @staticmethod
    def _rows(lengths):
        rng = np.random.default_rng(2024)
        rows = [[int(w) for w in rng.integers(0, 2**32, n, dtype=np.uint64)]
                for n in rng.integers(lengths[0], lengths[-1] + 1, 360)]
        rows += [[w] * n for n in (1, 4, 5, 12) for w in (0, 2**32 - 1) if n in lengths]
        rows += [[0, 2**32 - 1] * 5, [2**32 - 1, 0, 0, 0, 0, 1]]
        assert {len(row) for row in rows} == set(lengths)
        return rows

    @staticmethod
    def _numpy_state(row):
        return _state(np.random.Generator(np.random.PCG64(np.random.SeedSequence(row))))

    def test_derive_trial_rng_matches_numpy_seeding(self):
        # rows of 1-12 words: longer than 4 reaches SeedSequence's extra
        # mixing loop (an RMSE point's rows are about 10 words)
        for row in self._rows(range(1, 13)):
            assert _state(derive_trial_rng(*row)) == self._numpy_state(row), row

    def test_streams_match_numpy_seeding(self):
        # rows of 5-12 words, split as the RMSE sweep splits a trial's row:
        # every word but the last shared, the last an array over the rows
        rows = self._rows(range(5, 13))
        for length in range(5, 13):
            same = np.array([row for row in rows if len(row) == length], dtype=np.uint32)
            prefix = [int(w) for w in same[0, :-1]]
            expected = [self._numpy_state(prefix + [int(w)]) for w in same[:, -1]]
            assert [_state(s) for s in harness._streams(prefix, same[:, -1])] == expected

    def test_streams_need_a_four_word_prefix(self):
        with pytest.raises(ValueError):
            next(harness._streams([1, 2, 3], np.zeros(2, dtype=np.uint32)))

    def test_held_streams_are_independent(self):
        labels = (20240, "rmse", "code-based", 45.0, 1000.0)
        trials = np.array([0, 1], dtype=np.uint32)
        first, second = harness._streams(harness._entropy(*labels), trials)
        drawn = {0: [], 1: []}
        for _ in range(3):
            drawn[0].append(first.integers(0, 2**32, 3, dtype=np.uint32))
            drawn[1].append(second.integers(0, 2**32, 3, dtype=np.uint32))
        for k in (0, 1):
            assert np.array_equal(
                np.concatenate(drawn[k]),
                derive_trial_rng(*labels, k).integers(0, 2**32, 9, dtype=np.uint32),
            )

    @pytest.mark.parametrize("trial", [0, 1, 149, 10**6 - 1, 2**32 - 1])
    def test_point_prefix_gives_the_trial_stream(self, trial):
        labels = (20240, "rmse", "code-based", 45.0, 1000.0)
        trials = np.array([trial, trial ^ 1], dtype=np.uint32)
        composed = [_state(rng) for rng in harness._streams(harness._entropy(*labels), trials)]
        assert composed == [_state(derive_trial_rng(*labels, int(k))) for k in trials]

    def test_rmse_sweep_draws_each_trial_stream(self, monkeypatch):
        # each stream's state is read as it is handed out, before synthesis
        # draws from it
        s = small_scenario(attack="code-based", trials=150, eve_distances_m=[10.0])
        drawn = []
        synthesize = harness.synthesize_observation

        def recording(signal, noise_var, count, rngs):
            states = []
            drawn.append(states)

            def record():
                for rng in rngs:
                    states.append(_state(rng))
                    yield rng

            return synthesize(signal, noise_var, count, record())

        monkeypatch.setattr(harness, "synthesize_observation", recording)
        run_rmse_sweep(s)
        assert drawn == [
            [_state(derive_trial_rng(7, "rmse", "code-based", 45.0, 10.0, k))
             for k in range(150)]
        ]
        # they are numpy's children of the point's SeedSequence
        point = np.random.SeedSequence(harness._entropy(7, "rmse", "code-based", 45.0, 10.0))
        assert drawn == [[_state(np.random.default_rng(child)) for child in point.spawn(150)]]


@pytest.fixture(scope="module")
def curves():
    return run_cost_curve_experiment(small_scenario(grid_step_deg=0.1))


class TestCostCurveExperiment:
    def test_all_sources_present(self, curves):
        assert set(curves) == {
            "alice",
            "eve_no_attack",
            "random_attack",
            "code_based",
            "location_based",
        }

    def test_alice_minimum_at_her_angle(self, curves):
        c = curves["alice"]
        assert abs(c.angles_deg[np.argmin(c.costs)]) < 0.5

    def test_unattacked_eve_minimum_at_her_angle(self, curves):
        c = curves["eve_no_attack"]
        assert abs(c.angles_deg[np.argmin(c.costs)] - 45.0) < 0.5

    def test_location_attack_minimum_at_victim_angle(self, curves):
        c = curves["location_based"]
        assert abs(c.angles_deg[np.argmin(c.costs)]) < 0.5

    def test_random_attack_minimum_away_from_victim(self, curves):
        c = curves["random_attack"]
        assert abs(c.angles_deg[np.argmin(c.costs)]) > 2.0

    def test_deterministic(self):
        s = small_scenario(grid_step_deg=0.25)
        c1 = run_cost_curve_experiment(s)
        c2 = run_cost_curve_experiment(s)
        for name in c1:
            assert np.array_equal(c1[name].costs, c2[name].costs)


class TestRmseSweep:
    def test_rows_and_determinism(self):
        s = small_scenario(attack="location-based", trials=30)
        rows1 = run_rmse_sweep(s)
        rows2 = run_rmse_sweep(s)
        assert [r["rmse_deg"] for r in rows1] == [r["rmse_deg"] for r in rows2]
        assert [(r["theta_e_deg"], r["d_e_m"]) for r in rows1] == [
            (45.0, 10.0),
            (45.0, 100.0),
        ]

    def test_error_grows_with_distance(self):
        s = small_scenario(attack="location-based", trials=60,
                           eve_distances_m=[10.0, 2000.0])
        rows = run_rmse_sweep(s)
        assert rows[1]["rmse_deg"] > rows[0]["rmse_deg"]

    def test_rejects_non_impersonation_attack(self):
        with pytest.raises(ValueError):
            run_rmse_sweep(small_scenario(attack="none"))

    def test_rejects_invalid_scenario(self):
        with pytest.raises(ConfigError):
            run_rmse_sweep(small_scenario(trials=0))


class TestRmseSweepGrouping:
    # run_rmse_sweep estimates consecutive points of one attacker angle in
    # one call of at most a block of frames; its rows must be those of
    # estimating every point alone, from the same streams

    @pytest.fixture(scope="class")
    def block(self):
        s = small_scenario()
        return ResponseGrid(s.schedule(), s.alice_pilots(), s.grid_step_deg).block_rows

    @staticmethod
    def per_point(s):
        # each point's frames and its RMSE, estimated alone
        schedule = s.schedule()
        grid = ResponseGrid(schedule, s.alice_pilots(), s.grid_step_deg)
        trials = np.arange(s.trials, dtype=np.uint32)
        points = []
        for theta_e in s.eve_aoas_deg:
            pilots, _ = harness.eve_pilots(s, schedule, s.attack_kind(), theta_e)
            for d_e in s.eve_distances_m:
                streams = harness._streams(harness._entropy(s.master_seed, "rmse", s.attack, theta_e, d_e), trials)
                ys = harness._frames(s, schedule, NodeGeometry(d_e, theta_e), pilots, s.trials, streams)
                points.append((theta_e, ys, rmse(grid.estimate_batch(ys), s.alice_aoa_deg)))
        return points

    @pytest.mark.parametrize(
        "blocks, extra, angles, distances",
        [
            (0, 1, [20.0, 45.0], [10.0, 100.0, 1000.0, 2000.0]),
            (0, 2, [20.0, 45.0, 60.0], [10.0, 100.0, 1000.0]),
            (0, 2, [45.0], [10.0]),
            (0, 175, [20.0, 45.0], [10.0, 100.0, 1000.0, 2000.0]),
            (1, -1, [20.0, 45.0], [10.0, 100.0]),
            (1, 0, [20.0, 45.0], [10.0, 100.0]),
            (1, 1, [20.0, 45.0], [10.0, 1000.0]),
            (2, 1, [45.0, 20.0], [10.0, 100.0]),
        ],
    )
    def test_rows_match_points_estimated_alone(self, monkeypatch, block, blocks, extra, angles, distances):
        s = small_scenario(attack="code-based", trials=blocks * block + extra,
                           eve_aoas_deg=angles, eve_distances_m=distances)
        points = self.per_point(s)
        calls = []
        estimate_batch = ResponseGrid.estimate_batch

        def recording(grid, ys):
            calls.append(ys.copy())
            return estimate_batch(grid, ys)

        monkeypatch.setattr(ResponseGrid, "estimate_batch", recording)
        rows = run_rmse_sweep(s)
        assert [(r["theta_e_deg"], r["d_e_m"]) for r in rows] == [(a, d) for a in angles for d in distances]
        assert [r["rmse_deg"] for r in rows] == [point[2] for point in points]
        # each call holds whole consecutive points of one angle, as many as
        # a block holds, and at least one
        per_call = max(1, block // s.trials)
        assert len(calls) == len(angles) * -(-len(distances) // per_call)
        at = 0
        for ys in calls:
            k = len(ys) // s.trials
            assert 1 <= k <= per_call and len(ys) == k * s.trials
            assert len(ys) <= block or k == 1
            assert len({point[0] for point in points[at : at + k]}) == 1
            assert np.array_equal(ys, np.concatenate([point[1] for point in points[at : at + k]]))
            at += k
        assert at == len(points)


class TestAuthSweep:
    def test_worker_count_does_not_change_results(self):
        s = small_scenario()
        rows1 = run_auth_sweep(s, workers=1)
        rows2 = run_auth_sweep(s, workers=2)
        assert rows1 == rows2

    @pytest.mark.parametrize("workers, pool", [(100_000, 3), (3, 3), (2, 2), (1, None), (0, None), (-5, None)])
    def test_pool_holds_at_most_one_worker_per_repetition(self, monkeypatch, workers, pool):
        # the fork start method forks all max_workers children at the first
        # submit, so a pool is never started for real here: a fake records
        # its size and maps serially
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        s = small_scenario(repetitions=3, train_size=50, test_size=50, eve_distances_m=[10.0])
        assert run_auth_sweep(s, workers=workers) == run_auth_sweep(s)
        assert sizes == ([] if pool is None else [pool])

    def test_p_fa_shared_across_sweep_points(self):
        # one verifier per repetition serves every sweep point, so the
        # false-alarm rate cannot depend on the attacker's position
        rows = run_auth_sweep(small_scenario())
        assert len({r["p_fa"] for r in rows}) == 1

    def test_balanced_totals(self):
        s = small_scenario()
        rows = run_auth_sweep(s)
        expected = s.test_size * s.repetitions
        assert all(r["trials"] == expected for r in rows)

    def test_nearby_mimic_fools_verifier(self):
        s = small_scenario(eve_distances_m=[1.0, 1000.0], test_size=400)
        rows = run_auth_sweep(s)
        near = next(r for r in rows if r["d_e_m"] == 1.0)
        far = next(r for r in rows if r["d_e_m"] == 1000.0)
        assert near["p_md"] > 0.8
        assert far["p_md"] < near["p_md"]
        assert far["accuracy"] > near["accuracy"]


class TestAuthTestFramesDecidedFromTheBound:
    @pytest.mark.parametrize("seed", [7, 20240])
    @pytest.mark.parametrize("attack", ["none", "random", "code-based", "location-based"])
    def test_counts_match_deciding_every_frame(self, monkeypatch, attack, seed):
        # the reference estimates every test frame in full and decides it
        s = small_scenario(attack=attack, master_seed=seed, eve_aoas_deg=[30.0, 45.0], repetitions=1)
        grid = ResponseGrid(s.schedule(), s.alice_pilots(), s.grid_step_deg)
        plain = ResponseGrid.estimate_batch
        dead = []

        def spy(self, ys, within=None):
            out = plain(self, ys, within)
            if within is not None:
                dead.append(np.count_nonzero(np.isnan(out)))
            return out

        monkeypatch.setattr(ResponseGrid, "estimate_batch", spy)
        got = harness._auth_repetition(s, grid, 0)
        # Alice's test frames and Eve's at 2 angles and 2 distances
        assert len(dead) == 5 and sum(dead) > 0
        monkeypatch.setattr(ResponseGrid, "estimate_batch", lambda self, ys, within=None: plain(self, ys))
        assert got == harness._auth_repetition(s, grid, 0)
