import hashlib
import json
from pathlib import Path

import pytest

from aoa_auth.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from aoa_auth.config import DEFAULT_EVE_AOAS_DEG, DEFAULT_EVE_DISTANCES_M, Scenario

SMALL = dict(
    eve_aoas_deg=[45.0],
    eve_distances_m=[10.0],
    trials=20,
    train_size=100,
    test_size=100,
    repetitions=2,
    master_seed=5,
    grid_step_deg=0.25,
)


def write_config(tmp_path, **overrides):
    data = dict(SMALL)
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestEstimate:
    def test_clean_frame_reports_true_angle(self, capsys):
        rc = main(["estimate", "--theta", "45", "--attack", "none"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        theta = float(out.splitlines()[0].split("=")[1])
        assert theta == pytest.approx(45.0, abs=0.1)

    def test_location_attack_reports_victim_angle(self, capsys):
        rc = main(["estimate", "--theta", "45", "--attack", "location-based"])
        assert rc == EXIT_OK
        theta = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        assert theta == pytest.approx(0.0, abs=0.1)

    @pytest.mark.parametrize(
        "flags, named",
        [(["--theta", "95"], "--theta"), (["--theta", "-90"], "--theta"),
         (["--theta", "nan"], "--theta"), (["--theta", "45", "--distance", "0"], "--distance"),
         (["--theta", "45", "--distance", "inf"], "--distance"),
         (["--theta", "45", "--distance", "nan"], "--distance")],
    )
    def test_bad_position_is_config_error(self, capsys, flags, named):
        assert main(["estimate", *flags]) == EXIT_CONFIG
        assert named in capsys.readouterr().err

    def test_negative_seed_is_config_error(self, capsys):
        assert main(["estimate", "--theta", "45", "--seed", "-1"]) == EXIT_CONFIG
        assert "master_seed" in capsys.readouterr().err


class TestPinnedOutputs:
    """``estimate`` stdout and the cost-curve CSVs, byte for byte, as the
    default scenario and ``SMALL`` produce them at their seeds."""

    @pytest.mark.parametrize(
        "theta, attack, expected",
        [
            ("45", "none",
             "theta_hat_deg=44.998380075681716\ncost_at_min=8.315480845994643e-13\n"),
            ("45", "location-based",
             "theta_hat_deg=0.00010494037173085413\ncost_at_min=8.536774982106569e-13\n"),
            ("45", "code-based",
             "theta_hat_deg=-3.905757190860927\ncost_at_min=8.469057147243067e-09\n"),
            ("-30", "location-based",
             "theta_hat_deg=-52.5884241170678\ncost_at_min=6.176114126446216e-13\n"),
            # the only attack that draws its pilots from the stream, so this
            # case pins the draw order: Eve's pilots, then the frame
            ("45", "random",
             "theta_hat_deg=42.4032904927882\ncost_at_min=3.487895816704441e-08\n"),
        ],
    )
    def test_estimate_stdout(self, capsys, theta, attack, expected):
        assert main(["estimate", "--theta", theta, "--attack", attack]) == EXIT_OK
        assert capsys.readouterr().out == expected

    def test_cost_curve_csv_sha256(self, tmp_path):
        out = tmp_path / "out"
        assert main(["cost-curve", "--config", write_config(tmp_path), "--out", str(out)]) == EXIT_OK
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.csv")
        }
        assert digests == {
            "cost_curve_alice.csv":
                "5a2f2b8e7ca3100589fb7a47ec0b3d11a5673729b141599c3af822025dbabd8e",
            "cost_curve_eve_no_attack.csv":
                "d4c630dff241a53ab68037e3cb56f7370ec2e42112de0df732da19a7a58d6c4a",
            "cost_curve_random_attack.csv":
                "6df0bd87c37e622da6fbaf91db880702f50ff9163653ba5f876ea684078550c5",
            "cost_curve_code_based.csv":
                "e7e028a555564ddb41ab7e136d2d5ae5bb95455dd6aae815911a3bae14f3df22",
            "cost_curve_location_based.csv":
                "3fe45ffeda9126f4c7cf312f5203beb6795d575df7213cd074007919cce9375c",
        }


class TestValidateConfig:
    def test_valid_config_passes(self, tmp_path):
        assert main(["validate-config", "--config", write_config(tmp_path)]) == EXIT_OK

    def test_invalid_field_names_the_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, num_probes=0)
        assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
        assert "num_probes" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, num_probse=17)
        assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
        assert "num_probse" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("train_size", 1), ("solver_tol", 0.0), ("solver_tol", -1e-6),
         ("max_iters", 0)],
    )
    def test_unusable_training_settings_are_config_errors(
        self, tmp_path, capsys, field, value
    ):
        cfg = write_config(tmp_path, **{field: value})
        assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("eve_distances_m", [10.0, float("nan")]), ("eve_distances_m", [float("inf")]),
         ("eve_distances_m", []), ("eve_aoas_deg", [True]), ("eve_aoas_deg", ["45"]),
         ("eve_aoas_deg", 45.0)],
    )
    def test_bad_sweep_lists_are_config_errors(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, **{field: value})
        assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("value", [-1, 2**64, True, 1.5, "5", None])
    def test_master_seed_outside_u64_is_config_error(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, master_seed=value)
        assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
        assert "master_seed" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [0, 2**64 - 1])
    def test_master_seed_u64_bounds_accepted(self, tmp_path, value):
        cfg = write_config(tmp_path, master_seed=value)
        assert main(["validate-config", "--config", cfg]) == EXIT_OK

    @pytest.mark.parametrize("value", [5, None, ["code-based"]])
    def test_non_string_attack_is_config_error(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, attack=value)
        assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
        assert "attack" in capsys.readouterr().err

    def test_integer_sweep_entries_hash_as_floats(self):
        ints = Scenario.from_dict({"eve_aoas_deg": [45], "eve_distances_m": [10, 100]})
        floats = Scenario.from_dict(
            {"eve_aoas_deg": [45.0], "eve_distances_m": [10.0, 100.0]}
        )
        assert ints.config_hash() == floats.config_hash()
        assert all(type(v) is float for v in ints.eve_aoas_deg + ints.eve_distances_m)

    def test_default_sweep_lists_unchanged(self):
        scenario = Scenario()
        before = scenario.config_hash()
        scenario.validate()
        assert scenario.config_hash() == before
        assert scenario.eve_aoas_deg == DEFAULT_EVE_AOAS_DEG == [5.0, 20.0, 30.0, 45.0, 60.0]
        assert scenario.eve_distances_m == DEFAULT_EVE_DISTANCES_M == [
            1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 150.0,
            200.0, 250.0, 400.0, 500.0, 750.0, 1000.0, 2000.0,
        ]

    def test_missing_file_is_runtime_error(self, tmp_path):
        rc = main(["validate-config", "--config", str(tmp_path / "nope.json")])
        assert rc == EXIT_RUNTIME

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG


class TestCostCurve:
    def test_writes_curves_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["cost-curve", "--config", cfg, "--out", str(out)])
        assert rc == EXIT_OK
        names = {p.name for p in out.iterdir()}
        assert {
            "cost_curve_alice.csv",
            "cost_curve_eve_no_attack.csv",
            "cost_curve_random_attack.csv",
            "cost_curve_code_based.csv",
            "cost_curve_location_based.csv",
            "manifest.json",
        } <= names
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "cost-curve"
        assert manifest["master_seed"] == 5
        assert len(manifest["config_hash"]) == 64

    @pytest.mark.parametrize(
        "flags, named",
        [(["--eve-theta", "95"], "--eve-theta"), (["--eve-distance", "0"], "--eve-distance")],
    )
    def test_bad_position_fails_before_out_is_made(self, tmp_path, capsys, flags, named):
        out = tmp_path / "out"
        rc = main(["cost-curve", "--config", write_config(tmp_path), "--out", str(out), *flags])
        assert rc == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestSweeps:
    def test_auth_sweep_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = main(
                ["auth-sweep", "--config", cfg, "--out", str(out), "--workers", "1"]
            )
            assert rc == EXIT_OK
        assert (out1 / "auth.csv").read_bytes() == (out2 / "auth.csv").read_bytes()

    def test_auth_sweep_single_training_sample_is_config_error(
        self, tmp_path, capsys
    ):
        cfg = write_config(tmp_path, train_size=1)
        rc = main(["auth-sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--workers", "1"])
        assert rc == EXIT_CONFIG
        assert "train_size" in capsys.readouterr().err

    def test_auth_sweep_single_test_sample_is_config_error(self, tmp_path, capsys):
        # test_size // 2 frames per side: one sample leaves no legitimate test
        cfg = write_config(tmp_path, test_size=1)
        rc = main(["auth-sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--workers", "1"])
        assert rc == EXIT_CONFIG
        assert "test_size" in capsys.readouterr().err

    def test_integer_sweep_entries_give_the_float_sweep(self, tmp_path):
        outputs = []
        for name, aoas, dists in (("i", [45], [10]), ("f", [45.0], [10.0])):
            cfg = write_config(tmp_path, eve_aoas_deg=aoas, eve_distances_m=dists)
            out = tmp_path / name
            rc = main(["auth-sweep", "--config", cfg, "--out", str(out), "--workers", "1"])
            assert rc == EXIT_OK
            manifest = json.loads((out / "manifest.json").read_text())
            outputs.append(((out / "auth.csv").read_bytes(), manifest["config_hash"]))
        assert outputs[0] == outputs[1]

    def test_attack_spellings_give_one_sweep(self, tmp_path):
        outputs = set()
        for i, attack in enumerate(["location-based", "Location-Based", " location-based "]):
            cfg = write_config(tmp_path, attack=attack, trials=50,
                               eve_distances_m=[10.0, 100.0])
            out = tmp_path / f"spelling{i}"
            assert main(["rmse-sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
            manifest = json.loads((out / "manifest.json").read_text())
            outputs.add(((out / "rmse.csv").read_bytes(), manifest["config_hash"]))
        assert len(outputs) == 1
        assert b"\nlocation-based,45.0,10.0," in next(iter(outputs))[0]

    def test_rmse_sweep_writes_rows(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "r"
        rc = main(["rmse-sweep", "--config", cfg, "--out", str(out)])
        assert rc == EXIT_OK
        lines = (out / "rmse.csv").read_text().strip().splitlines()
        assert lines[0].startswith("attack,")
        assert len(lines) == 2

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["rmse-sweep", "--config", cfg, "--out", str(out1)])
        main(["rmse-sweep", "--config", cfg, "--out", str(out2), "--seed", "99"])
        assert (out1 / "rmse.csv").read_text() != (out2 / "rmse.csv").read_text()
