import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aoa_auth
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


def run_fresh(*args):
    # a fresh interpreter with Python's default warning filters, as a user
    # runs the package
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=300)


def test_cli_import_leaves_out_the_process_pool():
    # only an auth sweep with --workers > 1 uses it
    run = run_fresh("-c", "import sys, aoa_auth.cli; "
                    "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


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
                "42df9524c798449bd05a46d05d1a34114bb9726c94d7062b75d64cf70868b03f",
            "cost_curve_eve_no_attack.csv":
                "f2a67120070db55bf141645ea19e14848dafa1d9f4cb2d57e97852c0f942f186",
            "cost_curve_random_attack.csv":
                "c665e66370bff7e2d65250d2d5e30209dcd2d1a79e9fd279ac1db9c2d3f22543",
            "cost_curve_code_based.csv":
                "66fbb3e81fc706d0f192141369e7bc166ece2942f7d70619f2a78399d5f952ec",
            "cost_curve_location_based.csv":
                "2711e98f5c5fbf0d420f8b7db116efe16016789e396bff1dfbe64bf14bb3c4ab",
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

    def test_json_array_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([SMALL]))
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
        assert "must be a JSON object" in capsys.readouterr().err


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
        # what the run's bits depend on, and no timings
        env = manifest["environment"]
        assert set(env) == {"python", "numpy", "blas", "aoa_auth", "openblas_core", "openblas_threads"}
        assert env["python"] == platform.python_version() and env["numpy"] == np.__version__
        assert env["aoa_auth"] == aoa_auth.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert env["openblas_core"] is None or env["openblas_core"].strip()
        assert (env["openblas_core"] is None) == (env["openblas_threads"] is None)
        assert env["openblas_threads"] is None or env["openblas_threads"] >= 1

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


class TestRefusedFrames:
    # scenarios that validate but synthesize frames the estimator refuses:
    # the command exits 3 naming the first such frame, and writes no CSV

    @pytest.mark.parametrize(
        "command, flags, frame",
        [("estimate", ["--theta", "10", "--distance", "1e-300"], 0),
         ("cost-curve", ["--eve-distance", "1e-300"], 1)],
    )
    def test_overflowing_frame_is_runtime_error(self, tmp_path, capsys, command, flags, frame):
        # 1e-300 m away, the frame's energy overflows; in the cost curves
        # frame 0 is Alice's, frames 1-4 the attacker's
        out = tmp_path / "out"
        argv = [command, "--config", write_config(tmp_path), *flags]
        if command == "cost-curve":
            argv += ["--out", str(out)]
        assert main(argv) == EXIT_RUNTIME
        assert f"runtime error (ValueError): frame {frame} is not finite or too large" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_nan_frames_fail_alike_in_every_command(self, tmp_path):
        # 10^297 W sent from 1e-300 m away gives an infinite received
        # amplitude; it is refused before it can make a NaN frame
        cfg = write_config(tmp_path, tx_power_dbm=3000.0)
        assert main(["validate-config", "--config", cfg]) == EXIT_OK
        out = tmp_path / "out"
        for argv in (["estimate", "--theta", "10", "--distance", "1e-300"],
                     ["cost-curve", "--eve-distance", "1e-300", "--out", str(out)]):
            run = run_fresh("-m", "aoa_auth.cli", *argv, "--config", cfg)
            assert run.returncode == EXIT_RUNTIME, run.stderr
            assert "runtime error (ValueError): received amplitude inf is not finite" in run.stderr
        assert not list(out.glob("*.csv"))


@pytest.mark.parametrize(
    "field, value, message",
    [
        # the wavelength at 1e-300 Hz overflows
        ("carrier_freq_hz", 1e-300, "received amplitude inf is not finite"),
        ("eve_distances_m", [1e-300], "noiseless frame energy inf"),
        # refused although the RMSE sweep, which sends no Alice frames, ran
        ("alice_distance_m", 1e-300, "noiseless frame energy inf"),
        # finite energies above float_max / (2 N^2) = 3.5e305, which the
        # estimator refused as "not finite or too large": ||y||^2 = 1.7e306
        # in the auth sweep and `estimate`, 2.1e306 in the RMSE sweep
        ("alice_distance_m", 3e-156, "noiseless frame energy 1.7056902447645723e+306, above 3.5"),
        ("eve_distances_m", [5e-157], "noiseless frame energy 2.0639394947251413e+306, above 3.5"),
    ],
)
def test_link_budget_that_no_sweep_can_run_is_config_error(tmp_path, capsys, field, value, message):
    # these validated, and then both sweeps (or, with Alice too close, the
    # auth sweep) exited 3 on their first frame, but for the RMSE sweep with
    # Alice 1e-300 m away
    cfg = write_config(tmp_path, **{field: value})
    assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert field in err and message in err, err
    for command in ("auth-sweep", "rmse-sweep"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()


@pytest.mark.parametrize(
    "overrides, angle",
    [
        # two beams at +-90 deg, which 16 antennas null toward Alice at 0 deg
        ({"num_probes": 2, "attack": "code-based"}, "eve_aoas_deg entry 45.0"),
        # ... and toward Eve at 30 deg, so that she has no beam to invert
        ({"num_probes": 2, "eve_aoas_deg": [45.0, 30.0]}, "eve_aoas_deg entry 30.0"),
        # four beams at +-90 and +-30 deg, all null toward 0 deg
        ({"num_probes": 4, "attack": "code-based"}, "eve_aoas_deg entry 45.0"),
    ],
)
def test_attack_that_cannot_normalize_is_config_error(tmp_path, capsys, overrides, angle):
    # these validated, and then auth-sweep exited 3 on DegenerateAttackError
    cfg = write_config(tmp_path, **overrides)
    assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "num_probes" in err and angle in err, err
    for command in ("auth-sweep", "rmse-sweep"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
    # random pilots need no beam toward Alice
    assert main(["validate-config", "--config", write_config(tmp_path, **{**overrides, "attack": "random"})]) == EXIT_OK


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_are_config_error(tmp_path, capsys, workers):
    # they ran the sweep serially; a count above the repetitions is clamped
    # by run_auth_sweep
    out = tmp_path / "out"
    assert main(["auth-sweep", "--config", write_config(tmp_path), "--out", str(out), "--workers", workers]) == EXIT_CONFIG
    assert f"--workers must be at least 1, got {workers}" in capsys.readouterr().err
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
