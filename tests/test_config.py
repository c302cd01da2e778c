import dataclasses
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from aoa_auth import ArrayConfig, AttackKind, ConfigError, Scenario
from aoa_auth.cli import EXIT_CONFIG, main
from aoa_auth.estimator import DEFAULT_GRID_STEP_DEG
from aoa_auth.ocsvm import MEDIAN_HEURISTIC, OcsvmParams

INT_FIELDS = ["num_antennas", "num_probes", "trials", "train_size", "test_size",
              "repetitions", "master_seed", "max_iters"]
FLOAT_FIELDS = ["carrier_freq_hz", "bandwidth_hz", "noise_psd_dbm_hz", "tx_power_dbm",
                "alice_distance_m", "alice_aoa_deg", "nu", "solver_tol", "grid_step_deg"]


def real(lo, hi):
    """Finite numbers in [lo, hi], written as floats or as ints."""
    return st.floats(lo, hi) | st.integers(math.ceil(lo), math.floor(hi))


# a valid value for every Scenario field
VALID = {
    "num_antennas": st.integers(2, 64),
    "carrier_freq_hz": real(1e6, 1e11),
    "bandwidth_hz": real(1e3, 1e9),
    "noise_psd_dbm_hz": real(-200.0, -100.0),
    "tx_power_dbm": real(-30.0, 40.0),
    "num_probes": st.integers(2, 64),
    "alice_distance_m": real(0.5, 1e4),
    "alice_aoa_deg": real(-89.5, 89.5),
    "eve_distances_m": st.lists(real(0.5, 1e4), min_size=1, max_size=4),
    "eve_aoas_deg": st.lists(real(-89.5, 89.5), min_size=1, max_size=4),
    "attack": st.sampled_from([k.value for k in AttackKind]),
    "trials": st.integers(1, 10**6),
    "train_size": st.integers(2, 16_384),
    "test_size": st.integers(2, 10**6),
    "repetitions": st.integers(1, 100),
    "master_seed": st.integers(0, 2**64 - 1),
    "nu": st.floats(0.0, 1.0, exclude_min=True) | st.just(1),
    "gamma": st.just(MEDIAN_HEURISTIC) | real(1e-3, 1e3),
    "solver_tol": st.floats(1e-12, 1e-2),
    "max_iters": st.integers(1, 10**6),
    "grid_step_deg": real(0.001, 10.0),
}


def test_valid_values_cover_every_field():
    assert set(VALID) == {f.name for f in dataclasses.fields(Scenario)}


@given(st.fixed_dictionaries({}, optional=VALID))
def test_valid_scenarios_round_trip(data):
    scenario = Scenario.from_dict(data)
    again = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
    assert again == scenario
    assert again.config_hash() == scenario.config_hash()


def as_float(name, value):
    """``value`` as the scenario stores it if ``name`` is a number field."""
    if isinstance(value, list):
        return [float(v) for v in value]
    if name in FLOAT_FIELDS or name == "gamma" and value != MEDIAN_HEURISTIC:
        return float(value)
    return value


@given(st.fixed_dictionaries({}, optional=VALID))
@example({"tx_power_dbm": 10})
def test_numbers_written_as_ints_hash_as_floats(data):
    as_floats = {name: as_float(name, value) for name, value in data.items()}
    scenario = Scenario.from_dict(data)
    assert scenario.config_hash() == Scenario.from_dict(as_floats).config_hash()
    assert all(type(getattr(scenario, name)) is float for name in FLOAT_FIELDS)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Scenario)])
def test_every_field_is_coerced(field):
    # a field whose annotation the coercion does not know would fail both
    default = getattr(Scenario(), field)
    assert Scenario.from_dict({field: default}) == Scenario()
    with pytest.raises(ConfigError, match=field):
        Scenario.from_dict({field: object()})


@pytest.mark.parametrize(
    "field, value",
    [(field, value) for field in INT_FIELDS
     for value in ("10", True, math.nan, math.inf, 16.5, 17.0)]
    + [(field, value) for field in FLOAT_FIELDS
       for value in ("0.05", True, math.nan, math.inf, -math.inf)]
    + [("gamma", True), ("gamma", math.nan), ("test_size", 1)]
    + [("train_size", 16_385), ("train_size", 10**9), ("trials", 10**6 + 1), ("trials", 10**12),
       ("test_size", 10**6 + 1)]
    + [("grid_step_deg", value) for value in (0.0, -0.05, 1e-6, 0.000999, 10.5)]
    # finite in dBm, but not in watts
    + [("tx_power_dbm", 4000.0), ("noise_psd_dbm_hz", 4000.0)],
)
def test_validate_config_names_the_bad_field(tmp_path, capsys, field, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({field: value}))
    assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "data",
    [{"num_antennas": 100_000}, {"num_probes": 10**9}, {"num_antennas": 1000, "grid_step_deg": 0.001}],
)
def test_grids_too_large_to_build_are_config_errors(tmp_path, capsys, data):
    # the estimator's grid-memory rule, checked before anything is built:
    # 100,000 antennas at 0.05 deg would need a 5.8 GB steering matrix
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert all(name in err for name in ("num_antennas", "num_probes", "grid_step_deg")), err


def test_defaults_are_the_reference_operating_point():
    # Scenario writes out the defaults of ArrayConfig, OcsvmParams and the
    # estimator's grid step again; any drift between them fails here
    scenario = Scenario()
    assert scenario.array_config() == ArrayConfig()
    assert scenario.ocsvm_params() == OcsvmParams()
    assert scenario.grid_step_deg == DEFAULT_GRID_STEP_DEG


def test_readme_example_config_is_valid():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI$.*?^```json\n(.*?)^```", readme, re.M | re.S)
    assert block, "README has no JSON example under ## CLI"
    Scenario.from_dict(json.loads(block.group(1)))
