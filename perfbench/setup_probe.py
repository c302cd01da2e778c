"""Time one cold start of the simulator in a fresh interpreter.

Set-up is what a user waits for before the first sweep computes anything:
importing aoa_auth and its CLI, loading and validating the scenario, and
building the first ResponseGrid.  Prints the seconds taken.

    python3 perfbench/setup_probe.py SRC_DIR SCENARIO_JSON SEED
"""

import sys
import time

t0 = time.perf_counter()
src, scenario_path, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path.insert(0, src)

import aoa_auth.cli  # noqa: E402,F401 - the import is part of what is timed
from aoa_auth.config import Scenario  # noqa: E402
from aoa_auth.estimator import ResponseGrid  # noqa: E402

scenario = Scenario.from_file(scenario_path)
scenario.master_seed = seed
scenario.validate()
ResponseGrid(scenario.schedule(), scenario.alice_pilots(), scenario.grid_step_deg)
print(repr(time.perf_counter() - t0))
