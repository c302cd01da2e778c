"""Benchmark of the aoa-auth sweeps.

One run drives one workload -- a scenario file from ``scenarios/`` given to
the ``auth-sweep`` or ``rmse-sweep`` command of ``aoa_auth.cli.main`` with
``--workers 1`` -- in a closed loop, one sweep at a time, for a fixed time.
It checks every CSV the sweeps write and prints, as its last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``::

    python3 perfbench/run.py --workload auth-lba --seed 20240 --seconds 38 --trace 0

Run it from anywhere inside a checkout: the program is imported from the
checkout's ``src/``, and the benchmark exits with status 2, printing no
result, when that is missing.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every input
twice, plainly and with spans around each layer's public entry points (see
spans.py), and reports the per-layer metrics and the tracing overhead.

Sweep ``k`` of a run uses master seed ``sweep_seed(seed, k)``, so one run
averages over many independent inputs, and the same ``--seed`` always gives
the same inputs.  Sweep 0 uses ``--seed`` itself and runs twice (an untimed
warm-up, then timed), and the two CSVs must agree byte for byte.  At the
reference seed its CSV must also match the sha256 in ``reference.json``.
Every CSV must be well-formed.  A sweep that raises, exits non-zero or
fails a check counts as failed.

``--workers > 1`` is not measured: process-pool children escape the spans
and the CPU accounting.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import glob
import gzip
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from types import SimpleNamespace

from spans import Tracer, layer_metrics, unit_of

# BLAS runs one thread, set before numpy is first imported; the set-up probes
# inherit it.  On a few shared cores a multi-threaded GEMM waits for its
# slowest thread, so any other load on the host stretches it: with one core
# kept busy by another process, auth-lba sweeps took twice as long with 2
# OpenBLAS threads and no longer with 1.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

# workload -> CLI command; the scenario is scenarios/[tiny/]<workload>.json
WORKLOADS = {
    "auth-lba": "auth-sweep",
    "rmse-cba": "rmse-sweep",
    "auth-far": "auth-sweep",
}
CSV_NAME = {"auth-sweep": "auth.csv", "rmse-sweep": "rmse.csv"}
CSV_COLUMNS = ["attack", "theta_e_deg", "d_e_m", "trials", "p_fa", "p_md", "accuracy", "rmse_deg"]
REFERENCE_SEED = 20240

# The tail is the slowest sweep but ten: the highest percentile with at least
# ten samples beyond it.  It lies at or above the median only from 21 sweeps.
MIN_TIMED_SWEEPS = 21
TAIL_BEYOND = 10
# set-up is timed in fresh interpreters; the first of them also compiles the
# bytecode cache of a fresh checkout and is not counted
SETUP_PROBES = 11

AOA_MODULES = ["cli", "config", "harness", "estimator", "ocsvm", "signal_model", "attacks", "metrics"]


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def load_program() -> SimpleNamespace:
    """Import aoa_auth from this checkout's ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "aoa_auth", "__init__.py")):
        raise BenchError(f"no aoa_auth package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    package = importlib.import_module("aoa_auth")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise BenchError(f"aoa_auth was imported from {package.__file__}, not from {SRC}")
    aoa = SimpleNamespace(**{m: importlib.import_module(f"aoa_auth.{m}") for m in AOA_MODULES})
    aoa.modules = [package] + [getattr(aoa, m) for m in AOA_MODULES]
    return aoa


def sweep_seed(seed: int, k: int) -> int:
    """Master seed of sweep ``k`` of a run started with ``seed``."""
    if k == 0:
        return seed
    digest = hashlib.sha256(f"perfbench/{seed}/{k}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# ----------------------------------------------------------------------
# output checks


@dataclass
class Workload:
    command: str
    scenario_path: str
    scenario: object  # aoa_auth.config.Scenario

    @property
    def points(self):
        return list(itertools.product(self.scenario.eve_aoas_deg, self.scenario.eve_distances_m))

    @property
    def frames_per_sweep(self) -> int:
        """Monte-Carlo frames estimated in one sweep: training, test and RMSE
        trials together."""
        s = self.scenario
        if self.command == "rmse-sweep":
            return s.trials * len(self.points)
        return s.repetitions * (s.train_size + (s.test_size // 2) * (1 + len(self.points)))

    @property
    def trials_per_row(self) -> int:
        s = self.scenario
        if self.command == "rmse-sweep":
            return s.trials
        return s.repetitions * 2 * (s.test_size // 2)


def check_csv(data: bytes, workload: Workload) -> str | None:
    """Reason the sweep CSV is malformed, or None."""
    try:
        rows = list(csv.reader(io.StringIO(data.decode())))
    except (UnicodeDecodeError, csv.Error) as e:
        return f"unreadable CSV: {e}"
    if not rows or rows[0] != CSV_COLUMNS:
        return "unexpected CSV header"
    body = rows[1:]
    if len(body) != len(workload.points):
        return f"{len(body)} rows, expected {len(workload.points)}"
    auth = workload.command == "auth-sweep"
    for row, (theta, dist) in zip(body, workload.points):
        if len(row) != len(CSV_COLUMNS):
            return f"row with {len(row)} fields: {row}"
        rec = dict(zip(CSV_COLUMNS, row))
        try:
            if rec["attack"] != workload.scenario.attack:
                return f"row attack {rec['attack']!r}"
            if float(rec["theta_e_deg"]) != theta or float(rec["d_e_m"]) != dist:
                return f"row ({rec['theta_e_deg']}, {rec['d_e_m']}) out of sweep order"
            if int(rec["trials"]) != workload.trials_per_row:
                return f"row trials {rec['trials']}, expected {workload.trials_per_row}"
            probs = [float(rec[k]) for k in ("p_fa", "p_md", "accuracy")] if auth else []
            if any(not 0.0 <= p <= 1.0 for p in probs):
                return f"row probability outside [0, 1]: {row}"
            if auth and rec["rmse_deg"] != "":
                return "auth row carries an RMSE"
            if not auth:
                if any(rec[k] != "" for k in ("p_fa", "p_md", "accuracy")):
                    return "RMSE row carries a probability"
                r = float(rec["rmse_deg"])
                if not (math.isfinite(r) and r >= 0.0):
                    return f"row rmse_deg {r}"
        except ValueError as e:
            return f"unparsable row {row}: {e}"
    return None


def check_manifest(path: str, workload: Workload, seed: int) -> str | None:
    with open(path) as f:
        try:
            manifest = json.load(f)
        except json.JSONDecodeError as e:
            return f"unreadable manifest: {e}"
    if not isinstance(manifest, dict):
        return "manifest is not a JSON object"
    if manifest.get("experiment") != workload.command:
        return f"manifest experiment {manifest.get('experiment')!r}"
    if manifest.get("master_seed") != seed:
        return f"manifest master_seed {manifest.get('master_seed')!r}, expected {seed}"
    return None


# ----------------------------------------------------------------------
# one sweep


@dataclass
class Sweep:
    seed: int
    wall_s: float
    cpu_s: float
    data: bytes | None
    failure: str | None


def _process_cpu_s() -> float:
    """User plus system CPU of this process, all threads (BLAS ones too)."""
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def run_sweep(aoa, workload: Workload, seed: int, out_dir: str, tracer=None, run: int = 0) -> Sweep:
    csv_path = os.path.join(out_dir, CSV_NAME[workload.command])
    manifest_path = os.path.join(out_dir, "manifest.json")
    for path in (csv_path, manifest_path):
        if os.path.exists(path):
            os.remove(path)
    argv = [workload.command, "--config", workload.scenario_path, "--seed", str(seed), "--out", out_dir]
    if workload.command == "auth-sweep":
        argv += ["--workers", "1"]
    stderr = io.StringIO()
    if tracer is not None:
        tracer.install(run)
    cpu0, t0 = _process_cpu_s(), time.perf_counter()
    try:
        # cli.main turns every exception of a sweep into exit status 3
        with contextlib.redirect_stderr(stderr):
            code = aoa.cli.main(argv)
    finally:
        t1, cpu1 = time.perf_counter(), _process_cpu_s()
        if tracer is not None:
            tracer.uninstall()

    data, failure = None, None
    if code != 0:
        failure = f"exit status {code}: {stderr.getvalue().strip()[-500:]}"
    elif not (os.path.exists(csv_path) and os.path.exists(manifest_path)):
        failure = "sweep wrote no CSV or no manifest"
    else:
        with open(csv_path, "rb") as f:
            data = f.read()
        failure = check_csv(data, workload) or check_manifest(manifest_path, workload, seed)
    return Sweep(seed, t1 - t0, cpu1 - cpu0, data, failure)


# ----------------------------------------------------------------------
# environment stamp


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it is one."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "aoa_auth", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "seed": seed,
        "workers": 1,
    }


# ----------------------------------------------------------------------
# the run


def measure_setup_s(workload: Workload, seed: int) -> float:
    """Median set-up time over fresh interpreters."""
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, probe, SRC, workload.scenario_path, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def tail(values: list[float]) -> float:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - 1 - TAIL_BEYOND, 0)]


def run_workload(aoa, name: str, scale: str, seed: int, seconds: float, trace: bool):
    command = WORKLOADS[name]
    sub = "" if scale == "full" else scale
    path = os.path.join(BENCH_DIR, "scenarios", sub, f"{name}.json")
    workload = Workload(command, path, aoa.config.Scenario.from_file(path))
    out_dir = os.path.join(OUT, f"{scale}-{name}")
    os.makedirs(out_dir, exist_ok=True)
    reference = None
    if seed == REFERENCE_SEED:
        with open(os.path.join(BENCH_DIR, "reference.json")) as f:
            reference = json.load(f)["sha256"].get(f"{scale}/{name}")
        if reference is None:
            raise BenchError(f"reference.json has no sha256 for {scale}/{name}")

    setup_s = None if trace else measure_setup_s(workload, seed)

    sweeps: list[Sweep] = []

    def record(sweep: Sweep, expected: bytes | None = None) -> Sweep:
        if sweep.failure is None and expected is not None and sweep.data != expected:
            sweep.failure = "CSV differs from the earlier sweep with the same seed"
        if sweep.failure is None and reference is not None and sweep.seed == seed:
            if hashlib.sha256(sweep.data).hexdigest() != reference:
                sweep.failure = "CSV differs from the reference sha256"
        if sweep.failure is not None:
            print(f"perfbench: sweep seed={sweep.seed} failed: {sweep.failure}", file=sys.stderr)
        sweeps.append(sweep)
        return sweep

    warmup = record(run_sweep(aoa, workload, seed, out_dir))
    tracer = Tracer(aoa) if trace else None
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MIN_TIMED_SWEEPS or time.perf_counter() < deadline:
        s = sweep_seed(seed, k)
        first = record(run_sweep(aoa, workload, s, out_dir), warmup.data if k == 0 else None)
        plain.append(first)
        if trace:
            traced.append(record(run_sweep(aoa, workload, s, out_dir, tracer, run=k), first.data))
        k += 1

    failed = sum(s.failure is not None for s in sweeps)
    info = {
        "workload": name,
        "scale": scale,
        "seed": seed,
        "trace": int(trace),
        "timed_sweeps": len(plain),
        "frames_per_sweep": workload.frames_per_sweep,
        "csv_sha256": hashlib.sha256(warmup.data).hexdigest() if warmup.data else None,
        "env": environment(seed),
    }
    if trace:
        metrics = per_layer_metrics(tracer, plain, traced)
        write_trace(tracer, info, os.path.join(OUT, f"trace-{scale}-{name}.jsonl.gz"))
    else:
        metrics = end_to_end_metrics(workload, plain, setup_s, failed, len(sweeps))
    result = {
        "correct": failed == 0,
        "attempted": len(sweeps),
        "failed": failed,
        "metrics": metrics,
    }
    return result, info


def end_to_end_metrics(workload, plain, setup_s, failed, attempted) -> dict:
    walls = [s.wall_s for s in plain]
    sweep_s = statistics.median(walls)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "sweep_s": {"value": sweep_s, "unit": "s"},
        "sweep_s_tail": {"value": tail(walls), "unit": "s"},
        "frames_per_s": {"value": workload.frames_per_sweep / sweep_s, "unit": "frames/s"},
        "cpu_s": {"value": statistics.median(s.cpu_s for s in plain), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
    }


def per_layer_metrics(tracer, plain, traced) -> dict:
    by_run = defaultdict(list)
    for span in tracer.spans:
        by_run[span.run].append(span)
    per_sweep = [layer_metrics(by_run[k]) for k in range(len(traced))]
    values = {key: statistics.median(m[key] for m in per_sweep) for key in per_sweep[0]}
    values["trace.sweep_s"] = statistics.median(s.wall_s for s in traced)
    values["trace_overhead"] = statistics.median(t.wall_s / p.wall_s for p, t in zip(plain, traced)) - 1.0
    return {key: {"value": value, "unit": unit_of(key)} for key, value in values.items()}


def write_trace(tracer, info: dict, path: str) -> None:
    """All spans of the run as JSON lines, after one line of run info; times
    are seconds since the first span started."""
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    with gzip.open(path, "wt") as f:
        f.write(json.dumps(info) + "\n")
        for s in tracer.spans:
            f.write(json.dumps({
                "run": s.run, "id": s.id, "parent": s.parent, "name": s.name,
                "start": s.start - t0, "end": s.end - t0, **s.counts,
            }) + "\n")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help=f"master seed; {REFERENCE_SEED} is the reference")
    p.add_argument("--seconds", type=float, required=True, help="how long the timed sweeps run")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["full", "tiny"], default="full",
                   help="scenario size; tiny is for the self-test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        aoa = load_program()
        result, info = run_workload(aoa, args.workload, args.scale, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
