"""Self-test of the benchmark at tiny sizes, through the code path of a real run.

    python3 perfbench/selftest.py

Checks that every workload runs correct, at the reference seed and at
another one, and emits exactly the metrics BENCHMARK.json names, each with
its unit; that a CSV changed after the sweep wrote it is counted as failed;
and that where the program is missing the benchmark exits non-zero without
printing a result.  Exits non-zero at the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

OTHER_SEED = 7


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def bench(workload: str, seed: int, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                         "--trace", str(trace), "--scale", "tiny"])
    check(code == 0, f"{workload} seed={seed} trace={trace} exited {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def change_last_digit(path: str) -> None:
    with open(path) as f:
        text = f.read()
    i = max(i for i, ch in enumerate(text) if ch.isdigit())
    with open(path, "w") as f:
        f.write(text[:i] + ("2" if text[i] == "1" else "1") + text[i + 1:])


@contextlib.contextmanager
def tampering(aoa, which):
    """Change the CSV of the sweeps whose 0-based write count is in ``which``
    (all when None) right after the program writes it."""
    original = aoa.cli.write_metrics_csv
    writes = []

    def write_then_tamper(path, rows):
        original(path, rows)
        if which is None or len(writes) in which:
            change_last_digit(path)
        writes.append(path)

    aoa.cli.write_metrics_csv = write_then_tamper
    try:
        yield
    finally:
        aoa.cli.write_metrics_csv = original


def check_metrics(result: dict, expected: dict, label: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == expected, f"{label}: metrics {got} != {expected}")
    for name, m in result["metrics"].items():
        check(isinstance(m["value"], (int, float)), f"{label}: {name} is not a number")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json workloads differ from run.WORKLOADS")
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }

    for workload in run.WORKLOADS:
        for seed, trace in ((run.REFERENCE_SEED, 0), (run.REFERENCE_SEED, 1), (OTHER_SEED, 0)):
            label = f"{workload} seed={seed} trace={trace}"
            result = bench(workload, seed, trace)
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > run.MIN_TIMED_SWEEPS,
                  f"{label}: {result['correct']=} {result['attempted']=} {result['failed']=}")
            check_metrics(result, expected[trace], label)
            print(f"selftest: {label} ok", file=sys.stderr)

    aoa = run.load_program()
    # the reference sha256 catches any change to sweep 0 (warm-up and first
    # timed sweep), at another seed the byte comparison of the two does
    cases = [
        (run.REFERENCE_SEED, None, lambda r: r["failed"] >= 2),
        (OTHER_SEED, {1}, lambda r: r["failed"] == 1),
        (OTHER_SEED, {0}, lambda r: r["failed"] == 1),
    ]
    for seed, which, expect in cases:
        with tampering(aoa, which):
            result = bench("rmse-cba", seed, 0)
        check(not result["correct"] and expect(result),
              f"tampered CSV (seed={seed}, writes={which}) not counted: {result}")
    print("selftest: tampered CSVs counted as failed", file=sys.stderr)

    bare = os.path.join(run.OUT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "auth-lba", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120, check=False,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("selftest: refuses to run without the program", file=sys.stderr)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
