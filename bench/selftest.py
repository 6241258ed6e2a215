"""Self-test of the benchmark harness (not of pulseloop).

Run from the repository root:

    python3 bench/selftest.py

For every workload it makes tiny runs and checks that:

- an untraced run prints every end-to-end metric of BENCHMARK.json, and
  a traced run every per-layer metric, each with its declared unit;
- two runs with the same seed give identical deterministic metrics;
- a different seed changes the generated inputs.

It also checks that the benchmark fails, without printing a result, in
a directory holding only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DETERMINISTIC = ("shots_per_case", "converged_frac", "final_mase",
                 "final_phase_rms_rad", "fit_mase")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
           "--trace", str(trace), "--cases", "3"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result_of(done):
    if done.returncode != 0:
        raise SystemExit(f"run failed ({done.returncode}):\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    provenance = next(json.loads(line.split(" ", 1)[1]) for line in lines
                      if line.startswith("provenance "))
    return result, provenance


def expect(ok, message):
    print(f"{'PASS' if ok else 'FAIL'}  {message}")
    return ok


def check_metrics(result, declared, what):
    ok = expect(set(result) == RESULT_KEYS and result["correct"]
                and result["failed"] == 0 and result["attempted"] >= 1,
                f"{what}: result keys and correctness")
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        ok &= expect(got is not None and got["unit"] == metric["unit"]
                     and isinstance(got["value"], (int, float)),
                     f"{what}: {metric['name']} [{metric['unit']}]")
    return ok


def bare_directory_fails():
    """The benchmark alone, without src/, must fail and print no result."""
    bare = os.path.join(ROOT, ".bench_work", f"selftest_bare_{os.getpid()}")
    try:
        shutil.copytree(os.path.join(ROOT, "bench"),
                        os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = run("loop-model", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):  # fails while others use it
            os.rmdir(os.path.dirname(bare))
    last = done.stdout.strip().splitlines()[-1:] or [""]
    return expect(done.returncode != 0 and '"correct"' not in last[0],
                  f"bare directory: exit {done.returncode}, no result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        first, prov_a = result_of(run(workload, 7, 0))
        again, _ = result_of(run(workload, 7, 0))
        traced, prov_b = result_of(run(workload, 8, 1))
        ok &= check_metrics(first, spec["end_to_end"], f"{workload} trace 0")
        ok &= check_metrics(traced, spec["per_layer"], f"{workload} trace 1")
        for name in DETERMINISTIC:
            a = first["metrics"][name]["value"]
            b = again["metrics"][name]["value"]
            ok &= expect(a == b, f"{workload}: {name} repeats for a seed "
                                 f"({a!r} == {b!r})")
        ok &= expect(prov_a["inputs_sha256"] != prov_b["inputs_sha256"],
                     f"{workload}: another seed changes the inputs")
    ok &= bare_directory_fails()
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
