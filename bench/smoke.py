"""Smoke check of the benchmark itself.

    python3 bench/smoke.py

Runs every workload at a tiny size, untraced and traced, and asserts
that each metric named in BENCHMARK.json is printed and that no op
failed.  It then runs the benchmark in a directory that holds only
BENCHMARK.json and ``bench/`` and asserts that it exits non-zero without
printing a result.  The file is not named ``test_*.py`` so that the
repository's pytest run does not collect it.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT = 180


def run(cwd, workload, trace):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, f"{workload} trace={trace}: {proc.stderr}"
            lines = proc.stdout.strip().splitlines()
            report = json.loads(lines[-2])["report"]
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            missing = {n: u for n, u in expected[trace].items() if emitted.get(n) != u}
            assert not missing, f"{workload} trace={trace}: missing or mislabelled {missing}"
            assert result["correct"] and result["failed"] == 0, report["failures"]
            assert report["op_fail_frac"] == 0, report["failures"]
            print(f"ok {workload} trace={trace}: {result['attempted']} ops")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("ok bare directory: exit", proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
