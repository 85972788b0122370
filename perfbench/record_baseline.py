"""Record perfbench/baseline.json from fresh runs on this machine.

    python3 perfbench/record_baseline.py

Runs every workload once untraced and once traced at the baseline seed,
for BENCHMARK.json's run_seconds, and stores their metrics, the SHA-256 of
each CLI artifact (the digests that cli.artifact_changed is counted
against) and a description of the machine.
"""
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def lscpu() -> dict:
    fields = {}
    out = subprocess.run(["lscpu"], capture_output=True, text=True, check=True).stdout
    for line in out.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return fields


def machine() -> dict:
    cpu = lscpu()
    l3 = cpu.get("L3 cache", "")
    return {"nproc": os.cpu_count(), "cpu_model": cpu.get("Model name"),
            "l3_cache": l3, "l3_cache_mib": float(l3.split()[0]) if "MiB" in l3 else None,
            "python": platform.python_version(), "numpy": numpy.__version__}


def run_once(workload: str, seconds: int, trace: int) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(workloads.BASELINE_SEED), "--seconds", str(seconds),
                           "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True,
                          check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} of {result['attempted']} jobs failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    baseline = {"seed": workloads.BASELINE_SEED, "run_seconds": seconds, "machine": machine(),
                "end_to_end": {}, "per_layer": {}, "artifacts": {}}
    for workload in workloads.WORKLOADS:
        baseline["end_to_end"][workload] = run_once(workload, seconds, 0)
        baseline["per_layer"][workload] = run_once(workload, seconds, 1)
        dump = run.OUT_DIR / f"trace-{workload}-seed{workloads.BASELINE_SEED}.json"
        baseline["artifacts"][workload] = json.loads(dump.read_text())["artifacts"]
    run.BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.BASELINE.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
