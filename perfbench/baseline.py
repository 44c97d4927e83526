"""Record a baseline: run the benchmark several times per workload and write
the median and quartiles of every metric, with the machine it ran on.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Run from the root of the checkout. Every workload of BENCHMARK.json gets
RUNS runs of its ``run_seconds``; run i uses ``--seed i``. Each workload
also gets one ``--trace 1`` run. For each end-to-end metric the record holds
the spread (third minus first quartile, as a share of the median) next to
the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"machine": platform.machine(), "cpu": model, "nproc": os.cpu_count(),
            "system": platform.system(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    record = {"machine": machine(), "run_seconds": seconds,
              "seeds": list(range(1, RUNS + 1)), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        start = time.perf_counter()
        runs = [run_once(workload, seed, seconds, 0) for seed in record["seeds"]]
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"],
                             **quartiles(values), "bound": bounds.get(name),
                             "values": values}
            print(f"{workload:12s} {name:22s} median {metrics[name]['median']:.6g} "
                  f"spread {metrics[name]['spread']:.4f} bound {bounds.get(name)}",
                  flush=True)
        traced = run_once(workload, record["seeds"][0], seconds, 1)
        record["workloads"][workload] = {
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "elapsed_s": time.perf_counter() - start,
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
