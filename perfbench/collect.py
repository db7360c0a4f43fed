"""Run the benchmark over several seeds and write every result to a JSON file.

Run from the repository root:

    python3 perfbench/collect.py --runs 10 --out perfbench/results/NAME.json

For each workload it makes ``--runs`` untraced runs (seeds 1..runs) and one
traced run (seed 1), each a separate ``run.py`` process with the
``run_seconds`` of BENCHMARK.json, as the benchmark is meant to be driven.
It records every run's metrics and, per end-to-end metric, the median, the
quartiles and the quartile spread as a share of the median, together with
the Python version and the CPU count, so two commits can be compared by
diffing two such files.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in list(line["metrics"].items())[:4]),
          flush=True)
    return {"seed": seed, **line}


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    results = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in workloads:
        runs = [run_once(workload, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        results["workloads"][workload] = {
            "summary": summary(runs),
            "runs": runs,
            "traced": run_once(workload, 1, seconds, 1),
        }
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")
    for workload, entry in results["workloads"].items():
        for name, s in entry["summary"].items():
            print(f"{workload:<11} {name:<12} median {s['median']:.4f}  spread {s['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
