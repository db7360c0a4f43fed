"""The repository benchmark: desarrange CLI workloads, one fresh process per command.

Run from the repository root:

    python3 perfbench/run.py --workload verify-n9 --seed 1 --seconds 20 --trace 0

Each sample runs the workload's command list once, one process at a time,
through ``perfbench/child.py``.  Samples repeat while the next one is
expected to end within ``--seconds`` (at least one runs).  Every command's
exit code and stdout are checked against ``perfbench/expected.json`` and
against the shape the command must print.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` one more sample runs under the per-layer tracer
and the last line carries the per-layer metrics.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
WORK_DIR = os.path.join(".bench_build", "perfbench")
CHILD_TIMEOUT_S = 150
PROBES = 4  # set-up-only launches before the first sample and after each sample

ORDER = "14"
T_POOL = ("3/2", "2", "5/3", "3")
S_POOL = ("2", "3")
DERANGEMENTS = (1, 0, 1, 2, 9, 44, 265, 1854, 14833, 133496, 1334961, 14684570,
                176214841, 2290792932, 32071101049)


def runthm_commands(t: str, s: str, order: str = ORDER) -> list[list[str]]:
    return [["runthm", "fig1", "-i", "1", "-j", "3", "--correction", "cosh", "--order", order],
            ["runthm", "fig2", "-i", "1", "-j", "2", "-t", t, "--order", order],
            ["runthm", "fig3", "-i", "1", "-j", "2", "-t", t, "-s", s, "--order", order]]


# Each maps a seeded random.Random to the workload's command list.
WORKLOADS = {
    "verify-n9": lambda rng: [["verify", "--n-max", "9"]],
    "runthm-o14": lambda rng: runthm_commands(rng.choice(T_POOL), rng.choice(S_POOL)),
    "tables-n30": lambda rng: [["tables", str(k), "--n-max", "30"] for k in range(2, 7)],
}

# The keys of desarrange.verify.CHECKS, spelled out because this process
# never imports the program; smoke.py checks that a verify run times each one.
CHECK_NAMES = ("table1", "tables", "run-theorem", "patterns", "lemmas", "bijections",
               "specializations", "equidistribution")
SPAN_METRICS = (
    ("perms.contains_pattern", "calls"),
    ("perms.pixed_factorization", "calls"),
    ("patterns.contains_mask", "calls"),
    ("patterns.avoids", "calls"),
    ("patterns.count_class", "s"),
    ("patterns.count_class", "calls"),
    ("patterns.equidistribution_report", "s"),
    ("oracle.distribution", "calls"),
    ("rungraph.validate_unique_admissibility", "s"),
    ("rungraph.validate_unique_admissibility", "calls"),
    ("rungraph.oracle_weight_sum", "s"),
    ("rungraph.descent_composition_counts", "s"),
    ("rungraph.composition_weight", "calls"),
    ("rungraph.run_theorem_egf", "s"),
    ("series.interpolate", "s"),
    ("series.interpolate", "calls"),
    ("series.TruncSeries.__mul__", "calls"),
    ("series.TruncSeries.__mul__", "s"),
    ("series.TruncSeries.inverse", "s"),
    ("series.SeriesMatrix.inverse", "s"),
    ("series.SeriesMatrix.inverse", "calls"),
    ("formulas.distribution_polynomials", "s"),
    ("formulas.evaluate_formula", "calls"),
)


def child_env() -> dict:
    """The parent's environment without Python or desarrange settings that change a run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "DESARRANGE_"))}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = os.path.abspath(os.path.join(WORK_DIR, "pycache"))
    return env


def launch(argv: list[str], mode: str, env: dict) -> dict:
    """Run child.py in a fresh process and wait for it; returns its measurements."""
    out_path, err_path, report_path = (os.path.join(WORK_DIR, name)
                                       for name in ("stdout", "stderr", "report.json"))
    if os.path.exists(report_path):
        os.remove(report_path)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, report_path, mode, *argv],
                                stdout=out, stderr=err, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = {}
    if os.path.exists(report_path):
        with open(report_path) as fh:
            report = json.load(fh)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return {
        "argv": argv, "code": proc.returncode, "stdout": stdout, "stderr": stderr,
        "t0": t0, "end": end,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "setup_s": report["setup_end"] - t0 if "setup_end" in report else None,
        "trace": report.get("trace"),
    }


def shape_error(argv: list[str], stdout: str) -> str | None:
    """What the command's output must look like, independent of the recorded digest."""
    lines = stdout.splitlines()
    if argv[0] == "verify":
        if len(lines) != 8 or not all(line.startswith("PASS ") for line in lines):
            return "expected 8 PASS lines"
    elif argv[0] == "runthm":
        order = int(argv[argv.index("--order") + 1])
        values = lines[0].split(",") if len(lines) == 1 else []
        if len(values) != order + 1:
            return f"expected one line of {order + 1} coefficients"
        if argv[1] == "fig1" and values != [str(d) for d in DERANGEMENTS[:order + 1]]:
            return "fig1 + cosh is not the derangement numbers"
    elif argv[0] == "tables":
        n_max = int(argv[argv.index("--n-max") + 1])
        if [line.split("\t")[0] for line in lines[1:]] != [str(n) for n in range(n_max + 1)]:
            return f"expected rows n = 0..{n_max}"
    return None


def output_error(result: dict, expected: dict, reference: bytes | None = None) -> str | None:
    """Why the command's output is wrong, or None; reference is the untraced stdout."""
    if reference is not None and result["stdout"] != reference:
        return "traced stdout differs from the untraced run"
    want = expected.get(" ".join(result["argv"]))
    digest = hashlib.sha256(result["stdout"]).hexdigest()
    if want is None:
        return "no recorded output for this command"
    if result["code"] != want["exit"] or digest != want["stdout_sha256"]:
        tail = result["stderr"].decode(errors="replace").strip().splitlines()[-1:]
        return (f"exit {result['code']} and stdout sha256 {digest[:16]} differ from the "
                f"recorded exit {want['exit']} and {want['stdout_sha256'][:16]} {tail}")
    return shape_error(result["argv"], result["stdout"].decode())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def sample_wall(sample: list[dict]) -> float:
    """Launch of the first process to exit of the last."""
    return sample[-1]["end"] - sample[0]["t0"]


def end_to_end(samples: list[list[dict]], setups: list[float]) -> dict:
    """Metric -> (reported value, unit, the values it summarises)."""
    walls = [sample_wall(s) for s in samples]
    cpus = [sum(r["cpu_s"] for r in s) for s in samples]
    rss = [r["rss_mb"] for s in samples for r in s]
    # Times per sample are averaged, not medianed: this host slows down in
    # phases lasting 10-60 s, and the mean over a run integrates them where
    # the median jumps between them (see README.md, "Noise").
    return {
        "wall_s": (statistics.fmean(walls), "s", walls),
        "cpu_s": (statistics.fmean(cpus), "s", cpus),
        "setup_s": (statistics.median(setups), "s", setups),
        "peak_rss_mb": (max(rss), "MB", rss),
    }


def per_layer(traced: list[dict], untraced_wall: float) -> dict:
    """Per-layer metrics of one traced sample, summed over its commands."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    spans: dict[str, dict] = {}
    for result in traced:
        trace = result["trace"] or {"self_s": {}, "spans": {}}
        for layer, seconds in trace["self_s"].items():
            self_s[layer] += seconds
        for key, stat in trace["spans"].items():
            acc = spans.setdefault(key, dict.fromkeys(stat, 0))
            for field, value in stat.items():
                acc[field] += value

    def span(key, field):
        value = spans.get(key, {}).get(field, 0)
        return value if field != "s" else float(value)

    metrics = {f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS}
    metrics["perms.enumerated"] = (span("perms.enumerate_class", "items"), "count")
    for key, field in SPAN_METRICS:
        metrics[f"{key}.{field}"] = (span(key, field), "count" if field == "calls" else "s")
    for name in CHECK_NAMES:
        metrics[f"verify.check.{name}.s"] = (span(f"verify.check.{name}", "s"), "s")
    wall = sample_wall(traced)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.unattributed_s"] = (wall - sum(self_s.values()), "s")
    metrics["trace.overhead"] = (wall / untraced_wall - 1, "ratio")
    return metrics


def probe_setups(env: dict) -> list[float]:
    """Set-up times of PROBES processes that only import the CLI and build its parser."""
    return [t for _ in range(PROBES) if (t := launch([], "probe", env)["setup_s"]) is not None]


def measure(commands: list[list[str]], seconds: float, trace: bool, expected: dict) -> dict:
    """Run the workload and return the result object the last stdout line carries."""
    os.makedirs(WORK_DIR, exist_ok=True)
    env = child_env()
    warm = launch([], "probe", env)  # fills the bytecode cache; not timed
    if warm["setup_s"] is None:
        sys.exit("error: cannot start the CLI: " + warm["stderr"].decode(errors="replace"))
    setups = probe_setups(env)
    samples = []
    start = time.monotonic()
    # Stop before a sample that would end past the time budget; always take one.
    while not samples or time.monotonic() - start + sample_wall(samples[-1]) <= seconds:
        samples.append([launch(argv, "run", env) for argv in commands])
        setups += probe_setups(env)
    setups += [r["setup_s"] for s in samples for r in s if r["setup_s"] is not None]
    checked = [(r, None) for s in samples for r in s]
    if trace:
        checked += [(launch(argv, "trace", env), u["stdout"])
                    for argv, u in zip(commands, samples[0])]
    errors = [f"{' '.join(r['argv'])}: {err}" for r, reference in checked
              if (err := output_error(r, expected, reference))]
    e2e = end_to_end(samples, setups)
    if trace:
        traced = [r for r, reference in checked if reference is not None]
        metrics = per_layer(traced, e2e["wall_s"][0])
    else:
        metrics = {name: (value, unit) for name, (value, unit, _) in e2e.items()}
    return {
        "correct": not errors,
        "attempted": len(checked),
        "failed": len(errors),
        "errors": errors,
        "samples": samples,
        "end_to_end": e2e,
        "metrics": metrics,
    }


def print_result(name: str, seed: int, result: dict):
    samples = result["samples"]
    print(f"workload {name} seed {seed}: {len(samples)} sample(s) of "
          f"{len(samples[0])} command(s): " + "; ".join(" ".join(a["argv"]) for a in samples[0]))
    for metric, (value, unit, values) in result["end_to_end"].items():
        q1, q2, q3 = quartiles(values)
        print(f"  {metric:<12} {value:.4f} {unit}  (median {q2:.4f}  q1 {q1:.4f}  q3 {q3:.4f}"
              f"  n={len(values)})")
    for err in result["errors"]:
        print(f"  FAILED {err}")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    print(json.dumps(line))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "desarrange", "cli.py")):
        print("error: run from the repository root; src/desarrange/cli.py is missing",
              file=sys.stderr)
        return 2
    with open(EXPECTED_PATH) as fh:
        expected = json.load(fh)["commands"]
    commands = WORKLOADS[args.workload](random.Random(args.seed))
    result = measure(commands, args.seconds, bool(args.trace), expected)
    print_result(args.workload, args.seed, result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
