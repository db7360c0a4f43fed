"""Fast self-test of the benchmark, on tiny sizes (about 15 s).

Run from the repository root:

    python3 perfbench/smoke.py

It records the outputs of a tiny version of each workload, then checks that
the metrics the benchmark prints are named and unit-labelled exactly as in
BENCHMARK.json, that the traced run's per-layer self times plus unattributed
time add up to its wall time, that every verify check gets a span, and that
a corrupted expected digest is reported as a failed command rather than a
pass.
"""
import contextlib
import io
import json
import os
import sys

from record import record
from run import measure, print_result, runthm_commands

TINY = {
    "verify": [["verify", "--n-max", "5"]],
    "runthm": runthm_commands("3/2", "2", order="6"),
    "tables": [["tables", "2", "--n-max", "8"]],
}


def printed_line(name: str, result: dict) -> dict:
    """The last stdout line the benchmark prints for this result, parsed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        print_result(name, 0, result)
    return json.loads(buf.getvalue().splitlines()[-1])


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    expected = record([argv for commands in TINY.values() for argv in commands])
    problems = []
    for name, commands in TINY.items():
        for trace in (0, 1):
            line = printed_line(name, measure(commands, 0, bool(trace), expected))
            if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{name} trace {trace}: result keys {sorted(line)}")
            if not line["correct"] or line["failed"]:
                problems.append(f"{name} trace {trace}: failed on recorded outputs")
            units = {k: v["unit"] for k, v in line["metrics"].items()}
            if units != declared[trace]:
                problems.append(f"{name} trace {trace}: metrics {units} differ from "
                                f"BENCHMARK.json {declared[trace]}")
            if trace:
                m = {k: v["value"] for k, v in line["metrics"].items()}
                attributed = sum(v for k, v in m.items() if k.endswith(".self_s"))
                if abs(attributed + m["trace.unattributed_s"] - m["trace.wall_s"]) > 1e-9:
                    problems.append(f"{name}: self times and unattributed time do not "
                                    "add up to the traced wall time")
                if (m["perms.enumerated"] > 0) != (name == "verify"):
                    problems.append(f"{name}: perms.enumerated = {m['perms.enumerated']}")
                untimed = [k for k in m if k.startswith("verify.check.") and not m[k]]
                if name == "verify" and untimed:
                    problems.append(f"verify: no span for {untimed}")

    corrupted = dict(expected)
    key = " ".join(TINY["runthm"][1])
    corrupted[key] = dict(corrupted[key], stdout_sha256="0" * 64)
    line = printed_line("runthm", measure(TINY["runthm"], 0, False, corrupted))
    if line["correct"] or line["failed"] != 1:
        problems.append(f"a corrupted digest was not reported as one failure: {line}")

    for problem in problems:
        print(f"smoke: FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join("src", "desarrange", "cli.py")):
        sys.exit("error: run from the repository root")
    sys.exit(main())
