"""Record the expected exit code and stdout digest of every benchmark command.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/record.py

It covers every command any seed can produce (the whole t/s pool of
runthm-o14) and refuses to record an output of the wrong shape.
"""
import hashlib
import itertools
import json
import os
import sys

from run import (EXPECTED_PATH, S_POOL, T_POOL, WORK_DIR, WORKLOADS, child_env, launch,
                 runthm_commands, shape_error)


def all_commands() -> list[list[str]]:
    commands = WORKLOADS["verify-n9"](None) + WORKLOADS["tables-n30"](None)
    for t, s in itertools.product(T_POOL, S_POOL):
        commands += [c for c in runthm_commands(t, s) if c not in commands]
    return commands


def record(commands: list[list[str]]) -> dict:
    """Run each command once and return its exit code and stdout digest by command line."""
    os.makedirs(WORK_DIR, exist_ok=True)
    env = child_env()
    recorded = {}
    for argv in commands:
        result = launch(argv, "run", env)
        err = shape_error(argv, result["stdout"].decode())
        if err:
            sys.exit(f"error: {' '.join(argv)}: {err}")
        recorded[" ".join(argv)] = {"exit": result["code"],
                                    "stdout_sha256": hashlib.sha256(result["stdout"]).hexdigest()}
    return recorded


if __name__ == "__main__":
    with open(EXPECTED_PATH, "w") as fh:
        json.dump({"commands": record(all_commands())}, fh, indent=1)
        fh.write("\n")
