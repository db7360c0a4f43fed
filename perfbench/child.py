"""Run one desarrange CLI command in this fresh process and report on it.

Usage (from the repository root, which must hold ``src/desarrange``):

    python3 perfbench/child.py REPORT MODE [CLI ARGS...]

MODE is ``probe`` (import the CLI, build its parser and stop), ``run`` (call
``desarrange.cli.main`` with the CLI args) or ``trace`` (the same, with the
per-layer tracer installed).  REPORT receives a JSON object with the
``time.monotonic()`` reading taken once the parser is built (``setup_end``)
and, in trace mode, the tracer's summary.  The package is not installed, so
the checkout's ``src`` goes first on the path.
"""
import json
import os
import sys
import time


def main() -> int:
    report_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from desarrange import cli

    report = {}
    build_parser = cli.build_parser

    def stamped_build_parser():
        parser = build_parser()
        report.setdefault("setup_end", time.monotonic())
        return parser

    cli.build_parser = stamped_build_parser
    tracer = None
    try:
        if mode == "probe":
            cli.build_parser()
            return 0
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        return cli.main(argv)
    finally:
        if tracer is not None:
            report["trace"] = tracer.summary()
        with open(report_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
