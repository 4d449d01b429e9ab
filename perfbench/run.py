"""Benchmark entry point.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the problems the
output checks found go to standard error.  The program is imported from
``src/`` of the checkout and all scratch files live in a temporary
directory inside the checkout, removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Environment variables that would choose the program's storage engine,
#: shard count or spec compilation behind the benchmark's back.
ISOLATED_ENV = (
    "REPRO_ENGINE",
    "REPRO_SHARDS",
    "REPRO_NO_COMPILE",
    "REPRO_COMPILE_CACHE_DIR",
)

WORKLOAD_NAMES = ("analyze", "simulate", "check", "durable", "recover")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    for name in ISOLATED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, SRC)
    import workloads

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    tempfile.tempdir = workdir
    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = workloads.run(
            workloads.WORKLOADS[args.workload],
            args.seed,
            args.seconds,
            bool(args.trace),
            workdir,
        )
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in result.pop("problems"):
        print(f"perfbench: {problem}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
