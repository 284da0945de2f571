"""Run every workload, untraced and traced, and print each metric with its unit.

Usage, from the repository root::

    python3 perfbench/report.py --seed 1 --seconds 20

Each run is a separate ``run.py`` process, one at a time; the exit code is
non-zero when any run fails or reports a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            for line in lines[:-1]:
                print(f"{workload} {line}")
            result = json.loads(lines[-1])
            print(f"{workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
