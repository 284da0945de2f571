"""The spinpicard benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload admissibility --seed 1 --seconds 25 --trace 0

One client, one query in flight, no threads: a closed loop.  The workload's
queries are built from the seed and replayed in whole rounds until
``--seconds`` have passed and at least ``MIN_ROUNDS`` rounds have run.  Every
answer is checked against an oracle computed before timing starts; a wrong
answer makes the run exit 1.

``--trace 0`` reports the end-to-end metrics.  Latencies are scaled to a
reference machine speed (see ``REFERENCE_S``); a query's figure is the lower
quartile of its runs, and rates and percentiles are taken over the queries
of a round.  ``--trace 1`` alternates untraced rounds with rounds that record
spans around every public function, and reports per-round layer metrics
(unscaled) plus the tracing overhead.

The package is imported from ``src/`` of the current directory; without it
the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cliwork
import tracing
import workloads
from workloads import Raised

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SETUP_REPEATS = 7
#: Each query runs at least this often; its figure is the lower quartile of its runs.
MIN_ROUNDS = 3
#: The machine is shared and its speed drifts by up to half over seconds, as
#: other tenants load the same cores.  Each query is timed next to a run of a
#: fixed calibration loop, and its latency is scaled by REFERENCE_S over the
#: loop's time around it (median of five neighbouring runs).  Reported times
#: are so in reference seconds: the time the query takes on a machine where
#: the loop takes REFERENCE_S, which is the loop's fastest time on the
#: machine the figures were first taken on (2 vCPUs, Python 3.11.7).
#: Changing either constant rescales every reported time, so they stay fixed.
CALIBRATION_LOOPS = 5000
REFERENCE_S = 300e-6
SPAWN_REPEATS = 7
LADDER = (50, 75, 90, 95, 99, 99.9)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package(src: Path):
    """Import spinpicard from ``src`` afresh; the setup cost users pay."""
    for name in [m for m in sys.modules if m == "spinpicard" or m.startswith("spinpicard.")]:
        del sys.modules[name]
    import spinpicard
    import spinpicard.cli  # noqa: F401 - the cli workload calls it in process

    if Path(spinpicard.__file__).resolve().parent != (src / "spinpicard").resolve():
        _fail(f"spinpicard was imported from {spinpicard.__file__}, not from {src}")
    return spinpicard


def _build(name: str, seed: int):
    rng = random.Random(seed)
    if name == "cli":
        cliwork.write_families()
        return cliwork.order(rng)
    return workloads.WORKLOADS[name](rng)


def setup(name: str, seed: int, src: Path):
    """Import plus input generation, repeated; returns the median scaled time."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        start = time.perf_counter()
        sp = _import_package(src)
        queries = _build(name, seed)
        elapsed = time.perf_counter() - start
        times.append(elapsed * 2 * REFERENCE_S / (before + calibrate()))
    return sp, queries, statistics.median(times)


class Loop:
    """Replays whole rounds of queries, timing each and judging its answer."""

    def __init__(self, name: str, queries, sp, golden=None) -> None:
        self.name = name
        self.queries = queries
        self.sp = sp
        self.golden = golden
        self.attempted = 0
        self.raw_busy: list[float] = []
        self.verdicts = {"ok": 0, "refused": 0, "wrong": 0}
        self.wrong: list[str] = []

    def _one(self, query, in_process: bool):
        if self.name == "cli":
            argv = cliwork.argv_of(query)
            start = time.perf_counter()
            if in_process:
                answer = cliwork.in_process(self.sp.cli, argv)
            else:
                answer = cliwork.spawn(argv)
            elapsed = time.perf_counter() - start
            return elapsed, cliwork.judge(self.golden, query, answer), query
        start = time.perf_counter()
        try:
            answer = query.call(self.sp)
        except self.sp.SpinPicardError as exc:
            answer = Raised(type(exc).__name__)
        except Exception as exc:  # a crash is a failed query, not a dead run
            elapsed = time.perf_counter() - start
            return elapsed, "wrong", f"{query.kind}: {exc!r}"
        elapsed = time.perf_counter() - start
        return elapsed, query.judge(answer), query.kind

    def run_round(self, in_process: bool = False) -> list[float]:
        """Every query once, in order; returns their scaled latencies."""
        raw, speed = [], []
        for query in self.queries:
            speed.append(calibrate() / REFERENCE_S)
            elapsed, verdict, label = self._one(query, in_process)
            raw.append(elapsed)
            self.attempted += 1
            self.verdicts[verdict] += 1
            if verdict == "wrong" and len(self.wrong) < 5:
                self.wrong.append(label)
        self.raw_busy.append(sum(raw))
        return [t / statistics.median(speed[max(0, i - 2): i + 3]) for i, t in enumerate(raw)]

    def run_for(self, seconds: float) -> list[list[float]]:
        start = time.perf_counter()
        rounds = []
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            rounds.append(self.run_round())
        return rounds


def calibrate() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def typical(rounds: list[list[float]]) -> list[float]:
    """Each query's lower-quartile scaled latency over the rounds.  Scaling
    leaves some of the other tenants' interference in; it only ever adds
    time, and the lower quartile sheds it while one lucky run cannot set
    the figure the way a minimum would."""
    return [sorted(column)[len(column) // 4] for column in zip(*rounds)]


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    return max(p for p in LADDER if count * (100 - p) / 100 >= 10 or p == LADDER[0])


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * pct / 100))
    return ordered[rank - 1]


def _peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(name: str, loop: Loop, rounds, setup_s: float) -> dict:
    best = typical(rounds)
    pct = tail_percentile(len(best))
    beyond = sum(1 for x in best if x > percentile(best, pct))
    print(
        f"# {name}: {len(best)} queries x {len(rounds)} rounds; latency is each "
        f"query's lower-quartile scaled run; tail is p{pct} with {beyond} queries beyond it; "
        f"unscaled median round {statistics.median(loop.raw_busy):.4f} s; verdicts {loop.verdicts}"
    )
    return {
        "queries_per_s": len(best) / sum(best),
        "query_p50_ms": 1e3 * statistics.median(best),
        "query_tail_ms": 1e3 * percentile(best, pct),
        "ok_ratio": loop.verdicts["ok"] / loop.attempted,
        "setup_s": setup_s,
        "peak_rss_mib": _peak_rss_mib(children=name == "cli"),
    }


def _spawn_ms(code: str) -> float:
    times = []
    for _ in range(SPAWN_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], check=True, env=cliwork.child_env(), timeout=60
        )
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def traced(name: str, loop: Loop, seconds: float) -> dict:
    """Alternate untraced and traced rounds, so that both see the same
    machine; report per-round layer metrics and the tracing overhead."""
    in_process = name == "cli"
    tracer = tracing.Tracer()
    plain, with_spans = [], []
    start = time.perf_counter()
    while len(with_spans) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        plain.append(loop.run_round(in_process))
        tracer.install()
        try:
            with_spans.append(loop.run_round(in_process))
        finally:
            tracer.uninstall()
    metrics = tracing.per_layer(tracer, len(with_spans))
    base, traced_s = sum(typical(plain)), sum(typical(with_spans))
    metrics["trace.overhead_s"] = traced_s - base
    metrics["trace.overhead_ratio"] = (traced_s - base) / base
    if name == "cli":
        spawn = _spawn_ms("pass")
        metrics["cli.spawn_ms"] = spawn
        metrics["cli.import_ms"] = _spawn_ms("import spinpicard.cli") - spawn
    print(
        f"# traced {len(with_spans)} of {2 * len(with_spans)} rounds; a round takes "
        f"{base:.4f} s untraced, {traced_s:.4f} s traced (scaled)"
    )
    return metrics


def _provenance(seed: int, src: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((src / "spinpicard").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if Path(".git").exists():  # a bare checkout records the source hash alone
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path("src").resolve()
    if not (src / "spinpicard" / "__init__.py").is_file():
        _fail("no src/spinpicard here; run from the repository root")
    if not BENCH_FILE.is_file():
        _fail(f"missing {BENCH_FILE}")
    spec = json.loads(BENCH_FILE.read_text())
    sys.path.insert(0, str(src))

    print("# " + json.dumps(_provenance(args.seed, src), sort_keys=True))
    sp, queries, setup_s = setup(args.workload, args.seed, src)
    golden = None
    if args.workload == "cli":
        golden = cliwork.load_golden()
    else:
        for query in queries:
            query.prepare()
    loop = Loop(args.workload, queries, sp, golden)

    if args.trace:
        values = traced(args.workload, loop, args.seconds)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(args.workload, loop, loop.run_for(args.seconds), setup_s)
        wanted = spec["end_to_end"]

    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    correct = loop.verdicts["wrong"] == 0
    for label in loop.wrong:
        print(f"# WRONG: {label}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.verdicts["wrong"],
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
