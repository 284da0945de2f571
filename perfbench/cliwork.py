"""The ``cli`` workload: ``spinpicard`` commands checked against golden output.

Every catalog entry runs once as text and once with ``--json``.  Inputs are
the demo files under ``demos/data`` and family files that ``write_families``
generates into the work directory; all are fixed, so their stdout bytes and
exit codes can be pinned in ``golden/cli.json`` (rebuilt by
``make_golden.py``).  The seed sets the order of the queries.

One entry is a known defect: ``spin --blowups`` on the genus-10 split curve
with all 11 nodes blown expands to 13 vertices and stops at the 12-vertex
cap of the exhaustive orbit-closure scan.  Its golden output is that of the
same call with ``--max-vertices 16``; the cap error it gives today is
recorded as its refusal, which counts against ``ok_ratio``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import families as fam

WORK_DIR = Path(".perfbench_work")
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
DEMO = "demos/data"
CAP_ENTRY = "spin-blowups-split10-all"


def _work(name: str) -> str:
    return str(WORK_DIR / name)


def write_families() -> None:
    """Write the generated family graphs and blow-up files."""
    WORK_DIR.mkdir(exist_ok=True)
    files = {
        "c6.json": fam.cycle(6),
        "c8.json": fam.cycle(8),
        "k4m2.json": fam.complete(4),
        "split10.json": fam.split(10),
        "blow_c6_all.json": {
            "s": [
                {"u": e["u"], "v": e["v"], "count": 1} for e in fam.cycle(6)["edges"]
            ]
        },
        "blow_split10_all.json": {"s": [{"u": "C1", "v": "C2", "count": 11}]},
    }
    for name, body in files.items():
        (WORK_DIR / name).write_text(json.dumps(body, indent=2) + "\n")


CATALOG = {
    "info-split3": ["info", f"{DEMO}/split_genus3.json"],
    "info-chain": ["info", f"{DEMO}/elliptic_chain.json"],
    "info-c8": ["info", _work("c8.json")],
    "bi-check-split3": ["bi", f"{DEMO}/split_genus3.json", "--total", "42", "--multidegree", "21,21"],
    "bi-violated-split3": ["bi", f"{DEMO}/split_genus3.json", "--total", "42", "--multidegree", "18,24"],
    "bi-check-c8": ["bi", _work("c8.json"), "--total", "168", "--multidegree", "21,21,21,21,21,21,21,21"],
    "bi-enum-split3": ["bi", f"{DEMO}/split_genus3.json", "--total", "42", "--enumerate"],
    "bi-enum-c6": ["bi", _work("c6.json"), "--total", "121", "--enumerate"],
    "bi-enum-k4m2": ["bi", _work("k4m2.json"), "--total", "161", "--enumerate"],
    "spin-decide-split3": ["spin", f"{DEMO}/split_genus3.json", "-t", "10", "--decide", "19,23"],
    "spin-decide-k4m2": ["spin", _work("k4m2.json"), "-t", "10", "--decide", "41,42,42,43"],
    "spin-locus-split3": ["spin", f"{DEMO}/split_genus3.json", "-t", "10", "--locus"],
    "spin-locus-c6": ["spin", _work("c6.json"), "-t", "10", "--locus"],
    "spin-locus-k4m2": ["spin", _work("k4m2.json"), "-t", "11", "--locus"],
    "spin-split-3": ["spin", "--split-curve", "-g", "3", "-t", "10"],
    "spin-split-12": ["spin", "--split-curve", "-g", "12", "-t", "15"],
    "spin-blowups-split3": ["spin", f"{DEMO}/split_genus3.json", "-t", "10", "--blowups", f"{DEMO}/blow_all_nodes.json"],
    "spin-blowups-c6-all": ["spin", _work("c6.json"), "-t", "10", "--blowups", _work("blow_c6_all.json")],
    CAP_ENTRY: ["spin", _work("split10.json"), "-t", "10", "--blowups", _work("blow_split10_all.json")],
    "numerics-kdg": ["numerics", "kdg", "-g", "5", "-d", "30"],
    "numerics-coarse": ["numerics", "coarse", "-g", "6", "-d", "41"],
    "numerics-rank": ["numerics", "rank", "-g", "9"],
    "numerics-normalize": ["numerics", "normalize", "-g", "7", "-d", "13"],
}


def argv_of(key: str) -> list[str]:
    """``<entry>`` or ``<entry>:json``."""
    entry, _, mode = key.partition(":")
    return CATALOG[entry] + (["--json"] if mode == "json" else [])


def all_keys() -> list[str]:
    return [f"{entry}{mode}" for entry in CATALOG for mode in ("", ":json")]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str]) -> tuple[int, str, str]:
    """Run ``python -m spinpicard`` and wait for it; (exit, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "spinpicard", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def in_process(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run ``cli.main`` in this process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def judge(golden: dict, key: str, answer: tuple[int, str, str]) -> str:
    """'ok' on the golden exit code and stdout bytes; 'refused' when the
    entry reproduces its recorded refusal exactly; otherwise 'wrong'."""
    code, out, err = answer
    want = golden[key]
    if (code, out) == (want["exit"], want["stdout"]):
        return "ok"
    refusal = want.get("refusal")
    if refusal and (code, out, err) == (refusal["exit"], "", refusal["stderr"]):
        return "refused"
    return "wrong"


def order(rng: random.Random) -> list[str]:
    keys = all_keys()
    rng.shuffle(keys)
    return keys
