"""Rebuild ``golden/cli.json`` from the current program.

Run from the repository root: ``python3 perfbench/make_golden.py``.  Each
catalog entry is run as a subprocess in text and JSON mode.  Before it is
written, every JSON answer that has an oracle is checked against it, and the
cap-defect entry gets its expected output from the same call with
``--max-vertices 16`` plus its current refusal.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import cliwork  # noqa: E402
import oracles as orc  # noqa: E402
from families import Shape  # noqa: E402


def _graph(path: str) -> Shape:
    return Shape(json.loads(Path(path).read_text()))


def _require(ok: bool, entry: str) -> None:
    if not ok:
        raise SystemExit(f"{entry}: the program's answer fails its oracle")


def check_json(entry: str, payload: dict) -> None:
    """Compare one JSON answer with its oracle; raise on a mismatch."""
    argv = cliwork.CATALOG[entry]
    res = payload["result"]
    if argv[0] in ("info", "numerics"):
        return  # no independent oracle
    if argv[0] == "bi" and "--enumerate" in argv:
        shape, total = _graph(argv[1]), int(argv[argv.index("--total") + 1])
        got = sorted(tuple(v) for v in res["multidegrees"])
        if orc.coprime_total(shape.genus, total) == total:
            _require(len(got) == orc.spanning_trees(shape), entry)
        for vec in got:
            _require(not orc.bi_violations(shape, list(vec)), entry)
        return
    if argv[0] == "bi":
        shape = _graph(argv[1])
        degrees = [int(x) for x in argv[argv.index("--multidegree") + 1].split(",")]
        expect = not orc.bi_violations(shape, degrees)
        got = res["satisfied"]
    elif "--locus" in argv:
        shape, t = _graph(argv[1]), int(argv[argv.index("-t") + 1])
        expect = sorted(list(v) for v in orc.spin_locus(shape, t))
        got = res["multidegrees"]
    elif "--split-curve" in argv:
        g, t = int(argv[argv.index("-g") + 1]), int(argv[argv.index("-t") + 1])
        expect = [[s, sg, d1, d2] for s, sg, d1, d2 in orc.split_rows(g, t)]
        got = [[r["s"], r["sigma"], r["d1"], r["d2"]] for r in res["rows"]]
    elif "--decide" in argv:
        shape, t = _graph(argv[1]), int(argv[argv.index("-t") + 1])
        w = res["witness"]
        s = {(e["u"], e["v"]): e["count"] for e in w["s"]}
        sigma = {(e["u"], e["v"]): e["count"] for e in w["sigma"]}
        expect = [int(x) for x in argv[argv.index("--decide") + 1].split(",")]
        got = orc.grouped_degree(shape, t, s, sigma)
        _require(orc.witness_valid(shape, s, sigma), entry)
    elif "--blowups" in argv:
        shape, t = _graph(argv[1]), int(argv[argv.index("-t") + 1])
        raw = json.loads(Path(argv[argv.index("--blowups") + 1]).read_text())
        s = {(e["u"], e["v"]): e["count"] for e in raw.get("s", [])}
        r = {e["vertex"]: e["count"] for e in raw.get("r", [])}
        core, exceptional, connected = orc.blowup_model(shape, s, r, t)
        expect = (core, exceptional, connected, True)
        md = res["multidegree"]
        got = ({v: md[v] for v in shape.ids}, res["exceptional_count"], res["git_stable"], res["orbit_closed"])
    if got != expect:
        raise SystemExit(f"{entry}: program gave {got!r}, oracle {expect!r}")


def main() -> None:
    cliwork.write_families()
    golden = {}
    for key in cliwork.all_keys():
        entry = key.partition(":")[0]
        argv = cliwork.argv_of(key)
        code, out, err = cliwork.spawn(argv)
        record = {"argv": argv, "exit": code, "stdout": out}
        if entry == cliwork.CAP_ENTRY:
            if code == 0:
                raise SystemExit(f"{key}: the cap defect no longer shows; drop its refusal")
            record["refusal"] = {"exit": code, "stderr": err}
            code, out, err = cliwork.spawn(argv + ["--max-vertices", "16"])
            record.update(exit=code, stdout=out)
        if code != 0:
            raise SystemExit(f"{key}: exit {code}: {err}")
        if key.endswith(":json"):
            check_json(entry, json.loads(out))
        golden[key] = record
    cliwork.GOLDEN.parent.mkdir(exist_ok=True)
    cliwork.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} entries to {cliwork.GOLDEN}")


if __name__ == "__main__":
    main()
