"""Command-line front end: info, bi, spin, numerics.

Human-readable tables by default; ``--json`` switches to a single JSON object
on stdout with sorted keys, so identical invocations are byte-identical.
Rationals are printed as exact fractions ("19", "39/2"), never as decimals.
Diagnostics go to stderr and the exit code is 0 exactly when no error occurred.

Each handler returns its JSON payload and its text lines, and imports the
library modules it calls, and only those, so that a command compiles no
module it does not run.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .errors import SpinPicardError

PROG = "spinpicard"


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpinPicardError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpinPicardError(
            f"{path} is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc


def _load_graph(path: str):
    from .graphs import validate_graph

    return validate_graph(_load_json(path))


def _parse_degree_list(text: str, graph):
    from .graphs import Multidegree

    try:
        values = [int(part.strip()) for part in text.split(",")]
    except ValueError:
        raise SpinPicardError(
            f"expected a comma-separated list of integers, got {text!r}"
        ) from None
    return Multidegree.from_values(graph, values)


def _listing(command: str, inputs: dict, mode: str, graph, found, headline: str):
    """A list of multidegrees as id-ordered degree vectors, under a headline."""
    rows = [list(md.values(graph.ids)) for md in found]
    result = {"mode": mode, "vertex_order": list(graph.ids), "count": len(rows), "multidegrees": rows}
    lines = [headline, f"vertex order: {', '.join(graph.ids)}"]
    lines += ["  (" + ", ".join(map(str, row)) + ")" for row in rows]
    return {"command": command, "inputs": inputs, "result": result}, lines


# -- subcommands -----------------------------------------------------------


def cmd_info(args):
    from .graphs import arithmetic_genus, is_stable

    graph = _load_graph(args.graph)
    genus = arithmetic_genus(graph)
    stable = is_stable(graph)
    pair_nodes = sum(m for _, _, m in graph.pairs())
    self_nodes = sum(v.self_nodes for v in graph.vertices)
    result = {
        "genus": genus,
        "stable": stable,
        "vertex_count": graph.n,
        "pair_node_count": pair_nodes,
        "self_node_count": self_nodes,
        **graph.to_dict(),
    }
    lines = [
        f"genus {genus}, {'stable' if stable else 'NOT stable'}",
        f"{graph.n} vertices, {pair_nodes} nodes between distinct components, "
        f"{self_nodes} self-nodes",
    ]
    lines += [f"  {v.id}: pa={v.pa}, self_nodes={v.self_nodes}" for v in graph.vertices]
    lines += [f"  {u} -- {v}: {m}" for u, v, m in graph.pairs()]
    return {"command": "info", "inputs": {"graph": args.graph}, "result": result}, lines


def cmd_bi(args):
    from .graphs import basic_inequality, enumerate_multidegrees

    graph = _load_graph(args.graph)
    inputs = {"graph": args.graph, "total": args.total}
    if not args.enumerate:
        md = _parse_degree_list(args.multidegree, graph)
        if md.total != args.total:
            raise SpinPicardError(
                f"multidegree totals {md.total}, but --total is {args.total}"
            )
        report = basic_inequality(graph, md, max_vertices=args.max_vertices)
        inputs["multidegree"] = md.as_dict()
        result = {
            "mode": "check",
            "satisfied": report.satisfied,
            "violations": [
                {
                    "subcurve": sorted(v.subcurve),
                    "degree": v.degree,
                    "lower": str(v.lower),
                    "upper": str(v.upper),
                }
                for v in report.violations
            ],
        }
        if report.satisfied:
            lines = ["basic inequality: satisfied on every subcurve"]
        else:
            lines = [f"basic inequality: VIOLATED on {len(report.violations)} subcurve(s)"]
            for v in report.violations:
                names = ", ".join(sorted(v.subcurve))
                lines.append(f"  Y={{{names}}}: degree {v.degree} outside [{v.lower}, {v.upper}]")
        return {"command": "bi", "inputs": inputs, "result": result}, lines

    found = enumerate_multidegrees(graph, args.total, max_vertices=args.max_vertices)
    return _listing(
        "bi", inputs, "enumerate", graph, found,
        f"{len(found)} multidegree(s) of total {args.total} satisfy the basic inequality",
    )


def cmd_spin(args):
    if args.max_vertices is not None and not args.locus:
        args.usage_error("argument --max-vertices: only --locus reads it")
    if args.genus is not None and not args.split_curve:
        args.usage_error("argument -g/--genus: only --split-curve reads it")
    t = args.t
    unsafe = args.unsafe_t

    if args.split_curve:
        from .spin_locus import split_curve_table

        if args.genus is None:
            raise SpinPicardError("--split-curve needs -g/--genus")
        rows = split_curve_table(args.genus, t, unsafe_t=unsafe)
        bidegrees = sorted({(r.d1, r.d2) for r in rows})
        result = {
            "rows": [{"s": r.s, "sigma": r.sigma, "d1": r.d1, "d2": r.d2} for r in rows],
            "bidegrees": [list(b) for b in bidegrees],
            "count": len(bidegrees),
        }
        lines = [
            f"split curve of genus {args.genus} at t={t}: "
            f"{len(rows)} (s, sigma) rows, {len(bidegrees)} distinct bidegrees",
            "  s  sigma    d1    d2",
        ]
        lines += [f"  {r.s:<2} {r.sigma:<5} {r.d1:>5} {r.d2:>5}" for r in rows]
        inputs = {"mode": "split-curve", "genus": args.genus, "t": t}
        return {"command": "spin", "inputs": inputs, "result": result}, lines

    if args.graph is None:
        raise SpinPicardError("a graph file is required unless --split-curve is used")
    graph = _load_graph(args.graph)
    inputs = {"graph": args.graph, "t": t}

    if args.blowups is not None:
        from .quasistable import BlowupConfig, expand, git_stable, spin_multidegree, spin_parity

        config = BlowupConfig.from_dict(_load_json(args.blowups))
        parity = spin_parity(graph, config)
        inputs["blowups"] = args.blowups
        result = {"mode": "blowups", "spin_parity": parity}
        payload = {"command": "spin", "inputs": inputs, "result": result}
        if not parity:
            return payload, ["spin parity: FAILS (no spin structure on this model)"]
        q = expand(graph, config)
        md = spin_multidegree(q, t, unsafe_t=unsafe)
        stable = git_stable(q, t, unsafe_t=unsafe)
        # Spin models: d(Y) - m(Y) >= core_contact(Y)/2, so the orbit is closed.
        result.update(
            {
                "exceptional_count": len(q.exceptional),
                "vertex_count": q.n,
                "multidegree": md.as_dict(),
                "total": md.total,
                "git_stable": stable,
                "orbit_closed": True,
            }
        )
        lines = [
            "spin parity: holds",
            f"expanded model: {q.n} vertices, {len(q.exceptional)} exceptional",
            f"spin multidegree (total {md.total}):",
        ]
        lines += [f"  {vid}: {deg}" for vid, deg in md.items]
        lines += [f"GIT stable: {'yes' if stable else 'no'}", "orbit closed: yes"]
        return payload, lines

    if args.decide is not None:
        from .spin_locus import decide_spin_component

        md = _parse_degree_list(args.decide, graph)
        # A witness or BasicInequalityError: the locus meets every component.
        witness = decide_spin_component(graph, t, md, unsafe_t=unsafe)
        inputs["multidegree"] = md.as_dict()
        result = {"mode": "decide", "met": True, "witness": witness.to_dict()}
        lines = ["witness found:"]
        lines += [f"  s[{u}, {v}] = {c}" for u, v, c in witness.s_items()]
        lines += [f"  sigma[{u}, {v}] = {c}" for u, v, c in witness.sigma_items()]
        if not witness.s_items():
            lines.append("  (no blow-ups needed)")
        return {"command": "spin", "inputs": inputs, "result": result}, lines

    # The mode group is required, so --locus is the one mode left.
    from .spin_locus import enumerate_spin_multidegrees

    found = enumerate_spin_multidegrees(graph, t, unsafe_t=unsafe, max_vertices=args.max_vertices)
    return _listing(
        "spin", inputs, "locus", graph, found,
        f"the spin locus meets {len(found)} fiber component(s) at t={t}",
    )


def cmd_numerics(args):
    from . import numerics

    g = args.genus
    verb = args.verb
    if verb == "rank" and args.degree is not None:
        args.usage_error("argument -d/--degree: 'rank' reads no degree")
    needs_d = verb in {"kdg", "coarse", "normalize"}
    if needs_d and args.degree is None:
        raise SpinPicardError(f"'{verb}' needs -d/--degree")
    inputs = {"verb": verb, "g": g}
    if needs_d:
        inputs["d"] = args.degree

    if verb == "kdg":
        import math

        value = numerics.kouvidakis_class(g, args.degree)
        divisor = math.gcd(2 * g - 2, g + args.degree - 1)
        line = (
            f"kouvidakis class = (2g-2)/gcd(2g-2, g+d-1) "
            f"= {2 * g - 2}/{divisor} = {value}"
        )
    elif verb == "coarse":
        value = numerics.coarse_moduli_predicate(g, args.degree)
        line = (
            f"gcd(d-g+1, 2g-2) = gcd({args.degree - g + 1}, {2 * g - 2}) "
            f"{'= 1: coarse moduli space exists' if value else '> 1: no coarse moduli space'}"
        )
    elif verb == "rank":
        value = numerics.class_group_rank(g)
        line = f"class group rank = floor(g/2) + 3 = {g // 2} + 3 = {value}"
    else:  # normalize
        value = numerics.normalize_degree(g, args.degree)
        line = (
            f"smallest degree >= 20(g-1) = {20 * (g - 1)} congruent to "
            f"{args.degree} mod {2 * g - 2}: {value}"
        )
    return {"command": "numerics", "inputs": inputs, "result": {"value": value}}, [line]


# -- wiring ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description=(
            "Degree combinatorics on nodal curves: basic-inequality checks, "
            "blow-up models, spin loci, and Picard-variety numerics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, max_vertices=True):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if max_vertices:
            p.add_argument(
                "--max-vertices",
                type=int,
                default=None,
                metavar="N",
                help="cap for exhaustive subcurve scans (default 12)",
            )

    p_info = sub.add_parser("info", help="genus, stability, and a vertex/edge summary")
    p_info.add_argument("graph", help="graph JSON file")
    add_common(p_info, max_vertices=False)
    p_info.set_defaults(handler=cmd_info)

    p_bi = sub.add_parser("bi", help="check or enumerate multidegrees under the basic inequality")
    p_bi.add_argument("graph", help="graph JSON file")
    p_bi.add_argument("--total", type=int, required=True, help="total degree d")
    group = p_bi.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--multidegree",
        metavar="LIST",
        help="comma-separated degrees in sorted vertex-id order",
    )
    group.add_argument("--enumerate", action="store_true", help="list all admissible multidegrees")
    add_common(p_bi)
    p_bi.set_defaults(handler=cmd_bi)

    p_spin = sub.add_parser("spin", help="spin parity, multidegrees, witnesses, split curves")
    p_spin.add_argument("graph", nargs="?", help="graph JSON file (not needed with --split-curve)")
    p_spin.add_argument("-t", dest="t", type=int, required=True, help="twist parameter (>= 10)")
    p_spin.add_argument("--unsafe-t", action="store_true", help="allow 0 <= t < 10 (unsupported regime)")
    mode = p_spin.add_mutually_exclusive_group(required=True)
    mode.add_argument("--blowups", metavar="FILE", help="blow-up JSON file; report parity, degrees, stability")
    mode.add_argument("--locus", action="store_true", help="enumerate multidegrees met by the spin locus")
    mode.add_argument("--decide", metavar="LIST", help="find a witness for this multidegree")
    mode.add_argument("--split-curve", action="store_true", help="closed-form table for the split curve")
    p_spin.add_argument("-g", "--genus", type=int, help="genus for --split-curve")
    add_common(p_spin)
    p_spin.set_defaults(handler=cmd_spin, usage_error=p_spin.error)
    # A LIST may start with a negative degree, as argparse reads it from Python 3.13.
    p_bi._negative_number_matcher = p_spin._negative_number_matcher = re.compile(r"-\.?\d")

    p_num = sub.add_parser("numerics", help="scalar invariants of the Picard variety")
    p_num.add_argument("verb", choices=["kdg", "coarse", "rank", "normalize"])
    p_num.add_argument("-g", "--genus", type=int, required=True)
    p_num.add_argument("-d", "--degree", type=int)
    add_common(p_num, max_vertices=False)
    p_num.set_defaults(handler=cmd_numerics, usage_error=p_num.error)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines = args.handler(args)
    except SpinPicardError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
