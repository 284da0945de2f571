"""Exit codes, human output, and the JSON envelope of the command line."""

from __future__ import annotations

import json

import pytest

from spinpicard import (
    BasicInequalityError,
    BlowupConfig,
    BlowupError,
    Multidegree,
    SpinWitness,
    decide_spin_component,
    validate_graph,
)
from spinpicard.cli import main

SPLIT3_RAW = {
    "vertices": [
        {"id": "C1", "pa": 0},
        {"id": "C2", "pa": 0},
    ],
    "edges": [{"u": "C1", "v": "C2", "multiplicity": 4}],
}

BLOW_ALL_RAW = {"s": [{"u": "C1", "v": "C2", "count": 4}]}


@pytest.fixture(scope="module")
def split3(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "split3.json"
    path.write_text(json.dumps(SPLIT3_RAW))
    return str(path)


@pytest.fixture(scope="module")
def blow_all(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "blow_all.json"
    path.write_text(json.dumps(BLOW_ALL_RAW))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv) -> str:
    """The stderr of a command argparse refuses, which exits 2."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


# -- info --------------------------------------------------------------------


def test_info_human(split3, capsys):
    code, out, err = run_cli(capsys, "info", split3)
    assert code == 0 and err == ""
    assert "genus 3, stable" in out
    assert "C1 -- C2: 4" in out


def test_info_json(split3, capsys):
    code, out, _ = run_cli(capsys, "info", split3, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "info"
    assert payload["result"]["genus"] == 3
    assert payload["result"]["stable"] is True
    assert payload["result"]["pair_node_count"] == 4
    assert payload["result"]["edges"] == [{"u": "C1", "v": "C2", "multiplicity": 4}]


# -- bi ----------------------------------------------------------------------


def test_bi_enumerate_json_is_deterministic(split3, capsys):
    code1, out1, _ = run_cli(capsys, "bi", split3, "--total", "42", "--enumerate", "--json")
    code2, out2, _ = run_cli(capsys, "bi", split3, "--total", "42", "--enumerate", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["result"]["vertex_order"] == ["C1", "C2"]
    assert payload["result"]["count"] == 5
    assert payload["result"]["multidegrees"] == [
        [19, 23], [20, 22], [21, 21], [22, 20], [23, 19]
    ]


def test_bi_check_reports_violations_with_exact_bounds(split3, capsys):
    code, out, err = run_cli(
        capsys, "bi", split3, "--total", "42", "--multidegree", "18,24"
    )
    assert code == 0 and err == ""  # a violation report is still a valid answer
    assert "VIOLATED" in out
    assert "Y={C1}: degree 18 outside [19, 23]" in out


def test_bi_check_satisfied(split3, capsys):
    code, out, _ = run_cli(capsys, "bi", split3, "--total", "42", "--multidegree", "21,21")
    assert code == 0
    assert "satisfied on every subcurve" in out


def test_bi_total_mismatch_is_an_error(split3, capsys):
    code, out, err = run_cli(capsys, "bi", split3, "--total", "42", "--multidegree", "21,22")
    assert code == 1
    assert out == ""
    assert "spinpicard: error:" in err and "totals 43" in err


def test_bi_wrong_list_length(split3, capsys):
    code, _, err = run_cli(capsys, "bi", split3, "--total", "42", "--multidegree", "42")
    assert code == 1
    assert "spinpicard: error:" in err


@pytest.mark.parametrize("verb, head, option, value", [
    ("bi", ("--total", "4"), "--multidegree", "-2,6"),
    ("spin", ("-t", "10"), "--decide", "-1,43"),
])
@pytest.mark.parametrize("tail", [(), ("--json",)])
def test_a_list_may_start_with_a_negative_degree(split3, capsys, verb, head, option, value, tail):
    """A LIST after a space parses like the ``--option=LIST`` form: same
    exit code, same output bytes."""
    spaced = run_cli(capsys, verb, split3, *head, option, value, *tail)
    assert spaced[0] in (0, 1)
    assert spaced == run_cli(capsys, verb, split3, *head, f"{option}={value}", *tail)


def test_malformed_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [,]}')
    code, _, err = run_cli(capsys, "info", str(bad))
    assert code == 1
    assert "not valid JSON" in err
    assert "line 1" in err and "column" in err


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "info", "/nonexistent/graph.json")
    assert code == 1
    assert "cannot read" in err


# -- spin --------------------------------------------------------------------


def test_spin_decide_witness(split3, capsys):
    code, out, _ = run_cli(capsys, "spin", split3, "-t", "10", "--decide", "19,23")
    assert code == 0
    assert "witness found:" in out
    assert "s[C1, C2] = 4" in out
    assert "sigma[C1, C2] = 0" in out
    assert "sigma[C2, C1] = 4" in out


def test_spin_decide_json_roundtrip(split3, capsys):
    code, out, _ = run_cli(
        capsys, "spin", split3, "-t", "10", "--decide", "19,23", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["met"] is True
    witness = payload["result"]["witness"]
    assert witness["s"] == [{"u": "C1", "v": "C2", "count": 4}]
    assert {"u": "C1", "v": "C2", "count": 0} in witness["sigma"]


def test_spin_decide_trivial_witness(split3, capsys):
    code, out, _ = run_cli(capsys, "spin", split3, "-t", "10", "--decide", "21,21")
    assert code == 0
    assert "(no blow-ups needed)" in out


def test_decide_returns_a_witness_or_raises():
    """The CLI reports every decide answer as met: decide gives a witness or
    raises, never None, across a whole degree window of the split curve."""
    graph = validate_graph(SPLIT3_RAW)
    outcomes = set()
    for d1 in range(10, 33):
        md = Multidegree.from_values(graph, [d1, 42 - d1])
        try:
            witness = decide_spin_component(graph, 10, md)
        except BasicInequalityError:
            outcomes.add("raised")
        else:
            assert isinstance(witness, SpinWitness)
            outcomes.add("witness")
    assert outcomes == {"raised", "witness"}


def test_spin_decide_off_fiber_is_an_error(split3, capsys):
    code, _, err = run_cli(capsys, "spin", split3, "-t", "10", "--decide", "18,24")
    assert code == 1
    assert "not a fiber component" in err


def test_spin_locus(split3, capsys):
    code, out, _ = run_cli(capsys, "spin", split3, "-t", "10", "--locus", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["count"] == 5
    assert payload["result"]["multidegrees"][0] == [19, 23]


def test_spin_blowups(split3, blow_all, capsys):
    code, out, _ = run_cli(capsys, "spin", split3, "-t", "10", "--blowups", blow_all, "--json")
    assert code == 0
    payload = json.loads(out)
    result = payload["result"]
    assert result["spin_parity"] is True
    assert result["vertex_count"] == 6
    assert result["exceptional_count"] == 4
    assert result["total"] == 42
    assert result["multidegree"]["C1"] == 19
    assert result["git_stable"] is False  # blowing every node disconnects the core
    assert result["orbit_closed"] is True


def test_spin_blowups_parity_failure(split3, tmp_path, capsys):
    config = tmp_path / "one.json"
    config.write_text(json.dumps({"s": [{"u": "C1", "v": "C2", "count": 1}]}))
    code, out, _ = run_cli(capsys, "spin", split3, "-t", "10", "--blowups", str(config))
    assert code == 0
    assert "spin parity: FAILS" in out


@pytest.mark.parametrize("raw, message", [
    ({"s": 5}, "'s' must be an array"),
    ({"s": "C1"}, "'s' must be an array"),
    ({"r": {"C1": 1}}, "'r' must be an array"),
    ({"s": [{"u": 1, "v": "C2", "count": 1}]}, "s[1, 'C2']: vertex ids must be non-empty strings"),
    ({"s": [{"u": "C1", "v": "", "count": 1}]}, "vertex ids must be non-empty strings"),
    ({"r": [{"vertex": ["C1"], "count": 1}]}, "r[['C1']]: vertex id must be a non-empty string"),
    ({"r": [{"vertex": "", "count": 1}]}, "vertex id must be a non-empty string"),
])
def test_spin_blowups_malformed_tables_are_errors(split3, tmp_path, capsys, raw, message):
    with pytest.raises(BlowupError) as caught:
        BlowupConfig.from_dict(raw)
    assert message in str(caught.value)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "spin", split3, "-t", "10", "--blowups", str(config))
    assert (code, out) == (1, "")
    assert err == f"spinpicard: error: {caught.value}\n"


def test_spin_split_curve(capsys):
    code, out, _ = run_cli(capsys, "spin", "-t", "10", "--split-curve", "-g", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["count"] == 5
    assert payload["result"]["bidegrees"] == [
        [19, 23], [20, 22], [21, 21], [22, 20], [23, 19]
    ]
    assert {"s": 4, "sigma": 0, "d1": 19, "d2": 23} in payload["result"]["rows"]


def test_spin_split_curve_needs_genus(capsys):
    code, _, err = run_cli(capsys, "spin", "-t", "10", "--split-curve")
    assert code == 1
    assert "needs -g" in err


def test_spin_t_floor(split3, capsys):
    code, _, err = run_cli(capsys, "spin", split3, "-t", "3", "--locus")
    assert code == 1
    assert "t" in err
    code, out, _ = run_cli(capsys, "spin", split3, "-t", "3", "--locus", "--unsafe-t")
    assert code == 0
    assert "fiber component" in out
    code, _, err = run_cli(capsys, "spin", split3, "-t", "-1", "--locus", "--unsafe-t")
    assert code == 1  # still no negative twists


SPLIT10_ALL_BLOWN_TEXT = """spin parity: holds
expanded model: 13 vertices, 11 exceptional
spin multidegree (total 189):
  C1: 89
  C2: 89
  E(C1|C2)#1: 1
  E(C1|C2)#10: 1
  E(C1|C2)#11: 1
  E(C1|C2)#2: 1
  E(C1|C2)#3: 1
  E(C1|C2)#4: 1
  E(C1|C2)#5: 1
  E(C1|C2)#6: 1
  E(C1|C2)#7: 1
  E(C1|C2)#8: 1
  E(C1|C2)#9: 1
GIT stable: no
orbit closed: yes
"""

SPLIT10_ALL_BLOWN_JSON = """{
  "command": "spin",
  "inputs": {
    "blowups": "blow.json",
    "graph": "split10.json",
    "t": 10
  },
  "result": {
    "exceptional_count": 11,
    "git_stable": false,
    "mode": "blowups",
    "multidegree": {
      "C1": 89,
      "C2": 89,
      "E(C1|C2)#1": 1,
      "E(C1|C2)#10": 1,
      "E(C1|C2)#11": 1,
      "E(C1|C2)#2": 1,
      "E(C1|C2)#3": 1,
      "E(C1|C2)#4": 1,
      "E(C1|C2)#5": 1,
      "E(C1|C2)#6": 1,
      "E(C1|C2)#7": 1,
      "E(C1|C2)#8": 1,
      "E(C1|C2)#9": 1
    },
    "orbit_closed": true,
    "spin_parity": true,
    "total": 189,
    "vertex_count": 13
  }
}
"""


def test_spin_blowups_past_the_cap(tmp_path, monkeypatch, capsys):
    """Blowing all 11 nodes of the genus-10 split curve gives 13 vertices;
    orbit closure needs no subcurve scan, so the output is the one the scan
    gave with its cap raised to 16."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "split10.json").write_text(json.dumps(
        {"vertices": [{"id": "C1", "pa": 0}, {"id": "C2", "pa": 0}],
         "edges": [{"u": "C1", "v": "C2", "multiplicity": 11}]}
    ))
    (tmp_path / "blow.json").write_text(json.dumps({"s": [{"u": "C1", "v": "C2", "count": 11}]}))
    argv = ["spin", "split10.json", "-t", "10", "--blowups", "blow.json"]
    assert run_cli(capsys, *argv) == (0, SPLIT10_ALL_BLOWN_TEXT, "")
    assert run_cli(capsys, *argv, "--json") == (0, SPLIT10_ALL_BLOWN_JSON, "")


def test_spin_decide_past_the_cap(tmp_path, capsys):
    """Thirteen elliptic components in a chain, one vertex over the cap."""
    n = 13
    raw = {
        "vertices": [{"id": f"v{i:02}", "pa": 1} for i in range(n)],
        "edges": [
            {"u": f"v{i:02}", "v": f"v{i + 1:02}", "multiplicity": 1}
            for i in range(n - 1)
        ],
    }
    path = tmp_path / "chain13.json"
    path.write_text(json.dumps(raw))
    # Spin base 10 * contact, plus each node oriented toward its left end.
    degrees = ",".join(["11"] + ["21"] * 11 + ["10"])
    code, out, err = run_cli(capsys, "spin", str(path), "-t", "10", "--decide", degrees)
    assert code == 0 and err == ""
    assert "witness found" in out
    off = ",".join(["12"] + ["21"] * 11 + ["9"])
    code, _, err = run_cli(capsys, "spin", str(path), "-t", "10", "--decide", off)
    assert code == 1
    assert "not a fiber component" in err


# -- the subcurve cap --------------------------------------------------------


def test_max_vertices_guard(tmp_path, capsys):
    n = 13
    raw = {
        "vertices": [{"id": f"v{i:02}", "pa": 1} for i in range(n)],
        "edges": [
            {"u": f"v{i:02}", "v": f"v{i + 1:02}", "multiplicity": 1}
            for i in range(n - 1)
        ],
    }
    path = tmp_path / "chain13.json"
    path.write_text(json.dumps(raw))
    degrees = ",".join("20" for _ in range(n))
    code, _, err = run_cli(
        capsys, "bi", str(path), "--total", str(20 * n), "--multidegree", degrees
    )
    assert code == 1
    assert "13" in err and "12" in err
    code, out, _ = run_cli(
        capsys,
        "bi", str(path), "--total", str(20 * n), "--multidegree", degrees,
        "--max-vertices", "13",
    )
    assert code == 0
    assert "basic inequality" in out


def test_spin_max_vertices_is_refused_where_unread(split3, blow_all, capsys):
    """Only --locus runs a capped scan; the other modes refuse the flag."""
    for mode in (["--decide", "21,21"], ["--blowups", blow_all], ["--split-curve", "-g", "3"]):
        err = usage_error(capsys, "spin", split3, "-t", "10", *mode, "--max-vertices", "16")
        assert "--max-vertices: only --locus reads it" in err
    code, _, err = run_cli(capsys, "spin", split3, "-t", "10", "--locus", "--max-vertices", "1")
    assert code == 1
    assert "capped at 1" in err


def test_spin_genus_is_refused_where_unread(split3, blow_all, capsys):
    """Only --split-curve reads -g; the other modes used to ignore it."""
    for mode in (["--decide", "19,23"], ["--blowups", blow_all], ["--locus"]):
        for flag in ("-g", "--genus"):
            err = usage_error(capsys, "spin", split3, "-t", "10", *mode, flag, "7")
            assert "argument -g/--genus: only --split-curve reads it" in err
    code, out, _ = run_cli(capsys, "spin", "-t", "10", "--split-curve", "--genus", "3")
    assert code == 0 and out.startswith("split curve of genus 3 at t=10")


# -- numerics ----------------------------------------------------------------


def test_numerics_verbs(capsys):
    code, out, _ = run_cli(capsys, "numerics", "kdg", "-g", "3", "-d", "42")
    assert code == 0 and "= 4/4 = 1" in out

    code, out, _ = run_cli(capsys, "numerics", "coarse", "-g", "3", "-d", "42", "--json")
    assert code == 0 and json.loads(out)["result"]["value"] is False

    code, out, _ = run_cli(capsys, "numerics", "rank", "-g", "5")
    assert code == 0 and "= 2 + 3 = 5" in out

    code, out, _ = run_cli(capsys, "numerics", "normalize", "-g", "3", "-d", "5", "--json")
    assert code == 0 and json.loads(out)["result"]["value"] == 41


def test_numerics_needs_degree(capsys):
    code, _, err = run_cli(capsys, "numerics", "kdg", "-g", "3")
    assert code == 1
    assert "needs -d" in err


def test_numerics_flags(capsys):
    """-g is required by argparse; rank reads no degree and refuses one."""
    assert "required: -g/--genus" in usage_error(capsys, "numerics", "rank")
    err = usage_error(capsys, "numerics", "rank", "-g", "9", "-d", "3")
    assert "argument -d/--degree: 'rank' reads no degree" in err


def test_numerics_domain_error(capsys):
    code, _, err = run_cli(capsys, "numerics", "rank", "-g", "2")
    assert code == 1
    assert "spinpicard: error:" in err


# -- argparse-level failures -------------------------------------------------


def test_usage_errors_exit_2(split3, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spin", split3, "--locus"])  # missing -t
    assert exc.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        main(["bi", split3, "--total", "42"])  # neither --multidegree nor --enumerate
    assert exc.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        main(["nosuchcommand"])
    assert exc.value.code == 2
    capsys.readouterr()
