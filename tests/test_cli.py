"""Command line behavior: loading, reports, verify, generate, exit codes."""

import argparse
import io
import json
import locale
import random
import subprocess
import sys

import pytest

from stabledec import (
    Game,
    MalformedInput,
    MalformedParty,
    StabledecError,
    full_domination_graph,
    parse_game_dsl,
    random_game,
    random_marriage_spec,
    random_roommate_spec,
    sink_components,
    to_dot,
)
from stabledec import cli
from stabledec.cli import load_game, main, parse_decomposition
from games import EIGHT, FUZZ_GAMES, SEVEN, SIX, TRIANGLE, room, split_market, union
from oracle import outcome, reference_parse_decomposition, reference_report_doc, spy

G7_DSL = """\
agents: 7
1: 12 | 123 | 15 | 1
2: 23 | 123 | 12 | 2
3: 34 | 123 | 23 | 3
4: 467 | 45 | 34 | 4
5: 15 | 45 | 5
6: 67 | 467 | 6
7: 467 | 67 | 7
"""

G6_DSL = """\
agents: 6
1: 12 | 13 | 1
2: 23 | 12 | 2
3: 34 | 13 | 23 | 3
4: 45 | 46 | 34 | 4
5: 56 | 45 | 5
6: 46 | 56 | 6
"""

ROOMMATE_JSON = json.dumps(
    {
        "n": 10,
        "preferences": {
            "1": [2, 3, 4, 5, 6, 7, 8, 9],
            "2": [3, 1, 4, 5, 6, 7, 8, 9],
            "3": [1, 2, 4, 5, 6, 7, 8, 9],
            "4": [7, 8, 9, 5, 6, 1, 2, 3],
            "5": [8, 9, 7, 4, 6],
            "6": [9, 7, 8, 4],
            "7": [5, 6, 1, 4, 9, 8],
            "8": [6, 4, 5, 7, 9],
            "9": [4, 5, 6, 7, 8],
            "10": [],
        },
    }
)

MARRIAGE_JSON = json.dumps(
    {
        "men": 3,
        "women": 3,
        "preferences": {
            "1": [4, 6],
            "2": [4, 5],
            "3": [6, 5, 4],
            "4": [3, 1, 2],
            "5": [2, 3],
            "6": [1, 3],
        },
    }
)


@pytest.fixture()
def g7_file(tmp_path):
    p = tmp_path / "g7.txt"
    p.write_text(G7_DSL)
    return str(p)


@pytest.fixture()
def g6_file(tmp_path):
    p = tmp_path / "g6.txt"
    p.write_text(G6_DSL)
    return str(p)


class TestLoadGame:
    def test_dsl(self, g7):
        assert load_game(G7_DSL) == g7

    def test_game_json(self, g7):
        assert load_game(json.dumps(g7.to_dict())) == g7

    def test_roommate_json(self, rm10):
        assert load_game(ROOMMATE_JSON) == rm10

    def test_marriage_json(self, mar33):
        assert load_game(MARRIAGE_JSON) == mar33

    def test_garbage(self):
        with pytest.raises(MalformedInput):
            load_game("")
        with pytest.raises(MalformedInput):
            load_game("{not json")
        # text that starts with "[" is JSON, and no game's JSON is a list
        with pytest.raises(MalformedInput, match="^JSON input must be an object$"):
            load_game("[1, 2]")
        with pytest.raises(MalformedInput):
            load_game('{"something": 1}')


class TestParseDecomposition:
    def test_braces_form(self, g6):
        d = parse_decomposition(g6, "{{1,2,3},{45,46,56}}")
        assert d.render(6) == "{{1,2,3},{45,46,56}}"

    def test_json_form(self, g6):
        d = parse_decomposition(
            g6, "[[[1],[2],[3]],[[4,5],[4,6],[5,6]]]"
        )
        assert d.render(6) == "{{1,2,3},{45,46,56}}"

    def test_json_form_required_beyond_nine_agents(self, rm10):
        with pytest.raises(MalformedParty):
            parse_decomposition(rm10, "{{12}}")
        d = parse_decomposition(
            rm10,
            "[[[1,2],[2,3],[1,3]],[[4,8]],[[5,9]],[[6,7]],[[10]]]",
        )
        assert len(d.parties) == 5

    def test_rejects_garbage(self, g6):
        for bad, message in [
            ("", "unparseable decomposition: ''"),
            ("{{12}", "unparseable decomposition: '{{12}'"),
            ("{{12},{3x}}", "unparseable party: {3x}"),
            ("[1]", "JSON decomposition must be a list of parties"),
            ("[[1]]", "coalitions must be lists of agent ids"),
        ]:
            with pytest.raises(MalformedParty) as info:
                parse_decomposition(g6, bad)
            assert str(info.value) == message
        with pytest.raises(StabledecError):
            parse_decomposition(g6, "[[[0]]]")


# the JSON ids of a coalition that the mask path must leave to make_party,
# by name, as functions of the agent count
BAD_IDS = {
    "true": lambda n: "true",
    "1.5": lambda n: "1.5",
    "0": lambda n: "0",
    "-1": lambda n: "-1",
    "n+1": lambda n: str(n + 1),
    "64": lambda n: "64",
    "10**20": lambda n: str(10**20),
    "string": lambda n: '"1"',
    "nested list": lambda n: "[1]",
}


def _reading(g, text):
    """What reading the decomposition gives, by the mask path and by the
    tuple path: ``"ok"``, its rendering and each party's breakers, or the
    library error it raises."""

    def read(parse):
        def run():
            d = parse(g, text)
            return "ok", d.render(g.n), [p.breakers for p in d.parties]

        return outcome(run)

    return read(parse_decomposition), read(reference_parse_decomposition)


class TestDecompositionMasks:
    """Coalitions read straight to masks give every reading of the tuple
    path (``oracle.reference_parse_decomposition``: ``make_party`` on the id
    tuples), malformed ones the same error type and message, on a table
    and on seeded fuzz of the JSON and the text form."""

    @pytest.mark.parametrize("name", sorted(BAD_IDS))
    @pytest.mark.parametrize("where", ["first", "last", "with n+1"])
    def test_bad_id(self, name, where, g6):
        bad = BAD_IDS[name](6)
        coalition = {"first": f"[{bad},1]", "last": f"[1,{bad}]", "with n+1": f"[7,{bad}]"}[where]
        text = f"[[[2],[3]],[[4,5],[4,6],[5,6]],[{coalition}]]"
        got, want = _reading(g6, text)
        assert got == want and got[0] != "ok"

    @pytest.mark.parametrize("text", [
        "[[[1],[2],[3]],[[4,5,5],[4,6],[6,5]]]",  # duplicate ids
        "[[[1],[2],[3]],[[4,5],[4,6],[4,5],[5,6]]]",  # a repeated coalition
        "[[[1],[2],[3]],[[4,5],[],[5,6]]]",  # an empty coalition
        "[[[1],[2],[3]],[]]",  # an empty party
        "[[[1],[2],[3,4]],[[5],[6]]]",  # singletons mixed with a pair
        "[[[1],[2],[3]],[[4,5],[4,6],[5,6]],[[7,8]]]",  # agents above n
        "[[[1],[2],[3]],[[4,5],[4,6],[5,6]],[[7],[64]]]",
    ])
    def test_table(self, text, g6):
        got, want = _reading(g6, text)
        assert got == want

    @pytest.mark.parametrize("text", [
        "{{1,2,3},{45,46,56}}", "{{1,2,3},{45,455,56}}", "{{1,2,3},{45,46,56},{7}}",
        "{{0,1,2,3},{45,46,56}}", "{{1,2,3},{}}", "{{1,2,34},{5,6}}", "{{1,2,3},{45,46,56},{99}}",
    ])
    def test_text_table(self, text, g6):
        got, want = _reading(g6, text)
        assert got == want

    @pytest.mark.parametrize("name", ["g6", "g7"])
    def test_fuzz_json(self, name, request):
        g = request.getfixturevalue(name)
        n = g.n
        rng = random.Random(f"json-{name}")
        atoms = [str(a) for a in range(1, n + 1)] * 3 + [f(n) for f in BAD_IDS.values()]
        seen = set()
        for _ in range(400):
            parties = [
                [
                    "[" + ",".join(rng.choice(atoms) for _ in range(rng.choice([0, 1, 1, 2, 2, 3])))
                    + "]"
                    for _ in range(rng.randint(1, 4))
                ]
                for _ in range(rng.randint(1, 3))
            ]
            text = "[" + ",".join("[" + ",".join(p) + "]" for p in parties) + "]"
            got, want = _reading(g, text)
            assert got == want, text
            seen.add(got[:2] if got[0] != "ok" else "ok")
        assert "ok" in seen and len(seen) >= 6

    @pytest.mark.parametrize("name", ["g6", "g7"])
    def test_fuzz_text(self, name, request):
        g = request.getfixturevalue(name)
        rng = random.Random(f"text-{name}")
        seen = set()
        for _ in range(400):
            parties = [
                ",".join(
                    "".join(rng.choice("0123456789" + "1234567"[: g.n] * 2)
                            for _ in range(rng.randint(1, 3)))
                    for _ in range(rng.randint(0, 4))
                )
                for _ in range(rng.randint(1, 3))
            ]
            text = "{" + ",".join("{" + p + "}" for p in parties) + "}"
            got, want = _reading(g, text)
            assert got == want, text
            seen.add(got[:2] if got[0] != "ok" else "ok")
        assert len(seen) >= 4

    @pytest.mark.parametrize("name,text", [
        ("g6", "[[[1],[2],[3]],[[4,5],[4,6],[5,6]]]"),
        ("g6", "{{1,2,3},{45,46,56}}"),
        ("g7", "[[[1,2],[2,3],[3,4],[4,5],[1,5]],[[6,7]]]"),
        ("g7", "{{12,23,34,45,15},{67}}"),
    ])
    def test_valid_decompositions(self, name, text, request):
        got, want = _reading(request.getfixturevalue(name), text)
        assert got == want and got[0] == "ok"


class TestAnalyze:
    def test_text_report(self, g7_file, capsys):
        assert main(["analyze", g7_file, "--all"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "agents: 7" in out
        assert "structures: 32" in out
        assert "stable structures: 3" in out
        assert "  {123,45,67}" in out
        assert "  {123,467,5}" in out
        assert "  {15,23,467}" in out
        assert "absorbing sets: 4" in out
        assert any("size 5" in ln for ln in out)
        assert any("{12,23,34,15,45} (simple)" in ln for ln in out)
        assert "stable decompositions: 4" in out
        assert "  {{12,23,34,15,45},{67}}" in out
        assert "converges to stability: no (witness {1,23,45,67})" in out

    def test_json_report(self, g7_file, capsys):
        assert main(["analyze", g7_file, "--all", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == 1
        assert report["agents"] == 7
        assert report["structures"] == 32
        assert len(report["stable"]) == 3
        assert len(report["absorbing_sets"]) == 4
        sizes = sorted(a["size"] for a in report["absorbing_sets"])
        assert sizes == [1, 1, 1, 5]
        (rc,) = report["ring_components"]
        assert rc["simple"] is True
        assert len(rc["coalitions"]) == 5
        assert len(rc["maximal"]) == 5
        assert len(report["decompositions"]) == 4
        assert report["converges"] is False
        assert report["witness"] == "{1} {2,3} {4,5} {6,7}"

    def test_json_certificates(self, g7_file, capsys):
        main(["analyze", g7_file, "--decompositions", "--json"])
        report = json.loads(capsys.readouterr().out)
        ring_entries = [
            d
            for d in report["decompositions"]
            if any(p["kind"] == "ring_component" for p in d["parties"])
        ]
        assert len(ring_entries) == 1
        certs = ring_entries[0]["certificates"]
        ring_cert = [c for c in certs if len(c["party"]) == 5][0]
        (breaker,) = ring_cert["breakers"]
        assert breaker["breaker"] == "{4,6,7}"
        assert breaker["prevented_by"] == ["{6,7}"]
        assert breaker["witnesses"] == [["{6,7}", 6]]
        assert ring_entries[0]["generated_size"] == 5
        assert len(ring_entries[0]["d_structures"]) == 5

    def test_convergence_section(self, g6_file, capsys):
        assert main(["analyze", g6_file, "--converge"]) == 0
        out = capsys.readouterr().out
        assert "converges to stability: no (witness {1,2,3,4,5,6})" in out
        assert "stable structures: 0" in out

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(MARRIAGE_JSON))
        assert main(["analyze", "-", "--converge"]) == 0
        out = capsys.readouterr().out
        assert "converges to stability: yes" in out
        assert "stable structures: 2" in out

    def test_output_is_deterministic(self, g7_file, capsys):
        main(["analyze", g7_file, "--all", "--json"])
        first = capsys.readouterr().out
        main(["analyze", g7_file, "--all", "--json"])
        assert capsys.readouterr().out == first

    def test_timing_goes_to_stderr(self, g7_file, capsys):
        main(["analyze", g7_file])
        captured = capsys.readouterr()
        assert "analysis time:" in captured.err
        assert "analysis time:" not in captured.out

    def test_dot_export(self, g6_file, tmp_path, capsys):
        target = tmp_path / "graph.dot"
        assert main(["analyze", g6_file, "--dot", str(target)]) == 0
        text = target.read_text()
        assert text.startswith("digraph domination")
        # the 14 absorbing structures are highlighted
        assert text.count("lightsteelblue") == 14

    def test_limit_exceeded_text(self, g7_file, capsys):
        assert main(["analyze", g7_file, "--limit", "5"]) == 1
        assert "partial report: limit exceeded" in capsys.readouterr().out

    def test_limit_exceeded_json(self, g7_file, capsys):
        assert main(["analyze", g7_file, "--limit", "5", "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert "limit_exceeded" in report

    def test_malformed_input_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("agents: 3\n1: 99 | 1\n")
        assert main(["analyze", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["9: 9", "0: 1"])
    def test_row_of_agent_outside_range_exit_code(self, tmp_path, line, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"agents: 3\n1: 12 | 1\n2: 12 | 2\n{line}\n")
        assert main(["analyze", str(bad)]) == 2
        assert "out of range 1..3" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["analyze", "/nonexistent/game.json"]) == 2

    def test_unwritable_dot_path_exit_code(self, g7_file, tmp_path, capsys):
        target = tmp_path / "missing" / "g.dot"
        assert main(["analyze", g7_file, "--all", "--dot", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: cannot write {target}: " in err
        assert not target.exists()

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize("value", ["0", "-3", "x"])
    def test_limit_must_be_positive(self, g6_file, command, value, capsys):
        argv = [command, g6_file, "--limit", value]
        if command == "verify":
            argv += ["--decomposition", "{{1,2,3},{45,46,56}}"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument --limit: must be a positive integer, not '{value}'" in err

    def test_limit_of_one_is_accepted(self, g6_file, capsys):
        assert main(["analyze", g6_file, "--limit", "1"]) == 1
        assert capsys.readouterr().out == "partial report: limit exceeded (more than 1 structures)\n"
        # the pool {1,2,3} holds coalitions next to a ring party, so verify
        # grows the closure of the D-structure, which --limit bounds
        argv = ["verify", g6_file, "--decomposition", "{{1,2,3},{45,46,56}}", "--limit", "1"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: domination graph exceeds 1 nodes\n"
        assert main(argv[:-2]) == 0
        assert capsys.readouterr().out == "stable decomposition\n"


# two pair-chasing triangles and an isolated agent: three factors of 4, 4
# and 1 structures, 16 structures in all
UNION_DSL = """\
agents: 7
1: 12 | 13 | 1
2: 23 | 12 | 2
3: 13 | 23 | 3
4: 45 | 46 | 4
5: 56 | 45 | 5
6: 46 | 56 | 6
"""


class TestAnalyzeFactoredGame:
    @pytest.fixture()
    def union_file(self, tmp_path):
        p = tmp_path / "union.txt"
        p.write_text(UNION_DSL)
        return str(p)

    def test_limit_at_structure_count_succeeds(self, union_file, capsys):
        assert main(["analyze", union_file, "--all", "--limit", "16"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "structures: 16" in out
        assert "  #1 size 9:" in out
        assert "  {{12,13,23},{45,46,56},{7}}" in out
        assert main(["analyze", union_file, "--all", "--json", "--limit", "16"]) == 0
        assert json.loads(capsys.readouterr().out)["structures"] == 16

    def test_limit_below_structure_count_text(self, union_file, capsys):
        assert main(["analyze", union_file, "--all", "--limit", "15"]) == 1
        out = capsys.readouterr().out
        assert out == "partial report: limit exceeded (more than 15 structures)\n"

    def test_limit_below_structure_count_json(self, union_file, capsys):
        assert main(["analyze", union_file, "--all", "--json", "--limit", "15"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report == {"schema_version": 1, "limit_exceeded": "more than 15 structures"}

    def test_dot_writes_the_full_graph(self, union_file, tmp_path, capsys):
        target = tmp_path / "union.dot"
        assert main(["analyze", union_file, "--dot", str(target)]) == 0
        graph = full_domination_graph(parse_game_dsl(UNION_DSL))
        assert len(graph) == 16
        marked = [graph.node_id(pi) for a in sink_components(graph) for pi in a.members]
        assert len(marked) == 9
        assert target.read_text() == to_dot(graph, marked)


# the whole stdout of ``analyze --all``: the text report, and the JSON report
# as the dict that ``json.dumps(..., indent=2)`` prints
G7_ALL_TEXT = """\
agents: 7
permissible coalitions (8): 12, 23, 123, 34, 15, 45, 67, 467
structures: 32
stable structures: 3
  {123,45,67}
  {123,467,5}
  {15,23,467}
absorbing sets: 4
  #1 size 5:
    {1,23,45,67}
    {12,3,45,67}
    {12,34,5,67}
    {15,2,34,67}
    {15,23,4,67}
  #2 trivial: {123,45,67}
  #3 trivial: {123,467,5}
  #4 trivial: {15,23,467}
ring components:
  absorbing set #1: {12,23,34,15,45} (simple)
    compact collection: {12,34} {12,45} {23,15} {23,45} {34,15}
stable decompositions: 4
  {{12,23,34,15,45},{67}}
  {{123},{45},{67}}
  {{123},{467},{5}}
  {{15},{23},{467}}
converges to stability: no (witness {1,23,45,67})
"""

G7_ALL_JSON = {
    "schema_version": 1,
    "agents": 7,
    "permissible": [
        "{1,2}",
        "{2,3}",
        "{1,2,3}",
        "{3,4}",
        "{1,5}",
        "{4,5}",
        "{6,7}",
        "{4,6,7}",
    ],
    "structures": 32,
    "stable": ["{1,2,3} {4,5} {6,7}", "{1,2,3} {4,6,7} {5}", "{1,5} {2,3} {4,6,7}"],
    "absorbing_sets": [
        {
            "trivial": False,
            "size": 5,
            "structures": [
                "{1} {2,3} {4,5} {6,7}",
                "{1,2} {3} {4,5} {6,7}",
                "{1,2} {3,4} {5} {6,7}",
                "{1,5} {2} {3,4} {6,7}",
                "{1,5} {2,3} {4} {6,7}",
            ],
        },
        {"trivial": True, "size": 1, "structures": ["{1,2,3} {4,5} {6,7}"]},
        {"trivial": True, "size": 1, "structures": ["{1,2,3} {4,6,7} {5}"]},
        {"trivial": True, "size": 1, "structures": ["{1,5} {2,3} {4,6,7}"]},
    ],
    "ring_components": [
        {
            "absorbing_set": 0,
            "coalitions": ["{1,2}", "{2,3}", "{3,4}", "{1,5}", "{4,5}"],
            "simple": True,
            "maximal": [
                ["{1,2}", "{3,4}"],
                ["{1,2}", "{4,5}"],
                ["{2,3}", "{1,5}"],
                ["{2,3}", "{4,5}"],
                ["{3,4}", "{1,5}"],
            ],
            "compact": [
                ["{1,2}", "{3,4}"],
                ["{1,2}", "{4,5}"],
                ["{2,3}", "{1,5}"],
                ["{2,3}", "{4,5}"],
                ["{3,4}", "{1,5}"],
            ],
        },
    ],
    "decompositions": [
        {
            "parties": [
                {
                    "kind": "ring_component",
                    "coalitions": ["{1,2}", "{2,3}", "{3,4}", "{1,5}", "{4,5}"],
                },
                {"kind": "single_coalition", "coalitions": ["{6,7}"]},
            ],
            "certificates": [
                {
                    "party": ["{1,2}", "{2,3}", "{3,4}", "{1,5}", "{4,5}"],
                    "breakers": [
                        {
                            "breaker": "{4,6,7}",
                            "prevented_by": ["{6,7}"],
                            "witnesses": [["{6,7}", 6]],
                        },
                    ],
                },
                {"party": ["{6,7}"], "breakers": []},
            ],
            "d_structures": [
                "{1,2} {3,4} {5} {6,7}",
                "{1,2} {3} {4,5} {6,7}",
                "{1,5} {2,3} {4} {6,7}",
                "{1} {2,3} {4,5} {6,7}",
                "{1,5} {2} {3,4} {6,7}",
            ],
            "generated_size": 5,
        },
        {
            "parties": [
                {"kind": "single_coalition", "coalitions": ["{1,2,3}"]},
                {"kind": "single_coalition", "coalitions": ["{4,5}"]},
                {"kind": "single_coalition", "coalitions": ["{6,7}"]},
            ],
            "certificates": [
                {
                    "party": ["{1,2,3}"],
                    "breakers": [
                        {
                            "breaker": "{3,4}",
                            "prevented_by": ["{4,5}"],
                            "witnesses": [["{4,5}", 4]],
                        },
                    ],
                },
                {
                    "party": ["{4,5}"],
                    "breakers": [
                        {
                            "breaker": "{1,5}",
                            "prevented_by": ["{1,2,3}"],
                            "witnesses": [["{1,2,3}", 1]],
                        },
                        {
                            "breaker": "{4,6,7}",
                            "prevented_by": ["{6,7}"],
                            "witnesses": [["{6,7}", 6]],
                        },
                    ],
                },
                {"party": ["{6,7}"], "breakers": []},
            ],
            "d_structures": ["{1,2,3} {4,5} {6,7}"],
            "generated_size": 1,
        },
        {
            "parties": [
                {"kind": "single_coalition", "coalitions": ["{1,2,3}"]},
                {"kind": "single_coalition", "coalitions": ["{4,6,7}"]},
                {"kind": "singleton_pool", "coalitions": ["{5}"]},
            ],
            "certificates": [
                {
                    "party": ["{1,2,3}"],
                    "breakers": [
                        {
                            "breaker": "{3,4}",
                            "prevented_by": ["{4,6,7}"],
                            "witnesses": [["{4,6,7}", 4]],
                        },
                    ],
                },
                {"party": ["{4,6,7}"], "breakers": []},
            ],
            "d_structures": ["{1,2,3} {4,6,7} {5}"],
            "generated_size": 1,
        },
        {
            "parties": [
                {"kind": "single_coalition", "coalitions": ["{1,5}"]},
                {"kind": "single_coalition", "coalitions": ["{2,3}"]},
                {"kind": "single_coalition", "coalitions": ["{4,6,7}"]},
            ],
            "certificates": [
                {
                    "party": ["{1,5}"],
                    "breakers": [
                        {
                            "breaker": "{1,2}",
                            "prevented_by": ["{2,3}"],
                            "witnesses": [["{2,3}", 2]],
                        },
                        {
                            "breaker": "{1,2,3}",
                            "prevented_by": ["{2,3}"],
                            "witnesses": [["{2,3}", 2]],
                        },
                    ],
                },
                {
                    "party": ["{2,3}"],
                    "breakers": [
                        {
                            "breaker": "{3,4}",
                            "prevented_by": ["{4,6,7}"],
                            "witnesses": [["{4,6,7}", 4]],
                        },
                    ],
                },
                {"party": ["{4,6,7}"], "breakers": []},
            ],
            "d_structures": ["{1,5} {2,3} {4,6,7}"],
            "generated_size": 1,
        },
    ],
    "converges": False,
    "witness": "{1} {2,3} {4,5} {6,7}",
}

UNION_ALL_TEXT = """\
agents: 7
permissible coalitions (6): 12, 13, 23, 45, 46, 56
structures: 16
stable structures: 0
absorbing sets: 1
  #1 size 9:
    {1,23,4,56,7}
    {1,23,45,6,7}
    {1,23,46,5,7}
    {12,3,4,56,7}
    {12,3,45,6,7}
    {12,3,46,5,7}
    {13,2,4,56,7}
    {13,2,45,6,7}
    {13,2,46,5,7}
ring components:
  absorbing set #1: {12,13,23} (simple)
    compact collection: {12} {13} {23}
  absorbing set #1: {45,46,56} (simple)
    compact collection: {45} {46} {56}
stable decompositions: 1
  {{12,13,23},{45,46,56},{7}}
converges to stability: no (witness {1,2,3,4,5,6,7})
"""

UNION_ALL_JSON = {
    "schema_version": 1,
    "agents": 7,
    "permissible": ["{1,2}", "{1,3}", "{2,3}", "{4,5}", "{4,6}", "{5,6}"],
    "structures": 16,
    "stable": [],
    "absorbing_sets": [
        {
            "trivial": False,
            "size": 9,
            "structures": [
                "{1} {2,3} {4} {5,6} {7}",
                "{1} {2,3} {4,5} {6} {7}",
                "{1} {2,3} {4,6} {5} {7}",
                "{1,2} {3} {4} {5,6} {7}",
                "{1,2} {3} {4,5} {6} {7}",
                "{1,2} {3} {4,6} {5} {7}",
                "{1,3} {2} {4} {5,6} {7}",
                "{1,3} {2} {4,5} {6} {7}",
                "{1,3} {2} {4,6} {5} {7}",
            ],
        },
    ],
    "ring_components": [
        {
            "absorbing_set": 0,
            "coalitions": ["{1,2}", "{1,3}", "{2,3}"],
            "simple": True,
            "maximal": [["{1,2}"], ["{1,3}"], ["{2,3}"]],
            "compact": [["{1,2}"], ["{1,3}"], ["{2,3}"]],
        },
        {
            "absorbing_set": 0,
            "coalitions": ["{4,5}", "{4,6}", "{5,6}"],
            "simple": True,
            "maximal": [["{4,5}"], ["{4,6}"], ["{5,6}"]],
            "compact": [["{4,5}"], ["{4,6}"], ["{5,6}"]],
        },
    ],
    "decompositions": [
        {
            "parties": [
                {"kind": "ring_component", "coalitions": ["{1,2}", "{1,3}", "{2,3}"]},
                {"kind": "ring_component", "coalitions": ["{4,5}", "{4,6}", "{5,6}"]},
                {"kind": "singleton_pool", "coalitions": ["{7}"]},
            ],
            "certificates": [
                {"party": ["{1,2}", "{1,3}", "{2,3}"], "breakers": []},
                {"party": ["{4,5}", "{4,6}", "{5,6}"], "breakers": []},
            ],
            "d_structures": [
                "{1,2} {3} {4,5} {6} {7}",
                "{1,2} {3} {4,6} {5} {7}",
                "{1,2} {3} {4} {5,6} {7}",
                "{1,3} {2} {4,5} {6} {7}",
                "{1,3} {2} {4,6} {5} {7}",
                "{1,3} {2} {4} {5,6} {7}",
                "{1} {2,3} {4,5} {6} {7}",
                "{1} {2,3} {4,6} {5} {7}",
                "{1} {2,3} {4} {5,6} {7}",
            ],
            "generated_size": 9,
        },
    ],
    "converges": False,
    "witness": "{1} {2} {3} {4} {5} {6} {7}",
}


class TestFullReports:
    @pytest.mark.parametrize(
        "dsl, expected",
        [(G7_DSL, G7_ALL_TEXT), (UNION_DSL, UNION_ALL_TEXT)],
        ids=["g7", "union"],
    )
    def test_text(self, tmp_path, capsys, dsl, expected):
        p = tmp_path / "game.txt"
        p.write_text(dsl)
        assert main(["analyze", str(p), "--all"]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "dsl, expected",
        [(G7_DSL, G7_ALL_JSON), (UNION_DSL, UNION_ALL_JSON)],
        ids=["g7", "union"],
    )
    def test_json(self, tmp_path, capsys, dsl, expected):
        p = tmp_path / "game.txt"
        p.write_text(dsl)
        assert main(["analyze", str(p), "--all", "--json"]) == 0
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


class TestVerify:
    def test_positive(self, g6_file, capsys):
        rc = main(
            ["verify", g6_file, "--decomposition", "{{1,2,3},{45,46,56}}"]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "stable decomposition"

    def test_negative_names_first_violation(self, g6_file, capsys):
        rc = main(
            ["verify", g6_file, "--decomposition", "{{12,23,13},{4,5,6}}"]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == (
            "not a stable decomposition: "
            "{12,13,23} unprotected against breaker 34"
        )

    def test_roommate_candidates(self, tmp_path, capsys):
        p = tmp_path / "rm.json"
        p.write_text(ROOMMATE_JSON)
        good = "[[[1,2],[2,3],[1,3]],[[4,8]],[[5,9]],[[6,7]],[[10]]]"
        bad = "[[[1,2],[2,3],[1,3]],[[4,7]],[[5,8]],[[6,9]],[[10]]]"
        assert main(["verify", str(p), "--decomposition", good]) == 0
        assert capsys.readouterr().out.strip() == "stable decomposition"
        assert main(["verify", str(p), "--decomposition", bad]) == 0
        assert capsys.readouterr().out.strip() == (
            "not a stable decomposition: "
            "{{4,7}} unprotected against breaker {1,7}"
        )

    def test_malformed_decomposition_exit_code(self, g6_file, capsys):
        assert main(["verify", g6_file, "--decomposition", "{{oops}}"]) == 2

    @pytest.mark.parametrize(
        "text",
        ["[[[1],[2],[3],[4],[5],[6]]]", "{{1},{2},{3},{4},{5},{6}}", "[[[1,2]],[[3,4],[4,6]]]"],
    )
    def test_agent_id_above_n(self, tmp_path, capsys, text):
        # a coalition naming agent 6 of a five-agent game is no coalition
        # of the game, in the JSON and the text form
        p = tmp_path / "rm5.json"
        p.write_text('{"n": 5, "preferences": {"1": [2], "2": [1]}}')
        assert main(["verify", str(p), "--decomposition", text]) == 2
        assert capsys.readouterr() == ("", "error: agent id 6 is out of range\n")

    @pytest.mark.parametrize("big", [10**20, 2**64])
    def test_agent_id_far_above_any_game(self, tmp_path, capsys, big):
        # refused before a mask is shifted by it, not a traceback
        p = tmp_path / "rm3.json"
        p.write_text('{"n": 3, "preferences": {"1": [2], "2": [1]}}')
        text = f"[[[1,{big}]],[[2]],[[3]]]"
        assert main(["verify", str(p), "--decomposition", text]) == 2
        assert capsys.readouterr() == ("", f"error: agent id {big} is out of range\n")


class TestBooleansAreNotAgentIds:
    """JSON ``true`` and ``false`` compare equal to 1 and 0 in Python; no
    front end and no decomposition reads them as agent ids."""

    def test_decomposition_coalition(self, tmp_path, capsys):
        p = tmp_path / "rm4.json"
        p.write_text('{"n": 4, "preferences": {"1": [2], "2": [1]}}')
        assert main(["verify", str(p), "--decomposition", "[[[true,2]],[[3],[4]]]"]) == 2
        assert capsys.readouterr().err == "error: coalitions must be lists of agent ids\n"

    def test_roommate_partner(self, tmp_path, capsys):
        p = tmp_path / "rm2.json"
        p.write_text('{"n": 2, "preferences": {"2": [true]}}')
        assert main(["analyze", str(p)]) == 2
        assert capsys.readouterr().err == "error: agent 2 lists invalid partner True\n"

    def test_marriage_side_size(self, tmp_path, capsys):
        p = tmp_path / "mar.json"
        p.write_text('{"men": true, "women": 1, "preferences": {"1": [2], "2": [1]}}')
        assert main(["analyze", str(p)]) == 2
        assert capsys.readouterr().err == "error: side sizes must be integers\n"

    def test_roommate_agent_count(self, tmp_path, capsys):
        p = tmp_path / "rm.json"
        p.write_text('{"n": true, "preferences": {}}')
        assert main(["analyze", str(p)]) == 2
        assert capsys.readouterr().err == "error: agent count must be a positive integer\n"


class TestMalformedRows:
    """A partner row that is not a list, two preference keys naming one
    agent, and a key that is not ASCII digits are malformed input (exit 2)
    in every schema, not a traceback (exit 1, the limit's code) or a row
    read some other way."""

    @pytest.mark.parametrize("row", ["2", "null", '"2"', '{"2": 1}'])
    @pytest.mark.parametrize(
        "head", ['"n": 2', '"men": 1, "women": 1'], ids=["roommate", "marriage"]
    )
    def test_partner_row_not_a_list(self, tmp_path, head, row, capsys):
        p = tmp_path / "spec.json"
        p.write_text(f'{{{head}, "preferences": {{"1": {row}}}}}')
        assert main(["analyze", str(p)]) == 2
        assert capsys.readouterr().err == "error: agent 1's partners must be a list\n"

    @pytest.mark.parametrize(
        "text",
        [
            '{"agents": 2, "preferences": {"1": [[1]], "01": [[1, 2], [1]]}}',
            '{"n": 2, "preferences": {"1": [2], "01": [2]}}',
            '{"men": 1, "women": 1, "preferences": {"1": [2], "01": [2]}}',
        ],
        ids=["game", "roommate", "marriage"],
    )
    def test_agent_named_by_two_keys(self, tmp_path, text, capsys):
        p = tmp_path / "game.json"
        p.write_text(text)
        assert main(["analyze", str(p)]) == 2
        assert capsys.readouterr().err == "error: agent 1 listed twice\n"

    @pytest.mark.parametrize(
        "text,error",
        [
            ('{"agents": 10, "preferences": {"10": [[10]], "1_0": [[10]]}}',
             "preference key '1_0' is not an agent id"),
            ('{"n": 10, "preferences": {"1_0": [10]}}', "bad agent id '1_0'"),
            ('{"men": 1, "women": 1, "preferences": {"\\u0661": [2]}}',
             "bad agent id '\u0661'"),
        ],
        ids=["game", "roommate", "marriage"],
    )
    def test_key_not_ascii_digits(self, tmp_path, text, error, capsys):
        # int() read "1_0" as agent 10 and "\u0661" (Arabic-Indic) as agent 1
        p = tmp_path / "game.json"
        p.write_text(text, encoding="utf-8")
        assert main(["analyze", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


class TestAgentCountAboveTheCap:
    """A matching spec naming more agents than the cap is refused before its
    table is built (exit 2, one line), as a game of 64 agents is; a count
    of 10**20 built a row per agent until memory ran out."""

    @pytest.mark.parametrize(
        "text,got",
        [
            ('{"n": 64}', 64),
            ('{"n": 100000000000000000000}', 10**20),
            ('{"men": 63, "women": 1}', 64),
            ('{"men": 100000000000000000000, "women": 1}', 10**20 + 1),
            ('{"men": 1, "women": 100000000000000000000}', 10**20 + 1),
        ],
        ids=["roommate-64", "roommate-10**20", "marriage-64", "men-10**20", "women-10**20"],
    )
    def test_refused(self, tmp_path, text, got, capsys):
        p = tmp_path / "spec.json"
        p.write_text(text)
        assert main(["analyze", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: at most 63 agents are supported, got {got}\n"


def reading(command, source):
    """An ``analyze`` or ``verify`` command line that reads a game from
    ``source``."""
    if command == "verify":
        return [command, source, "--decomposition", "{{1,2,3},{45,46,56}}"]
    return [command, source]


class TestUndecodableInput:
    """Input bytes that are not UTF-8 are an input that cannot be read: one
    error line and exit 2 from both commands, not a traceback."""

    @pytest.mark.skipif(
        locale.getpreferredencoding(False).lower().replace("-", "") != "utf8",
        reason="files are read in the locale's encoding",
    )
    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_file(self, tmp_path, command, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(reading(command, str(bad))) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_stdin(self, command, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(reading(command, "-")) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot read -: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1


class TestDeeplyNestedJson:
    """JSON nested too deep for the decoder is invalid JSON (exit 2, one
    line), not a RecursionError traceback (exit 1, the limit's code)."""

    DEEP = "[" * 100_000 + "]" * 100_000

    def test_game(self, tmp_path, capsys):
        p = tmp_path / "game.json"
        p.write_text('{"agents": 2, "preferences": ' + self.DEEP + "}")
        assert main(["analyze", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: invalid JSON: ")
        assert err.count("\n") == 1

    def test_decomposition(self, tmp_path, capsys):
        p = tmp_path / "rm2.json"
        p.write_text('{"n": 2, "preferences": {"1": [2], "2": [1]}}')
        assert main(["verify", str(p), "--decomposition", self.DEEP]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: invalid JSON decomposition: ")
        assert err.count("\n") == 1


BIG = "1" + "0" * 4999  # past int()'s default limit of 4,300 digits
TOO_LONG = "an integer has more than 4300 digits"


class TestOversizedIntegers:
    """An integer of more digits than int() converts is malformed input
    (exit 2, one line) in both commands, not a ValueError traceback (exit
    1): JSON gets a line that names the digit limit, not the interpreter's
    advice to call a Python function, and a key or the text form's header
    the line a smaller bad value gets."""

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize(
        "text,error",
        [
            ('{"agents": %s}' % BIG, f"error: invalid JSON: {TOO_LONG}\n"),
            ('{"n": 2, "preferences": {"1": [%s]}}' % BIG, f"error: invalid JSON: {TOO_LONG}\n"),
            (f"agents: {BIG}\n", "error: the text form supports 1..9 agents\n"),
            ('{"agents": 2, "preferences": {"%s": [[1]]}}' % BIG,
             f"error: preference key '{BIG}' is not an agent id\n"),
            ('{"n": 2, "preferences": {"%s": [1]}}' % BIG, f"error: bad agent id '{BIG}'\n"),
        ],
        ids=["agents", "roommate-partner", "text-header", "game-key", "roommate-key"],
    )
    def test_game(self, tmp_path, command, text, error, capsys):
        p = tmp_path / "game"
        p.write_text(text)
        assert main(reading(command, str(p))) == 2
        assert capsys.readouterr() == ("", error)

    def test_decomposition(self, g6_file, capsys):
        assert main(["verify", g6_file, "--decomposition", f"[[[{BIG}]]]"]) == 2
        assert capsys.readouterr() == ("", f"error: invalid JSON decomposition: {TOO_LONG}\n")


class TestNonAsciiDigits:
    """The text forms read ASCII digits only, as JSON keys do: a superscript
    two passed str.isdigit() and then failed int() with a traceback, and
    Arabic-Indic digits were read as agents."""

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize(
        "text,error",
        [
            ("agents: 2\n1: 1\u00b2 | 1\n", "coalition '1\u00b2' is not a digit string"),
            ("agents: 2\n\u0661: \u0661\u0662 | 1\n",
             "unparseable ranking line: '\u0661: \u0661\u0662 | 1'"),
            ("agents: 2\n1: \u0661\u0662 | 1\n", "coalition '\u0661\u0662' is not a digit string"),
            ("agents: \u0662\n1: 12 | 1\n", "game text must start with an 'agents: n' line"),
        ],
        ids=["superscript", "arabic-line", "arabic-coalition", "arabic-header"],
    )
    def test_game(self, tmp_path, command, text, error, capsys):
        p = tmp_path / "game.txt"
        p.write_text(text, encoding="utf-8")
        assert main(reading(command, str(p))) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    @pytest.mark.parametrize("party", ["1\u00b2", "\u0661"], ids=["superscript", "arabic"])
    def test_decomposition(self, g6_file, party, capsys):
        assert main(["verify", g6_file, "--decomposition", "{{%s},{3}}" % party]) == 2
        assert capsys.readouterr() == ("", f"error: unparseable party: {{{party}}}\n")


SEEDED_INPUTS = (
    [(f"random-{s}", lambda s=s: json.dumps(random_game(6, 0.5, s).to_dict())) for s in range(4)]
    + [(f"roommate-{s}", lambda s=s: json.dumps(random_roommate_spec(9, 0.7, s).to_dict()))
       for s in range(4)]
    + [(f"marriage-{s}", lambda s=s: json.dumps(random_marriage_spec(4, 4, 0.7, s).to_dict()))
       for s in range(4)]
    + [(f"split-{s}", lambda s=s: json.dumps(split_market(s).to_dict())) for s in range(4)]
)


class TestIndentedJson:
    """Printed JSON against ``json.dumps(obj, indent=2)`` of the document it
    holds."""

    @pytest.mark.parametrize("label, make", SEEDED_INPUTS, ids=[k for k, _ in SEEDED_INPUTS])
    def test_reports(self, label, make, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(make()))
        assert main(["analyze", "-", "--all", "--json"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_limit_exceeded_report_stays_compact(self, g7_file, capsys):
        assert main(["analyze", g7_file, "--all", "--json", "--limit", "5"]) == 1
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out)) + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["random", "--agents", "7", "--seed", "2"],
            ["roommate", "--agents", "9", "--seed", "5"],
            ["marriage", "--men", "4", "--women", "2", "--seed", "3"],
        ],
    )
    def test_generate(self, argv, capsys):
        assert main(["generate", *argv]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


# the flag sets under which each report below is checked
REPORT_FLAGS = {
    "all": ["--all", "--json"],
    "plain": ["--json"],
    "rings": ["--json", "--rings"],
    "decompositions": ["--json", "--decompositions"],
    "converge-absorbing": ["--json", "--converge", "--absorbing"],
    "all-limit-50": ["--all", "--json", "--limit", "50"],
}

# label -> make: the worked examples, the roommate games of the CI ring
# checks and a game of two factors
REPORT_GAMES = {
    "seven": lambda: SEVEN,
    "eight": lambda: EIGHT,
    "six": lambda: SIX,
    "triangle": lambda: TRIANGLE,
    "roommate10": lambda: load_game(ROOMMATE_JSON),
    "marriage33": lambda: load_game(MARRIAGE_JSON),
    **{f"roommate9-{s}": (lambda s=s: room(9, 0.7, s)) for s in (22, 23, 42)},
    "two-factor": lambda: union(SEVEN, TRIANGLE),
}


class TestReportWriter:
    """``analyze --json`` prints ``json.dumps(doc, indent=2)`` of the
    reference document of its report, and compact ``json.dumps`` of it when
    the limit is exceeded."""

    @staticmethod
    def check(g, flags, monkeypatch, capsys):
        calls = spy(monkeypatch, [], cli, "_render_json", lambda report, args: (report, args))
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(g.to_dict())))
        code = main(["analyze", "-", *flags])
        ((report, args),) = calls
        doc = reference_report_doc(report, args)
        partial = report.limit_exceeded is not None
        want = json.dumps(doc) if partial else json.dumps(doc, indent=2)
        assert capsys.readouterr().out == want + "\n"
        assert code == (1 if partial else 0)

    @pytest.mark.parametrize("flags", REPORT_FLAGS.values(), ids=REPORT_FLAGS)
    @pytest.mark.parametrize("label", REPORT_GAMES)
    def test_examples(self, label, flags, monkeypatch, capsys):
        self.check(REPORT_GAMES[label](), flags, monkeypatch, capsys)

    # --all writes every section the other flag sets write; all six flag
    # sets on every fuzz game would add about 10 s to the suite
    @pytest.mark.parametrize("label", FUZZ_GAMES)
    def test_fuzz_games(self, label, monkeypatch, capsys):
        self.check(FUZZ_GAMES[label](), ["--all", "--json"], monkeypatch, capsys)


class TestParserBuiltOnce:
    """argparse is built at most once per process, and not at all while
    the quick reader takes every command line."""

    def test_main_builds_the_parser_once(self, g6_file, g7_file, capsys):
        taken = [
            ["analyze", g7_file, "--all", "--json"],
            ["generate", "roommate", "--agents", "5", "--seed", "3"],
            ["verify", g6_file, "--decomposition", "{{1,2,3},{45,46,56}}"],
            ["analyze", g6_file, "--rings"],
            ["verify", g6_file, "--decomposition", "{{oops}}"],
            ["analyze", g7_file, "--all", "--json"],
        ]
        declined = [
            ["verify", g6_file, "--dec", "{{1,2,3},{45,46,56}}"],
            ["analyze", g6_file, "--rings", "--limit=50"],
        ]
        runs = taken + declined

        def outputs(argvs):
            got = []
            for argv in argvs:
                code = main(argv)
                out, err = capsys.readouterr()
                err = "".join(line for line in err.splitlines(True) if "analysis time" not in line)
                got.append((code, out, err))
            return got

        # a fresh parser for every call
        fresh = []
        for argv in runs:
            cli._parser.cache_clear()
            fresh += outputs([argv])
        cli._parser.cache_clear()
        try:
            assert outputs(taken) == fresh[: len(taken)]
            assert cli._parser.cache_info().misses == 0
            assert outputs(runs) == fresh
            assert outputs(runs) == fresh
            assert cli._parser.cache_info().misses == 1
        finally:
            cli._parser.cache_clear()


# argv cases for the parser parity check; GAME stands for the six-agent game
PARITY_CASES = {
    "analyze": ["analyze", "GAME", "--all", "--json"],
    "generate": ["generate", "marriage", "--men", "2", "--seed", "4"],
    "verify": ["verify", "GAME", "--decomposition", "{{1,2,3},{45,46,56}}"],
    "help": ["-h"],
    "analyze-help": ["analyze", "-h"],
    "no-arguments": [],
    "unknown-command": ["frobnicate", "GAME"],
    "analyze-stray": ["analyze", "GAME", "--foo"],
    "generate-stray": ["generate", "random", "--foo", "x"],
    "verify-stray": ["verify", "GAME", "--decomposition", "{{1,2,3},{45,46,56}}", "--foo"],
    "limit-zero": ["analyze", "GAME", "--limit", "0"],
    "verify-no-decomposition": ["verify", "GAME"],
    "separator": ["analyze", "--json", "--", "GAME"],
    "separator-stray": ["verify", "GAME", "--decomposition", "{{123},{456}}", "--", "x"],
    "separator-first": ["--", "analyze", "GAME"],
    # argparse reads these: an abbreviation, an attached value, a value
    # starting with "-", an option given twice (argparse converts both
    # values), an option before the positional, two positionals, and values
    # that the option's type or choices refuse
    "abbreviation": ["verify", "GAME", "--dec", "{{1,2,3},{45,46,56}}"],
    "attached-value": ["analyze", "GAME", "--limit=5"],
    "dash-value": ["verify", "GAME", "--decomposition", "-{{123},{456}}"],
    "twice": ["analyze", "GAME", "--limit", "0", "--json", "--limit", "5"],
    "option-first": ["analyze", "--json", "GAME"],
    "two-positionals": ["analyze", "GAME", "GAME", "--json"],
    "verify-limit-zero": [
        "verify", "GAME", "--decomposition", "{{1,2,3},{45,46,56}}", "--limit", "0"
    ],
    "generate-not-an-int": ["generate", "random", "--agents", "x"],
    "generate-unknown-kind": ["generate", "lottery"],
    # the benchmark's shapes, which the quick reader reads
    "bench-analyze": ["analyze", "-", "--all", "--json"],
    "bench-verify": [
        "verify", "-", "--decomposition", "[[[1],[2],[3],[4],[5],[6]]]", "--limit", "20000"
    ],
}


# the cases the quick reader takes, without an argparse pass
QUICK_CASES = {
    name: argv
    for name, argv in PARITY_CASES.items()
    if argv[:1] and argv[0] in cli._COMMANDS and cli._quick_parse(argv[0], argv[1:]) is not None
}


class TestParserParity:
    """``main`` reads the command lines ``_quick_parse`` accepts from the
    table and hands every other one to argparse; exit code, stdout and
    stderr must be those of a parse through argparse."""

    @staticmethod
    def run(argv, capsys, monkeypatch):
        # "-" reads the six-agent game from stdin
        monkeypatch.setattr(sys, "stdin", io.StringIO(G6_DSL))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        err = "".join(line for line in err.splitlines(True) if "analysis time" not in line)
        return code, out, err

    @pytest.mark.parametrize("argv", PARITY_CASES.values(), ids=PARITY_CASES)
    def test_matches_the_top_level_parser(self, argv, g6_file, capsys, monkeypatch):
        argv = [g6_file if a == "GAME" else a for a in argv]
        got = self.run(argv, capsys, monkeypatch)
        monkeypatch.setattr(cli, "_parse", lambda argv: cli._parser().parse_args(argv))
        assert got == self.run(argv, capsys, monkeypatch)

    @pytest.mark.parametrize("argv", QUICK_CASES.values(), ids=QUICK_CASES)
    def test_table_namespace_is_argparses(self, argv, g6_file):
        # the table, not argparse, supplies the quick reader's dests and
        # defaults; attribute order included
        argv = [g6_file if a == "GAME" else a for a in argv]
        quick = cli._quick_parse(argv[0], argv[1:])
        parsed = vars(cli._parser().parse_args(argv))
        assert parsed.pop("command") == argv[0]
        assert list(vars(quick).items()) == list(parsed.items())

    def test_benchmark_shapes_take_no_argparse_pass(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an argparse parser parsed")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        args = cli._parse(["analyze", "-", "--all", "--json"])
        assert vars(args) == {
            "input": "-", "absorbing": False, "rings": False, "decompositions": False,
            "converge": False, "all": True, "json": True, "dot": None,
            "limit": cli.DEFAULT_LIMIT, "run": cli._cmd_analyze, "command": "analyze",
        }
        args = cli._parse(["verify", "-", "--decomposition", "{{123}}", "--limit", "20000"])
        assert vars(args) == {
            "input": "-", "decomposition": "{{123}}", "limit": 20000,
            "run": cli._cmd_verify, "command": "verify",
        }


class TestGenerate:
    def test_random_game(self, capsys):
        assert main(["generate", "random", "--agents", "5", "--seed", "7"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["agents"] == 5
        g = load_game(json.dumps(obj))
        assert isinstance(g, Game) and g.n == 5

    def test_roommate_spec(self, capsys):
        assert main(["generate", "roommate", "--agents", "6", "--seed", "1"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["n"] == 6
        assert isinstance(load_game(json.dumps(obj)), Game)

    def test_marriage_spec(self, capsys):
        assert (
            main(
                [
                    "generate",
                    "marriage",
                    "--men",
                    "2",
                    "--women",
                    "3",
                    "--seed",
                    "2",
                ]
            )
            == 0
        )
        obj = json.loads(capsys.readouterr().out)
        assert obj["men"] == 2 and obj["women"] == 3
        assert load_game(json.dumps(obj)).n == 5

    @pytest.mark.parametrize(
        "kind, make",
        [
            ("random", lambda: random_game(6, seed=1).to_dict()),
            ("roommate", lambda: random_roommate_spec(6, seed=1).to_dict()),
            ("marriage", lambda: random_marriage_spec(3, 3, seed=1).to_dict()),
        ],
    )
    def test_density_defaults_to_the_generators(self, kind, make, capsys):
        # without --density the generator's own default density applies
        assert main(["generate", kind, "--seed", "1"]) == 0
        assert capsys.readouterr().out == json.dumps(make(), indent=2) + "\n"

    def test_seeded_output_is_stable(self, capsys):
        main(["generate", "random", "--agents", "6", "--seed", "3"])
        first = capsys.readouterr().out
        main(["generate", "random", "--agents", "6", "--seed", "3"])
        assert capsys.readouterr().out == first


class _ClosedPipe(io.StringIO):
    """A standard output whose reader has gone: every write fails."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedPipe:
    """A closed standard output ends every command with
    ``EXIT_PIPE_CLOSED`` and nothing on stderr but the timing line."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "GAME", "--all", "--json"],
        ["analyze", "GAME", "--all"],
        ["verify", "GAME", "--decomposition", "{{12,23,34,45,15},{67}}"],
        ["generate", "roommate", "--seed", "1"],
    ])
    def test_every_command(self, argv, g7_file, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        code = main([g7_file if a == "GAME" else a for a in argv])
        err = capsys.readouterr().err
        assert code == cli.EXIT_PIPE_CLOSED == 141
        timing = ["analysis time"] if argv[0] == "analyze" else []
        assert [line.split(":")[0] for line in err.splitlines()] == timing

    def test_buffered_output_is_flushed_inside_main(self, g7_file, monkeypatch):
        # output that fits the buffer fails at the flush, still inside main
        class Buffered(_ClosedPipe):
            held = ""

            def write(self, text):
                self.held += text
                return len(text)

            def flush(self):
                if self.held:
                    raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Buffered())
        assert main(["verify", g7_file, "--decomposition", "{{12,23,34,45,15},{67}}"]) == 141

    def test_missing_stdout(self, g7_file, monkeypatch):
        # a closed descriptor 1 leaves sys.stdout None; print writes nothing
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["verify", g7_file, "--decomposition", "{{12,23,34,45,15},{67}}"]) == 0


class TestConsoleScript:
    def test_entry_point(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text(G6_DSL)
        proc = subprocess.run(
            [sys.executable, "-m", "stabledec.cli", "analyze", str(p)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "structures: 20" in proc.stdout
