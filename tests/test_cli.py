"""Command line behavior: loading, reports, verify, generate, exit codes."""

import json
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
    sink_components,
    to_dot,
)
from stabledec import cli
from stabledec.cli import load_game, main, parse_decomposition
from conftest import C

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
        with pytest.raises(MalformedInput):
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
        for bad in ("", "{{12}", "{{12},{3x}}", "[1]"):
            with pytest.raises(MalformedParty):
                parse_decomposition(g6, bad)
        with pytest.raises(StabledecError):
            parse_decomposition(g6, "[[[0]]]")


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


class TestParserBuiltOnce:
    def test_main_builds_the_parser_once(self, g6_file, g7_file, capsys):
        runs = [
            ["analyze", g7_file, "--all", "--json"],
            ["generate", "roommate", "--agents", "5", "--seed", "3"],
            ["verify", g6_file, "--decomposition", "{{1,2,3},{45,46,56}}"],
            ["analyze", g6_file, "--rings"],
            ["verify", g6_file, "--decomposition", "{{oops}}"],
            ["analyze", g7_file, "--all", "--json"],
        ]

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
            assert outputs(runs) == fresh
            assert outputs(runs) == fresh
            assert cli._parser.cache_info().misses == 1
        finally:
            cli._parser.cache_clear()


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

    def test_seeded_output_is_stable(self, capsys):
        main(["generate", "random", "--agents", "6", "--seed", "3"])
        first = capsys.readouterr().out
        main(["generate", "random", "--agents", "6", "--seed", "3"])
        assert capsys.readouterr().out == first


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
