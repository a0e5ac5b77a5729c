"""The ``stabledec`` console script, run as a user runs it.

Every test runs the ``stabledec`` found on PATH in a subprocess, and fails
(it does not skip) when there is none; the import check also runs this
interpreter on the package it imports. The name has no ``test_`` prefix, so
the full suite does not collect this module; pytest runs it when it is
named. Against an installed package::

    python -m pytest -q tests/console_checks.py

From a checkout, put on PATH a ``stabledec`` script that runs
``PYTHONPATH=<checkout>/src exec python3 -m stabledec.cli "$@"`` and add
``PYTHONPATH=src`` to the pytest call (README "Tests").

Each game is generated once and analyzed once per session; every test reads
the report it needs.
"""

import functools
import json
import re
import shutil
import subprocess
import sys

import pytest

from stabledec import enumerate_structures, is_stable, render_structure
from stabledec.cli import load_game

# the arguments of ``stabledec generate`` for each game
GAMES = {
    "roommate6": ("roommate", "--agents", "6", "--seed", "1"),
    "marriage": ("marriage", "--men", "6", "--women", "6", "--density", "0.6", "--seed", "1"),
    "marriage5": ("marriage", "--men", "6", "--women", "6", "--density", "0.9", "--seed", "5"),
    **{
        f"roommate{seed}": ("roommate", "--agents", "9", "--density", "0.7", "--seed", str(seed))
        for seed in (42, 22, 5912, 23, 11)
    },
    "random114": ("random", "--agents", "6", "--density", "0.5", "--seed", "114"),
    "random6": ("random", "--agents", "6", "--density", "0.6", "--seed", "1"),
    "random31": ("random", "--agents", "7", "--density", "0.5", "--seed", "31"),
}

ALL_SINGLETONS = "[[[1],[2],[3],[4],[5],[6]]]"
NINE_SINGLETONS = "{1} {2} {3} {4} {5} {6} {7} {8} {9}"


def run(*argv, stdin=None):
    """``stabledec *argv``, fed ``stdin``; it must exit within 60 s."""
    command = shutil.which("stabledec")
    assert command, "no stabledec on PATH: install the package (pip install .)"
    return subprocess.run(
        [command, *argv], input=stdin, capture_output=True, text=True, timeout=60
    )


@functools.cache
def output(*argv, stdin=None):
    """What ``stabledec *argv`` prints, from a run that exits 0."""
    proc = run(*argv, stdin=stdin)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@functools.cache
def game(name):
    """The JSON text of a game of ``GAMES``, or of ``"split"``: two
    submarkets, the random game ``random6`` on agents 1-6 and the roommate
    game ``roommate6`` on agents 7-12."""
    if name != "split":
        return output("generate", *GAMES[name])
    prefs = {}
    for k, part in enumerate(["random6", "roommate6"]):
        for agent, ranking in load_game(game(part)).to_dict()["preferences"].items():
            prefs[str(int(agent) + 6 * k)] = [[a + 6 * k for a in c] for c in ranking]
    return json.dumps({"agents": 12, "preferences": prefs})


def report_text(name):
    """``analyze - --all --json`` of a game, fed the game on stdin."""
    return output("analyze", "-", "--all", "--json", stdin=game(name))


@functools.cache
def report(name):
    return json.loads(report_text(name))


def ring_coalitions(name):
    return [r["coalitions"] for r in report(name)["ring_components"]]


@pytest.fixture(scope="session")
def path(tmp_path_factory):
    """The path of a file holding a game, or ``"not-utf8"``: bytes that
    are not UTF-8."""
    folder = tmp_path_factory.mktemp("games")

    def write(name):
        p = folder / f"{name}.json"
        if not p.exists():
            if name == "not-utf8":
                p.write_bytes(b"\xff\xfe{}")
            else:
                p.write_text(game(name))
        return str(p)

    return write


def test_roommate_report():
    """A generated game read from stdin: its six agents, and a decomposition."""
    report6 = report("roommate6")
    assert report6["agents"] == 6 and report6["decompositions"]


def test_text_report_counts_the_json_decompositions():
    """The text form of the same game: exit 0, and as many stable
    decompositions as the JSON report lists."""
    text = output("analyze", "-", "--all", stdin=game("roommate6"))
    shown = re.search(r"^stable decompositions: (\d+)$", text, re.M)
    assert shown and int(shown.group(1)) == len(report("roommate6")["decompositions"])


def test_all_singletons_verdict(path):
    """The all-singletons decomposition: stable exactly when the JSON report
    lists it (on this game it does not)."""
    listed = any(
        [p["kind"] for p in d["parties"]] == ["singleton_pool"]
        for d in report("roommate6")["decompositions"]
    )
    verdict = output("verify", path("roommate6"), "--decomposition", ALL_SINGLETONS).strip()
    if listed:
        assert verdict == "stable decomposition"
    else:
        assert verdict.startswith("not a stable decomposition")


def test_verdicts_through_argparse(path):
    """The same verdicts through argparse: an abbreviated option name and an
    attached value, which the quick argv reader leaves to it."""
    verify = ("verify", path("roommate6"), "--decomposition", ALL_SINGLETONS)
    assert output("verify", path("roommate6"), "--dec", ALL_SINGLETONS) == output(*verify)
    assert output(*verify, "--limit=20000") == output(*verify, "--limit", "20000")


def test_marriage_sets_are_trivial():
    """A marriage game, analyzed without a domination graph: every absorbing
    set must be trivial."""
    sets = report("marriage")["absorbing_sets"]
    assert sets and report("marriage")["decompositions"]
    assert all(a["trivial"] for a in sets)


def test_dense_marriage_sets_are_its_stable_structures():
    """A dense marriage game whose phase-1 table keeps 11 of its 29 pairs and
    the matching search still branches: its 5522 structures hold 4 stable
    ones, which must be the absorbing sets, all trivial, and exactly what
    enumeration and is_stable list."""
    g = load_game(game("marriage5"))
    want = [render_structure(pi) for pi in enumerate_structures(g) if is_stable(g, pi)]
    sets = report("marriage5")["absorbing_sets"]
    assert report("marriage5")["structures"] == 5522 and len(sets) == 4
    assert all(a["trivial"] for a in sets)
    assert [s for a in sets for s in a["structures"]] == want


def test_merged_rings_are_no_ring_component():
    """Roommate seed 42, whose rings 47-49-79 and 57-59-79 merge into a
    family that is no ring component: the report must list exactly the ring
    component {14,15,45} and one decomposition."""
    assert ring_coalitions("roommate42") == [["{1,4}", "{1,5}", "{4,5}"]]
    assert len(report("roommate42")["decompositions"]) == 1


def test_ring_extraction_in_id_order():
    """Roommate seed 22, whose 526-member absorbing set needs 15 ring
    searches in id order and 2 from the members with the most in-edges: the
    report must list the one ring component and the one decomposition of the
    earlier id-order extraction."""
    assert ring_coalitions("roommate22") == [[
        "{1,3}", "{1,4}", "{2,4}", "{4,5}", "{1,6}", "{2,6}", "{3,6}",
        "{1,7}", "{2,7}", "{4,7}", "{5,7}", "{6,7}", "{1,8}", "{3,8}",
        "{5,8}", "{1,9}", "{2,9}", "{3,9}", "{5,9}", "{6,9}", "{8,9}",
    ]]
    assert len(report("roommate22")["decompositions"]) == 1


def test_extracted_families_not_the_strong_component():
    """Roommate seed 5912, where a strongly connected component of the step
    digraph passes the ring component test but also holds {2,6}, which no
    ring holds: the report must list the extracted families of 12 and 3
    coalitions, not that 13-coalition component."""
    assert ring_coalitions("roommate5912") == [
        ["{1,2}", "{3,4}", "{1,7}", "{3,7}", "{4,7}", "{1,8}", "{2,8}", "{4,8}",
         "{6,8}", "{7,8}", "{3,9}", "{4,9}"],
        ["{1,5}", "{1,6}", "{5,6}"],
    ]
    assert len(report("roommate5912")["decompositions"]) == 1


def test_ring_component_with_307_maximal_sets():
    """Roommate seed 23, whose one ring component of 27 coalitions has 307
    maximal sets (the bitset Bron-Kerbosch) and is not simple: the report
    must list it and the one decomposition."""
    shape = [
        (len(r["coalitions"]), len(r["maximal"]), r["simple"])
        for r in report("roommate23")["ring_components"]
    ]
    assert shape == [(27, 307, False)]
    assert len(report("roommate23")["decompositions"]) == 1


def test_no_stable_matching_no_convergence():
    """Roommate seed 42 has no stable matching, so it cannot converge, and
    the witness is its least structure, the all-singletons one."""
    assert report("roommate42")["converges"] is False
    assert report("roommate42")["witness"] == NINE_SINGLETONS


def test_closure_of_p_stable_matchings():
    """Roommate seed 11 has no stable matching: its absorbing set comes from
    the closure of its P-stable matchings (3 nodes), while the structure
    count stays the count of every structure."""
    report11 = report("roommate11")
    assert report11["structures"] == 1491
    assert [a["size"] for a in report11["absorbing_sets"] if not a["trivial"]] == [3]
    assert report11["converges"] is False and report11["witness"] == NINE_SINGLETONS


def test_witness_through_the_graph_sort_key():
    """Random (6, 0.5) seed 114, one full graph whose witness is read through
    the graph's sort key: 5 structures, absorbing sets of 3 and 1 members,
    and no convergence from {1} {2,3,5} {4} {6}. The game reaches ``analyze
    -`` on a pipe, as every game here does."""
    report114 = report("random114")
    assert report114["structures"] == 5
    assert [a["size"] for a in report114["absorbing_sets"]] == [3, 1]
    assert report114["converges"] is False and report114["witness"] == "{1} {2,3,5} {4} {6}"


def test_every_breaker_of_a_split_game_is_prevented():
    """Two submarkets, so the analysis runs per factor: every certificate
    breaker must name the party preventing it."""
    decompositions = report("split")["decompositions"]
    breakers = [b for d in decompositions for e in d["certificates"] for b in e["breakers"]]
    assert decompositions and breakers
    assert [b["breaker"] for b in breakers if b["prevented_by"] is None] == []


@pytest.mark.parametrize(
    "name",
    ["roommate6", "marriage", "marriage5", "roommate42", "roommate22", "roommate5912",
     "roommate23", "roommate11", "random114", "split"],
)
def test_verify_accepts_every_listed_decomposition(name, path):
    """verify, which decides stability on its own route (the marriage games'
    without a domination graph), must accept every decomposition that each
    of the ten reports lists."""
    for d in report(name)["decompositions"]:
        parties = [
            [[int(a) for a in c.strip("{}").split(",")] for c in p["coalitions"]]
            for p in d["parties"]
        ]
        verdict = output("verify", path(name), "--decomposition", json.dumps(parties))
        assert verdict.strip() == "stable decomposition", parties


def test_pool_supports_protected_party(path):
    """Random (7, 0.5) seed 31: verify grows a closure, runs the Tarjan pass
    and extracts rings before it finds that the all-singletons pool
    {1},{2},{4} supports the protected party {1,2}. No benchmark operation
    reaches this verdict."""
    decomposition = "[[[3,5],[3,7],[5,7],[3,6,7],[3,5,6,7]],[[1],[2],[4]]]"
    verdict = output("verify", path("random31"), "--decomposition", decomposition)
    assert verdict.rstrip("\n") == (
        "not a stable decomposition: singleton pool supports protected party {12}"
    )


BIG = "1" + "0" * 4999  # past int()'s default limit of 4,300 digits
TOO_LONG = "an integer has more than 4300 digits"

# Games that both commands read: "verify -" reads its game from stdin too.
# Name -> (game text, the error line after "error: ").
MALFORMED_GAMES = {
    "agents 10**4999": ('{"agents": %s}' % BIG, f"invalid JSON: {TOO_LONG}"),
    "roommate partner 10**4999": (
        '{"n": 2, "preferences": {"1": [%s]}}' % BIG, f"invalid JSON: {TOO_LONG}"
    ),
    "text header agents 10**4999": (f"agents: {BIG}\n", "the text form supports 1..9 agents"),
    "key 10**4999": (
        '{"agents": 2, "preferences": {"%s": [[1]]}}' % BIG,
        f"preference key '{BIG}' is not an agent id",
    ),
    "superscript digit": ("agents: 2\n1: 1² | 1\n", "coalition '1²' is not a digit string"),
    "Arabic-Indic digits": ("agents: 2\n١: ١٢ | 1\n", "unparseable ranking line: '١: ١٢ | 1'"),
}

# Malformed input far outside any game, JSON nested 200,000 deep, agent ids
# of 10**20 and of 5,000 digits, matching specs of 10**20 agents, digits that
# are not ASCII and a file that is not UTF-8: (argv, stdin, the error line
# after "error: "), the line None where the interpreter words it. A name
# after the command names a file of ``path``.
MALFORMED = {
    "analyze, deep JSON": (
        ("analyze", "-"),
        '{"agents": 2, "preferences": ' + "[" * 200_000 + "]" * 200_000 + "}",
        None,
    ),
    "verify, id 10**20": (
        ("verify", "roommate6", "--decomposition",
         "[[[1,%d]],[[2]],[[3]],[[4]],[[5]],[[6]]]" % 10**20),
        "",
        "agent id 100000000000000000000 is out of range",
    ),
    "analyze, roommate n 10**20": (
        ("analyze", "-"), '{"n": %d}' % 10**20,
        "at most 63 agents are supported, got 100000000000000000000",
    ),
    "analyze, marriage men 10**20": (
        ("analyze", "-"), '{"men": %d, "women": 1}' % 10**20,
        "at most 63 agents are supported, got 100000000000000000001",
    ),
    "analyze, not UTF-8": (("analyze", "not-utf8"), "", None),
    "verify, not UTF-8": (("verify", "not-utf8", "--decomposition", "{{1}}"), "", None),
    "verify, id 10**4999": (
        ("verify", "roommate6", "--decomposition", f"[[[{BIG}]]]"), "",
        f"invalid JSON decomposition: {TOO_LONG}",
    ),
    "verify, superscript digit in the decomposition": (
        ("verify", "roommate6", "--decomposition", "{{1²},{3}}"), "",
        "unparseable party: {1²}",
    ),
    **{
        f"{argv[0]}, {name}": (argv, text, line)
        for name, (text, line) in MALFORMED_GAMES.items()
        for argv in [("analyze", "-"), ("verify", "-", "--decomposition", "{{1}}")]
    },
}


@pytest.mark.parametrize("argv,stdin,line", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_one_error_line(argv, stdin, line, path):
    """Each run exits 2 with one error line, the one the row names, and no
    traceback, and a hang fails it."""
    command, source, *rest = argv
    proc = run(command, source if source == "-" else path(source), *rest, stdin=stdin)
    lines = proc.stderr.splitlines()
    assert proc.returncode == 2, proc.stderr
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert line is None or lines[0] == f"error: {line}"
    assert "Traceback" not in proc.stderr


def test_installed_package_imports_only_what_it_uses(path):
    """Importing ``stabledec.cli`` loads no dataclasses, inspect, typing or
    pathlib, and the benchmark's two command shapes, run in process, then
    load no argparse or gettext either. Only what they add counts: with
    ``site`` on, a ``.pth`` hook may have loaded any of them already. The
    interpreter is the one running this module, which imports the package
    that its console script runs."""
    code = (
        "import io, json, sys\n"
        "before = set(sys.modules)\n"
        "import stabledec.cli\n"
        "convenience = {'dataclasses', 'inspect', 'typing', 'pathlib'}\n"
        "imported = sorted(convenience & (set(sys.modules) - before))\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        "codes = [stabledec.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "sys.stdout = out\n"
        "ran = sorted((convenience | {'argparse', 'gettext'}) & (set(sys.modules) - before))\n"
        "print(json.dumps([stabledec.cli.__file__, codes, imported, ran]))\n"
    )
    game = path("roommate6")
    argvs = [
        ["analyze", game, "--all", "--json"],
        ["verify", game, "--decomposition", ALL_SINGLETONS, "--limit", "20000"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)], capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    where, codes, imported, ran = json.loads(proc.stdout)
    assert (codes, imported, ran) == ([0, 0], [], []), where


@pytest.mark.parametrize(
    "command,name",
    [("generate", "roommate6"), ("analyze", "roommate6"), ("analyze", "marriage"),
     ("analyze", "roommate42")],
)
def test_printed_json_is_json_dumps(command, name):
    """Every indented JSON the console script printed is byte for byte what
    json.dumps(..., indent=2) prints, on each Python it runs on."""
    text = game(name) if command == "generate" else report_text(name)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
