"""Pair-only factors with a stable structure: no domination graph.

``Analysis`` takes a factor's stable structures as its absorbing sets when
every permissible coalition is a pair and some structure is stable; a
pair-only factor without one grows the closure of its P-stable matchings
(see ``test_p_stable.py``). The gate compares every section with the one
read off the full domination graph (``graph=full_domination_graph(g)``):
marriage games, roommate games with and without a stable matching,
pair-only general games whose rankings list unacceptable coalitions, and
disjoint unions of a marriage game with a roommate game that has no stable
matching.

The pruned search for the stable structures (``_stable_matchings``) and the
memoized structure count are checked against enumeration: the search
against the enumerate-and-filter it replaced, kept here as a reference.
"""

import json
import random

import pytest

import stabledec.absorbing as absorbing
import stabledec.dynamics as dynamics
import stabledec.structures as structures
from stabledec import (
    Analysis,
    Game,
    LimitExceeded,
    StabledecError,
    TrivialAbsorbingSet,
    VerificationFailed,
    all_stable_decompositions,
    coalition,
    converges_to_stability,
    enumerate_structures,
    factored_convergence,
    factored_decompositions,
    full_domination_graph,
    is_stable,
    marriage_to_game,
    random_marriage_spec,
    random_roommate_spec,
    ring_components_of,
    roommate_to_game,
    sink_components,
)
from stabledec.cli import main
from stabledec.structures import _count_structures

from test_fuzz import FUZZ_GAMES


def mar(men, women, seed, density=0.7):
    return marriage_to_game(random_marriage_spec(men, women, density, seed))


def room(n, seed, density=0.7):
    return roommate_to_game(random_roommate_spec(n, density, seed))


def has_stable(g: Game) -> bool:
    return any(is_stable(g, pi) for pi in enumerate_structures(g))


def pair_game(n: int, seed: int) -> Game:
    """A pair-only game whose rankings list unacceptable coalitions: each
    agent ranks a random set of their pairs with the singleton inserted at
    a random place, so some listed pairs fall below it, and then every
    triple they belong to, all below the singleton."""
    rng = random.Random(seed)
    rows = {}
    for i in range(1, n + 1):
        pairs = [coalition((i, j)) for j in range(1, n + 1) if j != i and rng.random() < 0.8]
        rng.shuffle(pairs)
        pairs.insert(rng.randint(0, len(pairs)), coalition((i,)))
        triples = [
            coalition((i, j, k))
            for j in range(1, n + 1)
            for k in range(j + 1, n + 1)
            if i not in (j, k)
        ]
        rows[i] = pairs + triples
    return Game(n, rows)


def union(*games: Game) -> Game:
    """The games side by side on consecutive agent ids."""
    rows = {}
    offset = 0
    for game in games:
        for i, ranking in enumerate(game.rankings, 1):
            rows[i + offset] = [c << offset for c in ranking]
        offset += game.n
    return Game(offset, rows)


def no_stable_roommates(n: int, count: int) -> list[int]:
    """The first ``count`` seeds of ``random_roommate_spec(n, 0.7)`` with no
    stable matching."""
    seeds = []
    seed = 0
    while len(seeds) < count:
        if not has_stable(room(n, seed)):
            seeds.append(seed)
        seed += 1
    return seeds


# label -> make; about 4 s in all on a 2-core x86-64 machine
GAMES = {}
for (m, w), seeds in {(3, 3): 40, (4, 4): 30, (5, 5): 25, (6, 6): 15, (3, 5): 10}.items():
    for s in range(1, seeds + 1):
        GAMES[f"marriage{m}x{w}-{s}"] = lambda m=m, w=w, s=s: mar(m, w, s, 0.6 if m == 6 else 0.7)
for n, seeds in {5: 20, 6: 20, 7: 15, 8: 10, 9: 5}.items():
    for s in range(1, seeds + 1):
        GAMES[f"roommate{n}-{s}"] = lambda n=n, s=s: room(n, s)
# roommate games with no stable matching, which grow the closure of their
# P-stable matchings
for n in (5, 6, 7):
    for s in no_stable_roommates(n, 5):
        GAMES[f"roommate{n}-{s}-unstable"] = lambda n=n, s=s: room(n, s)
for n in (4, 5, 6, 7):
    for s in range(1, 11):
        GAMES[f"pairs{n}-{s}"] = lambda n=n, s=s: pair_game(n, s)
for k, s in enumerate(no_stable_roommates(5, 4) + no_stable_roommates(6, 2)):
    n = 5 if k < 4 else 6
    GAMES[f"marriage3x3-{k}+roommate{n}-{s}"] = lambda k=k, n=n, s=s: union(mar(3, 3, k), room(n, s))
    GAMES[f"roommate{n}-{s}+marriage3x4-{k}"] = lambda k=k, n=n, s=s: union(room(n, s), mar(3, 4, k))


def outcome(fn):
    """The result of ``fn()``, or the library error it raises."""
    try:
        return fn()
    except StabledecError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("label", list(GAMES))
def test_every_section_matches_full_graph(label):
    g = GAMES[label]()
    an = Analysis(g)
    graph = full_domination_graph(g)
    sinks = sink_components(graph)
    assert an.structure_count == len(graph)
    # same members in the same order, and the sets in the same order
    assert an.absorbing_sets() == sinks
    for idx, a in enumerate(sinks):
        if a.trivial:
            with pytest.raises(TrivialAbsorbingSet):
                an.ring_components(idx)
        else:
            assert outcome(lambda: an.ring_components(idx)) == outcome(
                lambda: ring_components_of(g, a, graph)
            )
    assert outcome(lambda: factored_decompositions(an)) == outcome(
        lambda: all_stable_decompositions(g, graph=graph)
    )
    assert factored_convergence(an) == converges_to_stability(g, graph=graph)


def reference_stable(g: Game) -> list[tuple[int, ...]]:
    """Every structure, enumerated, whose AND of ``better`` over its parts
    is 0: the enumerate-and-filter that ``_stable_matchings`` replaced."""
    better = g.expansion().better
    stable = []
    for pi in enumerate_structures(g):
        blocking = -1
        for p in pi:
            blocking &= better[p]
        if not blocking:
            stable.append(pi)
    return stable


@pytest.mark.parametrize("label", list(GAMES))
def test_search_and_count_match_enumeration(label):
    g = GAMES[label]()
    # the same structures in the same order, for the game and each factor
    for game in {g, *(f.game for f in Analysis(g).factors)}:
        assert absorbing._stable_matchings(game) == reference_stable(game)
    assert _count_structures(g) == sum(1 for _ in enumerate_structures(g))


@pytest.mark.parametrize("label", list(FUZZ_GAMES))
def test_count_matches_enumeration(label):
    g = FUZZ_GAMES[label]()
    assert _count_structures(g) == sum(1 for _ in enumerate_structures(g))


def test_search_skips_games_with_larger_coalitions():
    g = Game(3, {1: [(1, 2, 3), (1,)], 2: [(1, 2, 3), (2,)], 3: [(1, 2, 3), (3,)]})
    assert absorbing._stable_matchings(g) is None


class TestGateCoverage:
    def test_enough_games(self):
        assert len(GAMES) >= 200

    def test_both_routes_taken(self):
        # factors without a graph, and pair-only factors with a closure
        routes = {"pairs": 0, "graph": 0, "pairs-graph": 0}
        for label, make in GAMES.items():
            g = make()
            for f in Analysis(g).factors:
                if f.graph is None:
                    routes["pairs"] += 1
                elif all(c.bit_count() == 2 for c in f.game.permissible):
                    routes["pairs-graph"] += 1
                else:
                    routes["graph"] += 1
        assert routes["pairs"] >= 150
        assert routes["pairs-graph"] >= 30
        assert routes["graph"] == 0

    def test_unacceptable_pairs_and_triples_listed(self):
        for s in range(1, 11):
            g = pair_game(6, s)
            listed = {c for row in g.rankings for c in row if c.bit_count() >= 2}
            assert all(c.bit_count() == 2 for c in g.permissible)
            assert any(c.bit_count() == 2 and c not in g.permissible for c in listed)
            assert any(c.bit_count() == 3 for c in listed)

    def test_unions_mix_routes(self):
        g = GAMES["marriage3x3-0+roommate5-" + str(no_stable_roommates(5, 1)[0])]()
        first, second = Analysis(g).factors
        assert first.graph is None and second.graph is not None
        ok, witness = factored_convergence(Analysis(g))
        assert not ok and witness is not None


class TestPairRoute:
    def test_sets_are_the_stable_structures(self):
        g = mar(6, 6, 1, 0.6)
        (f,) = Analysis(g).factors
        assert f.graph is None
        stable = [pi for pi in enumerate_structures(g) if is_stable(g, pi)]
        assert [a.members for a in f.sets] == [(pi,) for pi in stable]

    def test_no_permissible_coalition(self):
        (f,) = Analysis(Game(3, {})).factors
        assert f.graph is None
        assert [a.members for a in f.sets] == [((1, 2, 4),)]

    def test_stability_is_rechecked(self, monkeypatch):
        g = mar(4, 4, 2)
        # a structure the bitsets call stable but the definition does not
        monkeypatch.setattr(absorbing, "is_stable", lambda g, pi: False)
        with pytest.raises(VerificationFailed):
            Analysis(g)


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _full_analysis(g):
    an = Analysis(g)
    for idx, a in enumerate(an.absorbing_sets()):
        if not a.trivial:
            an.ring_components(idx)
    factored_decompositions(an)
    factored_convergence(an)


class TestCounting:
    def test_marriage_grows_no_graph(self, monkeypatch):
        grows = _counting(monkeypatch, absorbing, "_grow")
        grows += _counting(monkeypatch, dynamics, "_grow")
        enumerations = _counting(monkeypatch, absorbing, "_keyed_structures")
        enumerations += _counting(monkeypatch, structures, "_keyed_structures")
        enumerations += _counting(monkeypatch, structures, "enumerate_structures")
        _full_analysis(mar(5, 5, 3))
        assert grows == []
        assert enumerations == []

    def test_unstable_roommates_enumerate_nothing(self, monkeypatch):
        # one growth, of the closure of the P-stable matchings
        g = room(6, no_stable_roommates(6, 1)[0])
        enumerations = _counting(monkeypatch, absorbing, "_keyed_structures")
        enumerations += _counting(monkeypatch, structures, "_keyed_structures")
        enumerations += _counting(monkeypatch, structures, "enumerate_structures")
        grows = _counting(monkeypatch, absorbing, "_grow")
        _full_analysis(g)
        assert enumerations == []
        assert grows == ["_grow"]

    def test_limit_raises_before_any_enumeration(self, monkeypatch):
        # about 2.4e10 matchings of 20 agents who all accept each other
        g = roommate_to_game(random_roommate_spec(20, 1.0, 1))
        calls = _counting(monkeypatch, absorbing, "_keyed_structures")
        calls += _counting(monkeypatch, structures, "_keyed_structures")
        calls += _counting(monkeypatch, structures, "enumerate_structures")
        calls += _counting(monkeypatch, absorbing, "_grow")
        calls += _counting(monkeypatch, dynamics, "_grow")
        with pytest.raises(LimitExceeded, match="^more than 1000000 structures$"):
            Analysis(g)
        assert calls == []

    def test_union_limit_is_the_product_count(self, monkeypatch):
        g = GAMES["marriage3x3-0+roommate5-" + str(no_stable_roommates(5, 1)[0])]()
        count = sum(1 for _ in enumerate_structures(g))
        an = Analysis(g, limit=count)
        assert an.structure_count == count
        assert [f.graph is None for f in an.factors] == [True, False]
        grows = _counting(monkeypatch, absorbing, "_grow")
        with pytest.raises(LimitExceeded, match=f"^more than {count - 1} structures$"):
            Analysis(g, limit=count - 1)
        assert grows == []


class TestLimit:
    @pytest.mark.parametrize("json_form", [False, True])
    def test_limit_one_below_the_count(self, json_form, tmp_path, capsys):
        g = mar(3, 3, 5)
        count = sum(1 for _ in enumerate_structures(g))
        path = tmp_path / "marriage.json"
        path.write_text(json.dumps(random_marriage_spec(3, 3, 0.7, 5).to_dict()))
        args = ["analyze", str(path), "--all", "--limit", str(count)]
        assert main(args + (["--json"] if json_form else [])) == 0
        capsys.readouterr()
        args[-1] = str(count - 1)
        assert main(args + (["--json"] if json_form else [])) == 1
        out = capsys.readouterr().out
        message = f"more than {count - 1} structures"
        if json_form:
            assert out == '{"schema_version": 1, "limit_exceeded": "%s"}\n' % message
        else:
            assert out == f"partial report: limit exceeded ({message})\n"
