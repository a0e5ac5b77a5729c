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

Both pair searches branch only on the pairs left in the phase-1 table
(``absorbing._phase_one``, Irving 1985): each agent proposes to the first
partner left in their row, and the receiver drops every pair they rank
below that proposer, until nothing changes. Lemma 1: a dropped pair is
adjacent in no stable partition, hence in no stable matching; take the
first dropped pair ``{y, z}`` adjacent in a stable partition, dropped
because ``x`` proposed to ``y``: if ``y`` follows ``x`` T1 fails at ``y``,
if ``y`` precedes ``x`` T1 fails at ``x``, and otherwise ``{x, y}``
violates T2. Lemma 2: an agent whose row is not empty is matched in every
stable matching, since the first partner of each such agent is matched
(or ``{agent, first partner}`` would block) and first partners are a
bijection on those agents. The full proofs are in the ``absorbing``
module docstring. ``TestPhaseOneTable`` checks both lemmas against
enumeration and ``reference_stable`` (marriage games with unequal sides,
roommate games of at most 10 agents, pair-only games listing unacceptable
pairs), that the table is a fixpoint and never touches agents outside the
factor, and that the cyclic k x k markets have exactly k stable matchings;
``test_p_stable.py`` checks Lemma 1 against its brute force over stable
partitions.
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
    MarriageSpec,
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
    members,
    random_marriage_spec,
    random_roommate_spec,
    ring_components_of,
    roommate_to_game,
    sink_components,
)
from stabledec.absorbing import factor_games
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


def dropped_pairs(g: Game) -> set[int]:
    """The permissible pairs that the phase-1 table drops."""
    table = absorbing._pair_rows(g).table
    return {c for c in g.permissible if c.bit_length() not in table[(c & -c).bit_length()]}


def partner_rows(g: Game) -> list[list[int]]:
    """Each agent's permissible partners, best first, read off the
    rankings: the rows before phase 1."""
    rows: list[list[int]] = [[] for _ in range(g.n + 1)]
    for c in g.permissible:
        i, j = members(c)
        rows[i].append(j)
        rows[j].append(i)
    for i in range(1, g.n + 1):
        rows[i].sort(key=lambda j: g.rankings[i - 1].index(coalition((i, j))))
    return rows


def cyclic_market(k: int) -> Game:
    """The complete k x k marriage market whose preferences turn round a
    cycle: man ``i`` ranks women ``i, i+1, ...`` and woman ``j`` ranks men
    ``j+1, j+2, ..., j``, indices mod k. Each matching of man ``i`` to
    woman ``i+s`` is stable."""
    prefs = {i: [k + 1 + (i - 1 + t) % k for t in range(k)] for i in range(1, k + 1)}
    prefs.update({k + j: [1 + (j + t) % k for t in range(k)] for j in range(1, k + 1)})
    return marriage_to_game(MarriageSpec(k, k, prefs))


# label -> make: games, most with stable matchings and agents the table leaves
# unmatched, for the two lemmas of the phase-1 table (``absorbing._phase_one``)
TABLE_GAMES = {}
for (m, w) in ((2, 5), (3, 5), (5, 3), (4, 6), (6, 4)):
    for d in (0.7, 0.9):
        for s in range(1, 7):
            TABLE_GAMES[f"marriage{m}x{w}-{d}-{s}"] = lambda m=m, w=w, d=d, s=s: mar(m, w, s, d)
for n in range(4, 11):
    for s in range(1, 9 if n < 10 else 5):
        TABLE_GAMES[f"roommate{n}-{s}"] = lambda n=n, s=s: room(n, s)
for n in (4, 5, 6, 7):
    for s in range(1, 9):
        TABLE_GAMES[f"pairs{n}-{s}"] = lambda n=n, s=s: pair_game(n, s)


class TestPhaseOneTable:
    """The phase-1 table that both pair searches branch on: a dropped pair
    is in no stable matching (Lemma 1), and an agent whose row is not empty
    is matched in every stable matching (Lemma 2)."""

    @pytest.mark.parametrize("label", list(TABLE_GAMES))
    def test_stable_matchings_keep_to_the_table(self, label):
        g = TABLE_GAMES[label]()
        table = absorbing._pair_rows(g).table
        dropped = dropped_pairs(g)
        kept = {i for i in range(1, g.n + 1) if table[i]}
        for pi in reference_stable(g):
            assert not dropped.intersection(pi)
            assert {i for p in pi if p.bit_count() == 2 for i in members(p)} == kept

    @pytest.mark.parametrize("label", list(TABLE_GAMES) + list(GAMES))
    def test_table_is_a_fixpoint(self, label):
        g = (TABLE_GAMES.get(label) or GAMES[label])()
        rows = absorbing._pair_rows(g)
        table = rows.table
        again = [list(row) for row in table]
        absorbing._phase_one(again, rows.agents)
        assert again == table
        full = partner_rows(g)
        for i in range(1, g.n + 1):
            # rows keep their order and stay symmetric
            assert table[i] == [j for j in full[i] if j in table[i]]
            assert all(i in table[j] for j in table[i])
            # the first partner of each agent ranks them last
            if table[i]:
                assert table[table[i][0]][-1] == i
        # so first partners are a bijection on the agents with a row
        firsts = [row[0] for row in table if row]
        assert sorted(firsts) == [i for i in range(1, g.n + 1) if table[i]]

    def test_table_never_touches_agents_outside_the_factor(self):
        unstable = no_stable_roommates(5, 2)
        for markets in (
            [mar(3, 3, 0), room(5, unstable[0])],
            [room(5, unstable[1]), mar(3, 4, 1)],
            [mar(3, 3, 2), room(6, 3), mar(2, 4, 4)],
        ):
            g = union(*markets)
            # each market's table taken alone, on the union's agent ids
            want: list[list[int]] = [[]]
            for market in markets:
                offset = len(want) - 1
                table = absorbing._pair_rows(market).table
                want += [[j + offset for j in row] for row in table[1:]]
            for f in factor_games(g):
                rows = absorbing._pair_rows(f)
                agents = 0
                for c in f.permissible:
                    agents |= c
                assert rows.agents == agents
                for i in range(1, g.n + 1):
                    if agents >> (i - 1) & 1:
                        assert rows.table[i] == want[i]
                    else:
                        assert rows.table[i] == [] and rows.envy[i] == {}
                        assert rows.holding[i] == 0
        # an agent who lists a pair their partner does not accept holds no
        # permissible pair, and gets no row
        g = Game(3, {1: [(1, 2), (1,)], 2: [(2,), (1, 2)], 3: [(3,)]})
        rows = absorbing._pair_rows(g)
        assert rows.agents == 0 and rows.table == [[], [], [], []]
        assert absorbing._stable_matchings(g, rows) == [(1, 2, 4)]

    @pytest.mark.parametrize("k", [4, 5, 6, 7])
    def test_cyclic_markets(self, k):
        g = cyclic_market(k)
        stable = absorbing._stable_matchings(g)
        assert len(stable) == k
        assert stable == reference_stable(g)
        # every pair of the market lies on one of the k stable matchings,
        # so the table drops none and the search still branches
        assert not dropped_pairs(g)

    def test_coverage(self):
        dropping = emptied = 0
        for make in TABLE_GAMES.values():
            g = make()
            rows = absorbing._pair_rows(g)
            dropping += bool(dropped_pairs(g))
            emptied += any(rows.holding[i] and not rows.table[i] for i in range(1, g.n + 1))
        assert len(TABLE_GAMES) >= 140
        assert dropping >= 110
        assert emptied >= 80


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
