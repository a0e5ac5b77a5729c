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
against the enumerate-and-filter it replaced, ``oracle.reference_stable``.

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

import pytest

import stabledec.absorbing as absorbing
import stabledec.dynamics as dynamics
import stabledec.structures as structures
from stabledec import (
    Analysis,
    Game,
    LimitExceeded,
    MarriageSpec,
    TrivialAbsorbingSet,
    VerificationFailed,
    all_stable_decompositions,
    coalition,
    converges_to_stability,
    enumerate_structures,
    factored_convergence,
    factored_decompositions,
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
from games import (
    FUZZ_GAMES,
    PAIR_GAMES,
    TABLE_GAMES,
    build,
    mar,
    no_stable_roommates,
    pair_game,
    room,
    union,
)
from oracle import dropped_pairs, outcome, reference_stable, spy


def stable_matchings(g: Game):
    return absorbing._stable_matchings(g, absorbing._pair_rows(g))


@pytest.mark.parametrize("label", list(PAIR_GAMES))
def test_every_section_matches_full_graph(label):
    b = build(PAIR_GAMES[label]())
    g, an, graph = b.game, b.analysis, b.graph
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


@pytest.mark.parametrize("label", list(PAIR_GAMES))
def test_search_and_count_match_enumeration(label):
    b = build(PAIR_GAMES[label]())
    g = b.game
    # the same structures in the same order, for the game and each factor
    for game in {g, *(f.game for f in b.analysis.factors)}:
        assert stable_matchings(game) == reference_stable(game)
    assert _count_structures(g) == sum(1 for _ in enumerate_structures(g))


@pytest.mark.parametrize("label", list(FUZZ_GAMES))
def test_count_matches_enumeration(label):
    g = FUZZ_GAMES[label]()
    assert _count_structures(g) == sum(1 for _ in enumerate_structures(g))


def test_search_skips_games_with_larger_coalitions():
    g = Game(3, {1: [(1, 2, 3), (1,)], 2: [(1, 2, 3), (2,)], 3: [(1, 2, 3), (3,)]})
    assert absorbing._pair_rows(g) is None


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

    @pytest.mark.parametrize("label", list(TABLE_GAMES) + list(PAIR_GAMES))
    def test_table_is_a_fixpoint(self, label):
        g = (TABLE_GAMES.get(label) or PAIR_GAMES[label])()
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
            [mar(3, 3, 0.7, 0), room(5, 0.7, unstable[0])],
            [room(5, 0.7, unstable[1]), mar(3, 4, 0.7, 1)],
            [mar(3, 3, 0.7, 2), room(6, 0.7, 3), mar(2, 4, 0.7, 4)],
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
        stable = stable_matchings(g)
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
        assert len(PAIR_GAMES) >= 200

    def test_both_routes_taken(self):
        # factors without a graph, and pair-only factors with a closure
        routes = {"pairs": 0, "graph": 0, "pairs-graph": 0}
        for make in PAIR_GAMES.values():
            for f in build(make()).analysis.factors:
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
        g = PAIR_GAMES["marriage3x3-0+roommate5-" + str(no_stable_roommates(5, 1)[0])]()
        an = build(g).analysis
        first, second = an.factors
        assert first.graph is None and second.graph is not None
        ok, witness = factored_convergence(an)
        assert not ok and witness is not None


class TestPairRoute:
    def test_sets_are_the_stable_structures(self):
        g = mar(6, 6, 0.6, 1)
        (f,) = build(g).analysis.factors
        assert f.graph is None
        stable = [pi for pi in enumerate_structures(g) if is_stable(g, pi)]
        assert [a.members for a in f.sets] == [(pi,) for pi in stable]

    def test_no_permissible_coalition(self):
        (f,) = Analysis(Game(3, {})).factors
        assert f.graph is None
        assert [a.members for a in f.sets] == [((1, 2, 4),)]

    def test_stability_is_rechecked(self, monkeypatch):
        g = mar(4, 4, 0.7, 2)
        # a structure the bitsets call stable but the definition does not
        monkeypatch.setattr(absorbing, "is_stable", lambda g, pi: False)
        with pytest.raises(VerificationFailed):
            Analysis(g)


def _spies(monkeypatch, *names):
    """One list of the calls to each named function of the absorbing,
    dynamics and structures modules, by name."""
    calls = []
    for module in (absorbing, dynamics, structures):
        for name in names:
            if hasattr(module, name):
                spy(monkeypatch, calls, module, name)
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
        grows = _spies(monkeypatch, "_grow")
        enumerations = _spies(monkeypatch, "_keyed_structures", "enumerate_structures")
        _full_analysis(mar(5, 5, 0.7, 3))
        assert grows == []
        assert enumerations == []

    def test_unstable_roommates_enumerate_nothing(self, monkeypatch):
        # one growth, of the closure of the P-stable matchings
        g = room(6, 0.7, no_stable_roommates(6, 1)[0])
        enumerations = _spies(monkeypatch, "_keyed_structures", "enumerate_structures")
        grows = spy(monkeypatch, [], absorbing, "_grow")
        _full_analysis(g)
        assert enumerations == []
        assert grows == ["_grow"]

    def test_limit_raises_before_any_enumeration(self, monkeypatch):
        # about 2.4e10 matchings of 20 agents who all accept each other
        g = roommate_to_game(random_roommate_spec(20, 1.0, 1))
        calls = _spies(monkeypatch, "_keyed_structures", "enumerate_structures", "_grow")
        with pytest.raises(LimitExceeded, match="^more than 1000000 structures$"):
            Analysis(g)
        assert calls == []

    def test_union_limit_is_the_product_count(self, monkeypatch):
        g = PAIR_GAMES["marriage3x3-0+roommate5-" + str(no_stable_roommates(5, 1)[0])]()
        count = sum(1 for _ in enumerate_structures(g))
        an = Analysis(g, limit=count)
        assert an.structure_count == count
        assert [f.graph is None for f in an.factors] == [True, False]
        grows = spy(monkeypatch, [], absorbing, "_grow")
        with pytest.raises(LimitExceeded, match=f"^more than {count - 1} structures$"):
            Analysis(g, limit=count - 1)
        assert grows == []


class TestLimit:
    @pytest.mark.parametrize("json_form", [False, True])
    def test_limit_one_below_the_count(self, json_form, tmp_path, capsys):
        g = mar(3, 3, 0.7, 5)
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
