"""Factoring: games analyzed one coalition component at a time.

The gate compares every factored section with the same section read off
the full domination graph (``graph=full_domination_graph(g)``), on disjoint
unions of random, roommate and marriage games.
"""

import pytest

from stabledec import (
    Analysis,
    Game,
    LimitExceeded,
    TrivialAbsorbingSet,
    absorbing_sets,
    all_stable_decompositions,
    coalition,
    coalition_components,
    converges_to_stability,
    enumerate_structures,
    factor_games,
    factored_convergence,
    factored_decompositions,
    full_domination_graph,
    members,
    ring_components_of,
    sink_components,
    structure_from_parts,
    structure_key,
)
from stabledec import absorbing
from stabledec.absorbing import _factored
from games import (
    FUZZ_GAMES,
    ONE_COMPONENT,
    PAIR_GAMES,
    TRIANGLE,
    UNIONS,
    C,
    build,
    mar,
    split_market,
    union,
)
from oracle import outcome, spy

# UNIONS with several components, and unions shaped like the split-markets
# benchmark games: random, roommate and 3x3 marriage games of six agents each
SUB_GAME_CASES = {name: g for name, g in UNIONS.items() if len(coalition_components(g)) >= 2}
for s in range(1, 13):
    SUB_GAME_CASES[f"split-{s}"] = split_market(s)


def _lifted(g, lift, pi):
    # a factor's structure in the whole game's masks, every other agent single
    parts = [lift[p] for p in pi if p.bit_count() >= 2]
    placed = sum(parts)
    return structure_from_parts(g, parts + [1 << b for b in range(g.n) if not placed >> b & 1])


@pytest.fixture(scope="module", params=sorted(UNIONS), ids=sorted(UNIONS))
def case(request):
    b = build(UNIONS[request.param])
    return b.game, b.analysis, b.graph


class TestFactoredMatchesFullGraph:
    def test_structure_count(self, case):
        g, an, graph = case
        assert an.structure_count == len(graph)

    def test_absorbing_sets(self, case):
        g, an, graph = case
        sinks = sink_components(graph)
        # same members in the same order, and the sets in the same order
        assert an.absorbing_sets() == sinks
        assert absorbing_sets(g) == sinks

    def test_ring_components(self, case):
        g, an, graph = case
        for idx, a in enumerate(sink_components(graph)):
            if a.trivial:
                with pytest.raises(TrivialAbsorbingSet):
                    an.ring_components(idx)
                continue
            got = outcome(lambda: an.ring_components(idx))
            want = outcome(lambda: ring_components_of(g, a, graph))
            assert got == want
            # equality leaves the breakers out: compare them too
            if isinstance(want, list):
                assert [rc.breakers for rc in got] == [rc.breakers for rc in want]

    def test_decompositions(self, case):
        g, an, graph = case
        expected = outcome(lambda: all_stable_decompositions(g, graph=graph))
        assert outcome(lambda: factored_decompositions(an)) == expected
        assert outcome(lambda: all_stable_decompositions(g)) == expected

    def test_convergence_verdict_and_witness(self, case):
        g, an, graph = case
        expected = converges_to_stability(g, graph=graph)
        assert factored_convergence(an) == expected
        assert converges_to_stability(g) == expected


class TestGateCoverage:
    """The unions above exercise every product rule."""

    def test_most_unions_have_several_factors(self):
        counts = [len(factor_games(g)) for name, g in UNIONS.items() if name not in ONE_COMPONENT]
        assert sum(c >= 2 for c in counts) >= len(counts) - 2
        assert sum(c >= 3 for c in counts) >= 5

    @pytest.mark.parametrize("name", sorted(ONE_COMPONENT))
    def test_unlinked_agents_first_and_in_between(self, name):
        # one renumbered factor of the linked agents; agent 1 is in no
        # coalition, and neither is an agent between two linked ones (the
        # linked agents are not one run of ids)
        g = ONE_COMPONENT[name]
        (comp,) = coalition_components(g)
        assert not comp & 1
        assert (comp + (comp & -comp)) & comp
        ((sub, lift),) = _factored(g)
        assert sub.n == len(members(comp)) and lift is not None

    def test_isolated_agents_and_three_components(self):
        g = UNIONS["three-triangles+1"]
        assert len(factor_games(g)) == 3
        # the triangle alone: four structures, one non-trivial absorbing set of three
        assert len(sink_components(full_domination_graph(TRIANGLE))[0]) == 3
        assert not any(c >> 9 & 1 for c in g.permissible)

    def test_product_set_with_rings_from_two_factors(self):
        an = build(UNIONS["two-rings"]).analysis
        (a,) = an.absorbing_sets()
        first, second = (f.sets[k] for f, k in zip(an.factors, an.factor_sets(0)))
        assert not first.trivial and not second.trivial
        assert len(a) == len(first) * len(second)
        owners = {
            fi
            for rc in an.ring_components(0)
            for fi, comp in enumerate(coalition_components(an.game))
            if rc.coalitions[0] & comp
        }
        assert owners == {0, 1}

    def test_witness_from_a_later_factor(self):
        # only the last factor fails to converge, so the witness has
        # non-single parts there and nowhere else
        g = union(mar(3, 3, 0.7, 7), TRIANGLE)
        ok, witness = converges_to_stability(g)
        assert not ok
        assert all(p.bit_count() == 1 or p >> 6 for p in witness)
        assert (ok, witness) == converges_to_stability(g, graph=full_domination_graph(g))

    def test_sets_ordered_across_factors(self):
        an = build(UNIONS["marriage-marriage-interleaved"]).analysis
        combos = [an.factor_sets(i) for i in range(len(an.absorbing_sets()))]
        assert sorted(combos) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert combos != sorted(combos)

    def test_members_ordered_by_structure_key(self):
        sets = build(UNIONS["triangle-random"]).analysis.absorbing_sets()
        assert any(list(a.members) != sorted(a.members) for a in sets)

    def test_least_witness_comes_from_a_later_factor(self):
        an = build(UNIONS["seven-triangle"]).analysis
        first, second = (converges_to_stability(f.game, graph=f.graph) for f in an.factors)
        assert not first[0] and not second[0]
        # each factor's witness in the whole game's masks, through its table
        first, second = (
            (ok, _lifted(an.game, lift, witness))
            for (ok, witness), lift in zip((first, second), an.lifts)
        )
        assert factored_convergence(an) == second
        assert structure_key(second[1]) < structure_key(first[1])

    def test_verdicts_vary(self):
        verdicts = {factored_convergence(build(g).analysis)[0] for g in UNIONS.values()}
        assert verdicts == {True, False}


class TestFactors:
    @pytest.mark.parametrize("fixture", ["g6", "g7", "g8", "mar33"])
    def test_single_component_game_is_its_own_factor(self, fixture, request):
        g = request.getfixturevalue(fixture)
        (only,) = factor_games(g)
        assert only is g
        (factor,) = Analysis(g).factors
        assert factor.game is g

    def test_unlinked_agent_leaves_one_renumbered_factor(self, rm10):
        # agent 10 accepts nobody: one component of agents 1-9, and a
        # factor game on those nine, not the game itself
        assert coalition_components(rm10) == [(1 << 9) - 1]
        ((sub, lift),) = _factored(rm10)
        assert sub is not rm10 and sub.n == 9
        assert [lift[1 << b] for b in range(9)] == [1 << b for b in range(9)]
        assert tuple(lift[c] for c in sub.permissible) == rm10.permissible
        (factor,) = Analysis(rm10).factors
        assert factor.game.rankings == sub.rankings

    def test_routes_see_only_linked_agents(self, monkeypatch, rm10):
        # the count and every route receive only games whose every agent
        # is in a permissible coalition: agents in none are set single
        # where the factor results are joined, never inside a factor
        seen = []
        for name in ("_count_structures", "_factor"):
            spy(monkeypatch, seen, absorbing, name, lambda g, limit: g)
        games = [
            *UNIONS.values(),
            *(make() for make in FUZZ_GAMES.values()),
            *(make() for make in PAIR_GAMES.values()),
            rm10,
            Game(1, {}),
            Game(3, {}),
        ]
        for g in games:
            Analysis(g)
        # a count and a route per factor; the two empty games have none
        assert len(seen) >= 2 * (len(games) - 2)
        for g in seen:
            linked = 0
            for c in g.permissible:
                linked |= c
            assert linked == (1 << g.n) - 1

    def test_no_coalition_no_component(self):
        g = Game(3, {})
        assert coalition_components(g) == []
        assert factor_games(g) == []
        assert Analysis(g).structure_count == 1

    def test_components(self):
        g = UNIONS["three-triangles+1"]
        assert coalition_components(g) == [C("123"), C("456"), C("789")]

    def test_sub_games_on_their_own_agents(self):
        g = UNIONS["roommate-marriage-random+1"]
        factored = _factored(g)
        comps = coalition_components(g)
        assert [sub.n for sub, _ in factored] == [len(members(m)) for m in comps]
        for (sub, lift), comp in zip(factored, comps):
            # local agent k is the component's k-th agent in id order
            assert [lift[1 << b] for b in range(sub.n)] == [1 << (i - 1) for i in members(comp)]
            # through the table, K is the part of the game's K inside the
            # component, in order, and each member ranks its K-coalitions
            # and their singleton in their own order
            assert tuple(lift[c] for c in sub.permissible) == tuple(
                c for c in g.permissible if not c & ~comp
            )
            for k, i in enumerate(members(comp)):
                expected = tuple(c for c in g.rankings[i - 1] if c in g._kset or c == 1 << (i - 1))
                assert tuple(lift[c] for c in sub.rankings[k]) == expected
        assert [sub for sub, _ in factored] == factor_games(g)
        # every structure is one per factor, merged
        count = 1
        for sub, _ in factored:
            count *= sum(1 for _ in enumerate_structures(sub))
        assert count == sum(1 for _ in enumerate_structures(g))

    @pytest.mark.parametrize("name", sorted(SUB_GAME_CASES))
    def test_sub_games_equal_games_built_anew(self, name):
        # built from the parent's tables, each sub-game has the tables a
        # validated Game of the component's renumbered rankings has, and its
        # table maps each renumbered mask back
        g = SUB_GAME_CASES[name]
        factored = _factored(g)
        assert len(factored) >= 2
        for (sub, lift), comp in zip(factored, coalition_components(g)):
            agents = members(comp)

            def local(c):
                return coalition(agents.index(a) + 1 for a in members(c))

            kept = [c for c in g.permissible if not c & ~comp]
            kept += [1 << (i - 1) for i in agents]
            assert lift == {local(c): c for c in kept}
            fresh = Game(len(agents), {
                k: [local(c) for c in g.rankings[i - 1] if c in g._kset or c == 1 << (i - 1)]
                for k, i in enumerate(agents, 1)
            })
            assert sub.n == fresh.n
            assert sub.rankings == fresh.rankings
            assert sub._pos == fresh._pos
            assert sub.permissible == fresh.permissible
            assert sub._kset == fresh._kset
            assert sub.expansion() == fresh.expansion()

    def test_agent_sets_partition_the_linked_agents(self):
        g = UNIONS["random-roommate-marriage+2"]
        comps = coalition_components(g)
        linked = 0
        for c in g.permissible:
            linked |= c
            assert sum(1 for m in comps if m & c) == 1
        assert sum(len(members(m)) for m in comps) == len(members(linked))


class TestLimit:
    def test_product_above_limit(self):
        g = UNIONS["three-triangles+1"]
        assert Analysis(g, limit=64).structure_count == 64
        with pytest.raises(LimitExceeded, match=r"^more than 63 structures$"):
            Analysis(g, limit=63)

    def test_factor_above_limit(self):
        g = UNIONS["three-triangles+1"]
        with pytest.raises(LimitExceeded, match=r"^more than 3 structures$"):
            Analysis(g, limit=3)
