"""Factoring: games analyzed one coalition component at a time.

The gate compares every factored section with the same section read off
the full domination graph (``graph=full_domination_graph(g)``), on disjoint
unions of random, roommate and marriage games.
"""

import random

import pytest

from stabledec import (
    Analysis,
    Game,
    LimitExceeded,
    RoommateSpec,
    StabledecError,
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
    marriage_to_game,
    members,
    random_game,
    random_marriage_spec,
    random_roommate_spec,
    ring_components_of,
    roommate_to_game,
    sink_components,
    structure_key,
)
from conftest import C


def union(*games: Game, isolated: int = 0) -> Game:
    """The games side by side on consecutive agent ids, followed by
    ``isolated`` agents that rank only their singleton."""
    rows = {}
    offset = 0
    for game in games:
        for i, ranking in enumerate(game.rankings, 1):
            rows[i + offset] = [c << offset for c in ranking]
        offset += game.n
    return Game(offset + isolated, rows)


def relabel(g: Game, seed: int) -> Game:
    """The game with its agents renumbered by a seeded permutation, so that
    components interleave in agent order."""
    perm = list(range(1, g.n + 1))
    random.Random(seed).shuffle(perm)

    def move(c):
        return coalition(perm[i - 1] for i in members(c))

    rows = {perm[i - 1]: [move(c) for c in g.rankings[i - 1]] for i in range(1, g.n + 1)}
    return Game(g.n, rows)


def rnd(n, density, seed):
    return random_game(n, density, seed)


def room(n, density, seed):
    return roommate_to_game(random_roommate_spec(n, density, seed))


def mar(seed, density=0.7):
    return marriage_to_game(random_marriage_spec(3, 3, density, seed))


# agents 1-3 chase each other through pairs: four structures, one
# non-trivial absorbing set of three
TRIANGLE = roommate_to_game(RoommateSpec(3, {1: [2, 3], 2: [3, 1], 3: [1, 2]}))
assert len(sink_components(full_domination_graph(TRIANGLE))[0]) == 3

# the seven-agent game of the README's command line example
SEVEN = Game(
    7,
    {i: [C(t) for t in row.split()] for i, row in enumerate(
        ["12 123 15 1", "23 123 12 2", "34 123 23 3", "467 45 34 4", "15 45 5", "67 467 6",
         "467 67 7"], 1)},
)

UNIONS = {
    "roommate-marriage-random+1": union(room(6, 0.6, 3), mar(7), rnd(5, 0.5, 13), isolated=1),
    "two-rings": union(room(5, 0.7, 6), room(5, 0.7, 13)),
    "random-roommate-marriage+2": union(rnd(4, 0.6, 0), room(6, 0.6, 12), mar(16), isolated=2),
    "three-triangles+1": union(TRIANGLE, TRIANGLE, TRIANGLE, isolated=1),
    "triangle-random-roommate": union(TRIANGLE, rnd(5, 0.5, 19), room(5, 0.7, 21)),
    "marriage-marriage": union(mar(18), mar(31)),
    "random-random+1": union(rnd(5, 0.5, 22), rnd(4, 0.6, 33), isolated=1),
    "roommate-triangle-marriage": union(room(6, 0.6, 16), TRIANGLE, mar(7)),
    # an absorbing set whose members sort differently by raw masks
    "triangle-random": union(TRIANGLE, rnd(5, 0.5, 111)),
    # an earlier factor that fails to converge with a witness that is not
    # all singletons, a later one whose witness is
    "seven-triangle": union(SEVEN, TRIANGLE),
}
# the same unions with interleaved components
for name in list(UNIONS):
    UNIONS[f"{name}-relabelled"] = relabel(UNIONS[name], len(name))
# interleaved so that the absorbing sets' order is not the order of their
# factor sets
UNIONS["marriage-marriage-interleaved"] = relabel(UNIONS["marriage-marriage"], 4)
# seeded unions of two or three random (n <= 5), roommate (n <= 6) and
# marriage 3x3 games, sometimes with isolated agents
for s in range(12):
    pieces = [rnd(4 + s % 2, 0.6, 100 + s), room(4 + s % 3, 0.6, 100 + s)]
    if s % 3:
        pieces.append(mar(100 + s, 0.6))
    UNIONS[f"seeded-{s}"] = union(*pieces, isolated=s % 2)


# UNIONS with several components, and unions shaped like the split-markets
# benchmark games: random, roommate and 3x3 marriage games of six agents each
SUB_GAME_CASES = {name: g for name, g in UNIONS.items() if len(coalition_components(g)) >= 2}
for s in range(1, 13):
    SUB_GAME_CASES[f"split-{s}"] = union(rnd(6, 0.6, s), room(6, 0.6, s), mar(s, 0.6))


def outcome(fn):
    """The result of ``fn()``, or the library error it raises."""
    try:
        return fn()
    except StabledecError as exc:
        return type(exc).__name__, str(exc)


@pytest.fixture(scope="module", params=sorted(UNIONS), ids=sorted(UNIONS))
def case(request):
    g = UNIONS[request.param]
    return g, Analysis(g), full_domination_graph(g)


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
            assert outcome(lambda: an.ring_components(idx)) == outcome(
                lambda: ring_components_of(g, a, graph)
            )

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
        counts = [len(factor_games(g)) for g in UNIONS.values()]
        assert sum(c >= 2 for c in counts) >= len(counts) - 2
        assert sum(c >= 3 for c in counts) >= 5

    def test_isolated_agents_and_three_components(self):
        g = UNIONS["three-triangles+1"]
        assert len(factor_games(g)) == 3
        assert not any(c >> 9 & 1 for c in g.permissible)

    def test_product_set_with_rings_from_two_factors(self):
        an = Analysis(UNIONS["two-rings"])
        (a,) = an.absorbing_sets()
        first, second = an.factor_sets(0)
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
        g = union(mar(7), TRIANGLE)
        ok, witness = converges_to_stability(g)
        assert not ok
        assert all(p.bit_count() == 1 or p >> 6 for p in witness)
        assert (ok, witness) == converges_to_stability(g, graph=full_domination_graph(g))

    def test_sets_ordered_across_factors(self):
        an = Analysis(UNIONS["marriage-marriage-interleaved"])
        firsts, seconds = (f.sets for f in an.factors)
        combos = [
            (firsts.index(a), seconds.index(b))
            for a, b in (an.factor_sets(i) for i in range(len(an.absorbing_sets())))
        ]
        assert sorted(combos) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert combos != sorted(combos)

    def test_members_ordered_by_structure_key(self):
        sets = Analysis(UNIONS["triangle-random"]).absorbing_sets()
        assert any(list(a.members) != sorted(a.members) for a in sets)

    def test_least_witness_comes_from_a_later_factor(self):
        an = Analysis(UNIONS["seven-triangle"])
        first, second = (converges_to_stability(f.game, graph=f.graph) for f in an.factors)
        assert not first[0] and not second[0]
        assert factored_convergence(an) == second
        assert structure_key(second[1]) < structure_key(first[1])

    def test_verdicts_vary(self):
        verdicts = {factored_convergence(Analysis(g))[0] for g in UNIONS.values()}
        assert verdicts == {True, False}


class TestFactors:
    @pytest.mark.parametrize("fixture", ["g6", "g7", "g8", "rm10", "mar33"])
    def test_single_component_game_is_its_own_factor(self, fixture, request):
        g = request.getfixturevalue(fixture)
        (only,) = factor_games(g)
        assert only is g
        (factor,) = Analysis(g).factors
        assert factor.game is g

    def test_no_coalition_no_component(self):
        g = Game(3, {})
        assert coalition_components(g) == []
        assert factor_games(g) == [g]
        assert Analysis(g).structure_count == 1

    def test_components(self):
        g = UNIONS["three-triangles+1"]
        assert coalition_components(g) == [C("123"), C("456"), C("789")]

    def test_sub_games_keep_agents_and_masks(self):
        g = UNIONS["roommate-marriage-random+1"]
        subs = factor_games(g)
        comps = coalition_components(g)
        assert [sub.n for sub in subs] == [g.n] * len(comps)
        for sub, comp in zip(subs, comps):
            assert sub.permissible == tuple(c for c in g.permissible if not c & ~comp)
            for i in range(1, g.n + 1):
                expected = g.rankings[i - 1] if comp >> (i - 1) & 1 else (1 << (i - 1),)
                assert sub.rankings[i - 1] == expected
        # every structure is one per factor, merged
        count = 1
        for sub in subs:
            count *= sum(1 for _ in enumerate_structures(sub))
        assert count == sum(1 for _ in enumerate_structures(g))

    @pytest.mark.parametrize("name", sorted(SUB_GAME_CASES))
    def test_sub_games_equal_games_built_anew(self, name):
        # built from the parent's tables, each sub-game has the tables a
        # validated Game of the component's rankings has
        g = SUB_GAME_CASES[name]
        subs = factor_games(g)
        assert len(subs) >= 2
        for sub, comp in zip(subs, coalition_components(g)):
            fresh = Game(g.n, {i: g.rankings[i - 1] for i in members(comp)})
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
