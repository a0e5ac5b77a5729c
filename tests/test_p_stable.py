"""Pair-only factors without a stable matching: absorbing sets from the
closure of the P-stable matchings.

``Analysis`` grows such a factor's graph from its P-stable matchings, read
off its stable partitions (Tan 1991), instead of from every structure. The
gate checks

- the pruned partition search (``_stable_partitions``) against a brute
  force over all permutations that tests T1 and T2 by the definition, on
  games of at most 7 agents;
- the P-stable matchings of hand-made partitions;
- the closure route against the full-graph route, the one the analysis
  took before (``oracle.full_route``): absorbing sets with their members
  in order, the convergence verdict against ``converges_to_stability`` on
  the full graph, and the bytes of ``analyze --all --json``, which hold the
  ring components and the decompositions. It runs on every pair-only factor
  without a stable matching of the other test modules' games and of unions
  of a marriage market with a sparse roommate game, and on a seeded slice:
  roommate games of 6 to 9 agents and pair-only factors of ``random_game``.

``sweep_closure_route.py`` in this directory runs the same comparison over
more than a thousand seeded games; see its docstring.
"""

import pytest

import stabledec.absorbing as absorbing
from stabledec import (
    Analysis,
    Game,
    coalition,
    converges_to_stability,
    factored_convergence,
    grow_graph,
    structure_from_parts,
    structure_key,
)
from stabledec.absorbing import factor_games
from games import (
    FUZZ_GAMES,
    PAIR_GAMES,
    ROUTE_GAMES,
    SMALL_GAMES,
    TRIANGLE,
    UNIONS,
    build,
    mar,
    rnd,
    room,
    union,
)
from oracle import assert_routes_agree, brute_partitions, dropped_pairs, is_closure_factor


def partitions(g: Game):
    return absorbing._stable_partitions(g, absorbing._pair_rows(g))


@pytest.mark.parametrize("label", list(SMALL_GAMES))
def test_partition_search_matches_brute_force(label):
    g = SMALL_GAMES[label]()
    assert sorted(partitions(g)) == brute_partitions(g)


@pytest.mark.parametrize("label", list(SMALL_GAMES))
def test_table_drops_no_pair_of_a_stable_partition(label):
    # Lemma 1 of the phase-1 table (``absorbing._phase_one``), against the
    # brute force
    g = SMALL_GAMES[label]()
    dropped = dropped_pairs(g)
    for partition in brute_partitions(g):
        for cyc in partition:
            if len(cyc) > 1:
                assert not dropped & {coalition((a, b)) for a, b in zip(cyc, cyc[1:] + cyc[:1])}


@pytest.mark.parametrize("label", list(SMALL_GAMES))
def test_single_exactly_when_the_row_is_empty(label):
    # Lemma 2 carried over to stable partitions (``absorbing`` module
    # docstring), against the brute force: an agent with a non-empty row in
    # the phase-1 table is on a cycle of length 2 or more, and one with an
    # empty row is single
    g = SMALL_GAMES[label]()
    table = absorbing._pair_rows(g).table
    empty = {i for i in range(1, g.n + 1) if not table[i]}
    for partition in brute_partitions(g):
        assert {cyc[0] for cyc in partition if len(cyc) == 1} == empty


def test_table_drops_pairs_of_small_games():
    # the lemma above is tested on games where the table drops pairs, with
    # and without a stable matching
    dropping = [label for label, make in SMALL_GAMES.items() if dropped_pairs(make())]
    assert len(dropping) >= 60
    assert sum(label.endswith("-unstable") or label == "triangle" for label in dropping) >= 5


def test_partition_search_covers_odd_cycles():
    # the gate above holds games with and without odd cycles
    odd = [
        label
        for label, make in SMALL_GAMES.items()
        if any(len(c) % 2 for p in partitions(make()) for c in p if len(c) > 1)
    ]
    assert len(odd) >= 10
    assert len(odd) < len(SMALL_GAMES) - 10


def p_stable_seeds(g: Game, partitions):
    # the P-stable matchings as grow_graph seeds them: canonical, distinct
    # and sorted
    found = absorbing._p_stable_matchings(partitions)
    return sorted({structure_from_parts(g, m) for m in found}, key=structure_key)


class TestPStableMatchings:
    # every pair of 5 agents accepted by both
    FULL5 = Game(5, {i: [coalition((i, j)) for j in range(1, 6) if j != i] + [1 << (i - 1)]
                     for i in range(1, 6)})

    def matchings(self, partition):
        return p_stable_seeds(self.FULL5, [partition])

    def test_even_cycle_gives_its_two_alternating_matchings(self):
        got = self.matchings(((1, 2, 3, 4), (5,)))
        assert got == [
            (coalition((1, 2)), coalition((3, 4)), coalition((5,))),
            (coalition((1, 4)), coalition((2, 3)), coalition((5,))),
        ]

    def test_odd_cycle_leaves_each_agent_single_once(self):
        got = self.matchings(((1, 3, 5, 2, 4),))
        assert len(got) == 5
        singles = sorted(p for pi in got for p in pi if p.bit_count() == 1)
        assert singles == [1 << b for b in range(5)]
        # consecutive agents along the cycle are paired
        steps = {coalition(pair) for pair in ((1, 3), (3, 5), (5, 2), (2, 4), (4, 1))}
        assert all(p in steps for pi in got for p in pi if p.bit_count() == 2)

    def test_pairs_and_singles_kept(self):
        assert self.matchings(((1, 2), (3, 4), (5,))) == [
            (coalition((1, 2)), coalition((3, 4)), coalition((5,)))
        ]

    def test_duplicates_seeded_once(self):
        # the 2-cycles give one of the 4-cycle's matchings again
        found = list(
            absorbing._p_stable_matchings([((1, 2, 3, 4), (5,)), ((1, 2), (3, 4), (5,))])
        )
        assert len(found) == 3
        G = grow_graph(self.FULL5, found)
        assert [G.nodes[v] for v in G.seeds] == self.matchings(((1, 2, 3, 4), (5,)))

    def test_triangle_seeds_its_absorbing_set(self):
        (f,) = Analysis(TRIANGLE).factors
        assert p_stable_seeds(TRIANGLE, partitions(TRIANGLE)) == list(f.sets[0].members)
        assert len(f.graph) == 3


# unions of a 3x3 marriage market and random_roommate_spec(n, 0.5, seed),
# both of the seed: the first seeds of each size whose roommate factor is a
# closure factor that the other sources of TEST_FACTORS lack. A factor game
# is on its own agents, so a union and its relabelling give one factor
SPARSE_ROOMMATE_SEEDS = {
    5: (6, 71, 83, 87, 94, 96, 103),
    6: (3, 15, 19, 22, 29, 34, 40),
    7: (11, 13, 14, 32, 49, 60, 71),
    8: (1, 32, 33, 34, 43, 44, 57),
}


def _closure_factors() -> dict[str, Game]:
    # label -> distinct pair-only factor without a stable matching, of the
    # games of the other test modules and of the sparse roommate unions
    sparse = {
        f"sparse{n}-{s}": (lambda n=n, s=s: union(mar(3, 3, 0.7, s), room(n, 0.5, s)))
        for n, seeds in SPARSE_ROOMMATE_SEEDS.items()
        for s in seeds
    }
    sources = [
        PAIR_GAMES, FUZZ_GAMES, ROUTE_GAMES, {k: (lambda g=g: g) for k, g in UNIONS.items()}, sparse
    ]
    out: dict[str, Game] = {}
    seen = set()
    for source in sources:
        for label, make in source.items():
            for k, f in enumerate(factor_games(make())):
                if f.rankings not in seen and is_closure_factor(f):
                    seen.add(f.rankings)
                    out[f"{label}/{k}"] = f
    return out


TEST_FACTORS = _closure_factors()

# pair-only factors without a stable matching of random_game(n, density,
# seed): the first seeds that have one, found by a scan over seeds 1-20000
RANDOM_PAIR_SEEDS = {
    (4, 0.3): (1900, 2222, 2457, 4164, 7604, 8490),
    (5, 0.3): (712, 987, 1404, 1545, 2225, 3129),
    (6, 0.2): (6641, 12916, 14799),
}


# roommate games random_roommate_spec(n, 0.7, seed) with no stable matching:
# the first seeds of each size that have none, listed rather than scanned
# for, so that a pair route that misclassifies fails the tests below instead
# of scanning without end at collection
ROOMMATE_SEEDS = {
    6: (9, 33, 41, 77, 82, 91, 97, 109, 128, 133, 155, 157),
    7: (18, 19, 24, 48, 50, 51, 59, 66, 70, 77),
    8: (3, 5, 24, 27, 47, 52),
    9: (2, 3, 5, 6),
}


def _slice() -> dict[str, Game]:
    out = {}
    for n, seeds in ROOMMATE_SEEDS.items():
        for s in seeds:
            out[f"roommate{n}-{s}"] = room(n, 0.7, s)
    for (n, d), seeds in RANDOM_PAIR_SEEDS.items():
        for s in seeds:
            for k, f in enumerate(factor_games(rnd(n, d, s))):
                if is_closure_factor(f):
                    out[f"random{n}-{d}-{s}/{k}"] = f
    return out


SLICE = _slice()


@pytest.mark.parametrize("label", list(TEST_FACTORS))
def test_test_factors_agree_with_full_graph(label):
    g = TEST_FACTORS[label]
    assert_routes_agree(g, build(g).analysis)


@pytest.mark.parametrize("label", list(SLICE))
def test_seeded_slice_agrees_with_full_graph(label):
    g = SLICE[label]
    assert_routes_agree(g, build(g).analysis)


class TestGateCoverage:
    @pytest.mark.parametrize("n", list(ROOMMATE_SEEDS))
    def test_roommate_seeds_have_no_stable_matching(self, n):
        # each listed seed is a closure factor, and no seed below the last
        # listed one is left out
        seeds = ROOMMATE_SEEDS[n]
        found = [s for s in range(1, seeds[-1] + 1) if is_closure_factor(room(n, 0.7, s))]
        assert found == list(seeds)

    def test_enough_factors(self):
        assert len(TEST_FACTORS) >= 80
        assert sum(label.startswith("random") for label in SLICE) == sum(
            map(len, RANDOM_PAIR_SEEDS.values())
        )
        assert len(SLICE) >= 45

    def test_odd_cycles_of_every_length(self):
        lengths = {
            len(c)
            for g in SLICE.values()
            for p in partitions(g)
            for c in p
        }
        assert {1, 2, 3, 5} <= lengths


@pytest.mark.parametrize("label", ["triangle", "roommate9-11", "roommate9-42"])
def test_convergence_witness_is_the_least_structure(label):
    # decided without the closure, which lacks the all-singletons
    # structure: every seed holds a pair, and every step forms one
    g = TRIANGLE if label == "triangle" else room(9, 0.7, int(label.split("-")[1]))
    an = build(g).analysis
    (f,) = an.factors
    singles = tuple(1 << b for b in range(g.n))
    assert singles not in f.graph
    assert factored_convergence(an) == (False, singles)
    assert factored_convergence(an) == converges_to_stability(g, graph=build(g).graph)
