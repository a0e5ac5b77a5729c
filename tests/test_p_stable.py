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
  took before (``full_route``): absorbing sets with their members in order,
  the convergence verdict against ``converges_to_stability`` on the full
  graph, and the bytes of ``analyze --all --json``, which hold the ring
  components and the decompositions. It runs on every pair-only factor
  without a stable matching of the other test modules' games and on a
  seeded slice: roommate games of 6 to 9 agents and pair-only factors of
  ``random_game``.

``sweep_closure_route.py`` in this directory runs the same comparison over
more than a thousand seeded games; see its docstring.
"""

import contextlib
import io
import itertools
import json
import sys

import pytest

import stabledec.absorbing as absorbing
from stabledec import (
    AbsorbingSet,
    Analysis,
    Game,
    coalition,
    converges_to_stability,
    factored_convergence,
    full_domination_graph,
    members,
    prefers,
    random_game,
    random_roommate_spec,
    roommate_to_game,
    sink_components,
)
from stabledec.absorbing import Factor, factor_games
from stabledec.cli import main

from test_factoring import TRIANGLE, UNIONS
from test_fuzz import FUZZ_GAMES
from test_pair_games import GAMES, dropped_pairs, no_stable_roommates, pair_game
from test_rings import ROUTE_GAMES


def room(n, seed, density=0.7):
    return roommate_to_game(random_roommate_spec(n, density, seed))


def brute_partitions(g: Game) -> list[tuple[tuple[int, ...], ...]]:
    """Every permutation whose steps are permissible pairs and which
    satisfies T1 and T2, tested by ``prefers`` on the rankings, in the
    cycle form of ``_stable_partitions``."""
    n = g.n
    kset = set(g.permissible)

    def held(i, j):
        # the coalition agent i forms with j, their singleton when j == i
        return coalition((i, j)) if i != j else coalition((i,))

    found = set()
    for perm in itertools.permutations(range(1, n + 1)):
        succ = dict(zip(range(1, n + 1), perm))
        if any(j != i and held(i, j) not in kset for i, j in succ.items()):
            continue
        pred = {j: i for i, j in succ.items()}
        if not all(
            succ[i] == pred[i] or prefers(g, i, held(i, succ[i]), held(i, pred[i]))
            for i in succ
        ):
            continue
        if any(
            prefers(g, i, c, held(i, pred[i])) and prefers(g, j, c, held(j, pred[j]))
            for c in kset
            for i, j in [members(c)]
        ):
            continue
        cycles = []
        seen = set()
        for i in range(1, n + 1):
            if i not in seen:
                cyc = [i]
                while succ[cyc[-1]] != i:
                    cyc.append(succ[cyc[-1]])
                seen.update(cyc)
                cycles.append(tuple(cyc))
        found.add(tuple(cycles))
    return sorted(found)


# label -> make: games of at most 7 agents, with and without stable
# matchings, some listing unacceptable pairs and triples
SMALL_GAMES = {
    "triangle": lambda: TRIANGLE,
    **{
        f"roommate{n}-{d}-{s}": (lambda n=n, d=d, s=s: room(n, s, d))
        for n in (4, 5, 6)
        for d in (0.7, 1.0)
        for s in range(1, 11)
    },
    **{f"roommate7-{s}": (lambda s=s: room(7, s, 0.8)) for s in range(1, 6)},
    **{
        f"roommate{n}-{s}-unstable": (lambda n=n, s=s: room(n, s))
        for n in (5, 6, 7)
        for s in no_stable_roommates(n, 3)
    },
    **{f"pairs{n}-{s}": (lambda n=n, s=s: pair_game(n, s)) for n in (4, 5, 6) for s in (1, 2)},
}


@pytest.mark.parametrize("label", list(SMALL_GAMES))
def test_partition_search_matches_brute_force(label):
    g = SMALL_GAMES[label]()
    assert sorted(absorbing._stable_partitions(g)) == brute_partitions(g)


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
        if any(len(c) % 2 for p in absorbing._stable_partitions(make()) for c in p if len(c) > 1)
    ]
    assert len(odd) >= 10
    assert len(odd) < len(SMALL_GAMES) - 10


class TestPStableMatchings:
    # every pair of 5 agents accepted by both
    FULL5 = Game(5, {i: [coalition((i, j)) for j in range(1, 6) if j != i] + [1 << (i - 1)]
                     for i in range(1, 6)})

    def matchings(self, partition):
        return [pi for pi, _ in absorbing._p_stable_matchings(self.FULL5, [partition])]

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

    def test_keys_and_duplicates(self):
        g = self.FULL5
        bit = g.expansion().bit
        # the 2-cycles give one of the 4-cycle's matchings again
        seeds = absorbing._p_stable_matchings(
            g, [((1, 2, 3, 4), (5,)), ((1, 2), (3, 4), (5,))]
        )
        assert len(seeds) == 2
        for pi, key in seeds:
            assert key == sum(bit[p] for p in pi if p.bit_count() == 2)

    def test_triangle_seeds_its_absorbing_set(self):
        (f,) = Analysis(TRIANGLE).factors
        seeds = [pi for pi, _ in absorbing._p_stable_matchings(
            TRIANGLE, absorbing._stable_partitions(TRIANGLE))]
        assert seeds == list(f.sets[0].members)
        assert len(f.graph) == 3


def full_route_factor(g: Game, limit: int) -> Factor:
    """``absorbing._factor`` as it was before the closure route: a pair-only
    factor without a stable matching grows its full graph."""
    stable = absorbing._stable_matchings(g)
    if stable:
        return Factor(g, tuple(AbsorbingSet((pi,)) for pi in stable), None)
    graph = full_domination_graph(g, limit)
    return Factor(g, tuple(sink_components(graph)), graph)


@contextlib.contextmanager
def full_route():
    real = absorbing._factor
    absorbing._factor = full_route_factor
    try:
        yield
    finally:
        absorbing._factor = real


def analyze_json(g: Game) -> str:
    """The stdout of ``stabledec analyze - --all --json`` on the game."""
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(g.to_dict()))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(["analyze", "-", "--all", "--json"]) == 0
    finally:
        sys.stdin = stdin
    return out.getvalue()


def is_closure_factor(g: Game) -> bool:
    """Whether the game is pair-only without a stable matching."""
    return absorbing._stable_matchings(g) == []


def assert_routes_agree(g: Game) -> None:
    """The closure route and the full-graph route give the same analysis of
    a pair-only game without a stable matching."""
    assert is_closure_factor(g)
    an = Analysis(g)
    (f,) = an.factors
    with full_route():
        (ref,) = Analysis(g).factors
        want = analyze_json(g)
    assert len(f.graph) <= len(ref.graph)
    # the same sets, members in the same order
    assert f.sets == ref.sets
    assert not any(a.trivial for a in f.sets)
    assert factored_convergence(an) == converges_to_stability(g, graph=ref.graph)
    assert analyze_json(g) == want


def _closure_factors() -> dict[str, Game]:
    # label -> distinct pair-only factor without a stable matching, of the
    # games of the other test modules
    sources = [GAMES, FUZZ_GAMES, ROUTE_GAMES, {k: (lambda g=g: g) for k, g in UNIONS.items()}]
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


def _slice() -> dict[str, Game]:
    out = {}
    for n, count in {6: 12, 7: 10, 8: 6, 9: 4}.items():
        # the first seeds of each size with no stable matching
        seeds = (s for s in itertools.count(1) if is_closure_factor(room(n, s)))
        for s in itertools.islice(seeds, count):
            out[f"roommate{n}-{s}"] = room(n, s)
    for (n, d), seeds in RANDOM_PAIR_SEEDS.items():
        for s in seeds:
            for k, f in enumerate(factor_games(random_game(n, d, s))):
                if is_closure_factor(f):
                    out[f"random{n}-{d}-{s}/{k}"] = f
    return out


SLICE = _slice()


@pytest.mark.parametrize("label", list(TEST_FACTORS))
def test_test_factors_agree_with_full_graph(label):
    assert_routes_agree(TEST_FACTORS[label])


@pytest.mark.parametrize("label", list(SLICE))
def test_seeded_slice_agrees_with_full_graph(label):
    assert_routes_agree(SLICE[label])


class TestGateCoverage:
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
            for p in absorbing._stable_partitions(g)
            for c in p
        }
        assert {1, 2, 3, 5} <= lengths


@pytest.mark.parametrize("label", ["triangle", "roommate9-11", "roommate9-42"])
def test_convergence_witness_is_the_least_structure(label):
    # decided without the closure, which lacks the all-singletons
    # structure: every seed holds a pair, and every step forms one
    g = TRIANGLE if label == "triangle" else room(9, int(label.split("-")[1]))
    an = Analysis(g)
    (f,) = an.factors
    singles = tuple(1 << b for b in range(g.n))
    assert singles not in f.graph
    assert factored_convergence(an) == (False, singles)
    assert factored_convergence(an) == converges_to_stability(g, graph=full_domination_graph(g))
