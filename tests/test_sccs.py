"""The SCC routine and transitive domination against references.

``dynamics._tarjan`` carries every graph-route factor's sinks and
convergence verdict, each ring step digraph, and the preference digraphs
of ``has_proper_ring`` and of condition (i) of every ring candidate
(``rings._pref_digraph_sccs``), so its components must stay list-identical
to the pointer-based iterative Tarjan of ``oracle.reference_tarjan``: the
same components, in the same reverse topological order, each with its
members in stack-pop order. Each node's component index must name its
component, a component must be flagged a sink exactly when no edge leaves
it, and each node's in-degree must count the edges into it from its own
component (``oracle.reference_in_degrees``). Condition (i) holds when
``_pref_digraph_sccs`` finds one component; ``test_rings.py`` checks it on
every collection of every 3-agent game against mutual reachability
(``oracle._reference_is_ring_component``). ``transitively_dominates`` is
checked against a repeated one-step expansion of the adjacency.
"""

import random

import pytest

from stabledec import transitively_dominates, unanimously_prefers
from stabledec.dynamics import _tarjan
from stabledec.rings import _pref_digraph_sccs
from stabledec.structures import _count_structures
from games import FUZZ_GAMES, GENERATED_GAMES, build
from oracle import reference_in_degrees, reference_reach, reference_tarjan

GAMES = dict(
    list(FUZZ_GAMES.items())
    + [(f"{front}-{seed}", lambda make=make, seed=seed: make(seed))
       for front, seed, make in GENERATED_GAMES]
)

# transitive domination is checked on the full graphs of at most
# MAX_WALK_NODES nodes: on every ordered pair up to MAX_PAIR_NODES nodes,
# and on a == b above that. Pairs grow with the square of the nodes and
# each walk with the graph: on a 2-core machine every pair of every graph up
# to 300 nodes takes about 100 s per strict_self value, against 3.5 s up to
# 100 nodes.
MAX_PAIR_NODES = 100
MAX_WALK_NODES = 300
WALK_GAMES = [
    label for label, make in GAMES.items() if _count_structures(make()) <= MAX_WALK_NODES
]


def check_sccs(adj):
    comps, comp_of, sink, in_degrees = _tarjan(adj)
    assert comps == reference_tarjan(adj)
    assert sorted(v for comp in comps for v in comp) == list(range(len(adj)))
    # each node's index names its component
    named = {v: ci for ci, comp in enumerate(comps) for v in comp}
    assert comp_of == [named[v] for v in range(len(adj))]
    # reverse topological: every edge leaving component i points below i;
    # a component is a sink exactly when no edge leaves it
    left = [False] * len(comps)
    for v, out in enumerate(adj):
        for w in out:
            assert named[w] <= named[v]
            if named[w] != named[v]:
                left[named[v]] = True
    assert sink == [not x for x in left]
    assert in_degrees == reference_in_degrees(adj)
    return comps


def check_graph(G):
    # the graph keeps the one pass's components, node indices, sinks and
    # in-degrees, and its pairs list the same targets
    assert [[w for w, _ in out] for out in G.adj] == G.succ
    comps, comp_of, sink, in_degrees = _tarjan(G.succ)
    assert G.sccs() == check_sccs(G.succ)
    assert G.comp_of() == comp_of
    assert [G.is_sink(ci) for ci in range(len(comps))] == sink
    assert G.sinks() == [comp for comp, s in zip(comps, sink) if s]
    assert G.in_degrees() == in_degrees


class TestTarjanOnGraphs:
    @pytest.mark.parametrize("label", list(GAMES))
    def test_full_graph(self, label):
        check_graph(build(GAMES[label]()).graph)

    @pytest.mark.parametrize("label", list(GAMES))
    def test_closures_of_strict_subsets(self, label):
        # the upper half in key order and the greatest structure alone
        b = build(GAMES[label]())
        for k in (0, 1):
            check_graph(b.partial_graph(k))

    @pytest.mark.parametrize("label", list(GAMES))
    def test_improvement_digraph_over_the_permissible_set(self, label):
        g = GAMES[label]()
        ks = g.permissible
        adj = [
            [b for b in range(len(ks))
             if a != b and ks[a] & ks[b] and unanimously_prefers(g, ks[b], ks[a])]
            for a in range(len(ks))
        ]
        assert _pref_digraph_sccs(g, ks) == check_sccs(adj)


class TestTarjanOnDigraphs:
    def test_empty_graph(self):
        assert check_sccs([]) == []

    def test_isolated_nodes(self):
        assert check_sccs([[], [], []]) == [[0], [1], [2]]

    def test_parallel_edges_and_self_loops(self):
        adj = [[1, 1, 0], [0, 2, 2], [2]]
        assert check_sccs(adj) == [[2], [1, 0]]

    @pytest.mark.parametrize("seed", range(200))
    def test_random_digraph(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(0, 40)
        adj = [[] for _ in range(n)]
        if n:
            # sparse to dense; repeated draws give parallel edges and loops
            for _ in range(rng.randrange(0, 3 * n + 1)):
                adj[rng.randrange(n)].append(rng.randrange(n))
        check_sccs(adj)

    # long enough that a recursive routine would pass Python's default
    # recursion limit
    def test_long_path(self):
        n = 5000
        adj = [[v + 1] for v in range(n - 1)] + [[]]
        assert check_sccs(adj) == [[v] for v in reversed(range(n))]

    def test_long_cycle(self):
        n = 5000
        adj = [[(v + 1) % n] for v in range(n)]
        assert check_sccs(adj) == [list(reversed(range(n)))]


@pytest.mark.parametrize("label", WALK_GAMES)
def test_transitively_dominates_against_expansion(label):
    G = build(GAMES[label]()).graph
    assert len(G) <= MAX_WALK_NODES
    for b in range(len(G)):
        reach = reference_reach(G.succ, b)
        pb = G.nodes[b]
        among = range(len(G)) if len(G) <= MAX_PAIR_NODES else (b,)
        for a in among:
            pa = G.nodes[a]
            assert transitively_dominates(G, pa, pb) == (a in reach)
            assert transitively_dominates(G, pa, pb, strict_self=True) == (
                a != b and a in reach
            )
