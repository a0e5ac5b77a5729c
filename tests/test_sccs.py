"""The SCC routine and transitive domination against references.

``dynamics._tarjan`` carries every graph-route factor's sinks and
convergence verdict, each ring step digraph and condition (i) of every ring
candidate, so its output must stay list-identical to the pointer-based
iterative Tarjan kept here as the reference: the same components, in the
same reverse topological order, each with its members in stack-pop order.
``transitively_dominates`` is checked against a repeated one-step
expansion of the adjacency.
"""

import random

import pytest

from stabledec import (
    enumerate_structures,
    full_domination_graph,
    grow_graph,
    transitively_dominates,
    unanimously_prefers,
)
from stabledec.dynamics import _tarjan
from stabledec.rings import _pref_digraph_sccs
from stabledec.structures import _count_structures
from conftest import GENERATED_GAMES
from test_fuzz import FUZZ_GAMES

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


def reference_tarjan(adj):
    """Iterative Tarjan lowlink that re-pushes ``(node, edge pointer)`` on
    every descent and rescans ``adj[v]`` from that pointer on resume."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ptr = work[-1]
            if ptr == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on[v] = True
            descended = False
            out = adj[v]
            for k in range(ptr, len(out)):
                w = out[k][0]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
    return comps


def check_sccs(adj):
    comps = _tarjan(adj)
    assert comps == reference_tarjan(adj)
    assert sorted(v for comp in comps for v in comp) == list(range(len(adj)))
    # reverse topological: every edge leaving component i points below i
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    for v, out in enumerate(adj):
        for e in out:
            assert comp_of[e[0]] <= comp_of[v]
    return comps


def reference_reach(adj, b):
    """Nodes at the end of a path of length >= 1 from ``b``, by repeated
    one-step expansion until nothing new is added."""
    reached = {w for w, _ in adj[b]}
    while True:
        more = reached | {w for v in reached for w, _ in adj[v]}
        if more == reached:
            return reached
        reached = more


class TestTarjanOnGraphs:
    @pytest.mark.parametrize("label", list(GAMES))
    def test_full_graph(self, label):
        check_sccs(full_domination_graph(GAMES[label]()).adj)

    @pytest.mark.parametrize("label", list(GAMES))
    def test_closures_of_strict_subsets(self, label):
        # the upper half in key order and the greatest structure alone
        g = GAMES[label]()
        structs = list(enumerate_structures(g))
        for seeds in (structs[len(structs) // 2 :], structs[-1:]):
            check_sccs(grow_graph(g, seeds).adj)

    @pytest.mark.parametrize("label", list(GAMES))
    def test_improvement_digraph_over_the_permissible_set(self, label):
        g = GAMES[label]()
        ks = g.permissible
        adj = [
            [(b, ks[b]) for b in range(len(ks))
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
        adj = [[(1,), (1,), (0,)], [(0,), (2,), (2,)], [(2,)]]
        assert check_sccs(adj) == [[2], [1, 0]]

    @pytest.mark.parametrize("seed", range(200))
    def test_random_digraph(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(0, 40)
        adj = [[] for _ in range(n)]
        if n:
            # sparse to dense; repeated draws give parallel edges and loops
            for _ in range(rng.randrange(0, 3 * n + 1)):
                adj[rng.randrange(n)].append((rng.randrange(n), 0))
        check_sccs(adj)

    # long enough that a recursive routine would pass Python's default
    # recursion limit
    def test_long_path(self):
        n = 5000
        adj = [[(v + 1,)] for v in range(n - 1)] + [[]]
        assert check_sccs(adj) == [[v] for v in reversed(range(n))]

    def test_long_cycle(self):
        n = 5000
        adj = [[((v + 1) % n,)] for v in range(n)]
        assert check_sccs(adj) == [list(reversed(range(n)))]


@pytest.mark.parametrize("label", WALK_GAMES)
def test_transitively_dominates_against_expansion(label):
    G = full_domination_graph(GAMES[label]())
    assert len(G) <= MAX_WALK_NODES
    for b in range(len(G)):
        reach = reference_reach(G.adj, b)
        pb = G.nodes[b]
        among = range(len(G)) if len(G) <= MAX_PAIR_NODES else (b,)
        for a in among:
            pa = G.nodes[a]
            assert transitively_dominates(G, pa, pb) == (a in reach)
            assert transitively_dominates(G, pa, pb, strict_self=True) == (
                a != b and a in reach
            )
