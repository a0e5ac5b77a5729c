"""Graphs whose every node is a seed: node order is ``structure_key`` order.

Seeds are numbered first and in ``structure_key`` order, so on a graph with
no discovered node (every full graph) the sinks read their members in id
order and order the sets by least id, and the convergence witness is the
least straggler id. The sort by key and the reverse search over incoming
edges that those routes replaced are kept here as references. A graph grown
from a strict subset of the structures discovers nodes out of key order and
must keep the key sort: those cases pin the all-seed guard.
"""

import random

import pytest

from stabledec import (
    AbsorbingSet,
    VerificationFailed,
    converges_to_stability,
    enumerate_structures,
    full_domination_graph,
    grow_graph,
    random_game,
    sink_components,
    singleton_structure,
    structure_key,
)
from stabledec.structures import _order_key
from conftest import GENERATED_GAMES, GENERATED_IDS
from test_fuzz import FUZZ_GAMES
from test_pair_games import GAMES as PAIR_GAMES

# roommate games of tests/test_pair_games.py with no stable matching
NO_STABLE = {label: make for label, make in PAIR_GAMES.items() if label.endswith("-unstable")}


def reference_sinks(G):
    """The sink components sorted by ``structure_key``, whatever the node order."""
    sinks = []
    for comp in G.sccs():
        inside = set(comp)
        if all(w in inside for v in comp for w, _ in G.adj[v]):
            members = sorted((G.nodes[v] for v in comp), key=structure_key)
            sinks.append(AbsorbingSet(tuple(members)))
    return sorted(sinks, key=lambda a: structure_key(a.members[0]))


def reference_stragglers(G):
    """Ids of the nodes that reach no stable node, by a reverse search from
    the stable nodes over incoming-edge lists."""
    incoming = [[] for _ in range(len(G))]
    for u in range(len(G)):
        for v, _ in G.adj[u]:
            incoming[v].append(u)
    reached = [not out for out in G.adj]
    frontier = [v for v in range(len(G)) if reached[v]]
    while frontier:
        v = frontier.pop()
        for u in incoming[v]:
            if not reached[u]:
                reached[u] = True
                frontier.append(u)
    return [v for v in range(len(G)) if not reached[v]]


def reference_convergence(G):
    """The verdict, and the least straggler by ``structure_key`` as witness."""
    stragglers = reference_stragglers(G)
    if not stragglers:
        return True, None
    return False, min((G.nodes[v] for v in stragglers), key=structure_key)


def expected_convergence(g, G):
    """``reference_convergence``, except on a graph with no stable node: its
    witness is the game's least structure, all agents single, which a
    partial graph need not hold."""
    if G.nodes and len(reference_stragglers(G)) == len(G):
        return False, singleton_structure(g.n)
    return reference_convergence(G)


def check(g, G):
    assert sink_components(G) == reference_sinks(G)
    assert converges_to_stability(g, graph=G) == expected_convergence(g, G)


def check_full(g):
    G = full_domination_graph(g)
    assert G.key_ordered()
    assert G.nodes == sorted(G.nodes, key=structure_key)
    check(g, G)


@pytest.mark.parametrize("label", list(FUZZ_GAMES))
def test_fuzz_games(label):
    check_full(FUZZ_GAMES[label]())


@pytest.mark.parametrize("front,seed,make", GENERATED_GAMES, ids=GENERATED_IDS)
def test_generated_games(front, seed, make):
    check_full(make(seed))


@pytest.mark.parametrize("label", list(NO_STABLE))
def test_no_stable_roommate_games(label):
    g = NO_STABLE[label]()
    G = full_domination_graph(g)
    check(g, G)
    # no stable node: the witness is the least structure, node 0
    assert converges_to_stability(g, graph=G) == (False, G.nodes[0])


def partial_graphs(g):
    """Graphs grown from strict subsets of the structures: the upper half
    in key order, the greatest structure alone, and the least alone."""
    structs = list(enumerate_structures(g))
    for seeds in (structs[len(structs) // 2 :], structs[-1:], structs[:1]):
        yield grow_graph(g, seeds)


PARTIAL_GAMES = dict(
    [(f"{front}-{seed}", lambda make=make, seed=seed: make(seed))
     for front, seed, make in GENERATED_GAMES]
    + list(NO_STABLE.items())
    # stable structures and a non-trivial sink: grown from the least
    # structure, the least straggler by key is not the least straggler id
    + [("random6-114-mixed", lambda: random_game(6, 0.5, 114))]
)


@pytest.mark.parametrize("label", list(PARTIAL_GAMES))
def test_partial_graphs_keep_the_key_sort(label):
    g = PARTIAL_GAMES[label]()
    for G in partial_graphs(g):
        check(g, G)


def test_partial_graphs_discover_out_of_key_order():
    # the inputs above exercise the guard: some partial graph has a sink
    # whose members are not in id order, and some with a stable node has a
    # witness that is not its least straggler id
    unordered_sink = unordered_witness = False
    for make in PARTIAL_GAMES.values():
        g = make()
        for G in partial_graphs(g):
            for a in reference_sinks(G):
                ids = [G.node_id(pi) for pi in a.members]
                unordered_sink |= ids != sorted(ids)
            stragglers = reference_stragglers(G)
            ok, witness = reference_convergence(G)
            if not ok and len(stragglers) < len(G):
                unordered_witness |= G.node_id(witness) != min(stragglers)
    assert unordered_sink and unordered_witness


@pytest.mark.parametrize("label", list(PARTIAL_GAMES))
def test_order_key_is_structure_key_order(label):
    # shuffled structures, sorted as plain tuples when no permissible
    # coalition has three or more agents, else by structure_key; growing a
    # closure keeps the same order on the graph
    g = PARTIAL_GAMES[label]()
    structs = list(enumerate_structures(g))
    random.Random(len(structs)).shuffle(structs)
    order = _order_key(g)
    assert (order is None) == all(c.bit_count() <= 2 for c in g.permissible)
    assert sorted(structs, key=order) == sorted(structs, key=structure_key)
    assert grow_graph(g, structs[:1]).order is order


def test_order_key_takes_both_branches():
    pair_only = [
        all(p.bit_count() <= 2 for p in make().permissible) for make in PARTIAL_GAMES.values()
    ]
    assert any(pair_only) and not all(pair_only)


def test_empty_graph_converges(g7):
    G = grow_graph(g7, [])
    assert sink_components(G) == []
    assert converges_to_stability(g7, graph=G) == (True, None)


def test_cross_check_still_fires(g7):
    # the sinks route stays independent of the SCC walk
    G = full_domination_graph(g7)
    G._sinks = [AbsorbingSet((pi,)) for pi in G.nodes[:1]]
    with pytest.raises(VerificationFailed, match="disagrees with sink triviality"):
        converges_to_stability(g7, graph=G)
