"""Sink order and convergence witnesses read through the graph's ``order``.

Seeds are numbered first and in ``structure_key`` order, so on a full graph
node ids follow that order, while a graph grown from a strict subset of the
structures discovers nodes out of it. On both, ``sink_components`` sorts
each sink's members and the sets by the graph's ``order``, and
``converges_to_stability`` takes the least straggler by it. The sort by
key and the reverse search over incoming edges are the references
(``oracle.py``); the partial graphs pin the cases where id order is not
key order.
"""

import random

import pytest

from stabledec import (
    DominationGraph,
    VerificationFailed,
    converges_to_stability,
    enumerate_structures,
    full_domination_graph,
    grow_graph,
    sink_components,
    singleton_structure,
    structure_key,
)
from stabledec.structures import _order_key
from games import FUZZ_GAMES, GENERATED_GAMES, GENERATED_IDS, NO_STABLE, PARTIAL_GAMES, build
from oracle import reference_convergence, reference_sinks, reference_stragglers


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
    G = build(g).graph
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
    b = build(NO_STABLE[label]())
    g, G = b.game, b.graph
    check(g, G)
    # no stable node: the witness is the least structure, node 0
    assert converges_to_stability(g, graph=G) == (False, G.nodes[0])


@pytest.mark.parametrize("label", list(PARTIAL_GAMES))
def test_partial_graphs_keep_the_key_sort(label):
    b = build(PARTIAL_GAMES[label]())
    for G in b.partial_graphs:
        check(b.game, G)


def test_partial_graphs_discover_out_of_key_order():
    # the inputs above pin the sort by ``order``: some partial graph has a
    # sink whose members are not in id order, and some with a stable node
    # has a witness that is not its least straggler id
    unordered_sink = unordered_witness = False
    for make in PARTIAL_GAMES.values():
        for G in build(make()).partial_graphs:
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


def test_cross_check_still_fires(g7, monkeypatch):
    # the sink flags stay independent of the SCC walk: sinks that disagree
    # with it raise
    G = full_domination_graph(g7)
    monkeypatch.setattr(DominationGraph, "sinks", lambda self: [[0]])
    with pytest.raises(VerificationFailed, match="disagrees with sink triviality"):
        converges_to_stability(g7, graph=G)
