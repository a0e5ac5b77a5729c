"""Domination steps, reachability graphs, transitive domination, dot export."""

import pytest

from stabledec import (
    LimitExceeded,
    NodeNotInGraph,
    NotBlocking,
    dominate_via,
    enumerate_structures,
    grow_graph,
    random_game,
    singleton_structure,
    structure_key,
    successors,
    to_dot,
    transitively_dominates,
)
from games import EQUIVALENCE_GAMES, FUZZ_GAMES, PARTIAL_GAMES, C, build, make_structure
from oracle import reference_graph


class TestDominateVia:
    def test_cycle_steps(self, g7, cycle7):
        assert dominate_via(g7, cycle7[0], C("45")) == cycle7[1]
        assert dominate_via(g7, cycle7[3], C("34")) == cycle7[4]
        assert dominate_via(g7, cycle7[4], C("12")) == cycle7[0]

    def test_abandoned_agents_go_single(self, g6):
        # 45 forms and pulls 4 out of 34, so 3 falls back to its singleton
        pi = make_structure(g6, "12 34 5 6")
        assert dominate_via(g6, pi, C("45")) == make_structure(g6, "12 3 45 6")

    def test_untouched_parts_persist(self, g8):
        pi = make_structure(g8, "12 3 46 5 78")
        assert dominate_via(g8, pi, C("23")) == make_structure(g8, "1 23 46 5 78")

    def test_from_singletons(self, g7):
        lone = singleton_structure(7)
        assert dominate_via(g7, lone, C("467")) == make_structure(
            g7, "1 2 3 467 5"
        )

    def test_requires_blocking(self, g7):
        with pytest.raises(NotBlocking):
            dominate_via(g7, make_structure(g7, "123 45 67"), C("15"))
        with pytest.raises(NotBlocking):
            dominate_via(g7, make_structure(g7, "12 34 5 67"), C("12"))


class TestSuccessors:
    def test_cycle_has_out_degree_one(self, g7, cycle7):
        for j, pi in enumerate(cycle7):
            edges = successors(g7, pi)
            assert len(edges) == 1
            assert edges[0].target == cycle7[(j + 1) % 5]

    def test_first_cycle_step_via(self, g7, cycle7):
        (edge,) = successors(g7, cycle7[0])
        assert edge.source == cycle7[0]
        assert edge.via == C("45")

    def test_stable_structure_has_none(self, g7):
        assert successors(g7, make_structure(g7, "123 45 67")) == []

    def test_sorted_by_via(self, g7):
        lone = singleton_structure(7)
        vias = [e.via for e in successors(g7, lone)]
        assert vias == sorted(g7.permissible)


class TestGrowGraph:
    def test_cycle_closure(self, g7, cycle7):
        graph = grow_graph(g7, [cycle7[0]])
        assert sorted(graph.nodes) == sorted(cycle7)
        assert graph.edge_count() == 5
        for pi in cycle7:
            assert len(graph.adj[graph.node_id(pi)]) == 1

    def test_full_graph_sizes(self, g7, g8, g6):
        assert len(grow_graph(g7, enumerate_structures(g7))) == 32
        assert len(grow_graph(g8, enumerate_structures(g8))) == 25
        assert len(grow_graph(g6, enumerate_structures(g6))) == 20

    def test_seed_order_and_dedup(self, g7, cycle7):
        graph = grow_graph(g7, [cycle7[2], cycle7[0], cycle7[2]])
        got = [graph.nodes[i] for i in graph.seeds]
        assert got == sorted({cycle7[0], cycle7[2]}, key=structure_key)

    def test_node_id_rejects_unknown(self, g7, cycle7):
        graph = grow_graph(g7, [cycle7[0]])
        with pytest.raises(NodeNotInGraph):
            graph.node_id(make_structure(g7, "123 45 67"))

    def test_limit(self, g7, cycle7):
        with pytest.raises(LimitExceeded):
            grow_graph(g7, [cycle7[0]], limit=4)

    def test_edges_match_successors(self, g7):
        graph = grow_graph(g7, enumerate_structures(g7))
        for pi in graph.nodes:
            want = [(e.target, e.via) for e in successors(g7, pi)]
            got = [
                (graph.nodes[j], via)
                for j, via in graph.adj[graph.node_id(pi)]
            ]
            assert got == want


class TestTransitivelyDominates:
    def test_along_cycle(self, g7, cycle7):
        graph = grow_graph(g7, [cycle7[0]])
        assert transitively_dominates(graph, cycle7[2], cycle7[0])
        assert transitively_dominates(graph, cycle7[0], cycle7[4])

    def test_stable_dominates_nothing(self, g7, cycle7):
        pi = make_structure(g7, "123 45 67")
        graph = grow_graph(g7, enumerate_structures(g7))
        assert not transitively_dominates(graph, pi, cycle7[0])
        assert transitively_dominates(graph, cycle7[0], pi) is False

    def test_reaching_stable(self, g7):
        pi = make_structure(g7, "123 45 67")
        lone = singleton_structure(7)
        graph = grow_graph(g7, [lone])
        assert transitively_dominates(graph, pi, lone)

    def test_self_needs_a_cycle(self, g7, cycle7):
        graph = grow_graph(g7, enumerate_structures(g7))
        pi = make_structure(g7, "123 45 67")
        assert not transitively_dominates(graph, pi, pi)
        assert transitively_dominates(graph, cycle7[0], cycle7[0])
        assert not transitively_dominates(
            graph, cycle7[0], cycle7[0], strict_self=True
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_no_one_step_loops(self, seed):
        # domination is irreflexive and never immediately reversible
        g = random_game(5, density=0.5, seed=seed)
        graph = grow_graph(g, enumerate_structures(g))
        for i, pi in enumerate(graph.nodes):
            for j, _ in graph.adj[i]:
                assert j != i
                assert all(k != i for k, _ in graph.adj[j])


class TestExpansionMatchesSuccessors:
    @pytest.mark.parametrize("seeding", ["full", "singletons"])
    @pytest.mark.parametrize(
        "front,seed,make", EQUIVALENCE_GAMES,
        ids=[f"{front}-{seed}" for front, seed, _ in EQUIVALENCE_GAMES],
    )
    def test_same_graph(self, front, seed, make, seeding):
        g = make(seed)
        if seeding == "full":
            seeds = list(enumerate_structures(g))
        else:
            seeds = [singleton_structure(g.n)]
        graph = grow_graph(g, seeds)
        nodes, adj = reference_graph(g, seeds)
        assert graph.nodes == nodes
        assert graph.adj == adj
        assert graph.seeds == tuple(range(len(seeds)))


class TestNodeKeys:
    """``G.keys[v]`` is the K-bitset (``Game.expansion``) of node ``v``'s
    non-single parts, for seeds and discovered nodes alike; on an edge
    ``u -> v`` via ``c``, ``keys[v] & ~keys[u]`` is the bit of ``c`` and
    ``keys[u] & ~keys[v]`` the parts of ``u`` that meet ``c``."""

    @staticmethod
    def _check(g, G):
        bit = g.expansion().bit
        assert len(G.keys) == len(G.nodes)
        for v, pi in enumerate(G.nodes):
            assert G.keys[v] == sum(bit[p] for p in pi if p.bit_count() >= 2)
        for u, out in enumerate(G.adj):
            for v, via in out:
                assert G.keys[v] & ~G.keys[u] == bit[via]
                met = sum(bit[p] for p in G.nodes[u] if p.bit_count() >= 2 and p & via)
                assert G.keys[u] & ~G.keys[v] == met

    @pytest.mark.parametrize("label", list(FUZZ_GAMES))
    def test_full_graphs(self, label):
        b = build(FUZZ_GAMES[label]())
        self._check(b.game, b.graph)

    @pytest.mark.parametrize("label", list(PARTIAL_GAMES))
    def test_closures(self, label):
        b = build(PARTIAL_GAMES[label]())
        g = b.game
        grown = [grow_graph(g, [singleton_structure(g.n)]), *b.partial_graphs]
        # some closure discovers nodes after its seeds
        assert any(len(G) > len(G.seeds) for G in grown)
        for G in grown:
            self._check(g, G)


class TestDot:
    def test_contains_nodes_edges_highlight(self, g7, cycle7):
        graph = grow_graph(g7, [cycle7[0]])
        text = to_dot(graph, highlight=[graph.node_id(cycle7[0])])
        assert text.startswith("digraph domination")
        assert "{1,2} {3,4} {5} {6,7}" in text
        assert "label=\"45\"" in text
        assert "lightsteelblue" in text
        assert text.count("->") == 5
