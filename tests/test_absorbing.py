"""Absorbing sets: sink components of the full domination graph."""

import json

import pytest

from stabledec import (
    LimitExceeded,
    MalformedInput,
    absorbing_sets,
    converges_to_stability,
    dominate_via,
    enumerate_structures,
    full_domination_graph,
    grow_graph,
    is_stable,
    random_game,
    reaches_absorbing,
    singleton_structure,
    sink_components,
    structure_key,
)
from stabledec import absorbing as absorbing_module
from stabledec import applications as applications_module
from stabledec import dynamics as dynamics_module
from stabledec import structures as structures_module
from games import GENERATED_GAMES, GENERATED_IDS, make_structure, parts
from oracle import analyze_json, spy


class TestFullGraph:
    def test_sizes(self, g7, g8, g6):
        assert len(full_domination_graph(g7)) == 32
        assert len(full_domination_graph(g8)) == 25
        assert len(full_domination_graph(g6)) == 20

    @pytest.mark.parametrize("fixture", ["g7", "mar33"])
    def test_limit_boundary(self, fixture, request):
        g = request.getfixturevalue(fixture)
        n = sum(1 for _ in enumerate_structures(g))
        assert len(full_domination_graph(g, limit=n)) == n
        with pytest.raises(LimitExceeded) as err:
            full_domination_graph(g, limit=n - 1)
        assert str(err.value) == f"more than {n - 1} structures"


class TestTrustedSeeds:
    """The full graph seeds growth straight from enumeration; caller-supplied
    seeds still go through ``grow_graph``'s validation."""

    @staticmethod
    def assert_same_as_validated(g):
        graph = full_domination_graph(g)
        want = grow_graph(g, list(enumerate_structures(g)))
        assert graph.nodes == want.nodes
        assert graph.adj == want.adj
        assert graph.seeds == want.seeds

    @pytest.mark.parametrize("front,seed,make", GENERATED_GAMES, ids=GENERATED_IDS)
    def test_generated_games_match_validated_growth(self, front, seed, make):
        self.assert_same_as_validated(make(seed))

    @pytest.mark.parametrize("fixture", ["g6", "g7", "g8", "mar33"])
    def test_reference_games_match_validated_growth(self, fixture, request):
        self.assert_same_as_validated(request.getfixturevalue(fixture))

    def test_full_graph_skips_validation_and_sort(self, g7, monkeypatch):
        calls = spy(monkeypatch, [], dynamics_module, "structure_from_parts")
        for module in (dynamics_module, absorbing_module, applications_module):
            spy(monkeypatch, calls, module, "structure_key")
        graph = full_domination_graph(g7)
        assert len(graph) == 32
        assert calls == []
        # node ids are in key order, so the sinks and the witness need no key
        assert len(sink_components(graph)) == 4
        assert converges_to_stability(g7, graph=graph)[0] is False
        assert calls == []
        grow_graph(g7, [singleton_structure(7)])
        assert calls.count("structure_from_parts") == 1

    @pytest.mark.parametrize("front,seed,make", GENERATED_GAMES, ids=GENERATED_IDS)
    def test_keyed_enumeration(self, front, seed, make):
        # the key of each structure is the K-bitset of its non-single parts
        g = make(seed)
        bit = g.expansion().bit
        keyed = list(structures_module._keyed_structures(g))
        assert [pi for pi, _ in keyed] == list(enumerate_structures(g))
        assert [key for _, key in keyed] == [
            sum(bit[p] for p in pi if p & (p - 1)) for pi, _ in keyed
        ]

    @pytest.mark.parametrize(
        "seed,message",
        [
            ("12 23 4 5 67", "overlap"),
            ("12 34 5", "do not cover"),
            ("13 2 45 67", "not a permissible coalition"),
        ],
        ids=["overlapping", "not-covering", "not-permissible"],
    )
    def test_grow_graph_still_validates(self, g7, seed, message):
        with pytest.raises(MalformedInput, match=message):
            grow_graph(g7, [singleton_structure(7), parts(seed)])


class TestSinkMemo:
    def test_repeat_call_returns_fresh_equal_list(self, g7):
        graph = full_domination_graph(g7)
        first = sink_components(graph)
        second = sink_components(graph)
        assert first == second
        assert first is not second
        first.clear()
        assert sink_components(graph) == second

    def test_analyze_scans_sinks_once(self, g7, monkeypatch):
        calls = spy(monkeypatch, [], absorbing_module, "_scan_sinks")
        report = json.loads(analyze_json(g7))
        assert len(calls) == 1
        assert len(report["absorbing_sets"]) == 4


class TestAbsorbingSets:
    def test_seven_agent_game(self, g7, cycle7):
        sets_ = absorbing_sets(g7)
        assert len(sets_) == 4
        trivial = [a for a in sets_ if a.trivial]
        assert [a.members[0] for a in trivial] == sorted(
            (
                make_structure(g7, "123 45 67"),
                make_structure(g7, "123 467 5"),
                make_structure(g7, "15 23 467"),
            ),
            key=structure_key,
        )
        (big,) = [a for a in sets_ if not a.trivial]
        assert sorted(big.members) == sorted(cycle7)
        assert len(big) == 5

    def test_eight_agent_game(self, g8):
        sets_ = absorbing_sets(g8)
        assert len(sets_) == 2
        trivial = [a for a in sets_ if a.trivial]
        assert len(trivial) == 1
        assert trivial[0].members == (make_structure(g8, "145 23 678"),)
        (big,) = [a for a in sets_ if not a.trivial]
        want = {
            make_structure(g8, t)
            for t in (
                "12 3 46 5 78",
                "1 23 46 5 78",
                "145 23 6 78",
                "1 2 356 4 78",
                "12 356 4 78",
                "1 2 3 46 5 78",
                "145 2 3 6 78",
                "12 3 4 5 6 78",
                "1 23 4 5 6 78",
            )
        }
        assert set(big.members) == want

    def test_six_agent_game(self, g6):
        (only,) = absorbing_sets(g6)
        assert not only.trivial
        want = {
            make_structure(g6, t)
            for t in (
                "1 2 3 4 56",
                "1 2 3 45 6",
                "1 2 3 46 5",
                "1 2 34 56",
                "1 23 4 56",
                "1 23 45 6",
                "1 23 46 5",
                "12 3 4 56",
                "12 3 45 6",
                "12 3 46 5",
                "12 34 56",
                "13 2 4 56",
                "13 2 45 6",
                "13 2 46 5",
            )
        }
        assert set(only.members) == want
        assert len(only) == 14

    def test_membership_protocol(self, g7, cycle7):
        sets_ = absorbing_sets(g7)
        (big,) = [a for a in sets_ if not a.trivial]
        assert cycle7[0] in big
        assert make_structure(g7, "123 45 67") not in big

    def test_sink_components_match(self, g7):
        graph = full_domination_graph(g7)
        assert sink_components(graph) == absorbing_sets(g7)

    def test_empty_permissible(self):
        g = random_game(3, density=0.0, seed=0)
        (only,) = absorbing_sets(g)
        assert only.trivial and only.members == (singleton_structure(3),)


class TestAbsorbingProperties:
    @pytest.mark.parametrize("seed", range(25))
    def test_existence_size_and_triviality(self, seed):
        # always at least one; never exactly two members; trivial iff the
        # single member is stable; members never leave their set
        g = random_game(5, density=0.4, seed=seed + 100)
        graph = full_domination_graph(g)
        sets_ = sink_components(graph)
        assert sets_
        for a in sets_:
            assert len(a) != 2
            assert a.trivial == (len(a) == 1)
            if a.trivial:
                assert is_stable(g, a.members[0])
            else:
                assert not any(is_stable(g, pi) for pi in a.members)
            inside = set(a.members)
            for pi in a.members:
                i = graph.node_id(pi)
                targets = {graph.nodes[j] for j, _ in graph.adj[i]}
                assert a.trivial or targets
                assert targets <= inside

    @pytest.mark.parametrize("seed", range(10))
    def test_sets_are_disjoint(self, seed):
        g = random_game(5, density=0.5, seed=seed + 300)
        sets_ = absorbing_sets(g)
        seen = set()
        for a in sets_:
            assert not (set(a.members) & seen)
            seen |= set(a.members)


class TestReachesAbsorbing:
    def test_member_has_empty_path(self, g7, cycle7):
        a, path = reaches_absorbing(g7, cycle7[1])
        assert path == []
        assert cycle7[1] in a

    def test_stable_structure(self, g7):
        pi = make_structure(g7, "123 45 67")
        a, path = reaches_absorbing(g7, pi)
        assert a.trivial and path == []

    def test_path_is_valid_domination_walk(self, g6):
        start = singleton_structure(6)
        a, path = reaches_absorbing(g6, start)
        assert len(a) == 14
        assert path
        here = start
        for edge in path:
            assert edge.source == here
            here = dominate_via(g6, here, edge.via)
            assert here == edge.target
        assert here in a

    @pytest.mark.parametrize("seed", range(10))
    def test_every_structure_reaches_one(self, seed):
        from stabledec import enumerate_structures

        g = random_game(5, density=0.5, seed=seed + 40)
        for pi in enumerate_structures(g):
            a, path = reaches_absorbing(g, pi)
            assert (pi in a) == (not path)
