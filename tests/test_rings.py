"""Rings, ring extraction from domination cycles, ring components."""

import io
import json
import random
import sys
from collections import deque

import pytest

from stabledec import (
    Analysis,
    Game,
    NotACycle,
    NotARingComponent,
    StartNotInCycle,
    TrivialAbsorbingSet,
    VerificationFailed,
    absorbing_sets,
    all_stable_decompositions,
    breaks_maximal_set,
    check_stable_decomposition,
    canonical_rotation,
    classify_simple,
    compact_collection,
    component,
    cyclically_equal,
    d_structures,
    extract_ring,
    full_domination_graph,
    generated_set,
    has_proper_ring,
    is_proper_ring,
    is_ring,
    is_ring_component,
    make_party,
    marriage_to_game,
    maximal_sets,
    random_game,
    random_marriage_spec,
    random_roommate_spec,
    ring_components_of,
    roommate_to_game,
    sink_components,
    unanimously_prefers,
)
from stabledec import absorbing as absorbing_module
from stabledec import dynamics as dynamics_module
from stabledec import rings as rings_module
from stabledec.cli import main
from stabledec.rings import _family_search, _ring_families, _ring_from_vias
from stabledec.structures import _breaking
from conftest import C, make_structure
from test_fuzz import FUZZ_GAMES


@pytest.fixture(scope="module")
def disjoint_game():
    """Three disjoint pairs; every cross preference holds vacuously."""
    return Game(
        6,
        {
            1: [(1, 2), (1,)],
            2: [(1, 2), (2,)],
            3: [(3, 4), (3,)],
            4: [(3, 4), (4,)],
            5: [(5, 6), (5,)],
            6: [(5, 6), (6,)],
        },
    )


RC7 = ("12", "23", "34", "45", "15")
RC8 = ("145", "12", "23", "356", "46")
UNION5 = ("14", "34", "36", "16", "35", "25", "24")


class TestIsRing:
    def test_five_cycle(self, g7):
        assert is_ring(g7, [C(t) for t in ("15", "12", "23", "34", "45")])

    def test_four_cycle_with_triple(self, g7):
        assert is_ring(g7, [C(t) for t in ("15", "123", "34", "45")])

    def test_reversal_is_not_a_ring(self, g7):
        assert not is_ring(g7, [C(t) for t in ("45", "34", "23", "12", "15")])

    def test_too_short(self, g7):
        assert not is_ring(g7, [C("12"), C("23")])

    def test_repeats_rejected(self, g7):
        assert not is_ring(g7, [C("12"), C("23"), C("12")])

    def test_vacuous_preferences_still_ring(self, disjoint_game):
        assert is_ring(disjoint_game, [C("12"), C("34"), C("56")])


class TestIsProperRing:
    def test_five_cycle(self, g7):
        assert is_proper_ring(g7, [C(t) for t in ("15", "12", "23", "34", "45")])

    def test_four_cycle_with_triple(self, g7):
        assert is_proper_ring(g7, [C(t) for t in ("15", "123", "34", "45")])

    def test_disjoint_neighbors_disqualify(self, disjoint_game):
        assert not is_proper_ring(disjoint_game, [C("12"), C("34"), C("56")])


class TestRotations:
    def test_canonical_rotation(self):
        seq = (C("45"), C("15"), C("12"), C("23"), C("34"))
        assert canonical_rotation(seq) == (
            C("12"),
            C("23"),
            C("34"),
            C("45"),
            C("15"),
        )
        assert canonical_rotation(canonical_rotation(seq)) == canonical_rotation(seq)

    def test_cyclically_equal(self):
        a = (C("45"), C("15"), C("12"), C("23"), C("34"))
        b = (C("12"), C("23"), C("34"), C("45"), C("15"))
        assert cyclically_equal(a, b)
        assert not cyclically_equal(a, tuple(reversed(a)))
        assert not cyclically_equal(a, a[:4])


class TestExtractRing:
    def test_start_forty_five(self, g7, cycle7):
        ring = extract_ring(g7, cycle7, C("45"))
        assert ring == (C("15"), C("12"), C("23"), C("34"), C("45"))
        assert cyclically_equal(
            ring, (C("45"), C("15"), C("12"), C("23"), C("34"))
        )
        assert is_ring(g7, ring)

    def test_start_twenty_three(self, g7, cycle7):
        ring = extract_ring(g7, cycle7, C("23"))
        assert ring == (C("34"), C("45"), C("15"), C("12"), C("23"))

    def test_rotated_cycle_same_ring(self, g7, cycle7):
        rotated = cycle7[2:] + cycle7[:2]
        assert cyclically_equal(
            extract_ring(g7, rotated, C("45")), extract_ring(g7, cycle7, C("45"))
        )

    def test_three_cycle(self, g6):
        cycle = [
            make_structure(g6, "12 3 4 56"),
            make_structure(g6, "1 23 4 56"),
            make_structure(g6, "13 2 4 56"),
        ]
        ring = extract_ring(g6, cycle, C("23"))
        assert ring == (C("13"), C("12"), C("23"))
        assert is_ring(g6, ring)

    def test_start_must_form_somewhere(self, g7, cycle7):
        with pytest.raises(StartNotInCycle):
            extract_ring(g7, cycle7, C("467"))

    def test_rejects_short_or_repeating_cycles(self, g7, cycle7):
        with pytest.raises(NotACycle):
            extract_ring(g7, cycle7[:2], C("45"))
        with pytest.raises(NotACycle):
            extract_ring(g7, cycle7 + [cycle7[0]], C("45"))

    def test_rejects_non_domination_sequence(self, g7, cycle7):
        with pytest.raises(NotACycle):
            extract_ring(g7, [cycle7[0], cycle7[2], cycle7[4]], C("45"))


class TestIsRingComponent:
    def test_seven_agent_component(self, g7):
        assert is_ring_component(g7, [C(t) for t in RC7])

    def test_proper_ring_alone_is_not_enough(self, g7):
        # {123, 45} stays unbroken inside this four-ring
        assert not is_ring_component(g7, [C(t) for t in ("15", "123", "34", "45")])

    def test_union_of_rings_can_fail(self, g7):
        assert not is_ring_component(
            g7, [C(t) for t in ("15", "12", "23", "34", "45", "123")]
        )

    def test_eight_agent_component(self, g8):
        assert is_ring_component(g8, [C(t) for t in RC8])

    def test_six_agent_components(self, g6):
        assert is_ring_component(g6, [C("12"), C("23"), C("13")])
        assert is_ring_component(g6, [C("45"), C("46"), C("56")])

    def test_marriage_ring_union_fails(self, mar33):
        union = [C(t) for t in UNION5]
        assert not is_ring_component(mar33, union)
        # the two stable matchings sit inside the union as maximal sets and
        # resist every member, so the break-everything condition fails
        for mset in ((C("16"), C("25"), C("34")), (C("14"), C("25"), C("36"))):
            assert not any(
                breaks_maximal_set(mar33, r, tuple(sorted(mset)))
                for r in union
                if r not in mset
            )
        # the third perfect matching in the union is broken, by 14 alone
        mset = tuple(sorted((C("16"), C("24"), C("35"))))
        breakers = [
            r
            for r in union
            if r not in mset and breaks_maximal_set(mar33, r, mset)
        ]
        assert breakers == [C("14")]

    def test_too_small_or_not_permissible(self, g7):
        assert not is_ring_component(g7, [C("12"), C("23")])
        assert not is_ring_component(g7, [C("12"), C("23"), C("1234")])


class TestClassifySimple:
    def test_simple(self, g7):
        assert classify_simple(g7, [C(t) for t in RC7])

    def test_not_simple(self, g8):
        # 356 breaks {145, 23} while meeting both of its coalitions
        assert not classify_simple(g8, [C(t) for t in RC8])

    def test_requires_ring_component(self, g7):
        with pytest.raises(NotARingComponent):
            classify_simple(g7, [C(t) for t in ("15", "123", "34", "45")])


class TestCompactCollection:
    def test_simple_uses_maximal_sets(self, g7):
        got = compact_collection(g7, [C(t) for t in RC7])
        assert got == [
            (C("12"), C("34")),
            (C("12"), C("45")),
            (C("23"), C("15")),
            (C("23"), C("45")),
            (C("34"), C("15")),
        ]

    def test_non_simple_uses_singletons(self, g8):
        got = compact_collection(g8, [C(t) for t in RC8])
        assert got == [(c,) for c in sorted(C(t) for t in RC8)]


class TestComponent:
    def test_seven_agent(self, g7):
        rc = component(g7, [C(t) for t in RC7])
        assert rc.coalitions == tuple(sorted(C(t) for t in RC7))
        assert rc.simple
        assert len(rc.maximal) == 5
        assert rc.compact == rc.maximal

    def test_eight_agent(self, g8):
        rc = component(g8, [C(t) for t in RC8])
        assert not rc.simple
        assert rc.compact == tuple((c,) for c in rc.coalitions)
        assert len(rc.maximal) == 4

    def test_rejects_non_component(self, g6):
        with pytest.raises(NotARingComponent):
            component(g6, [C("12"), C("23"), C("34")])


class TestRingComponentsOf:
    def test_seven_agent_game(self, g7):
        graph = full_domination_graph(g7)
        (big,) = [a for a in absorbing_sets(g7) if not a.trivial]
        (rc,) = ring_components_of(g7, big, graph)
        assert rc.coalitions == tuple(sorted(C(t) for t in RC7))
        assert rc.simple

    def test_eight_agent_game(self, g8):
        graph = full_domination_graph(g8)
        (big,) = [a for a in absorbing_sets(g8) if not a.trivial]
        (rc,) = ring_components_of(g8, big, graph)
        assert rc.coalitions == tuple(sorted(C(t) for t in RC8))
        assert not rc.simple

    def test_six_agent_game_finds_both(self, g6):
        graph = full_domination_graph(g6)
        (only,) = absorbing_sets(g6)
        comps = ring_components_of(g6, only, graph)
        assert {rc.coalitions for rc in comps} == {
            (C("12"), C("13"), C("23")),
            (C("45"), C("46"), C("56")),
        }
        assert all(rc.simple for rc in comps)

    def test_trivial_rejected(self, g7):
        graph = full_domination_graph(g7)
        trivial = [a for a in absorbing_sets(g7) if a.trivial][0]
        with pytest.raises(TrivialAbsorbingSet):
            ring_components_of(g7, trivial, graph)


class TestHasProperRing:
    def test_examples(self, g7, g8, g6, mar33):
        assert has_proper_ring(g7)
        assert has_proper_ring(g8)
        assert has_proper_ring(g6)
        # the marriage game carries proper rings even though every one of
        # its absorbing sets is trivial
        assert has_proper_ring(mar33)

    def test_vacuous_cycles_do_not_count(self, disjoint_game):
        assert not has_proper_ring(disjoint_game)

    def test_tiny_permissible_set(self):
        g = Game(2, {1: [(1, 2), (1,)], 2: [(1, 2), (2,)]})
        assert not has_proper_ring(g)


def _cycle_vias_through(G, u, v, via, inside):
    """Vias of a cycle through edge ``u -> v``: the edge itself plus a
    shortest path ``v -> u`` found by BFS inside the component."""
    parent = {v: None}
    order = deque([v])
    while order and u not in parent:
        x = order.popleft()
        for w, wv in G.adj[x]:
            if w in inside and w not in parent:
                parent[w] = (x, wv)
                order.append(w)
    if u not in parent:
        raise VerificationFailed("absorbing set is not strongly connected")
    rev = []
    cur = u
    while parent[cur] is not None:
        prev, wv = parent[cur]
        rev.append(wv)
        cur = prev
    return [via] + rev[::-1]


def _per_edge_rings(G, absorbing):
    """Reference extraction: one breadth-first search for every edge inside
    the absorbing set, stopped at the edge's source."""
    ids = [G.node_id(pi) for pi in absorbing.members]
    inside = set(ids)
    rings = set()
    for u in ids:
        for v, via in G.adj[u]:
            if v not in inside:
                raise VerificationFailed("absorbing set has an outgoing edge")
            vias = _cycle_vias_through(G, u, v, via, inside)
            for s in range(len(vias)):
                rings.add(canonical_rotation(_ring_from_vias(vias, s)))
    return rings


# Games with a non-trivial absorbing set. Marriage games are absent: a path
# to stability starts at every matching (Roth and Vande Vate), so all their
# absorbing sets are trivial; none turned up in 140 seeded 3x3 to 5x5 games.
EXTRACTION_GAMES = {
    **{
        f"roommate9-{s}": (lambda s=s: roommate_to_game(random_roommate_spec(9, 0.7, seed=s)))
        for s in (2, 6, 21, 25, 26, 32, 33, 35, 42, 46, 48, 49, 57)
    },
    **{
        f"random{n}-{d}-{s}": (lambda n=n, d=d, s=s: random_game(n, d, s))
        for n, d, s in ((6, 0.5, 45), (6, 0.5, 60), (7, 0.3, 4), (7, 0.4, 36), (8, 0.2, 26))
    },
}


def _extract_rings(G, absorbing):
    """Reference extraction, run to the end: the canonical rotations of the
    rings read off a cycle through every edge inside the absorbing set, one
    breadth-first search per member, stopped once it has discovered every
    in-neighbour of that member."""
    ids = [G.node_id(pi) for pi in absorbing.members]
    adj = G.adj
    into_u = {v: [] for v in ids}
    into_via = {v: [] for v in ids}
    for u in ids:
        for v, via in adj[u]:
            if v not in into_u:
                raise VerificationFailed("absorbing set has an outgoing edge")
            into_u[v].append(u)
            into_via[v].append(via)
    n = len(G)
    seen_by = [-1] * n
    want = [-1] * n
    prev = [0] * n
    pvia = [0] * n
    rings = set()
    tried = set()
    for v in ids:
        left = 0
        for u in into_u[v]:
            if want[u] != v:
                want[u] = v
                left += 1
        seen_by[v] = v
        queue = [v]
        head = 0
        while left:
            if head == len(queue):
                raise VerificationFailed("absorbing set is not strongly connected")
            x = queue[head]
            head += 1
            for w, wv in adj[x]:
                if seen_by[w] != v:
                    seen_by[w] = v
                    prev[w] = x
                    pvia[w] = wv
                    queue.append(w)
                    if want[w] == v:
                        left -= 1
        for u, via in zip(into_u[v], into_via[v]):
            path = []
            x = u
            while x != v:
                path.append(pvia[x])
                x = prev[x]
            path.append(via)
            vias = tuple(reversed(path))
            if vias in tried:
                continue
            tried.add(vias)
            for s in range(len(vias)):
                rings.add(canonical_rotation(rings_module._ring_from_vias(vias, s)))
    return rings


def _merged_components(g, rings, absorbing):
    """Reference merge: rings merged on shared coalitions to a fixed point,
    each family kept when it is a ring component; a family that covers
    every member of the set and is none raises."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ring in sorted(rings):
        for c in ring:
            parent.setdefault(c, c)
        base = find(ring[0])
        for c in ring[1:]:
            r = find(c)
            if r != base:
                parent[r] = base
    groups = {}
    for c in parent:
        groups.setdefault(find(c), set()).add(c)
    comps = []
    for fam in sorted(groups.values(), key=lambda s: tuple(sorted(s))):
        rc = rings_module._ring_component(g, fam)
        if rc is not None:
            comps.append(rc)
        elif all(fam.intersection(pi) for pi in absorbing.members):
            raise VerificationFailed("merged ring family fails the ring component test")
    return comps


def _family_list(rings):
    """The merged families of ``rings`` in the order of their sorted
    coalitions, as ``_ring_families`` lists them."""
    return sorted((set(f) for f in _merged_families(rings)), key=lambda f: tuple(sorted(f)))


class TestExtractionMatchesPerEdgeSearch:
    """The reference extraction against one search per edge, and the
    library's families and components, whose searches stop early, against
    both."""

    @pytest.mark.parametrize("name", sorted(EXTRACTION_GAMES))
    def test_generated(self, name):
        self._check(EXTRACTION_GAMES[name]())

    @pytest.mark.parametrize("fixture", ["g6", "g7", "g8"])
    def test_worked_examples(self, fixture, request):
        self._check(request.getfixturevalue(fixture))

    @staticmethod
    def _check(g):
        graph = full_domination_graph(g)
        sinks = [a for a in sink_components(graph) if not a.trivial]
        assert sinks
        for a in sinks:
            rings = _per_edge_rings(graph, a)
            assert _extract_rings(graph, a) == rings
            assert _ring_families(graph, a) == _family_list(rings)
            assert ring_components_of(g, a, graph) == _merged_components(g, rings, a)


class TestRingMergeSeed42:
    """Roommate seed 42: rings 47-49-79 and 57-59-79 share 79, and their
    merged family is no ring component. It has no coalition in member
    {1,26,38,45,7,9}, so it is no party of the set's decomposition either,
    and extraction drops it instead of failing."""

    @pytest.fixture(scope="class")
    def case(self):
        g = roommate_to_game(random_roommate_spec(9, 0.7, seed=42))
        graph = full_domination_graph(g)
        (sink,) = [a for a in sink_components(graph) if not a.trivial]
        return g, graph, sink

    def test_raw_rings(self, case):
        _, graph, sink = case
        assert _extract_rings(graph, sink) == {
            canonical_rotation(tuple(C(t) for t in ring))
            for ring in (("14", "15", "45"), ("47", "49", "79"), ("57", "59", "79"))
        }
        assert _ring_families(graph, sink) == [
            {C(t) for t in ("14", "15", "45")},
            {C(t) for t in ("47", "49", "79", "57", "59")},
        ]

    def test_merged_family_is_no_component(self, case):
        g, _, sink = case
        family = [C(t) for t in ("47", "49", "79", "57", "59")]
        assert not is_ring_component(g, family)
        assert any(not set(family) & set(pi) for pi in sink.members)

    def test_only_the_covering_ring_is_kept(self, case):
        g, graph, sink = case
        assert [rc.coalitions for rc in ring_components_of(g, sink, graph)] == [
            tuple(sorted(C(t) for t in ("14", "15", "45")))
        ]

    def test_decomposition(self, case):
        g, graph, sink = case
        assert len(sink) == 12
        (d,) = all_stable_decompositions(g)
        assert d.render(g.n) == "{{14,15,45},{26},{38},{7,9}}"
        assert check_stable_decomposition(g, d) == []
        assert generated_set(g, d_structures(g, d)[0]).members == sink.members
        assert all_stable_decompositions(g, graph=graph) == [d]


class TestRingMemo:
    def test_repeat_call_returns_fresh_equal_list(self, g7):
        graph = full_domination_graph(g7)
        (big,) = [a for a in sink_components(graph) if not a.trivial]
        first = ring_components_of(g7, big, graph)
        second = ring_components_of(g7, big, graph)
        assert first == second
        assert first is not second

    @pytest.mark.parametrize("fixture", ["g6", "g7"])
    def test_analyze_extracts_once_per_sink(self, fixture, request, monkeypatch, capsys):
        # the ring section and the decompositions share one Analysis
        g = request.getfixturevalue(fixture)
        calls = []

        def counting(G, absorbing):
            calls.append(absorbing.members)
            return _ring_families(G, absorbing)

        monkeypatch.setattr(rings_module, "_ring_families", counting)
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(g.to_dict())))
        assert main(["analyze", "-", "--all", "--json"]) == 0
        nontrivial = [a.members for a in absorbing_sets(g) if not a.trivial]
        assert nontrivial
        assert sorted(calls) == sorted(nontrivial)


class TestSearchesStopEarly:
    """Every ring is a cycle of the step digraph (a coalition of a member
    to the via of an out-edge meeting it), so once each of its strongly
    connected components of two or more coalitions is one family, the
    searches stop."""

    @staticmethod
    def _count_walks(monkeypatch):
        # one ring walk per start position of each distinct cycle
        walks = []
        real = rings_module._ring_from_vias

        def counting(vias, start_idx):
            walks.append(vias)
            return real(vias, start_idx)

        monkeypatch.setattr(rings_module, "_ring_from_vias", counting)
        return walks

    @pytest.mark.parametrize("fixture", ["g6", "g7"])
    def test_analyze_grows_no_graph_for_rings(self, fixture, request, monkeypatch, capsys):
        g = request.getfixturevalue(fixture)
        grown = []
        real_grow = absorbing_module._grow

        def counting(*args):
            grown.append(args[0])
            return real_grow(*args)

        monkeypatch.setattr(absorbing_module, "_grow", counting)
        monkeypatch.setattr(dynamics_module, "_grow", counting)
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(g.to_dict())))
        assert main(["analyze", "-", "--all", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ring_components"]
        # one graph per factor that needs one, none for the rings
        assert len(grown) == sum(f.graph is not None for f in Analysis(g).factors)

    def test_fewer_ring_walks_than_the_full_extraction(self, monkeypatch):
        g = roommate_to_game(random_roommate_spec(9, 0.7, seed=42))
        graph = full_domination_graph(g)
        (sink,) = [a for a in sink_components(graph) if not a.trivial]
        walks = self._count_walks(monkeypatch)
        full = _extract_rings(graph, sink)
        all_walks = len(walks)
        walks.clear()
        families = _ring_families(graph, sink)
        assert families == _family_list(full)
        assert 0 < len(walks) < all_walks

    def test_a_component_no_family_fills_runs_every_search(self):
        # roommate (8, 0.9) seed 882: one step-digraph component also holds
        # {1,6}, {3,6} and {2,8}, which no ring holds, so it never becomes
        # one family and every member is searched (the ring walks of cycles
        # whose vias already lie in one family are still skipped)
        g = roommate_to_game(random_roommate_spec(8, 0.9, seed=882))
        graph = full_domination_graph(g)
        (sink,) = [a for a in sink_components(graph) if not a.trivial]
        full = _extract_rings(graph, sink)
        families, searched = _family_search(graph, sink)
        assert sorted(searched) == sorted(graph.node_id(pi) for pi in sink.members)
        assert families == _family_list(full)
        assert not {C("16"), C("36"), C("28")} & set().union(*families)
        assert ring_components_of(g, sink, graph) == _merged_components(g, full, sink)


# random_roommate_spec(9, 0.7, seed), seeds 1-30 and 42 (population 0 of
# the roommate-rings benchmark): per game with a non-trivial absorbing set,
# (members, searches from the most in-edges, searches in id order) of each
# such set of a factor with a graph; every one of these factors has no
# stable matching, so its graph is the closure of its P-stable matchings
# and its ids are in discovery order
POPULATION0_SEARCHES = {
    2: [(164, 3, 21)], 3: [(583, 4, 19)], 5: [(555, 2, 12)], 6: [(3, 1, 1)],
    11: [(3, 1, 1)], 15: [(521, 3, 29)], 16: [(1030, 4, 10)], 19: [(883, 4, 34)],
    21: [(138, 5, 53)], 22: [(526, 2, 15)], 23: [(1088, 4, 38)], 25: [(103, 2, 13)],
    26: [(578, 4, 18)], 42: [(12, 3, 3)],
}


def test_population0_search_counts():
    """The searches start at the members with the most in-edges: 42 on the
    14 non-trivial sets of population 0, where id order needs 267."""
    got = {}
    for seed in list(range(1, 31)) + [42]:
        g = roommate_to_game(random_roommate_spec(9, 0.7, seed))
        for f in Analysis(g).factors:
            for a in f.sets:
                if a.trivial:
                    continue
                ids = sorted(f.graph.node_id(pi) for pi in a.members)
                families, searched = _family_search(f.graph, a)
                by_id, searched_by_id = _family_search(f.graph, a, ids)
                assert families == by_id
                got.setdefault(seed, []).append((len(a), len(searched), len(searched_by_id)))
    assert got == POPULATION0_SEARCHES
    counts = [c for sets in got.values() for c in sets]
    assert (sum(c[1] for c in counts), sum(c[2] for c in counts)) == (42, 267)


# Games where the strongly connected components of the unanimous-improvement
# digraph over the coalitions held in a non-trivial absorbing set differ from
# its ring families, found by a sweep over random_game(n, p, seed) and
# random_roommate_spec(8, 0.9, seed): an extra component no ring reaches, or a
# component that swallows a coalition no ring holds and then fails the test.
COALITION_SCC_COUNTEREXAMPLES = (
    (6, 0.5, 8909), (6, 0.7, 8149), (6, 0.9, 942), (7, 0.5, 4100), (7, 0.5, 14642),
    (7, 0.5, 17190), (7, 0.65, 14454), (7, 0.8, 6594), (7, 0.8, 7726), (7, 0.8, 15053),
    (8, 0.4, 710),
)
ROOMMATE_SCC_COUNTEREXAMPLES = (59, 1423, 1661, 1876)

# label -> make: every fuzz game, roommate games (n = 9) of the benchmark's
# first two populations and seed 42, a slice of random seven-agent games, and
# the counterexamples above; about 10 s in all on a 2-core x86-64 machine
ROUTE_GAMES = {
    **FUZZ_GAMES,
    **{
        f"roommate9-{s}": (lambda s=s: roommate_to_game(random_roommate_spec(9, 0.7, s)))
        for s in list(range(1, 61)) + [42]
    },
    **{
        f"random7-{p}-{s}": (lambda p=p, s=s: random_game(7, p, s))
        for p in (0.35, 0.5, 0.65, 0.8)
        for s in range(2001, 2101)
    },
    **{
        f"random{n}-{p}-{s}": (lambda n=n, p=p, s=s: random_game(n, p, s))
        for n, p, s in COALITION_SCC_COUNTEREXAMPLES
    },
    **{
        f"roommate8-0.9-{s}": (lambda s=s: roommate_to_game(random_roommate_spec(8, 0.9, s)))
        for s in ROOMMATE_SCC_COUNTEREXAMPLES + (882,)
    },
}


@pytest.mark.parametrize("label", list(ROUTE_GAMES))
def test_components_match_the_full_extraction(label):
    """The ring components, whose searches stop early, equal the reference
    extraction's, content and order, on every non-trivial absorbing set."""
    g = ROUTE_GAMES[label]()
    graph = full_domination_graph(g)
    for a in sink_components(graph):
        if a.trivial:
            continue
        try:
            want = _merged_components(g, _extract_rings(graph, a), a)
        except VerificationFailed as exc:
            with pytest.raises(VerificationFailed, match=str(exc)):
                ring_components_of(g, a, graph)
        else:
            assert ring_components_of(g, a, graph) == want


def _reference_steps(G, absorbing):
    """The step digraph by the parts loop that the key read replaced: on
    every edge ``u -> v`` inside the set, each non-single part of ``u`` that
    meets the via steps to it. Each via with its sources."""
    steps = {}
    for pi in absorbing.members:
        u = G.node_id(pi)
        parts = [x for x in G.nodes[u] if x & (x - 1)]
        for v, via in G.adj[u]:
            for x in parts:
                if x & via:
                    steps.setdefault(via, set()).add(x)
    return steps


def _inlist_family_search(G, absorbing, roots=None):
    """Reference for ``_family_search``: in-lists for every member, each
    search run until it has discovered every in-neighbour of its root, every
    ring walk of every new cycle taken, and the stop checked only between
    searches. The families and the members searched from, in order."""
    ids = [G.node_id(pi) for pi in absorbing.members]
    adj, keys = G.adj, G.keys
    into = {v: [] for v in ids}
    sources, via_of = {}, {}
    for u in ids:
        for v, via in adj[u]:
            if v not in into:
                raise VerificationFailed("absorbing set has an outgoing edge")
            into[v].append(u)
            sources[via] = sources.get(via, 0) | keys[u] & ~keys[v]
            via_of[keys[v] & ~keys[u]] = via
    formed = sorted(sources)
    index = {c: i for i, c in enumerate(formed)}
    back = [[(index[x],) for b, x in via_of.items() if sources[c] & b] for c in formed]
    unmerged = [
        {formed[i] for i in comp} for comp in dynamics_module._tarjan(back) if len(comp) > 1
    ]
    if roots is None:
        roots = sorted(ids, key=lambda v: (-len(into[v]), v))
    family = {}
    tried = set()
    searched = []
    for v in roots:
        if not unmerged:
            break
        searched.append(v)
        want = set(into[v])
        prev, pvia = {v: None}, {}
        queue = deque([v])
        while want:
            if not queue:
                raise VerificationFailed("absorbing set is not strongly connected")
            x = queue.popleft()
            for w, wv in adj[x]:
                if w not in prev:
                    prev[w], pvia[w] = x, wv
                    queue.append(w)
                    want.discard(w)
        for u in into[v]:
            path = []
            x = u
            while x != v:
                path.append(pvia[x])
                x = prev[x]
            path.append(via_of[keys[v] & ~keys[u]])
            vias = tuple(reversed(path))
            if vias in tried:
                continue
            tried.add(vias)
            for s in range(len(vias)):
                ring = _ring_from_vias(vias, s)
                merged = set(ring).union(*(family.get(c, ()) for c in ring))
                for c in merged:
                    family[c] = merged
        unmerged = [comp for comp in unmerged if family.get(min(comp)) != comp]
    groups = {id(f): f for f in family.values()}
    return sorted(groups.values(), key=lambda f: tuple(sorted(f))), searched


# label -> make: the fuzz games, roommate games (n = 9) seeds 1-60 and 42,
# roommate (8, 0.9) seed 882, and the 15 sets where the coalition-digraph
# route was refuted; about 3 s in all on a 2-core x86-64 machine
STEP_GAMES = {
    **FUZZ_GAMES,
    **{label: make for label, make in ROUTE_GAMES.items() if label.startswith("roommate")},
    **{
        f"random{n}-{p}-{s}": (lambda n=n, p=p, s=s: random_game(n, p, s))
        for n, p, s in COALITION_SCC_COUNTEREXAMPLES
    },
}


@pytest.mark.parametrize("label", list(STEP_GAMES))
def test_steps_and_search_order(label):
    """The steps read off the node keys equal the parts loop; the searches,
    which start at the members with the most in-edges, give the families
    that id order gives; and both equal the in-list reference search."""
    g = STEP_GAMES[label]()
    ks = g.permissible
    bit = g.expansion().bit
    graph = full_domination_graph(g)
    for a in sink_components(graph):
        if a.trivial:
            continue
        ids = [graph.node_id(pi) for pi in a.members]
        counted, sources, via_of = rings_module._in_degrees_and_steps(graph, ids)
        read = {c: {x for j, x in enumerate(ks) if mask >> j & 1} for c, mask in sources.items()}
        assert {c: xs for c, xs in read.items() if xs} == _reference_steps(graph, a)
        assert via_of == {bit[c]: c for c in sources}
        indegree = dict.fromkeys(ids, 0)
        for u in ids:
            for v, _ in graph.adj[u]:
                indegree[v] += 1
        assert {v: counted[v] for v in ids} == indegree
        assert all(counted[v] == -1 for v in set(range(len(graph))) - set(ids))
        families, searched = _family_search(graph, a)
        by_id, searched_by_id = _family_search(graph, a, sorted(ids))
        assert families == by_id
        order = sorted(ids, key=lambda v: (-indegree[v], v))
        assert searched == order[: len(searched)]
        assert searched_by_id == sorted(ids)[: len(searched_by_id)]
        assert _inlist_family_search(graph, a) == (families, searched)
        assert _inlist_family_search(graph, a, sorted(ids)) == (by_id, searched_by_id)


def _reference_step_sccs(G, absorbing):
    """The strongly connected components of two or more coalitions of the
    set's step digraph (``_reference_steps``), by reachability, each sorted,
    in sorted order."""
    succ = {}
    for via, xs in _reference_steps(G, absorbing).items():
        for x in xs:
            succ.setdefault(x, set()).add(via)

    def reach(x):
        seen, todo = set(), [x]
        while todo:
            for y in succ.get(todo.pop(), ()):
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return seen

    reached = {x: reach(x) for x in succ}
    comps = {
        tuple(sorted(y for y in reached[x] if x in reached.get(y, ())))
        for x in succ
        if x in reached[x]
    }
    return sorted(c for c in comps if len(c) > 1)


class TestStepSccsAreNotTheComponents:
    """The ring components are not the step-digraph components that pass
    the ring component test, so the search cannot be replaced by them:
    (a) such a component can hold coalitions no ring of the set holds, and
    be listed where the extracted family is smaller or absent; (b) a family
    strictly inside a component that fails the test can pass it. Random
    roommate games; each sweep hit is pinned with its set's sizes."""

    # (agents, density, seed) -> (kind, ring component sizes, sizes of the
    # step components that pass the test)
    CASES = {
        (9, 0.7, 5912): ("a", [12, 3], [13, 3]),
        (9, 0.7, 6284): ("a", [6, 3], [7, 3]),
        (8, 0.9, 10511): ("a", [3], [3, 7]),
        (8, 0.9, 1876): ("b", [14, 3], [3]),
        (9, 0.9, 2247): ("b", [6, 6], [6]),
    }

    @pytest.mark.parametrize("case", list(CASES), ids=lambda c: "roommate%d-%s-%d" % c)
    def test_components_are_extracted_not_read_off_the_step_sccs(self, case):
        kind, sizes, passing_sizes = self.CASES[case]
        n, p, seed = case
        g = roommate_to_game(random_roommate_spec(n, p, seed))
        (f,) = [f for f in Analysis(g).factors if any(not a.trivial for a in f.sets)]
        (sink,) = [a for a in f.sets if not a.trivial]
        got = [rc.coalitions for rc in ring_components_of(f.game, sink, f.graph)]
        want = _merged_components(f.game, _extract_rings(f.graph, sink), sink)
        assert got == [rc.coalitions for rc in want]
        sccs = _reference_step_sccs(f.graph, sink)
        passing = [c for c in sccs if is_ring_component(f.game, c)]
        assert [len(c) for c in got] == sizes
        assert [len(c) for c in passing] == passing_sizes
        assert sorted(got) != passing
        if kind == "a":
            # a component passes the test and is no ring component
            assert any(c not in got for c in passing)
        else:
            # a ring component lies strictly inside a failing component
            failing = [set(c) for c in sccs if c not in passing]
            assert any(set(rc) < c for rc in got for c in failing)


class TestCoalitionSccsAreNotTheComponents:
    """The strongly connected components of the unanimous-improvement
    digraph over the coalitions held in some member of the set are not its
    ring families: preferences alone can close a cycle that the dynamics
    never run."""

    @staticmethod
    def _case(n, p, seed):
        g = random_game(n, p, seed)
        graph = full_domination_graph(g)
        (sink,) = [a for a in sink_components(graph) if not a.trivial]
        held = sorted({c for pi in sink.members for c in pi if c.bit_count() >= 2})
        sccs = [
            {held[i] for i in comp}
            for comp in rings_module._pref_digraph_sccs(g, held)
            if len(comp) >= 3
        ]
        return g, graph, sink, sccs

    def test_a_component_that_no_ring_reaches(self):
        g, graph, sink, sccs = self._case(6, 0.5, 8909)
        extra = {C(t) for t in ("145", "46", "56")}
        assert extra in sccs
        assert is_ring_component(g, extra)
        assert not extra & set().union(*_extract_rings(graph, sink))
        assert [rc.coalitions for rc in ring_components_of(g, sink, graph)] == [
            tuple(sorted(C(t) for t in ("12", "16", "26", "126")))
        ]

    def test_a_swallowed_coalition_fails_the_test(self):
        g, graph, sink, sccs = self._case(7, 0.5, 4100)
        family = {
            C(t) for t in ("13", "134", "17", "27", "127", "37", "137", "237", "147", "1247", "347")
        }
        assert family | {C("346")} in sccs
        assert not is_ring_component(g, family | {C("346")})
        assert family in _family_list(_extract_rings(graph, sink))
        assert tuple(sorted(family)) in [rc.coalitions for rc in ring_components_of(g, sink, graph)]


def _reference_is_ring_component(g, coalitions):
    """Condition (i) as mutual reachability in the in-collection improvement
    digraph, condition (ii) over every maximal set; no shared code with
    the library's SCC routine."""
    B = sorted(set(coalitions))
    if len(B) < 3 or any(c not in g.permissible for c in B):
        return False

    def reach(forward):
        seen, todo = {B[0]}, [B[0]]
        while todo:
            d = todo.pop()
            for e in B:
                a, b = (d, e) if forward else (e, d)
                if e not in seen and a & b and unanimously_prefers(g, b, a):
                    seen.add(e)
                    todo.append(e)
        return len(seen) == len(B)

    if not (reach(True) and reach(False)):
        return False
    for mset in maximal_sets(B):
        inside = set(mset)
        if not any(breaks_maximal_set(g, r, mset) for r in B if r not in inside):
            return False
    return True


def _reference_simple(g, coalitions):
    B = sorted(set(coalitions))
    for mset in maximal_sets(B):
        inside = set(mset)
        for r in B:
            if r in inside or not breaks_maximal_set(g, r, mset):
                continue
            if sum(1 for m in mset if m & r) != 1:
                return False
    return True


def _reference_compact(g, coalitions):
    B = sorted(set(coalitions))
    if _reference_simple(g, B):
        return maximal_sets(B)
    return [(r,) for r in B]


def _merged_families(rings):
    """Rings merged on shared coalitions, one set at a time."""
    fams: list[set] = []
    for ring in rings:
        merged = set(ring)
        rest = []
        for f in fams:
            if f & merged:
                merged |= f
            else:
                rest.append(f)
        fams = rest + [merged]
    return sorted(frozenset(f) for f in fams)


REFERENCE_GAMES = {
    name: EXTRACTION_GAMES[name]
    for name in ("roommate9-2", "roommate9-6", "roommate9-42", "random6-0.5-45",
                 "random6-0.5-60", "random7-0.3-4", "random8-0.2-26")
}


KNOWN_COMPONENTS = {"g6": [("12", "23", "13"), ("45", "46", "56")], "g7": [RC7], "g8": [RC8]}


def _reference_game(name, request):
    if name in REFERENCE_GAMES:
        return REFERENCE_GAMES[name]()
    return request.getfixturevalue(name)


class TestRingComponentMatchesReference:
    """The one ring-component analysis against separate loops straight
    from the definitions."""

    @pytest.mark.parametrize("name", ["g6", "g7", "g8"] + sorted(REFERENCE_GAMES))
    def test_extracted_components(self, name, request):
        g = _reference_game(name, request)
        graph = full_domination_graph(g)
        comps = [
            rc
            for a in sink_components(graph)
            if not a.trivial
            for rc in ring_components_of(g, a, graph)
        ]
        assert comps
        for rc in comps:
            B = rc.coalitions
            assert _reference_is_ring_component(g, B)
            assert rc.simple == _reference_simple(g, B)
            assert list(rc.maximal) == maximal_sets(B)
            assert list(rc.compact) == _reference_compact(g, B)
            assert component(g, B) == rc
            assert classify_simple(g, B) == rc.simple
            assert compact_collection(g, B) == list(rc.compact)

    @pytest.mark.parametrize("name", ["g6", "g7", "g8", "mar33", "random6-0.5-45",
                                      "random7-0.3-4"])
    def test_random_collections(self, name, request):
        g = _reference_game(name, request)
        rng = random.Random(name)
        ks = list(g.permissible)
        picks = [rng.sample(ks, rng.randint(3, min(6, len(ks)))) for _ in range(150)]
        picks += [ks, ks[:2], ks[:3] + [ks[0] | ks[1]]]
        for known in KNOWN_COMPONENTS.get(name, ()):
            rc = [C(t) for t in known]
            picks += [rc, rc[1:]] + [rc + [c] for c in ks if c not in rc]
        seen = {True: 0, False: 0}
        for pick in picks:
            want = _reference_is_ring_component(g, pick)
            seen[want] += 1
            assert is_ring_component(g, pick) == want
            if want:
                assert classify_simple(g, pick) == _reference_simple(g, pick)
                assert compact_collection(g, pick) == _reference_compact(g, pick)
            else:
                for f in (component, classify_simple, compact_collection):
                    with pytest.raises(NotARingComponent):
                        f(g, pick)
        assert seen[False]
        assert seen[True] >= len(KNOWN_COMPONENTS.get(name, ()))


class TestOneAnalysisPerFamily:
    @staticmethod
    def _count(monkeypatch):
        tests, msets = [], []
        ring_component, real_maximal = rings_module._ring_component, rings_module.maximal_sets

        def counting_component(g, coalitions):
            coalitions = set(coalitions)
            tests.append(frozenset(coalitions))
            return ring_component(g, coalitions)

        def counting_maximal(collection):
            collection = list(collection)
            msets.append(frozenset(collection))
            return real_maximal(collection)

        monkeypatch.setattr(rings_module, "_ring_component", counting_component)
        monkeypatch.setattr(rings_module, "maximal_sets", counting_maximal)
        return tests, msets

    @pytest.mark.parametrize("name", ["g6", "g7", "g8"] + sorted(REFERENCE_GAMES))
    def test_ring_components_of(self, name, request, monkeypatch):
        g = _reference_game(name, request)
        graph = full_domination_graph(g)
        sinks = [a for a in sink_components(graph) if not a.trivial]
        families = sorted(f for a in sinks for f in _merged_families(_extract_rings(graph, a)))
        tests, msets = self._count(monkeypatch)
        for a in sinks:
            ring_components_of(g, a, graph)
        # one ring-component test and at most one maximal_sets per family
        assert sorted(tests) == families
        assert len(set(msets)) == len(msets)
        assert set(msets) <= set(families)

    @pytest.mark.parametrize("rejected,raises", [("12 13 23", False), ("45 46 56", True)])
    def test_only_a_covering_family_must_be_a_component(self, g6, rejected, raises, monkeypatch):
        # g6 pools agents 1-3: {12,13,23} misses a member, {45,46,56} covers all
        rejected = {C(t) for t in rejected.split()}
        real = rings_module._ring_component
        monkeypatch.setattr(
            rings_module,
            "_ring_component",
            lambda g, coalitions: None if set(coalitions) == rejected else real(g, coalitions),
        )
        (sink,) = absorbing_sets(g6)
        graph = full_domination_graph(g6)
        if raises:
            with pytest.raises(VerificationFailed, match="merged ring family fails"):
                ring_components_of(g6, sink, graph)
        else:
            comps = ring_components_of(g6, sink, graph)
            assert [rc.coalitions for rc in comps] == [tuple(sorted(C(t) for t in ("45", "46", "56")))]

    def test_make_party(self, g7, g8, monkeypatch):
        tests, msets = self._count(monkeypatch)
        make_party(g7, [C(t) for t in RC7])
        make_party(g8, [C(t) for t in RC8])
        assert len(tests) == len(msets) == 2


@pytest.mark.parametrize("label", list(FUZZ_GAMES))
def test_breaking_bits_match_the_definition(label):
    """On every maximal set of every ring family that ``_ring_component``
    tests, the K-bits of ``_breaking`` are the coalitions that
    ``breaks_maximal_set`` says break it."""
    g = FUZZ_GAMES[label]()
    ks = g.permissible
    for f in Analysis(g).factors:
        for a in f.sets:
            if a.trivial:
                continue
            for fam in _ring_families(f.graph, a):
                for mset in maximal_sets(fam):
                    found = _breaking(g, mset)
                    got = [c for j, c in enumerate(ks) if found >> j & 1]
                    assert got == [c for c in ks if breaks_maximal_set(g, c, mset)]
