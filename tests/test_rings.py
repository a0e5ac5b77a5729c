"""Rings, ring extraction from domination cycles, ring components."""

import itertools
import json
import random

import pytest

from stabledec import (
    AbsorbingSet,
    Analysis,
    Game,
    MalformedParty,
    NotACycle,
    NotARingComponent,
    Party,
    RING,
    StartNotInCycle,
    TrivialAbsorbingSet,
    VerificationFailed,
    absorbing_sets,
    all_stable_decompositions,
    breaks_maximal_set,
    check_stable_decomposition,
    canonical_rotation,
    classify_simple,
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
    maximal_sets,
    render_coalition,
    ring_components_of,
    sink_components,
)
from stabledec import absorbing as absorbing_module
from stabledec import dynamics as dynamics_module
from stabledec import rings as rings_module
from stabledec.rings import _family_search, _ring_families
from stabledec.structures import _maximal_search, structure_key
import oracle
from games import (
    EVERY_3_AGENT_GAME,
    EXTRACTION_GAMES,
    FUZZ_GAMES,
    RC7,
    RC8,
    REFERENCE_GAMES,
    ROUTE_GAMES,
    STEP_GAMES,
    C,
    build,
    make_structure,
    rnd,
    room,
)
from oracle import (
    analyze_json,
    reference_in_degrees,
    spy,
    _extract_rings,
    _family_list,
    _folded_steps,
    _in_edges,
    _inlist_family_search,
    _merged_components,
    _merged_families,
    _per_edge_rings,
    _reference_compact,
    _reference_is_ring_component,
    _reference_ring_from_vias,
    _reference_simple,
    _reference_step_sccs,
    _reference_steps,
    _root_cycles,
    reference_maximal_sets,
    reference_ring_component,
)


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

    def test_no_ring_no_proper_ring(self, g7):
        # the five-cycle reversed: every step meets, none improves
        assert not is_proper_ring(g7, [C(t) for t in ("45", "34", "23", "12", "15")])

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
        assert canonical_rotation(()) == ()

    def test_cyclically_equal(self):
        a = (C("45"), C("15"), C("12"), C("23"), C("34"))
        b = (C("12"), C("23"), C("34"), C("45"), C("15"))
        assert cyclically_equal(a, b)
        assert not cyclically_equal(a, tuple(reversed(a)))
        assert not cyclically_equal(a, a[:4])
        assert cyclically_equal((), ())
        assert not cyclically_equal((), (C("12"),))
        assert not cyclically_equal((C("12"),), ())


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
        got = component(g7, [C(t) for t in RC7]).compact
        assert got == (
            (C("12"), C("34")),
            (C("12"), C("45")),
            (C("23"), C("15")),
            (C("23"), C("45")),
            (C("34"), C("15")),
        )

    def test_non_simple_uses_singletons(self, g8):
        got = component(g8, [C(t) for t in RC8]).compact
        assert got == tuple((c,) for c in sorted(C(t) for t in RC8))


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

    def test_set_must_be_one_sink_component(self):
        # random_game(6, 0.5, 114): one 3-member non-trivial sink, carrying
        # the ring {1,3},{2,3,5},{1,5,6}, and the stable structure
        # {1,2,3,5} {4} {6}. A strict part of the sink has an edge out; the
        # union with the stable structure is closed but not strongly
        # connected. Neither is an absorbing set
        g = rnd(6, 0.5, 114)
        graph = full_domination_graph(g)
        (big,) = [a for a in sink_components(graph) if not a.trivial]
        stable = make_structure(g, "1235 4 6")
        assert AbsorbingSet((stable,)) in sink_components(graph)
        (rc,) = ring_components_of(g, big, graph)
        assert rc.coalitions == (C("13"), C("235"), C("156"))
        union = AbsorbingSet(tuple(sorted((*big.members, stable), key=structure_key)))
        for members in (big.members[:2], union.members):
            with pytest.raises(VerificationFailed, match="not one sink component"):
                ring_components_of(g, AbsorbingSet(members), graph)


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
        graph = build(g).graph
        sinks = [a for a in sink_components(graph) if not a.trivial]
        assert sinks
        for a in sinks:
            rings = _per_edge_rings(graph, a)
            assert _extract_rings(graph, a) == rings
            assert _ring_families(g, graph, a) == _family_list(rings)
            assert ring_components_of(g, a, graph) == _merged_components(g, rings, a)


class TestRingMergeSeed42:
    """Roommate seed 42: rings 47-49-79 and 57-59-79 share 79, and their
    merged family is no ring component. It has no coalition in member
    {1,26,38,45,7,9}, so it is no party of the set's decomposition either,
    and extraction drops it instead of failing."""

    @pytest.fixture(scope="class")
    def case(self):
        g = room(9, 0.7, 42)
        graph = build(g).graph
        (sink,) = [a for a in sink_components(graph) if not a.trivial]
        return g, graph, sink

    def test_raw_rings(self, case):
        g, graph, sink = case
        assert _extract_rings(graph, sink) == {
            canonical_rotation(tuple(C(t) for t in ring))
            for ring in (("14", "15", "45"), ("47", "49", "79"), ("57", "59", "79"))
        }
        assert _ring_families(g, graph, sink) == [
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
    def test_analyze_extracts_once_per_sink(self, fixture, request, monkeypatch):
        # the ring section and the decompositions share one Analysis
        g = request.getfixturevalue(fixture)
        calls = spy(monkeypatch, [], rings_module, "_ring_families", lambda g, G, a: a.members)
        analyze_json(g)
        nontrivial = [a.members for a in absorbing_sets(g) if not a.trivial]
        assert nontrivial
        assert sorted(calls) == sorted(nontrivial)


class TestSearchesStopEarly:
    """Every ring is a cycle of the step digraph (a coalition of a member
    to the via of an out-edge meeting it), so once each of its strongly
    connected components of two or more coalitions is one family, the
    searches stop."""

    @pytest.mark.parametrize("fixture", ["g6", "g7"])
    def test_analyze_grows_no_graph_for_rings(self, fixture, request, monkeypatch):
        g = request.getfixturevalue(fixture)
        grown = []
        for module in (absorbing_module, dynamics_module):
            spy(monkeypatch, grown, module, "_grow", lambda *args: args[0])
        report = json.loads(analyze_json(g))
        assert report["ring_components"]
        # one graph per factor that needs one, none for the rings
        assert len(grown) == sum(f.graph is not None for f in Analysis(g).factors)

    def test_fewer_ring_walks_than_the_full_extraction(self, monkeypatch):
        g = room(9, 0.7, 42)
        graph = build(g).graph
        (sink,) = [a for a in sink_components(graph) if not a.trivial]
        # one ring walk per start position of each distinct cycle
        all_walks = spy(monkeypatch, [], oracle, "_reference_ring_from_vias", lambda vias, s: vias)
        full = _extract_rings(graph, sink)
        walks = spy(monkeypatch, [], rings_module, "_ring_from_vias", lambda vias, s, t: vias)
        families = _ring_families(g, graph, sink)
        assert families == _family_list(full)
        assert 0 < len(walks) < len(all_walks)

    def test_a_component_no_family_fills_runs_every_search(self):
        # roommate (8, 0.9) seed 882: one step-digraph component also holds
        # {1,6}, {3,6} and {2,8}, which no ring holds, so it never becomes
        # one family and every member is searched (the ring walks of cycles
        # whose vias already lie in one family are still skipped)
        g = room(8, 0.9, 882)
        graph = build(g).graph
        (sink,) = [a for a in sink_components(graph) if not a.trivial]
        full = _extract_rings(graph, sink)
        families, searched = _family_search(g, graph, sink)
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
    14 non-trivial sets of population 0, where id order (the in-list
    reference search, ``oracle._inlist_family_search``) needs 267."""
    got = {}
    for seed in list(range(1, 31)) + [42]:
        for f in build(room(9, 0.7, seed)).analysis.factors:
            for a in f.sets:
                if a.trivial:
                    continue
                ids = sorted(f.graph.node_id(pi) for pi in a.members)
                families, searched = _family_search(f.game, f.graph, a)
                by_id, searched_by_id = _inlist_family_search(f.graph, a, ids)
                assert families == by_id
                got.setdefault(seed, []).append((len(a), len(searched), len(searched_by_id)))
    assert got == POPULATION0_SEARCHES
    counts = [c for sets in got.values() for c in sets]
    assert (sum(c[1] for c in counts), sum(c[2] for c in counts)) == (42, 267)


@pytest.mark.parametrize("label", list(ROUTE_GAMES))
def test_components_match_the_full_extraction(label):
    """The ring components, whose searches stop early, equal the reference
    extraction's, content and order, on every non-trivial absorbing set."""
    b = build(ROUTE_GAMES[label]())
    g, graph = b.game, b.graph
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


@pytest.mark.parametrize("label", list(STEP_GAMES))
def test_steps_and_search_order(label):
    """The steps folded per member off the node keys equal the parts loop;
    the searches, which start at the members with the most in-edges, give
    the families that the in-list reference search gives in id order; and
    they equal that reference started in their own order."""
    b = build(STEP_GAMES[label]())
    g, graph = b.game, b.graph
    ks = g.permissible
    for a in sink_components(graph):
        if a.trivial:
            continue
        ids = [graph.node_id(pi) for pi in a.members]
        counted, formed, _ = rings_module._in_degrees_and_steps(graph, ids)
        vias = {c for j, c in enumerate(ks) if formed >> j & 1}
        assert vias == {via for u in ids for _, via in graph.adj[u]}
        assert _folded_steps(g, graph, a) == _reference_steps(graph, a)
        indegree = dict.fromkeys(ids, 0)
        for u in ids:
            for v, _ in graph.adj[u]:
                indegree[v] += 1
        assert {v: counted[v] for v in ids} == indegree
        assert counted == reference_in_degrees(graph.succ)
        families, searched = _family_search(g, graph, a)
        by_id, searched_by_id = _inlist_family_search(graph, a, sorted(ids))
        assert families == by_id
        order = sorted(ids, key=lambda v: (-indegree[v], v))
        assert searched == order[: len(searched)]
        assert searched_by_id == sorted(ids)[: len(searched_by_id)]
        assert _inlist_family_search(graph, a) == (families, searched)


def test_step_digraph_components_match_the_reference():
    """The digraph builder (``rings._kbit_sccs``) on the step digraph that
    ``_in_degrees_and_steps`` folds per member: its components of two or
    more coalitions equal the reachability reference
    (``oracle._reference_step_sccs``) on every non-trivial set of every
    factor of the step games."""
    failing = []
    for label, make in STEP_GAMES.items():
        for f in build(make()).analysis.factors:
            g, graph = f.game, f.graph
            ks = g.permissible
            meets = g.expansion().meets
            for k, a in enumerate(f.sets):
                if a.trivial:
                    continue
                ids = [graph.node_id(pi) for pi in a.members]
                _, formed, fold = rings_module._in_degrees_and_steps(graph, ids)
                vias = [j for j in range(len(ks)) if formed >> j & 1]
                comps = rings_module._kbit_sccs(meets, formed, [fold[1 << j] for j in vias])
                got = sorted(
                    tuple(sorted(ks[vias[i]] for i in comp)) for comp in comps if len(comp) > 1
                )
                if got != _reference_step_sccs(graph, a):
                    failing.append(f"{label} set {k}")
    assert not failing, "step components differ: " + ", ".join(failing)


@pytest.mark.parametrize("label", list(STEP_GAMES))
def test_table_walks_match_the_scanning_walk(label, monkeypatch):
    """From every start of every cycle that the searches close, the walk on
    the cycle's one ``_walk_table`` gives the ring of the walk that scans
    for each next via; and the search builds tables only on those cycles."""
    b = build(STEP_GAMES[label]())
    g, graph = b.game, b.graph
    walk_table = rings_module._walk_table
    tabled = spy(monkeypatch, [], rings_module, "_walk_table", lambda vias: vias)
    for a in sink_components(graph):
        if a.trivial:
            continue
        tabled.clear()
        _, searched = _family_search(g, graph, a)
        closed = {
            vias
            for _, cycles in _root_cycles(graph, _in_edges(graph, a), searched)
            for vias in cycles
        }
        assert set(tabled) <= closed
        for vias in closed:
            table = walk_table(vias)
            for s in range(len(vias)):
                assert rings_module._ring_from_vias(vias, s, table) == (
                    _reference_ring_from_vias(vias, s)
                )


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
        (f,) = [f for f in build(room(n, p, seed)).analysis.factors if any(not a.trivial for a in f.sets)]
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
        b = build(rnd(n, p, seed))
        g, graph = b.game, b.graph
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
        graph = build(g).graph
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
                assert list(component(g, pick).compact) == _reference_compact(g, pick)
            else:
                for f in (component, classify_simple):
                    with pytest.raises(NotARingComponent):
                        f(g, pick)
        assert seen[False]
        assert seen[True] >= len(KNOWN_COMPONENTS.get(name, ()))

    def test_every_3_agent_game(self):
        # every collection of 3 or more permissible coalitions of every
        # 3-agent game, against mutual reachability through
        # unanimously_prefers, which shares no code with the library's
        # condition (i)
        failed = []
        seen = {True: 0, False: 0}
        for label, make in EVERY_3_AGENT_GAME.items():
            g = make()
            ks = g.permissible
            for r in range(3, len(ks) + 1):
                for B in itertools.combinations(ks, r):
                    want = _reference_is_ring_component(g, B)
                    seen[want] += 1
                    if is_ring_component(g, B) != want:
                        shown = ",".join(map(render_coalition, B))
                        failed.append(f"{label}: {{{shown}}} is a ring component: {want}")
        assert not failed, "\n".join(failed)
        assert seen == {True: 134, False: 1746}


class TestOneAnalysisPerFamily:
    """One maximal-set search per family: ``_ring_component`` decides
    condition (ii) and reads simpleness and the breakers off the same
    search."""

    @staticmethod
    def _count(monkeypatch):
        tests, searches = [], []
        ring_component, real_search = rings_module._ring_component, rings_module._maximal_search

        def counting_component(g, coalitions, *args, **kwargs):
            coalitions = set(coalitions)
            tests.append(frozenset(coalitions))
            return ring_component(g, coalitions, *args, **kwargs)

        def counting_search(g, inside, *args):
            searches.append(frozenset(c for c in g.permissible if g.expansion().bit[c] & inside))
            return real_search(g, inside, *args)

        monkeypatch.setattr(rings_module, "_ring_component", counting_component)
        monkeypatch.setattr(rings_module, "_maximal_search", counting_search)
        return tests, searches

    @pytest.mark.parametrize("name", ["g6", "g7", "g8"] + sorted(REFERENCE_GAMES))
    def test_ring_components_of(self, name, request, monkeypatch):
        g = _reference_game(name, request)
        graph = build(g).graph
        sinks = [a for a in sink_components(graph) if not a.trivial]
        families = sorted(f for a in sinks for f in _merged_families(_extract_rings(graph, a)))
        tests, searches = self._count(monkeypatch)
        for a in sinks:
            ring_components_of(g, a, graph)
        # one ring-component test and one search per family: every merged
        # family of rings is strongly connected
        assert sorted(tests) == families
        assert sorted(searches) == families

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
        # one pruned ``_ring_component`` and one search per party
        tests, searches = self._count(monkeypatch)
        make_party(g7, [C(t) for t in RC7])
        make_party(g8, [C(t) for t in RC8])
        assert tests == searches == [frozenset(C(t) for t in RC7), frozenset(C(t) for t in RC8)]


@pytest.mark.parametrize("label", list(FUZZ_GAMES))
def test_breaking_bits_match_the_definition(label):
    """On every ring family that ``_ring_component`` tests, the search's
    sets are the reference maximal sets, its breakers are the coalitions
    that ``breaks_maximal_set`` says break one of them, and those it marks
    are the ones meeting two members of a set they break."""
    g = FUZZ_GAMES[label]()
    ks = g.permissible
    bit = g.expansion().bit
    an = build(g).analysis
    for f, lift in zip(an.factors, an.lifts):
        for a in f.sets:
            if a.trivial:
                continue
            for fam in _ring_families(f.game, f.graph, a):
                # the factor's family in the whole game's masks
                fam = fam if lift is None else {lift[c] for c in fam}
                inside = sum(bit[c] for c in fam)
                maximal, found, clash = _maximal_search(g, inside)
                msets = reference_maximal_sets(fam)
                assert maximal == msets
                breaking = [[c for c in ks if breaks_maximal_set(g, c, m)] for m in msets]
                assert [c for c in ks if bit[c] & found] == sorted(set().union(*breaking))
                assert [c for c in ks if bit[c] & clash] == sorted({
                    c for m, cs in zip(msets, breaking) for c in cs
                    if sum(1 for x in m if x & c) >= 2
                })


def _with_one_changed(g, families):
    """Each family, then the family without its least coalition and with
    one more K-coalition of the game, where there is one."""
    for fam in families:
        fam = tuple(sorted(fam))
        yield fam
        yield fam[1:]
        extra = [c for c in g.permissible if c not in fam]
        if extra:
            yield fam + (extra[len(extra) // 2],)


def test_ring_component_matches_the_three_pass_reference():
    """``_ring_component`` against ``oracle.reference_ring_component``,
    mutual reachability, the Tomita-pivot maximal sets and a breaker loop over
    every set: all five fields, and every ``None``, on each ring family of
    the step games and on each family with a coalition dropped or added.
    Both conditions fail somewhere."""
    failed = {"(i)": 0, "(ii)": 0}
    for label, make in STEP_GAMES.items():
        for f in build(make()).analysis.factors:
            for a in f.sets:
                if a.trivial:
                    continue
                for fam in _with_one_changed(f.game, _ring_families(f.game, f.graph, a)):
                    got = rings_module._ring_component(f.game, fam)
                    want = reference_ring_component(f.game, fam)
                    assert got == want, (label, fam)
                    if got is not None:
                        assert got.breakers == want.breakers, (label, fam)
                    elif len(fam) >= 3:
                        sccs = rings_module._pref_digraph_sccs(f.game, fam)
                        failed["(i)" if len(sccs) > 1 else "(ii)"] += 1
    assert all(failed.values()), failed


PARTY_GAMES = {**ROUTE_GAMES, **REFERENCE_GAMES}


@pytest.mark.parametrize("label", list(PARTY_GAMES))
def test_make_party_matches_the_three_pass_reference(label):
    """``make_party``, whose one search stops listing and prunes once a
    clash shows the party is not simple (``rings._ring_component`` with
    ``prune``), against
    the party built from ``oracle.reference_ring_component``: the verdict,
    ``compact`` and ``breakers``, on each ring family and on each family
    with one coalition removed."""
    for f in build(PARTY_GAMES[label]()).analysis.factors:
        for a in f.sets:
            if a.trivial:
                continue
            for fam in _ring_families(f.game, f.graph, a):
                fam = tuple(sorted(fam))
                for B in [fam] + [fam[:i] + fam[i + 1:] for i in range(len(fam))]:
                    want = reference_ring_component(f.game, B)
                    if want is None:
                        with pytest.raises(MalformedParty, match="must be ring components"):
                            make_party(f.game, B)
                        continue
                    got = make_party(f.game, B)
                    assert got == Party(RING, B, want.compact), (label, B)
                    assert got.breakers == want.breakers, (label, B)
