"""Parties, prevention, protection, stable decompositions, generated sets."""

import importlib
import json

import pytest

from stabledec import (
    POOL,
    RING,
    SINGLE,
    AgentIdOutOfRange,
    DisjointParty,
    MalformedParty,
    Party,
    PartyIsSingletonPool,
    absorbing_sets,
    all_stable_decompositions,
    check_stable_decomposition,
    d_structures,
    decomposition,
    decomposition_from_collections,
    from_absorbing_set,
    full_domination_graph,
    generated_set,
    is_protected,
    is_stable,
    is_stable_decomposition,
    make_party,
    marriage_to_game,
    parse_game_dsl,
    prevents,
    protection_certificates,
    random_game,
    random_marriage_spec,
    random_roommate_spec,
    render_structure,
    ring_components_of,
    roommate_to_game,
    unprevented_breakers,
)
from stabledec.cli import main, parse_decomposition
from stabledec.structures import breaks_maximal_set
from games import (
    EVERY_3_AGENT_GAME,
    FUZZ_GAMES,
    GENERATED_GAMES,
    GENERATED_IDS,
    RC7,
    RING_UNIONS,
    ROOMMATE9,
    UNIONS,
    C,
    build,
    make_structure,
    split_market,
)
from oracle import (
    analyze_json,
    census_failure,
    spy,
    _defined_breakers,
    _reference_certificates,
    _reference_parties,
    _reference_prevents,
    _reference_witnesses,
    candidates,
    reference_maximal_sets,
)

# the module, which the package's ``decomposition`` function shadows
decomposition_module = importlib.import_module("stabledec.decomposition")

# a pair-chasing triangle on 1-3 and a 2x2 marriage market on 4-7 with two
# stable matchings, {46,57} and {47,56}
TWO_MATCHINGS_DSL = """\
agents: 7
1: 12 | 13 | 1
2: 23 | 12 | 2
3: 13 | 23 | 3
4: 46 | 47 | 4
5: 57 | 56 | 5
6: 56 | 46 | 6
7: 47 | 57 | 7
"""


def collections(*groups):
    return [[C(t) for t in grp] for grp in groups]


@pytest.fixture(scope="module")
def d7_ring(g7):
    return decomposition_from_collections(g7, collections(RC7, ("67",)))


@pytest.fixture(scope="module")
def d7_plain(g7):
    return decomposition_from_collections(
        g7, collections(("123",), ("45",), ("67",))
    )


class TestMakeParty:
    def test_pool(self, g7):
        p = make_party(g7, [C("1"), C("4"), C("5")])
        assert p.kind == POOL
        assert p.coalitions == (C("1"), C("4"), C("5"))
        assert p.agents == C("145")

    def test_single(self, g7):
        p = make_party(g7, [C("467")])
        assert p.kind == SINGLE and p.coalitions == (C("467"),)

    def test_ring(self, g7):
        p = make_party(g7, [C(t) for t in RC7])
        assert p.kind == RING
        assert len(p.compact) == 5

    def test_accepts_member_tuples(self, g7):
        assert make_party(g7, [(6, 7)]).kind == SINGLE

    def test_rejects_empty(self, g7):
        with pytest.raises(MalformedParty):
            make_party(g7, [])
        with pytest.raises(MalformedParty):
            make_party(g7, [0])

    def test_rejects_mixed_sizes(self, g7):
        with pytest.raises(MalformedParty):
            make_party(g7, [C("1"), C("23")])

    def test_rejects_non_permissible_single(self, g7):
        with pytest.raises(MalformedParty):
            make_party(g7, [C("1234")])

    def test_rejects_non_component_collections(self, g7):
        with pytest.raises(MalformedParty):
            make_party(g7, [C("12"), C("23")])
        with pytest.raises(MalformedParty):
            make_party(g7, [C("15"), C("123"), C("34"), C("45")])


class TestPrevents:
    def test_single_party_dissent(self, g7):
        party = make_party(g7, [C("67")])
        # agent 6 would rather keep 67 than join 467
        assert prevents(g7, party, C("467"))

    def test_single_party_no_dissent(self, g7):
        party = make_party(g7, [C("34")])
        # both 4 and 6,7 prefer 467; 3 is not involved
        assert not prevents(g7, party, C("467"))

    def test_own_coalition_not_prevented(self, g7):
        party = make_party(g7, [C("67")])
        assert not prevents(g7, party, C("67"))

    def test_ring_party_needs_every_compact_set(self, g6):
        party = make_party(g6, [C("45"), C("46"), C("56")])
        # compact set {56} has nobody in 34, so 34 slips through
        assert not prevents(g6, party, C("34"))

    def test_ring_party_all_sets_dissent(self, g7, d7_ring):
        ring = d7_ring.parties[0]
        assert ring.kind == RING
        # every compact set holds an agent who would rather stay than
        # move to 123
        assert prevents(g7, ring, C("123"))

    def test_ring_party_one_set_without_dissent(self, g7, d7_ring):
        ring = d7_ring.parties[0]
        # compact set {12,34} cannot hold back 467: agent 4 wants to go
        assert not prevents(g7, ring, C("467"))

    def test_pairwise_intersecting_ring_party(self, rm10):
        party = make_party(rm10, [C("12"), C("23"), C("13")])
        # compact set {23} is disjoint from 17: no dissent available there
        assert not prevents(rm10, party, C("17"))

    def test_pool_cannot_prevent(self, g7):
        pool = make_party(g7, [C("1"), C("2")])
        with pytest.raises(PartyIsSingletonPool):
            prevents(g7, pool, C("45"))
        D = decomposition_from_collections(g7, [[C("1"), C("2"), C("3")], [C("45")], [C("67")]])
        with pytest.raises(PartyIsSingletonPool):
            is_protected(g7, pool, D)

    def test_disjoint_party_rejected(self, g7):
        party = make_party(g7, [C("67")])
        with pytest.raises(DisjointParty):
            prevents(g7, party, C("12"))

    def test_party_of_a_larger_game_rejected(self, g6, g7):
        # agent 7 is in both the party's coalition and 47, but not in g6
        party = make_party(g7, [C("67")])
        with pytest.raises(AgentIdOutOfRange, match=r"^agent id 7 is out of range$"):
            prevents(g6, party, C("47"))


class TestProtection:
    def test_ring_party_protected(self, g7, d7_ring):
        ring, single = d7_ring.parties
        assert unprevented_breakers(g7, ring, d7_ring) == []
        assert is_protected(g7, ring, d7_ring)

    def test_unbroken_party_is_protected(self, g7, d7_ring):
        single = d7_ring.parties[1]
        assert single.coalitions == (C("67"),)
        assert is_protected(g7, single, d7_ring)

    def test_unprotected_party_lists_breakers(self, rm10):
        d = decomposition_from_collections(
            rm10,
            collections(
                ("12", "23", "13"), ("47",), ("58",), ("69",), ("a",)
            ),
        )
        (party,) = [p for p in d.parties if p.coalitions == (C("47"),)]
        assert unprevented_breakers(rm10, party, d) == [C("17")]
        assert not is_protected(rm10, party, d)


class TestCheckStableDecomposition:
    def test_seven_agent_game(self, g7, d7_ring, d7_plain):
        assert check_stable_decomposition(g7, d7_ring) == []
        assert check_stable_decomposition(g7, d7_plain) == []
        d2 = decomposition_from_collections(
            g7, collections(("15",), ("23",), ("467",))
        )
        d3 = decomposition_from_collections(
            g7, collections(("123",), ("467",), ("5",))
        )
        assert is_stable_decomposition(g7, d2)
        assert is_stable_decomposition(g7, d3)

    def test_eight_agent_game(self, g8):
        d1 = decomposition_from_collections(
            g8, collections(("145",), ("23",), ("678",))
        )
        d2 = decomposition_from_collections(
            g8, collections(("145", "12", "23", "356", "46"), ("78",))
        )
        assert is_stable_decomposition(g8, d1)
        assert is_stable_decomposition(g8, d2)

    def test_six_agent_game(self, g6):
        d = decomposition_from_collections(
            g6, collections(("1", "2", "3"), ("45", "46", "56"))
        )
        assert is_stable_decomposition(g6, d)

    def test_roommate_candidates(self, rm10):
        ring = ("12", "23", "13")
        good1 = decomposition_from_collections(
            rm10, collections(ring, ("48",), ("59",), ("67",), ("a",))
        )
        good2 = decomposition_from_collections(
            rm10, collections(ring, ("49",), ("57",), ("68",), ("a",))
        )
        bad = decomposition_from_collections(
            rm10, collections(ring, ("47",), ("58",), ("69",), ("a",))
        )
        assert check_stable_decomposition(rm10, good1) == []
        assert check_stable_decomposition(rm10, good2) == []
        got = check_stable_decomposition(rm10, bad)
        assert len(got) == 1
        v = got[0]
        assert v.code == "unprotected"
        assert v.party.coalitions == (C("47"),)
        assert v.coalition == C("17")
        assert v.describe(10) == (
            "{{4,7}} unprotected against breaker {1,7}"
        )

    def test_multiple_pools(self, g7):
        d = decomposition(
            [
                Party(POOL, (C("1"), C("2"), C("3"))),
                Party(POOL, (C("4"), C("5"))),
                Party(SINGLE, (C("67"),)),
            ]
        )
        got = check_stable_decomposition(g7, d)
        assert [v.code for v in got] == ["multiple-pools"]
        assert got[0].describe(7) == "more than one singleton pool"

    def test_overlapping_parties(self, g7):
        d = decomposition(
            [
                Party(SINGLE, (C("123"),)),
                Party(SINGLE, (C("34"),)),
                Party(POOL, (C("5"), C("6"), C("7"))),
            ]
        )
        got = check_stable_decomposition(g7, d)
        assert len(got) == 1
        assert got[0].code == "not-partition"
        assert got[0].describe(7) == "parties do not partition the agent set"

    def test_uncovered_agents(self, g7):
        d = decomposition(
            [Party(SINGLE, (C("123"),)), Party(POOL, (C("4"), C("5")))]
        )
        got = check_stable_decomposition(g7, d)
        assert [v.code for v in got] == ["not-partition"]

    def test_pool_supporting_a_party(self, g7):
        # no ring party: the first permissible coalition inside the pool
        # blocks the decomposition's only D-structure
        d = decomposition(
            [
                Party(POOL, tuple(C(str(i)) for i in range(1, 6))),
                Party(SINGLE, (C("67"),)),
            ]
        )
        got = check_stable_decomposition(g7, d)
        assert [v.code for v in got] == ["pool-blocks"]
        assert got[0].coalition == C("12")
        assert got[0].describe(7) == "12 blocks the D-structure within the singleton pool"

    def test_marriage_singletons_are_not_stable(self, tmp_path, capsys):
        # the game's only absorbing set is a perfect matching, no single
        # pair of which is protected by the singletons alone
        spec = random_marriage_spec(6, 6, 0.6, seed=6)
        path = tmp_path / "marriage6.json"
        path.write_text(json.dumps(spec.to_dict()))
        pool = json.dumps([[[i] for i in range(1, 13)]])
        assert main(["verify", str(path), "--decomposition", pool]) == 0
        assert capsys.readouterr().out == (
            "not a stable decomposition: {2,7} blocks the D-structure within the singleton pool\n"
        )
        assert len(all_stable_decompositions(marriage_to_game(spec))) == 1

    def test_large_pool_needs_no_search(self):
        g = roommate_to_game(random_roommate_spec(9, 0.7, seed=3))
        d = decomposition([Party(POOL, tuple(1 << b for b in range(9)))])
        got = check_stable_decomposition(g, d, limit=20000)
        assert [v.code for v in got] == ["pool-blocks"]
        assert d.render(9) not in {x.render(9) for x in all_stable_decompositions(g)}

    def test_pool_alone_builds_no_expansion(self):
        # no coalition party: nothing to protect, so no K-bitsets
        g = roommate_to_game(random_roommate_spec(9, 0.7, seed=3))
        d = decomposition([Party(POOL, tuple(1 << b for b in range(9)))])
        assert [v.code for v in check_stable_decomposition(g, d)] == ["pool-blocks"]
        assert g._expansion is None

    def test_ring_decomposition_with_a_party_in_its_pool(self):
        # the listed {{12},{35,37,57,367,3567},{4}} with {12} dissolved: the
        # ring stays protected, and the closure of the D-structure forms 12
        g = random_game(7, 0.5, 31)
        (listed,) = all_stable_decompositions(g)
        assert listed.render(7) == "{{12},{35,37,57,367,3567},{4}}"
        d = decomposition_from_collections(
            g, collections(("35", "37", "57", "367", "3567"), ("1", "2", "4"))
        )
        got = check_stable_decomposition(g, d)
        assert [v.code for v in got] == ["pool-supports-party"]
        assert got[0].party == Party(SINGLE, (C("12"),))
        assert got[0].describe(7) == "singleton pool supports protected party {12}"

    def test_closure_with_two_absorbing_sets(self):
        # a protected ring next to a 2x2 marriage market with two stable
        # matchings: the closure of the D-structure has two sinks, and
        # either one shows a party over the pool
        g = parse_game_dsl(TWO_MATCHINGS_DSL)
        assert [d.render(7) for d in all_stable_decompositions(g)] == [
            "{{12,13,23},{46},{57}}",
            "{{12,13,23},{47},{56}}",
        ]
        d = decomposition_from_collections(
            g, collections(("12", "23", "13"), ("4", "5", "6", "7"))
        )
        got = check_stable_decomposition(g, d)
        assert [v.code for v in got] == ["pool-supports-party"]
        assert got[0].party == Party(SINGLE, (C("46"),))

    def test_pool_checked_only_once_parties_are_protected(self, rm10):
        # {4,7} is unprotected, so the pool, which holds 58 and 69 next to
        # a ring party, is not examined: a closure would exceed limit=1
        d = decomposition_from_collections(
            rm10, collections(("12", "23", "13"), ("47",), ("5", "6", "8", "9", "a"))
        )
        assert [v.code for v in check_stable_decomposition(rm10, d, limit=1)] == [
            "unprotected"
        ]

    def test_verdict_is_partition_aware(self, g6):
        # the decomposition built from the wrong ring component leaves a
        # protected family over the pool
        d = decomposition_from_collections(
            g6, collections(("12", "23", "13"), ("4", "5", "6"))
        )
        assert not is_stable_decomposition(g6, d)


class TestFromAbsorbingSet:
    def test_seven_agent_game(self, g7):
        sets_ = absorbing_sets(g7)
        renders = {from_absorbing_set(g7, a).render(7) for a in sets_}
        assert renders == {
            "{{123},{45},{67}}",
            "{{15},{23},{467}}",
            "{{123},{467},{5}}",
            "{{12,23,34,15,45},{67}}",
        }

    def test_trivial_set_with_leftover_agent(self, g7):
        (a,) = [
            x
            for x in absorbing_sets(g7)
            if x.trivial and x.members[0] == make_structure(g7, "123 467 5")
        ]
        d = from_absorbing_set(g7, a)
        pool = d.pool()
        assert pool is not None and pool.coalitions == (C("5"),)
        kinds = [p.kind for p in d.parties]
        assert kinds.count(SINGLE) == 2

    def test_nontrivial_set(self, g8):
        (big,) = [a for a in absorbing_sets(g8) if not a.trivial]
        d = from_absorbing_set(g8, big)
        assert d.render(8) == "{{12,23,145,46,356},{78}}"
        ring = d.parties[0]
        assert ring.kind == RING and not d.pool()
        assert ring.compact == tuple((c,) for c in ring.coalitions)

    def test_ring_plus_pool(self, g6):
        (only,) = absorbing_sets(g6)
        d = from_absorbing_set(g6, only)
        assert d.render(6) == "{{1,2,3},{45,46,56}}"
        assert d.parties[0].kind == POOL
        assert d.parties[1].kind == RING


class TestDStructures:
    def test_ring_plus_pool(self, g6):
        (d,) = all_stable_decompositions(g6)
        got = d_structures(g6, d)
        assert [render_structure(ds.structure) for ds in got] == [
            "{1} {2} {3} {4,5} {6}",
            "{1} {2} {3} {4,6} {5}",
            "{1} {2} {3} {4} {5,6}",
        ]
        for ds in got:
            ((party, chosen),) = ds.chosen
            assert party.kind == RING and len(chosen) == 1

    def test_simple_ring_yields_cycle(self, g7, d7_ring, cycle7):
        got = d_structures(g7, d7_ring)
        assert len(got) == 5
        assert {ds.structure for ds in got} == set(cycle7)

    def test_non_simple_ring(self, g8):
        d = decomposition_from_collections(
            g8, collections(("145", "12", "23", "356", "46"), ("78",))
        )
        got = {render_structure(ds.structure) for ds in d_structures(g8, d)}
        assert got == {
            "{1,4,5} {2} {3} {6} {7,8}",
            "{1,2} {3} {4} {5} {6} {7,8}",
            "{1} {2,3} {4} {5} {6} {7,8}",
            "{1} {2} {3,5,6} {4} {7,8}",
            "{1} {2} {3} {4,6} {5} {7,8}",
        }

    def test_no_ring_party(self, g7, d7_plain):
        (ds,) = d_structures(g7, d7_plain)
        assert ds.structure == make_structure(g7, "123 45 67")
        assert ds.chosen == ()


class TestGeneratedSet:
    def test_stable_structure_generates_itself(self, g7, d7_plain):
        (ds,) = d_structures(g7, d7_plain)
        a = generated_set(g7, ds.structure)
        assert a.trivial and a.members == (ds.structure,)

    def test_ring_decomposition_generates_cycle(self, g7, d7_ring, cycle7):
        for ds in d_structures(g7, d7_ring):
            a = generated_set(g7, ds.structure)
            assert sorted(a.members) == sorted(cycle7)

    def test_all_d_structures_agree(self, g6):
        (d,) = all_stable_decompositions(g6)
        results = {generated_set(g6, ds.structure).members for ds in d_structures(g6, d)}
        assert len(results) == 1
        assert len(next(iter(results))) == 14


class TestAllStableDecompositions:
    def test_counts(self, g7, g8, g6, rm10, mar33):
        assert len(all_stable_decompositions(g7)) == 4
        assert len(all_stable_decompositions(g8)) == 2
        assert len(all_stable_decompositions(g6)) == 1
        assert len(all_stable_decompositions(rm10)) == 2
        assert len(all_stable_decompositions(mar33)) == 2

    def test_roommate_decompositions(self, rm10):
        got = {d.render(10) for d in all_stable_decompositions(rm10)}
        assert got == {
            "{{{1,2},{1,3},{2,3}},{{4,8}},{{5,9}},{{6,7}},{{10}}}",
            "{{{1,2},{1,3},{2,3}},{{4,9}},{{5,7}},{{6,8}},{{10}}}",
        }

    def test_marriage_decompositions_have_no_ring(self, mar33):
        decs = all_stable_decompositions(mar33)
        assert {d.render(6) for d in decs} == {
            "{{14},{25},{36}}",
            "{{16},{25},{34}}",
        }
        assert all(p.kind == SINGLE for d in decs for p in d.parties)

    def test_iterating_yields_the_parties(self, rm10):
        for d in all_stable_decompositions(rm10):
            assert tuple(d) == d.parties

    def test_every_3_agent_game(self):
        # tests/sweep_census.py runs the same check on the 4-agent families
        failed = []
        for label, make in EVERY_3_AGENT_GAME.items():
            wrong = census_failure(make())
            if wrong is not None:
                failed.append(f"{label}: {wrong}")
        assert not failed, "\n".join(failed)


class TestProtectionCertificates:
    def test_ring_decomposition(self, g7, d7_ring):
        certs = protection_certificates(g7, d7_ring)
        by_party = {c["party"].coalitions: c["breakers"] for c in certs}
        ring_breakers = by_party[tuple(sorted(C(t) for t in RC7))]
        assert len(ring_breakers) == 1
        entry = ring_breakers[0]
        assert entry["coalition"] == C("467")
        assert entry["prevented_by"].coalitions == (C("67"),)
        assert entry["witnesses"] == [(C("67"), 6)]
        assert by_party[(C("67"),)] == []

    def test_unprevented_breaker_has_no_witnesses(self, rm10):
        d = decomposition_from_collections(
            rm10,
            collections(
                ("12", "23", "13"), ("47",), ("58",), ("69",), ("a",)
            ),
        )
        certs = protection_certificates(rm10, d)
        (entry,) = [
            b
            for c in certs
            if c["party"].coalitions == (C("47"),)
            for b in c["breakers"]
            if b["coalition"] == C("17")
        ]
        assert entry["prevented_by"] is None
        assert entry["witnesses"] == []


class TestRoundTripProperties:
    @pytest.mark.parametrize("seed", range(12))
    def test_absorbing_decomposition_round_trip(self, seed):
        g = random_game(5, density=0.45, seed=seed + 500)
        graph = full_domination_graph(g)
        sets_ = absorbing_sets(g)
        decs = all_stable_decompositions(g, graph=graph)
        assert len(decs) == len(sets_)
        for a, d in zip(sets_, decs):
            assert check_stable_decomposition(g, d) == []
            union = 0
            for p in d.parties:
                assert not (p.agents & union)
                union |= p.agents
            assert union == (1 << g.n) - 1
            for ds in d_structures(g, d):
                assert generated_set(g, ds.structure).members == a.members

    @pytest.mark.parametrize("seed", range(12))
    def test_trivial_decompositions_match_stable_structures(self, seed):
        g = random_game(5, density=0.35, seed=seed + 900)
        stable = [
            a.members[0] for a in absorbing_sets(g) if a.trivial
        ]
        decs = all_stable_decompositions(g)
        induced = [
            d_structures(g, d)[0].structure
            for d in decs
            if all(p.kind != RING for p in d.parties)
        ]
        assert sorted(induced) == sorted(stable)
        assert all(is_stable(g, pi) for pi in induced)


def _stable_and_unstable(g):
    """The stable decompositions of the game, the all-singletons pool, and
    each stable one with a coalition party dissolved into the pool."""
    return [d for d, _ in candidates(g, build(g).decompositions)]


class TestBreakerWalkMatchesReference:
    @staticmethod
    def _check(g):
        decs = _stable_and_unstable(g)
        assert decs
        for d in decs:
            certs = protection_certificates(g, d)
            assert certs == _reference_certificates(g, d)
            for entry in certs:
                party = entry["party"]
                assert unprevented_breakers(g, party, d) == [
                    b["coalition"] for b in entry["breakers"] if b["prevented_by"] is None
                ]
                for c in g.permissible:
                    if c & party.agents:
                        want = _reference_prevents(g, party, c)
                        assert prevents(g, party, c) == want
                        witnesses = decomposition_module._witnesses(g, party, c)
                        if want:
                            assert witnesses == _reference_witnesses(g, party, c)

    @pytest.mark.parametrize("front,seed,make", GENERATED_GAMES, ids=GENERATED_IDS)
    def test_generated(self, front, seed, make):
        self._check(make(seed))

    @pytest.mark.parametrize("fixture", ["g6", "g7", "g8", "rm10", "mar33"])
    def test_worked_examples(self, fixture, request):
        self._check(request.getfixturevalue(fixture))

    @pytest.mark.parametrize("name", sorted(UNIONS))
    def test_unions(self, name):
        # several coalition components, as in the split-markets benchmark
        self._check(UNIONS[name])

    def test_pool_party_has_no_breaker(self, g7, d7_plain):
        pool = Party(POOL, (C("1"), C("2")))
        assert unprevented_breakers(g7, pool, d7_plain) == []


class TestOneMaximalSetsPerParty:
    """No breaker walk searches for maximal sets: a single party's only
    maximal set is its coalition, and a ring party carries its ring
    component's breakers."""

    @pytest.mark.parametrize("fixture", ["g6", "g7", "g8", "rm10"])
    def test_breaker_walks(self, fixture, request, monkeypatch):
        g = request.getfixturevalue(fixture)
        decs = _stable_and_unstable(g)
        assert any(p.kind == RING for d in decs for p in d.parties)
        calls = spy(monkeypatch, [], decomposition_module, "_maximal_search")
        for d in decs:
            parties = [p for p in d.parties if p.kind != POOL]
            del calls[:]
            protection_certificates(g, d)
            assert len(calls) == 0
            for p in parties:
                del calls[:]
                unprevented_breakers(g, p, d)
                assert len(calls) == 0


class TestRingPartyMaximalSets:
    """A ring party carries its ring component's breakers, whether it comes
    from an absorbing set, ``make_party`` or ``parse_decomposition``; they
    are the breakers of the definition, and those of the same party built by
    hand without them, which computes them from its maximal sets."""

    @pytest.mark.parametrize("fixture", ["g6", "g7", "g8"])
    def test_breakers_match_computed_maximal_sets(self, fixture, request):
        g = request.getfixturevalue(fixture)
        parties = [p for d in all_stable_decompositions(g) for p in d.parties if p.kind == RING]
        assert parties
        for p in parties:
            assert list(p.breakers) == _defined_breakers(g, p.coalitions)
            bare = Party(RING, p.coalitions, p.compact)
            assert bare.breakers is None and bare == p
            assert decomposition_module._breakers(g, p) == decomposition_module._breakers(g, bare)
            made = make_party(g, p.coalitions)
            assert made.breakers == p.breakers

    def test_parsed_ring_party(self, g7, d7_ring):
        parsed = parse_decomposition(g7, "{{12,23,34,45,15},{67}}")
        assert parsed == d7_ring
        (ring,) = [p for p in parsed.parties if p.kind == RING]
        assert list(ring.breakers) == _defined_breakers(g7, ring.coalitions)
        bare = Party(RING, ring.coalitions, ring.compact)
        assert decomposition_module._breakers(g7, ring) == decomposition_module._breakers(g7, bare)

    def test_hand_built_ring_party_outside_k(self, g7):
        # the breakers it carries do not skip the check on its coalitions
        bad = Party(RING, (C("12"), C("13"), C("23")), (), (C("45"),))
        with pytest.raises(MalformedParty, match=r"^\{1,3\} is not a permissible coalition$"):
            decomposition_module._breakers(g7, bad)


class TestBitsetsMatchDefinitions:
    """The K-bitsets of breaking and prevention (``Game.expansion``) against
    ``breaks_maximal_set`` and the prevention definition, on every coalition
    party of the fuzz games' stable decompositions."""

    @pytest.mark.parametrize("label", list(FUZZ_GAMES))
    def test_fuzz(self, label):
        b = build(FUZZ_GAMES[label]())
        g, decs = b.game, b.decompositions
        bit = g.expansion().bit
        for d in decs:
            masks = decomposition_module._prevention(g, d)
            assert [p for p, _ in masks] == [p for p in d.parties if p.kind != POOL]
            for party, mask in masks:
                own = sum(bit[c] for c in party.coalitions)
                breakers = decomposition_module._breakers(g, Party(party.kind, party.coalitions))
                assert [c for c in g.permissible if breakers & bit[c]] == [
                    c for c in g.permissible if not own & bit[c] and any(
                        breaks_maximal_set(g, c, mset)
                        for mset in reference_maximal_sets(party.coalitions)
                    )
                ]
                for c in g.permissible:
                    assert bool(mask & bit[c]) == _reference_prevents(g, party, c)


def _every_game():
    # (label, build) over the fuzz games, ROOMMATE9 and RING_UNIONS
    for label, make in list(FUZZ_GAMES.items()) + list(ROOMMATE9.items()):
        yield label, build(make())
    for name in RING_UNIONS:
        yield name, build(UNIONS[name])


class TestCarriedBreakers:
    """Every ring party carries the breakers of the definition (the OR over
    its maximal sets of ``breaks_maximal_set``, less its own coalitions), in
    the whole game also when its factor game numbers K differently, and
    ``_breakers`` reads them as the walk over its maximal sets would find
    them."""

    def test_every_ring_party(self):
        seen = {"parties": 0, "factored": 0}
        for label, b in _every_game():
            g, an = b.game, b.analysis
            for d in b.decompositions:
                for p in d.parties:
                    if p.kind != RING:
                        continue
                    seen["parties"] += 1
                    seen["factored"] += len(an.factors) > 1
                    assert list(p.breakers) == _defined_breakers(g, p.coalitions), label
                    bare = Party(RING, p.coalitions, p.compact)
                    got = decomposition_module._breakers(g, p)
                    assert got == decomposition_module._breakers(g, bare), label
        # a factor of a game with several holds a strict part of its K
        assert seen == {"parties": 66, "factored": 16}


class TestKeyBasedParties:
    """``_absorbing_parties`` reads a non-trivial set's parties off its member
    keys; they are the parties of the one-set-per-member reading, on every
    non-trivial set of the fuzz games, the roommate games and the unions."""

    def test_every_nontrivial_set(self):
        sets = 0
        for label, b in _every_game():
            for f in b.analysis.factors:
                for fa in f.sets:
                    if fa.trivial:
                        continue
                    sets += 1
                    comps = ring_components_of(f.game, fa, f.graph)
                    got = decomposition_module._absorbing_parties(f.game, fa, comps, f.graph)
                    assert got == _reference_parties(f.game, fa, comps), label
                    rings = [p for p in got if p.kind == RING]
                    assert all(p.breakers is not None for p in rings)
        assert sets == 57


class TestNonPermissibleParty:
    """A hand-built ``Party`` holding a coalition outside K is refused with
    ``make_party``'s wording by every protection entry point."""

    MESSAGE = r"^\{1,3\} is not a permissible coalition$"

    @pytest.fixture
    def bad(self, g7):
        party = Party(SINGLE, (C("13"),))
        return party, decomposition([party, Party(POOL, tuple(C(t) for t in "24567"))])

    def test_make_party_wording(self, g7):
        with pytest.raises(MalformedParty, match=self.MESSAGE):
            make_party(g7, [C("13")])

    def test_unprevented_breakers(self, g7, bad):
        party, d = bad
        with pytest.raises(MalformedParty, match=self.MESSAGE):
            unprevented_breakers(g7, party, d)

    def test_is_protected(self, g7, bad):
        party, d = bad
        with pytest.raises(MalformedParty, match=self.MESSAGE):
            is_protected(g7, party, d)

    def test_check_stable_decomposition(self, g7, bad):
        _, d = bad
        with pytest.raises(MalformedParty, match=self.MESSAGE):
            check_stable_decomposition(g7, d)

    def test_as_a_preventing_party(self, g7):
        # {2,3} breaks {1,2}; the bad party would be asked whether it prevents it
        good = Party(SINGLE, (C("12"),))
        pool = Party(POOL, tuple(C(t) for t in "457"))
        d = decomposition([good, Party(SINGLE, (C("36"),)), pool])
        with pytest.raises(MalformedParty, match=r"^\{3,6\} is not a permissible coalition$"):
            unprevented_breakers(g7, good, d)


class TestOneProtectionWalkPerDecomposition:
    """``analyze --all --json`` walks the breakers once per coalition party
    and works out prevention and the D-structures once per decomposition:
    the re-check builds them, and the JSON report only renders them."""

    NAMES = ("_breakers", "_prevention", "d_structures")

    def _counted(self, monkeypatch, g):
        calls = []
        for name in self.NAMES:
            spy(monkeypatch, calls, decomposition_module, name)
        decs = json.loads(analyze_json(g))["decompositions"]
        monkeypatch.undo()
        counts = {name: calls.count(name) for name in self.NAMES}
        parties = sum(p["kind"] != POOL for d in decs for p in d["parties"])
        assert counts == {"_breakers": parties, "_prevention": len(decs), "d_structures": len(decs)}
        return counts

    @pytest.mark.parametrize("fixture", ["g6", "g7", "g8", "rm10", "mar33"])
    def test_worked_examples(self, fixture, request, monkeypatch):
        self._counted(monkeypatch, request.getfixturevalue(fixture))

    def test_split_markets_population_0(self, monkeypatch):
        # the benchmark's split-markets games of generator seeds 1-30: three
        # 6-agent submarkets (random, roommate, marriage) side by side
        total = dict.fromkeys(self.NAMES, 0)
        for seed in range(1, 31):
            for name, count in self._counted(monkeypatch, split_market(seed)).items():
                total[name] += count
        assert total == {"_breakers": 419, "_prevention": 61, "d_structures": 61}


class TestWitnessesOnlyForCertificates:
    def test_analyze_json(self, g7, monkeypatch):
        """The re-check decides protection on the bitsets alone: ``analyze
        --json`` looks for witnesses once per prevented breaker of its
        certificates, and building the decompositions looks for none."""
        calls = spy(monkeypatch, [], decomposition_module, "_witnesses")
        all_stable_decompositions(g7)
        assert calls == []
        report = json.loads(analyze_json(g7))
        prevented = [
            b
            for d in report["decompositions"]
            for entry in d["certificates"]
            for b in entry["breakers"]
            if b["prevented_by"] is not None
        ]
        assert prevented
        assert len(calls) == len(prevented)
