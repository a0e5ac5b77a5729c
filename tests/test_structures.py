"""Structures, maximal sets, breaking, blocking, stability, enumeration."""

import itertools

import pytest

from stabledec import (
    AgentIdOutOfRange,
    EmptyCollection,
    Game,
    LimitExceeded,
    MalformedInput,
    blocks,
    breaks,
    breaks_maximal_set,
    coalition_of,
    enumerate_structures,
    is_stable,
    maximal_sets,
    members,
    random_game,
    render_structure,
    singleton_structure,
    structure_from_parts,
    structure_key,
)
from stabledec.rings import _ring_families
from games import FUZZ_GAMES, GENERATED_GAMES, GENERATED_IDS, C, build, make_structure, parts, room
from oracle import reference_maximal_sets


def disjoint_families(coalitions):
    """Every pairwise-disjoint subset of the collection (the empty one too)."""
    out = [()]
    items = sorted(coalitions)
    for r in range(1, len(items) + 1):
        for combo in itertools.combinations(items, r):
            union = 0
            ok = True
            for c in combo:
                if c & union:
                    ok = False
                    break
                union |= c
            if ok:
                out.append(combo)
    return out


class TestStructureBasics:
    def test_canonical_order_by_least_member(self, g7):
        pi = structure_from_parts(g7, [(6, 7), (4,), (1, 5), (2, 3)])
        assert pi == (C("15"), C("23"), C("4"), C("67"))
        assert render_structure(pi) == "{1,5} {2,3} {4} {6,7}"

    def test_accepts_masks(self, g7):
        assert structure_from_parts(g7, [C("123"), C("45"), C("67")]) == (
            C("123"),
            C("45"),
            C("67"),
        )

    def test_rejects_overlap(self, g7):
        with pytest.raises(MalformedInput):
            structure_from_parts(g7, [(1, 2), (2, 3), (4,), (5,), (6, 7)])

    def test_rejects_gaps(self, g7):
        with pytest.raises(MalformedInput):
            structure_from_parts(g7, [(1, 2), (3,), (4, 5)])

    def test_rejects_non_permissible_parts(self, g7):
        with pytest.raises(MalformedInput):
            structure_from_parts(g7, [(1, 2, 3, 4, 5, 6, 7)])

    def test_rejects_empty_part(self, g7):
        with pytest.raises(MalformedInput):
            structure_from_parts(g7, [(), (1, 2)])

    def test_singleton_structure(self):
        assert singleton_structure(3) == (C("1"), C("2"), C("3"))

    def test_coalition_of(self, g8):
        pi = make_structure(g8, "145 23 678")
        assert coalition_of(pi, 8) == C("678")
        assert coalition_of(pi, 1) == C("145")
        pi2 = make_structure(g8, "145 23 6 78")
        assert coalition_of(pi2, 6) == C("6")
        with pytest.raises(AgentIdOutOfRange):
            coalition_of(pi, 9)

    def test_structure_key_orders_members(self, g7):
        a = make_structure(g7, "1 23 45 67")
        b = make_structure(g7, "12 3 45 67")
        assert structure_key(a) < structure_key(b)


class TestMaximalSets:
    def test_five_coalition_component(self, g7):
        got = maximal_sets([C(t) for t in ("12", "23", "34", "45", "15")])
        want = [
            (C("12"), C("34")),
            (C("12"), C("45")),
            (C("23"), C("15")),
            (C("23"), C("45")),
            (C("34"), C("15")),
        ]
        assert got == sorted(want)

    def test_pairwise_intersecting_collapses_to_singletons(self):
        got = maximal_sets([C("12"), C("23"), C("13")])
        assert got == [(C("12"),), (C("13"),), (C("23"),)]

    def test_disjoint_collection_is_its_own_maximal_set(self):
        assert maximal_sets([C("145"), C("23")]) == [(C("23"), C("145"))]

    def test_single_coalitions_are_ignored(self):
        assert maximal_sets([C("1"), C("23")]) == [(C("23"),)]

    def test_empty_collection_rejected(self):
        with pytest.raises(EmptyCollection):
            maximal_sets([])
        with pytest.raises(EmptyCollection):
            maximal_sets([C("1"), C("2")])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_bruteforce_on_random_collections(self, seed):
        g = random_game(6, density=0.5, seed=seed)
        if not g.permissible:
            pytest.skip("empty permissible set")
        families = disjoint_families(g.permissible)
        nonempty = [f for f in families if f]
        want = sorted(
            f
            for f in nonempty
            if not any(set(f) < set(other) for other in nonempty)
        )
        assert maximal_sets(g.permissible) == want

    @pytest.mark.parametrize("seed,size,count", [(3, 22, 122), (16, 27, 287), (19, 26, 243),
                                                 (23, 27, 307)])
    def test_large_ring_families(self, seed, size, count):
        # the one ring family of each of these roommate games, too large for
        # the brute force above
        (f,) = [f for f in build(room(9, 0.7, seed)).analysis.factors if f.graph is not None]
        families = [fam for a in f.sets if not a.trivial for fam in _ring_families(f.game, f.graph, a)]
        assert [len(fam) for fam in families] == [size]
        assert len(_checked_maximal_sets(families[0])) == count

    def test_fuzz_permissible_sets(self):
        for label, make in FUZZ_GAMES.items():
            g = make()
            if g.permissible:
                _checked_maximal_sets(g.permissible)


def _checked_maximal_sets(collection):
    """``maximal_sets`` of the collection, after checking that the list is
    sorted with no repeat, that each set is ascending, pairwise disjoint and
    maximal, that the greedy extension of each coalition is listed, and
    that the list is the Tomita-pivot reference's."""
    ks = sorted({c for c in collection if c.bit_count() >= 2})
    got = maximal_sets(collection)
    assert got == reference_maximal_sets(collection)
    assert got == sorted(set(got))
    for mset in got:
        assert list(mset) == sorted(mset)
        agents = 0
        for c in mset:
            assert not c & agents
            agents |= c
        assert all(c & agents for c in ks)
    listed = set(got)
    for c in ks:
        greedy, agents = [c], c
        for d in ks:
            if not d & agents:
                greedy.append(d)
                agents |= d
        assert tuple(sorted(greedy)) in listed
    return got


class TestBreaks:
    def test_component_breaker(self, g7):
        rc = [C(t) for t in ("12", "23", "34", "45", "15")]
        assert breaks(g7, C("467"), rc)

    def test_break_of_pairwise_intersecting_triple(self, g6):
        assert breaks(g6, C("34"), [C("12"), C("23"), C("13")])

    def test_disjoint_coalition_never_breaks(self, g6):
        assert not breaks(g6, C("56"), [C("12"), C("23"), C("13")])

    def test_must_beat_every_intersected_member(self, g8):
        # 356 meets both members of {145, 23} and beats both
        assert breaks_maximal_set(g8, C("356"), (C("145"), C("23")))
        # 12 meets 145 but agent 1 prefers 12, so {12, 356} resists 145
        assert not breaks_maximal_set(g8, C("145"), (C("12"), C("356")))

    def test_breaks_needs_some_maximal_set(self, g8):
        assert breaks(g8, C("678"), [C(t) for t in ("145", "12", "23", "356", "46")])
        assert not breaks(g8, C("78"), [C("678")])

    def test_collection_without_nonsingles(self, g7):
        assert not breaks(g7, C("12"), [C("3")])


class TestBlocks:
    def test_blocker_of_cycle_member(self, g7, cycle7):
        assert blocks(g7, C("45"), cycle7[0])

    def test_non_blocker(self, g7):
        assert not blocks(g7, C("15"), make_structure(g7, "123 45 67"))

    def test_any_permissible_blocks_all_singletons(self, g7):
        lone = singleton_structure(7)
        for c in g7.permissible:
            assert blocks(g7, c, lone)

    def test_part_never_blocks_its_structure(self, g7):
        pi = make_structure(g7, "123 45 67")
        assert not blocks(g7, C("45"), pi)

    @pytest.mark.parametrize("seed", range(8))
    def test_blocking_decomposes_into_breaking(self, seed):
        # c blocks pi iff it breaks the non-single parts it meets, or meets
        # none of them; permissibility covers the singleton agents
        g = random_game(5, density=0.45, seed=seed)
        for pi in enumerate_structures(g):
            bigs = [p for p in pi if p.bit_count() >= 2]
            for c in g.permissible:
                if c in pi:
                    assert not blocks(g, c, pi)
                    continue
                touched = [p for p in bigs if p & c]
                want = breaks(g, c, touched) if touched else True
                got = blocks(g, c, pi)
                assert got == want, (render_structure(pi), members(c))


class TestIsStable:
    def test_seven_agent_game(self, g7):
        assert is_stable(g7, make_structure(g7, "123 45 67"))
        assert is_stable(g7, make_structure(g7, "15 23 467"))
        # the third stable structure: nobody in 123 or 467 wants to move
        assert is_stable(g7, make_structure(g7, "123 467 5"))
        assert not is_stable(g7, make_structure(g7, "12 34 5 67"))

    def test_six_agent_game_has_none(self, g6):
        assert not any(is_stable(g6, pi) for pi in enumerate_structures(g6))

    def test_empty_permissible_set(self):
        g = random_game(4, density=0.0, seed=1)
        assert g.permissible == ()
        assert is_stable(g, singleton_structure(4))

    @pytest.mark.parametrize("front, seed, make", GENERATED_GAMES, ids=GENERATED_IDS)
    def test_matches_blocks(self, front, seed, make):
        g = make(seed)
        for pi in enumerate_structures(g):
            assert is_stable(g, pi) == (not any(blocks(g, c, pi) for c in g.permissible))

    @pytest.mark.parametrize("structure", ["12", "3", "1 3", "1", ""])
    def test_structure_missing_an_agent(self, structure):
        # agent 3 is in no permissible coalition and {1,2} blocks no
        # structure holding it, so no blocking test reaches a missing agent
        g = Game(3, {1: [(1, 2), (1,)], 2: [(1, 2), (2,)]})
        with pytest.raises(AgentIdOutOfRange, match="is not covered by the structure"):
            is_stable(g, tuple(C(p) for p in structure.split()))


class TestEnumerateStructures:
    def test_counts(self, g7, g8, g6, mar33):
        assert sum(1 for _ in enumerate_structures(g7)) == 32
        assert sum(1 for _ in enumerate_structures(g8)) == 25
        assert sum(1 for _ in enumerate_structures(g6)) == 20
        assert sum(1 for _ in enumerate_structures(mar33)) == 22

    def test_count_matches_disjoint_family_oracle(self, g6):
        # each structure corresponds to one pairwise-disjoint subfamily of
        # the permissible set (the agents left over go single)
        assert len(disjoint_families(g6.permissible)) == 20

    def test_count_matches_independent_recursion(self, g6):
        def count(rest):
            if not rest:
                return 1
            i = min(rest)
            total = count(rest - {i})
            for c in g6.permissible:
                cm = set(members(c))
                if i in cm and cm <= rest:
                    total += count(rest - cm)
            return total

        assert count(set(range(1, 7))) == 20

    def test_contains_cycle_structures(self, g7, cycle7):
        everything = set(enumerate_structures(g7))
        assert set(cycle7) <= everything

    def test_yields_valid_unique_canonical(self, g7):
        seen = set()
        for pi in enumerate_structures(g7):
            assert pi == structure_from_parts(g7, pi)
            assert pi not in seen
            seen.add(pi)

    def test_empty_permissible_yields_singletons(self):
        g = random_game(3, density=0.0, seed=0)
        assert list(enumerate_structures(g)) == [singleton_structure(3)]

    def test_limit_enforced(self, g7):
        with pytest.raises(LimitExceeded):
            list(enumerate_structures(g7, limit=31))
        assert len(list(enumerate_structures(g7, limit=32))) == 32

    @pytest.mark.parametrize("seed", range(6))
    def test_count_matches_family_oracle_on_random_games(self, seed):
        g = random_game(5, density=0.5, seed=seed)
        got = sum(1 for _ in enumerate_structures(g))
        assert got == len(disjoint_families(g.permissible))


class TestEnumerationOrder:
    """Enumeration yields each structure once, already in ``structure_key``
    order; the full domination graph relies on it to skip seed sorting."""

    @pytest.mark.parametrize("front,seed,make", GENERATED_GAMES, ids=GENERATED_IDS)
    def test_generated_games(self, front, seed, make):
        g = make(seed)
        got = list(enumerate_structures(g))
        assert got == sorted(set(got), key=structure_key)

    @pytest.mark.parametrize("fixture", ["g6", "g7", "g8", "mar33"])
    def test_reference_games(self, fixture, request):
        g = request.getfixturevalue(fixture)
        got = list(enumerate_structures(g))
        assert got == sorted(set(got), key=structure_key)

    def test_member_order_differs_from_mask_order(self):
        # {1,2,3} (mask 7) sorts before {1,3} (mask 5) by members
        g = Game(3, {1: parts("13 123 12 1"), 2: parts("12 123 2"), 3: parts("13 123 3")})
        assert list(enumerate_structures(g)) == [
            make_structure(g, t) for t in ("1 2 3", "12 3", "123", "13 2")
        ]
