"""Matching-market front ends, convergence verdicts, random generators."""

import pytest

from stabledec import (
    RING,
    MalformedSpec,
    MarriageSpec,
    RoommateSpec,
    absorbing_sets,
    all_stable_decompositions,
    converges_to_stability,
    enumerate_structures,
    is_stable,
    marriage_to_game,
    random_game,
    random_marriage_spec,
    random_roommate_spec,
    roommate_to_game,
    singleton_structure,
)
from games import C, make_structure
from oracle import outcome


# densities that are no real number, or a bool
BAD_DENSITIES = ("x", None, True, False, 0.5j)

# (spec class, constructor arguments, error class, message): every fault
# of the partner check and of MarriageSpec; several hold two faults, the
# one reported first named in the comment
MALFORMED_SPECS = [
    (RoommateSpec, (0, {}), MalformedSpec, "agent count must be a positive integer"),
    (RoommateSpec, (True, {}), MalformedSpec, "agent count must be a positive integer"),
    (RoommateSpec, (2.0, {}), MalformedSpec, "agent count must be a positive integer"),
    (RoommateSpec, (64, {}), MalformedSpec, "at most 63 agents are supported, got 64"),
    (RoommateSpec, (3, [[2]]), MalformedSpec, "preferences must map agents to partner lists"),
    (RoommateSpec, (3, {"x": [2]}), MalformedSpec, "bad agent id 'x'"),
    (RoommateSpec, (3, {True: [2]}), MalformedSpec, "bad agent id True"),
    (RoommateSpec, (3, {" 1": [2]}), MalformedSpec, "bad agent id ' 1'"),
    (RoommateSpec, (3, {4: [1]}), MalformedSpec, "agent id 4 is out of range"),
    (RoommateSpec, (3, {"0": [1]}), MalformedSpec, "agent id 0 is out of range"),
    (RoommateSpec, (3, {1: [2], "01": [3]}), MalformedSpec, "agent 1 listed twice"),
    (RoommateSpec, (3, {1: 2}), MalformedSpec, "agent 1's partners must be a list"),
    (RoommateSpec, (3, {1: "23"}), MalformedSpec, "agent 1's partners must be a list"),
    (RoommateSpec, (3, {1: {2, 3}}), MalformedSpec, "agent 1's partners must be a list"),
    (RoommateSpec, (3, {1: None}), MalformedSpec, "agent 1's partners must be a list"),
    (RoommateSpec, (3, {1: [4]}), MalformedSpec, "agent 1 lists invalid partner 4"),
    (RoommateSpec, (3, {1: [0]}), MalformedSpec, "agent 1 lists invalid partner 0"),
    (RoommateSpec, (3, {1: [True]}), MalformedSpec, "agent 1 lists invalid partner True"),
    (RoommateSpec, (3, {1: [2.0]}), MalformedSpec, "agent 1 lists invalid partner 2.0"),
    (RoommateSpec, (3, {1: ["2"]}), MalformedSpec, "agent 1 lists invalid partner '2'"),
    (RoommateSpec, (3, {1: [None]}), MalformedSpec, "agent 1 lists invalid partner None"),
    (RoommateSpec, (3, {1: [1]}), MalformedSpec, "agent 1 lists itself as a partner"),
    (RoommateSpec, (3, {1: [2, 2]}), MalformedSpec, "agent 1 lists partner 2 twice"),
    # a duplicate partner after an invalid one in the same row: the invalid one
    (RoommateSpec, (3, {1: [2, 9, 2]}), MalformedSpec, "agent 1 lists invalid partner 9"),
    # an invalid partner after a duplicate: the duplicate
    (RoommateSpec, (3, {1: [2, 2, 9]}), MalformedSpec, "agent 1 lists partner 2 twice"),
    # itself after a duplicate, and a duplicate after itself
    (RoommateSpec, (3, {1: [2, 2, 1]}), MalformedSpec, "agent 1 lists partner 2 twice"),
    (RoommateSpec, (3, {1: [1, 2, 2]}), MalformedSpec, "agent 1 lists itself as a partner"),
    # a repeated agent key before a bad partner in a later row: the key
    (RoommateSpec, (3, {1: [2], "01": [3], 3: [9]}), MalformedSpec, "agent 1 listed twice"),
    # a bad partner before the repeated key: the partner
    (RoommateSpec, (3, {1: [2], 3: [9], "01": [3]}), MalformedSpec,
     "agent 3 lists invalid partner 9"),
    # a bad partner in row 2 before a bad key in row 3
    (RoommateSpec, (3, {2: [2], "x": [1]}), MalformedSpec, "agent 2 lists itself as a partner"),
    (MarriageSpec, (1.0, 1, {}), MalformedSpec, "side sizes must be integers"),
    (MarriageSpec, (1, True, {}), MalformedSpec, "side sizes must be integers"),
    (MarriageSpec, (1, None, {}), MalformedSpec, "side sizes must be integers"),
    (MarriageSpec, (0, 3, {}), MalformedSpec, "both sides need at least one agent"),
    (MarriageSpec, (2, -1, {}), MalformedSpec, "both sides need at least one agent"),
    (MarriageSpec, (62, 2, {}), MalformedSpec, "at most 63 agents are supported, got 64"),
    (MarriageSpec, (1, 1, "12"), MalformedSpec, "preferences must map agents to partner lists"),
    (MarriageSpec, (1, 1, {3: [1]}), MalformedSpec, "agent id 3 is out of range"),
    (MarriageSpec, (2, 2, {1: [3, 3]}), MalformedSpec, "agent 1 lists partner 3 twice"),
    (MarriageSpec, (2, 2, {1: [2]}), MalformedSpec, "agent 1 lists partner 2 from its own side"),
    (MarriageSpec, (2, 2, {3: [1, 4]}), MalformedSpec,
     "agent 3 lists partner 4 from its own side"),
    # an own-side partner in row 1, an invalid partner in row 3: the invalid one
    (MarriageSpec, (2, 2, {1: [2], 3: [9]}), MalformedSpec, "agent 3 lists invalid partner 9"),
    (MarriageSpec, (2, 2, {1: [2], 3: [True]}), MalformedSpec,
     "agent 3 lists invalid partner True"),
    # own-side partners in rows 3 and 1, rows listed in that order: row 3
    (MarriageSpec, (2, 2, {3: [4], 1: [2]}), MalformedSpec,
     "agent 3 lists partner 4 from its own side"),
]


class TestSpecs:
    def test_roommate_round_trip(self, rm10_spec):
        d = rm10_spec.to_dict()
        again = RoommateSpec(d["n"], d["preferences"])
        assert again == rm10_spec

    def test_marriage_round_trip(self, mar33_spec):
        d = mar33_spec.to_dict()
        again = MarriageSpec(d["men"], d["women"], d["preferences"])
        assert again == mar33_spec
        assert mar33_spec.n == 6

    def test_bad_agent_count(self):
        with pytest.raises(MalformedSpec):
            RoommateSpec(0, {})
        with pytest.raises(MalformedSpec):
            MarriageSpec(0, 3, {})

    def test_bad_partner_entries(self):
        with pytest.raises(MalformedSpec):
            RoommateSpec(3, {1: [4]})
        with pytest.raises(MalformedSpec):
            RoommateSpec(3, {1: [1]})
        with pytest.raises(MalformedSpec):
            RoommateSpec(3, {1: [2, 2]})
        with pytest.raises(MalformedSpec):
            RoommateSpec(3, {"x": [2]})

    def test_bad_preference_table(self):
        for make, message in [
            (lambda: RoommateSpec(3, [[2]]), "preferences must map agents to partner lists"),
            (lambda: MarriageSpec(1, 1, "12"), "preferences must map agents to partner lists"),
            (lambda: RoommateSpec(3, {4: [1]}), "agent id 4 is out of range"),
            (lambda: RoommateSpec(3, {"0": [1]}), "agent id 0 is out of range"),
            (lambda: MarriageSpec(1, 1, {3: [1]}), "agent id 3 is out of range"),
        ]:
            with pytest.raises(MalformedSpec) as info:
                make()
            assert str(info.value) == message

    @pytest.mark.parametrize("n", [64, 10**20], ids=["64", "10**20"])
    def test_agent_count_above_the_cap(self, n):
        # refused before a row is built for each agent: 10**20 rows hung
        message = f"^at most 63 agents are supported, got {n}$"
        with pytest.raises(MalformedSpec, match=message):
            RoommateSpec(n, {})
        with pytest.raises(MalformedSpec, match=message):
            MarriageSpec(n - 1, 1, {})
        with pytest.raises(MalformedSpec, match=message):
            MarriageSpec(1, n - 1, {})

    def test_agent_count_at_the_cap(self):
        assert len(RoommateSpec(63, {}).preferences) == 63
        assert len(MarriageSpec(62, 1, {}).preferences) == 63

    @pytest.mark.parametrize(
        ("cls", "args", "error", "message"), MALFORMED_SPECS,
        ids=[f"{cls.__name__}-{i}" for i, (cls, *_) in enumerate(MALFORMED_SPECS)],
    )
    def test_malformed_spec_messages(self, cls, args, error, message):
        # the first fault in the order of the rows and of their partners
        assert outcome(lambda: cls(*args)) == (error.__name__, message)

    def test_marriage_rejects_same_side_partners(self):
        with pytest.raises(MalformedSpec):
            MarriageSpec(2, 2, {1: [2]})
        with pytest.raises(MalformedSpec):
            MarriageSpec(2, 2, {3: [4]})


class TestRoommateGames:
    def test_mutual_pairs_only(self, rm10_spec, rm10):
        # 21 mutually acceptable pairs; {5,6} is one-sided and drops out
        assert len(rm10.permissible) == 21
        assert C("56") not in rm10.permissible
        want = {
            C(t)
            for t in (
                "12 13 14 17 23 24 34 45 46 47 48 49 57 58 59 67 68 69 "
                "78 79 89"
            ).split()
        }
        assert set(rm10.permissible) == want

    def test_three_agent_cycle(self):
        g = roommate_to_game(RoommateSpec(3, {1: [2, 3], 2: [3, 1], 3: [1, 2]}))
        assert set(g.permissible) == {C("12"), C("13"), C("23")}
        assert sum(1 for _ in enumerate_structures(g)) == 4
        assert not any(is_stable(g, pi) for pi in enumerate_structures(g))
        (a,) = absorbing_sets(g)
        assert len(a) == 3 and not a.trivial
        (d,) = all_stable_decompositions(g)
        assert d.render(3) == "{{12,13,23}}"
        ok, witness = converges_to_stability(g)
        assert not ok and witness == singleton_structure(3)

    def test_lonely_agent_stays_single(self):
        g = roommate_to_game(RoommateSpec(2, {1: [], 2: []}))
        assert g.permissible == ()
        assert is_stable(g, singleton_structure(2))


class TestMarriageGames:
    def test_agent_numbering(self, mar33_spec, mar33):
        # men are 1..3, women 4..6; only mutually listed pairs survive
        assert set(mar33.permissible) == {
            C(t) for t in ("14", "16", "24", "25", "34", "35", "36")
        }

    def test_single_pair(self):
        g = marriage_to_game(MarriageSpec(1, 1, {1: [2], 2: [1]}))
        assert g.permissible == (C("12"),)
        assert is_stable(g, (C("12"),))

    def test_two_stable_matchings(self, mar33):
        stable = [pi for pi in enumerate_structures(mar33) if is_stable(mar33, pi)]
        assert stable == sorted(
            (
                make_structure(mar33, "14 25 36"),
                make_structure(mar33, "16 25 34"),
            )
        )
        assert sum(1 for _ in enumerate_structures(mar33)) == 22


class TestConvergence:
    def test_examples(self, g7, g8, g6, mar33):
        ok, witness = converges_to_stability(g7)
        assert not ok and witness == make_structure(g7, "1 23 45 67")
        ok, witness = converges_to_stability(g8)
        assert not ok and witness == make_structure(g8, "1 2 3 4 5 6 78")
        ok, witness = converges_to_stability(g6)
        assert not ok and witness == singleton_structure(6)
        assert converges_to_stability(mar33) == (True, None)

    @pytest.mark.parametrize("seed", range(15))
    def test_verdict_matches_sink_triviality(self, seed):
        g = random_game(5, density=0.45, seed=seed + 700)
        ok, witness = converges_to_stability(g)
        assert ok == all(a.trivial for a in absorbing_sets(g))
        if not ok:
            assert not is_stable(g, witness)


class TestMarriageProperties:
    @pytest.mark.parametrize("seed", range(12))
    def test_decompositions_never_carry_rings(self, seed):
        spec = random_marriage_spec(3, 3, density=0.8, seed=seed)
        g = marriage_to_game(spec)
        decs = all_stable_decompositions(g)
        assert decs
        assert all(p.kind != RING for d in decs for p in d.parties)
        ok, _ = converges_to_stability(g)
        assert ok


class TestRandomGenerators:
    def test_random_game_deterministic(self):
        a = random_game(6, density=0.5, seed=11)
        b = random_game(6, density=0.5, seed=11)
        assert a == b
        assert a != random_game(6, density=0.5, seed=12)

    def test_random_game_density_extremes(self):
        assert random_game(5, density=0.0, seed=3).permissible == ()
        # at density 1 every agent ranks every coalition containing them,
        # though some may still land below the singleton
        full = random_game(4, density=1.0, seed=3)
        for i in range(1, 5):
            assert len(full.ranking_of(i)) == 2**3

    def test_random_game_validation(self):
        with pytest.raises(MalformedSpec):
            random_game(0)
        with pytest.raises(MalformedSpec):
            random_game(17)
        with pytest.raises(MalformedSpec):
            random_game(5, density=1.5)
        with pytest.raises(MalformedSpec):
            random_game(True)
        for density in BAD_DENSITIES:
            with pytest.raises(MalformedSpec, match="^density must be a real number$"):
                random_game(5, density=density)

    def test_random_roommate_spec(self):
        spec = random_roommate_spec(8, density=0.6, seed=4)
        assert spec == random_roommate_spec(8, density=0.6, seed=4)
        for i, row in spec.preferences.items():
            for p in row:
                assert i in spec.preferences[p]
        with pytest.raises(MalformedSpec):
            random_roommate_spec(64)
        with pytest.raises(MalformedSpec):
            random_roommate_spec(True)
        for density in BAD_DENSITIES:
            with pytest.raises(MalformedSpec, match="^density must be a real number$"):
                random_roommate_spec(5, density=density)

    def test_random_marriage_spec(self):
        spec = random_marriage_spec(4, 3, density=0.7, seed=9)
        assert spec == random_marriage_spec(4, 3, density=0.7, seed=9)
        for m in range(1, 5):
            assert all(p > 4 for p in spec.preferences[m])
        with pytest.raises(MalformedSpec):
            random_marriage_spec(0, 3)
        with pytest.raises(MalformedSpec):
            random_marriage_spec(True, 3)
        with pytest.raises(MalformedSpec):
            random_marriage_spec(3, True)
        for density in BAD_DENSITIES:
            with pytest.raises(MalformedSpec, match="^density must be a real number$"):
                random_marriage_spec(2, 2, density=density)

    @pytest.mark.parametrize("seed", range(8))
    def test_roommate_pipeline(self, seed):
        spec = random_roommate_spec(5, density=0.5, seed=seed)
        g = roommate_to_game(spec)
        sets_ = absorbing_sets(g)
        assert len(all_stable_decompositions(g)) == len(sets_)
        for a in sets_:
            assert len(a) != 2
            if a.trivial:
                assert is_stable(g, a.members[0])
