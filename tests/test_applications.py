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

    def test_random_roommate_spec(self):
        spec = random_roommate_spec(8, density=0.6, seed=4)
        assert spec == random_roommate_spec(8, density=0.6, seed=4)
        for i, row in spec.preferences.items():
            for p in row:
                assert i in spec.preferences[p]
        with pytest.raises(MalformedSpec):
            random_roommate_spec(64)

    def test_random_marriage_spec(self):
        spec = random_marriage_spec(4, 3, density=0.7, seed=9)
        assert spec == random_marriage_spec(4, 3, density=0.7, seed=9)
        for m in range(1, 5):
            assert all(p > 4 for p in spec.preferences[m])
        with pytest.raises(MalformedSpec):
            random_marriage_spec(0, 3)

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
