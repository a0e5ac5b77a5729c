"""Coalition masks, game construction, preference queries."""

import json
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabledec import (
    AgentIdOutOfRange,
    AgentNotMember,
    Game,
    InconsistentRanking,
    MalformedInput,
    RoommateSpec,
    coalition,
    compact_coalition,
    contains,
    game_from_dict,
    intersects,
    lowest_agent,
    marriage_to_game,
    members,
    parse_game_dsl,
    prefers,
    random_game,
    random_marriage_spec,
    random_roommate_spec,
    render_coalition,
    roommate_to_game,
    singleton,
    transitively_prefers,
    unanimously_prefers,
)
from stabledec.cli import load_game

from games import FUZZ_GAMES, GENERATED_GAMES, PAIR_GAMES, C, parts
from oracle import (
    _reference_from_dict,
    _reference_pair_tables,
    _reference_permissible,
    _reference_tables,
    outcome,
)


class TestCoalitionMasks:
    def test_build_and_members(self):
        assert coalition([1, 2]) == 0b11
        assert coalition((7,)) == 0b1000000
        assert members(C("467")) == (4, 6, 7)
        assert members(0) == ()

    def test_duplicates_collapse(self):
        assert coalition([3, 3, 1]) == C("13")

    def test_singleton_helpers(self):
        assert singleton(5) == C("5")

    def test_lowest_agent_and_contains(self):
        assert lowest_agent(C("467")) == 4
        assert contains(C("467"), 6)
        assert not contains(C("467"), 5)

    def test_intersects(self):
        assert intersects(C("12"), C("23"))
        assert not intersects(C("12"), C("45"))

    def test_rendering(self):
        assert render_coalition(C("467")) == "{4,6,7}"
        assert compact_coalition(C("467"), 7) == "467"
        assert compact_coalition(C("467"), 12) == "{4,6,7}"

    def test_agent_zero_rejected(self):
        with pytest.raises(AgentIdOutOfRange):
            coalition([0, 2])
        with pytest.raises(AgentIdOutOfRange):
            coalition([-3])

    @given(st.sets(st.integers(min_value=1, max_value=63), min_size=1))
    @settings(max_examples=60, deadline=None)
    def test_members_roundtrip(self, agents):
        assert set(members(coalition(agents))) == agents


class TestGameConstruction:
    def test_rankings_normalized_to_masks(self, g7):
        assert g7.n == 7
        assert g7.rankings[0] == (C("12"), C("123"), C("15"), C("1"))
        assert g7.ranking_of(5) == (C("15"), C("45"), C("5"))

    def test_ranking_of_range(self, g7):
        with pytest.raises(AgentIdOutOfRange):
            g7.ranking_of(8)

    def test_rejects_bad_agent_count(self):
        with pytest.raises(MalformedInput):
            Game(0, {})
        with pytest.raises(MalformedInput):
            Game(64, {})
        with pytest.raises(MalformedInput):
            Game(True, {1: [(1,)]})

    def test_ranking_must_include_own_singleton(self):
        with pytest.raises(InconsistentRanking):
            Game(2, {1: [(1, 2)], 2: [(1, 2), (2,)]})

    def test_ranking_rejects_foreign_coalition(self):
        with pytest.raises(InconsistentRanking):
            Game(3, {1: [(2, 3), (1,)], 2: [(2,)], 3: [(3,)]})

    def test_ranking_rejects_duplicates(self):
        with pytest.raises(InconsistentRanking):
            Game(2, {1: [(1, 2), (1, 2), (1,)], 2: [(2,)]})

    def test_ranking_rejects_out_of_range_ids(self):
        with pytest.raises(AgentIdOutOfRange):
            Game(2, {1: [(1, 3), (1,)], 2: [(2,)]})

    @pytest.mark.parametrize("agent", [0, 3, 9, -1, "1"])
    def test_rejects_rows_of_agents_outside_range(self, agent):
        with pytest.raises(AgentIdOutOfRange, match=r"out of range 1\.\.2"):
            Game(2, {1: [(1,)], agent: [(1,)]})

    def test_rejects_extra_rows_in_sequence_form(self):
        with pytest.raises(AgentIdOutOfRange):
            Game(2, [[(1,)], [(2,)], [(3,)]])

    def test_missing_rows_default_to_singleton_only(self):
        g = Game(3, {1: [(1, 2), (1,)], 2: [(1, 2), (2,)]})
        assert g.ranking_of(3) == (C("3"),)
        assert g.permissible == (C("12"),)

    def test_equality_and_hash(self, g7):
        twin = Game(7, {i: list(g7.rankings[i - 1]) for i in range(1, 8)})
        assert twin == g7
        assert hash(twin) == hash(g7)
        assert twin != Game(7, {i: [(i,)] for i in range(1, 8)})


class TestPermissibleSet:
    def test_seven_agent_game(self, g7):
        want = [C(t) for t in ("12", "23", "123", "34", "15", "45", "67", "467")]
        assert g7.permissible == tuple(sorted(want))

    def test_eight_agent_game(self, g8):
        want = [C(t) for t in ("12", "145", "23", "356", "46", "678", "78")]
        assert g8.permissible == tuple(sorted(want))

    def test_six_agent_game(self, g6):
        want = [C(t) for t in ("12", "13", "23", "34", "45", "46", "56")]
        assert g6.permissible == tuple(sorted(want))

    def test_roommate_pairs_must_be_mutual(self, rm10):
        want = {
            C(t)
            for t in (
                "12 13 14 17 23 24 34 45 46 47 48 49 57 58 59 67 68 69 78 79 89"
            ).split()
        }
        assert set(rm10.permissible) == want
        assert C("56") not in rm10.permissible

    def test_unranked_coalition_not_permissible(self):
        # agent 2 ranks 12 below their singleton, so 12 is out
        g = Game(2, {1: [(1, 2), (1,)], 2: [(2,), (1, 2)]})
        assert g.permissible == ()

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_definition_on_random_games(self, seed):
        g = random_game(5, density=0.4, seed=seed)
        got = set(g.permissible)
        want = set()
        for mask in range(1, 1 << g.n):
            if mask.bit_count() < 2:
                continue
            rows = [g.rankings[i - 1] for i in members(mask)]
            if all(
                mask in row and row.index(mask) < row.index(singleton(i))
                for i, row in zip(members(mask), rows)
            ):
                want.add(mask)
        assert got == want

    def test_counting_matches_the_keys_on_fuzz_games(self):
        for make in FUZZ_GAMES.values():
            g = make()
            assert g.permissible == _reference_permissible(g)

    def test_counting_matches_the_keys_on_generated_games(self):
        for _, seed, make in GENERATED_GAMES:
            g = make(seed)
            assert g.permissible == _reference_permissible(g)


def check_expansion(g: Game) -> None:
    """``Game.expansion`` against its definition, from ``prefers``."""
    bit, better, meets = g.expansion()
    ks = g.permissible
    assert list(bit.items()) == [(c, 1 << j) for j, c in enumerate(ks)]
    for j, c in enumerate(ks):
        assert meets[j] == sum(bit[d] for d in ks if d & c)
    held = [singleton(i) for i in range(1, g.n + 1)] + list(ks)
    assert sorted(better) == sorted(held)
    for p in held:
        for c in ks:
            want = all(not contains(c, i) or prefers(g, i, c, p) for i in members(p))
            assert bool(better[p] & bit[c]) == want, (render_coalition(p), render_coalition(c))


class TestExpansion:
    """``bit`` in K order, ``meets[j]`` the K-coalitions meeting
    ``permissible[j]``, and ``better[p] & bit[c]`` set exactly when each
    agent of the part ``p`` is outside ``c`` or prefers ``c``."""

    def test_fuzz_games(self):
        for make in FUZZ_GAMES.values():
            check_expansion(make())

    def test_pair_games(self):
        for make in PAIR_GAMES.values():
            check_expansion(make())

    def test_worked_examples(self, g6, g7, g8, mar33, rm10):
        for g in (g6, g7, g8, mar33, rm10):
            check_expansion(g)


class TestPrefers:
    def test_listed_order(self, g7):
        assert prefers(g7, 2, C("23"), C("12"))
        assert not prefers(g7, 2, C("12"), C("123"))

    def test_irreflexive(self, g7):
        assert not prefers(g7, 1, C("12"), C("12"))

    def test_requires_membership(self, g7):
        with pytest.raises(AgentNotMember):
            prefers(g7, 5, C("12"), C("15"))
        with pytest.raises(AgentNotMember):
            prefers(g7, 1, C("15"), C("23"))

    def test_agent_range(self, g7):
        with pytest.raises(AgentIdOutOfRange):
            prefers(g7, 9, C("12"), C("15"))

    def test_unlisted_ranks_below_singleton(self, g7):
        # 13 appears in nobody's ranking
        assert prefers(g7, 1, C("1"), C("13"))
        assert prefers(g7, 3, C("3"), C("13"))

    def test_total_order_on_own_coalitions(self, g7):
        # any two distinct own coalitions compare one way exactly
        own = [c for c in range(1, 1 << 7) if contains(c, 4)]
        for a in own[:40]:
            for b in own[:40]:
                if a != b:
                    assert prefers(g7, 4, a, b) != prefers(g7, 4, b, a)


class TestUnanimouslyPrefers:
    def test_single_common_agent(self, g7):
        assert unanimously_prefers(g7, C("23"), C("12"))
        assert not unanimously_prefers(g7, C("12"), C("23"))

    def test_multiple_common_agents(self, g7):
        # 1 would move from 12 to 123 but 2 would not
        assert not unanimously_prefers(g7, C("12"), C("123"))
        assert not unanimously_prefers(g7, C("123"), C("12"))

    def test_vacuous_when_disjoint(self, g7):
        assert unanimously_prefers(g7, C("12"), C("45"))
        assert unanimously_prefers(g7, C("45"), C("12"))
        assert not intersects(C("12"), C("45"))


class TestTransitivelyPrefers:
    UNIVERSE = ("12", "23", "34", "45", "15")

    def universe(self):
        return [C(t) for t in self.UNIVERSE]

    def test_chain_of_improvements(self, g7):
        # 34 beats 23 beats 12, all sharing agents
        assert transitively_prefers(g7, C("34"), C("12"), self.universe())

    def test_cycle_makes_self_reachable(self, g7):
        assert transitively_prefers(g7, C("12"), C("12"), self.universe())

    def test_no_cycle_no_self(self, g7):
        assert not transitively_prefers(g7, C("12"), C("12"), [C("12"), C("23")])

    def test_needs_connecting_chain(self, g7):
        assert not transitively_prefers(g7, C("12"), C("45"), [C("12"), C("45")])

    def test_direct_step(self, g7):
        assert transitively_prefers(g7, C("45"), C("34"), self.universe())


class TestParsing:
    def test_json_roundtrip(self, g7):
        assert load_game(json.dumps(g7.to_dict())) == g7

    def test_dict_roundtrip(self, g6):
        assert game_from_dict(g6.to_dict()) == g6

    def test_dsl_matches_dict_form(self, g6):
        text = "agents: 6\n" + "\n".join(
            f"{i}: " + " | ".join("".join(map(str, p)) for p in row)
            for i, row in enumerate(
                [parts("12 13 1"), parts("23 12 2"), parts("34 13 23 3"),
                 parts("45 46 34 4"), parts("56 45 5"), parts("46 56 6")],
                start=1,
            )
        )
        assert parse_game_dsl(text) == g6

    def test_dsl_rejects_garbage(self):
        with pytest.raises(MalformedInput):
            parse_game_dsl("")
        with pytest.raises(MalformedInput):
            parse_game_dsl("players: 3\n1: 1")
        with pytest.raises(MalformedInput):
            parse_game_dsl("agents: 10\n1: 1")
        with pytest.raises(MalformedInput):
            parse_game_dsl("agents: 2\n1: 12 | 1\n1: 1")
        with pytest.raises(MalformedInput):
            parse_game_dsl("agents: 2\n1: 12 | | 1")
        with pytest.raises(MalformedInput):
            parse_game_dsl("agents: 2\n1: 1x | 1")

    @pytest.mark.parametrize("line", ["9: 9", "0: 1", "4: 4 | 14"])
    def test_dsl_rejects_rows_of_agents_outside_range(self, line):
        with pytest.raises(AgentIdOutOfRange, match=r"out of range 1\.\.3"):
            parse_game_dsl(f"agents: 3\n1: 12 | 1\n2: 12 | 2\n{line}\n")

    def test_json_rejects_garbage(self):
        with pytest.raises(MalformedInput, match="^invalid JSON"):
            load_game("{not json")
        with pytest.raises(MalformedInput, match="must be a mapping"):
            game_from_dict([1, 2])
        with pytest.raises(MalformedInput):
            game_from_dict({"preferences": {}})
        with pytest.raises(MalformedInput):
            game_from_dict({"agents": "three"})
        with pytest.raises(MalformedInput):
            game_from_dict({"agents": 2, "preferences": {"1": "12"}})
        with pytest.raises(AgentIdOutOfRange):
            game_from_dict({"agents": 2, "preferences": {"5": [[5]]}})

    @pytest.mark.parametrize("seed", range(8))
    def test_random_game_roundtrips(self, seed):
        g = random_game(6, density=0.3, seed=seed)
        assert game_from_dict(g.to_dict()) == g


def _tables(g):
    return g.rankings, g.permissible, g._pos


class _Agent(IntEnum):
    ONE = 1
    TWO = 2


# (game object, error class, message); several hold two faults, the one
# reported first named in the comment
MALFORMED_GAMES = [
    ([], MalformedInput, "game object must be a mapping"),
    ({"preferences": {}}, MalformedInput, "game object lacks an 'agents' field"),
    ({"agents": True}, MalformedInput, "'agents' must be an integer, got True"),
    ({"agents": 0}, MalformedInput, "agent count must be a positive integer, got 0"),
    ({"agents": 2, "preferences": []}, MalformedInput, "'preferences' must be a mapping"),
    ({"agents": 2, "preferences": {"x": [[1]]}}, MalformedInput,
     "preference key 'x' is not an agent id"),
    ({"agents": 2, "preferences": {"3": [[3]]}}, AgentIdOutOfRange,
     "preference key 3 is out of range 1..2"),
    ({"agents": 2, "preferences": {"1": "12"}}, MalformedInput,
     "agent 1's ranking must be a list"),
    ({"agents": 2, "preferences": {"1": [12, [1]]}}, MalformedInput,
     "agent 1's ranking entries must be lists of agent ids"),
    ({"agents": 2, "preferences": {"1": ["12", [1]]}}, MalformedInput,
     "agent 1's ranking entries must be lists of agent ids"),
    ({"agents": 2, "preferences": {"1": [[True, 2], [1]]}}, MalformedInput,
     "agent id True is not an integer"),
    ({"agents": 2, "preferences": {"1": [[1, 2.0], [1]]}}, MalformedInput,
     "agent id 2.0 is not an integer"),
    ({"agents": 2, "preferences": {"1": [[], [1]]}}, InconsistentRanking,
     "agent 1 ranked an empty coalition"),
    ({"agents": 3, "preferences": {"1": [[1, -2], [1]]}}, AgentIdOutOfRange,
     "agent id -2 is out of range"),
    ({"agents": 2, "preferences": {"1": [[1, 3], [1]]}}, AgentIdOutOfRange,
     "agent 1 ranked coalition {1,3} with ids above 2"),
    ({"agents": 3, "preferences": {"1": [[1, 100], [1]]}}, AgentIdOutOfRange,
     "agent 1 ranked coalition {1,100} with ids above 3"),
    ({"agents": 3, "preferences": {"2": [[1, 3], [2]]}}, InconsistentRanking,
     "agent 2 ranked coalition {1,3} not containing them"),
    ({"agents": 2, "preferences": {"1": [[1, 2], [2, 1], [1]]}}, InconsistentRanking,
     "agent 1 ranked coalition {1,2} twice"),
    ({"agents": 2, "preferences": {"1": [[1, 2]]}}, InconsistentRanking,
     "agent 1's ranking omits their singleton"),
    # out-of-range id at agent 1, non-integer id at agent 3: the type comes first
    ({"agents": 3, "preferences": {"1": [[1, 4], [1]], "3": [[3, "x"], [3]]}},
     MalformedInput, "agent id 'x' is not an integer"),
    # id below 1 at agent 1, float id at agent 3
    ({"agents": 3, "preferences": {"1": [[1, 0], [1]], "3": [[3, 2.0], [3]]}},
     MalformedInput, "agent id 2.0 is not an integer"),
    # id far above any game at agent 1, a bad entry at agent 2
    ({"agents": 3, "preferences": {"1": [[1, 10**6], [1]], "2": [[2], None]}},
     MalformedInput, "agent 2's ranking entries must be lists of agent ids"),
    # id below 1 at agent 2, listed first; a foreign coalition at agent 1
    ({"agents": 3, "preferences": {"2": [[0, 2], [2]], "1": [[2, 3], [1]]}},
     InconsistentRanking, "agent 1 ranked coalition {2,3} not containing them"),
    # id below 1 at agent 1; a duplicate at agent 2
    ({"agents": 3, "preferences": {"1": [[0, 1], [1]], "2": [[2], [2]]}},
     AgentIdOutOfRange, "agent id 0 is out of range"),
    # ids above the game's size; an agent count above the cap
    ({"agents": 64, "preferences": {"1": [[1, 65], [1]]}}, MalformedInput,
     "at most 63 agents are supported, got 64"),
    ({"agents": 64, "preferences": {"1": [[1, None], [1]]}}, MalformedInput,
     "agent id None is not an integer"),
    # two keys naming one agent, as the spec schemas reject them
    ({"agents": 2, "preferences": {"1": [[0]], "01": [[1, 2], [1]], "2": [[1, 2], [2]]}},
     MalformedInput, "agent 1 listed twice"),
]

# game objects both loaders accept
ACCEPTED_GAMES = [
    {"agents": 2, "preferences": {"1": [(1, 2), (1,)], "2": ((2, 1), [2])}},
    {"agents": 2, "preferences": {"1": [[_Agent.ONE, _Agent.TWO], [_Agent.ONE]],
                                  "2": [[2, _Agent.ONE], [_Agent.TWO]]}},
    # a key need not be the agent's canonical id string
    {"agents": 2, "preferences": {"01": [[1, 2], [1]], "2": [[1, 2], [2]]}},
    {"agents": 3, "preferences": {"3": [], "2": [[2, 3, 3], [2, 2]]}},
    {"agents": 1},
]


class TestLoader:
    """``game_from_dict``, ``Game`` and the pair front ends against the
    loader they replaced."""

    @pytest.mark.parametrize(("obj", "error", "message"), MALFORMED_GAMES)
    def test_malformed_input_messages(self, obj, error, message):
        assert outcome(lambda: _reference_from_dict(obj)) == (error.__name__, message)
        assert outcome(lambda: _tables(game_from_dict(obj))) == (error.__name__, message)

    @pytest.mark.parametrize("obj", ACCEPTED_GAMES)
    def test_accepted_inputs(self, obj):
        assert _tables(game_from_dict(obj)) == _reference_from_dict(obj)

    def test_fuzz_games(self):
        for make in FUZZ_GAMES.values():
            g = make()
            obj = g.to_dict()
            want = _reference_from_dict(obj)
            assert _tables(game_from_dict(obj)) == want
            assert _tables(game_from_dict(json.loads(json.dumps(obj)))) == want
            assert _tables(Game(g.n, dict(enumerate(g.rankings, 1)))) == want

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_front_ends(self, seed):
        specs = [
            random_roommate_spec(9, 0.7, seed),
            random_roommate_spec(12, 0.4, seed),
            random_marriage_spec(6, 6, 0.6, seed),
            random_marriage_spec(3, 5, 0.8, seed),
        ]
        for spec in specs:
            g = roommate_to_game(spec) if isinstance(spec, RoommateSpec) else marriage_to_game(spec)
            want = _reference_pair_tables(spec)
            assert _tables(g) == want
            assert _reference_from_dict(g.to_dict()) == want
        for n, density in ((6, 0.6), (8, 0.3), (12, 0.02)):
            g = random_game(n, density, seed)
            want = _reference_from_dict(g.to_dict())
            assert _tables(g) == want
            assert _tables(game_from_dict(g.to_dict())) == want

    @pytest.mark.parametrize(
        "rankings",
        [
            {2: [0b110, 0b10], 1: [0b1000, 0b1]},
            {1: [0b11, 0b11, 0b1]},
            {1: [0b1, 0], 2: [0b10]},
            {1: [(1, 2), 0b1], 2: [(2, 1), (2,)], 3: [[3]]},
            [[0b1], [0b11]],
            [[0b1], [0b10], [0b100], [0b1]],
            [[(1, 0)], [(2, "x")]],
        ],
    )
    def test_direct_rankings(self, rankings):
        # masks and id iterables mixed; the first fault in agent order wins
        assert outcome(lambda: _tables(Game(3, rankings))) == outcome(
            lambda: _reference_tables(3, rankings)
        )
