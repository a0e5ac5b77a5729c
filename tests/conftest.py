"""Shared fixtures: the worked example games and small helpers.

All five reference games have single-digit agent ids (the ten-agent roommate
instance calls its last agent 10, which only shows up in rendered output), so
tests spell coalitions as digit strings and structures as space-separated
digit strings.
"""

import pytest

from stabledec import (
    Game,
    MarriageSpec,
    RoommateSpec,
    coalition,
    marriage_to_game,
    random_game,
    random_marriage_spec,
    random_roommate_spec,
    roommate_to_game,
    structure_from_parts,
)


def C(token: str) -> int:
    """Coalition mask from a digit string, '467' -> {4,6,7}; 'a' is 10."""
    return coalition(int(ch, 16) for ch in token)


def parts(text: str) -> list[tuple[int, ...]]:
    return [tuple(int(ch) for ch in tok) for tok in text.split()]


def make_structure(g: Game, text: str) -> tuple[int, ...]:
    """Canonical structure from a digit-string spelling, '12 34 5 67'."""
    return structure_from_parts(g, parts(text))


@pytest.fixture(scope="session")
def g7() -> Game:
    """Seven agents, one simple five-coalition ring component."""
    return Game(
        7,
        {
            1: parts("12 123 15 1"),
            2: parts("23 123 12 2"),
            3: parts("34 123 23 3"),
            4: parts("467 45 34 4"),
            5: parts("15 45 5"),
            6: parts("67 467 6"),
            7: parts("467 67 7"),
        },
    )


@pytest.fixture(scope="session")
def g8() -> Game:
    """Eight agents, one ring component that is not simple."""
    return Game(
        8,
        {
            1: parts("12 145 1"),
            2: parts("23 12 2"),
            3: parts("356 23 3"),
            4: parts("145 46 4"),
            5: parts("356 145 5"),
            6: parts("678 46 356 6"),
            7: parts("78 678 7"),
            8: parts("678 78 8"),
        },
    )


@pytest.fixture(scope="session")
def g6() -> Game:
    """Six agents, two ring components, no stable structure."""
    return Game(
        6,
        {
            1: parts("12 13 1"),
            2: parts("23 12 2"),
            3: parts("34 13 23 3"),
            4: parts("45 46 34 4"),
            5: parts("56 45 5"),
            6: parts("46 56 6"),
        },
    )


ROOMMATE10 = {
    1: [2, 3, 4, 5, 6, 7, 8, 9],
    2: [3, 1, 4, 5, 6, 7, 8, 9],
    3: [1, 2, 4, 5, 6, 7, 8, 9],
    4: [7, 8, 9, 5, 6, 1, 2, 3],
    5: [8, 9, 7, 4, 6],
    6: [9, 7, 8, 4],
    7: [5, 6, 1, 4, 9, 8],
    8: [6, 4, 5, 7, 9],
    9: [4, 5, 6, 7, 8],
    10: [],
}


@pytest.fixture(scope="session")
def rm10_spec() -> RoommateSpec:
    """Ten-agent roommate instance; agent 10 finds nobody acceptable."""
    return RoommateSpec(10, ROOMMATE10)


@pytest.fixture(scope="session")
def rm10(rm10_spec) -> Game:
    return roommate_to_game(rm10_spec)


MARRIAGE33 = {
    1: [4, 6],
    2: [4, 5],
    3: [6, 5, 4],
    4: [3, 1, 2],
    5: [2, 3],
    6: [1, 3],
}


@pytest.fixture(scope="session")
def mar33_spec() -> MarriageSpec:
    """Three-by-three marriage market with two even rings."""
    return MarriageSpec(3, 3, MARRIAGE33)


@pytest.fixture(scope="session")
def mar33(mar33_spec) -> Game:
    return marriage_to_game(mar33_spec)


# the five-structure domination cycle of the seven-agent game, in cycle order
CYCLE7 = ["12 34 5 67", "12 3 45 67", "1 23 45 67", "15 23 4 67", "15 2 34 67"]


@pytest.fixture(scope="session")
def cycle7(g7):
    return [make_structure(g7, text) for text in CYCLE7]


# seeded games of every front end (n <= 8), as (front, seed, make) for
# parametrize; make(seed) builds the game
GENERATED_GAMES = (
    [("random", s, lambda s: random_game(7, density=0.4, seed=s + 500)) for s in range(5)]
    + [("roommate", s, lambda s: roommate_to_game(random_roommate_spec(8, 0.6, seed=s)))
       for s in range(4)]
    + [("marriage", s, lambda s: marriage_to_game(random_marriage_spec(4, 4, 0.7, seed=s)))
       for s in range(4)]
)
GENERATED_IDS = [f"{front}-{seed}" for front, seed, _ in GENERATED_GAMES]
