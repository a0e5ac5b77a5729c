"""Game populations of the benchmark workloads.

Each workload is a fixed population of games made by one of the library's
generators. Population ``k`` holds the games of generator seeds
``30k + 1 .. 30k + 30``. Population 0 also holds the games of known defects
outside that range, so they stay in the measured data: roommate seed 42
(ROADMAP item 1). Marriage seed 6, whose all-singletons decomposition
``verify`` wrongly calls stable, lies inside it.

The run seed does not change the games: it orders the closed loop and seeds
the output checks. Random games of these families differ in cost by two
orders of magnitude, so runs over different random games differ by more than
any bound the benchmark may keep. Even relabelling the agents of the same
games moves the cost of searches that stop at their first hit. Population 1
holds games no default run sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from stabledec import (
    marriage_to_game,
    random_game,
    random_marriage_spec,
    random_roommate_spec,
    roommate_to_game,
)

POPULATION_SIZE = 30


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], dict]
    # generator seeds of known defects, kept in population 0
    defect_seeds: tuple[int, ...] = ()

    def generator_seeds(self, population: int) -> list[int]:
        first = population * POPULATION_SIZE + 1
        seeds = list(range(first, first + POPULATION_SIZE))
        if population == 0:
            seeds += [s for s in self.defect_seeds if s not in seeds]
        return seeds


def _split(gseed: int) -> dict:
    """Submarkets on agents 1-6, 7-12 and 13-18, as one general game."""
    markets = [
        random_game(6, 0.6, gseed),
        roommate_to_game(random_roommate_spec(6, 0.6, gseed)),
        marriage_to_game(random_marriage_spec(3, 3, 0.6, gseed)),
    ]
    prefs = {}
    for k, game in enumerate(markets):
        offset = 6 * k
        for agent, ranking in game.to_dict()["preferences"].items():
            prefs[str(int(agent) + offset)] = [[a + offset for a in c] for c in ranking]
    return {"agents": 18, "preferences": prefs}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("marriage-graph", lambda s: random_marriage_spec(6, 6, 0.6, s).to_dict()),
        # seed 42 raises the ring-merge VerificationFailed of ROADMAP item 1
        Workload("roommate-rings", lambda s: random_roommate_spec(9, 0.7, s).to_dict(),
                 defect_seeds=(42,)),
        Workload("split-markets", _split),
    )
}


def games(workload: Workload, population: int) -> list[tuple[int, dict]]:
    """``(generator seed, game JSON object)`` for every game of the population."""
    return [(gseed, workload.make(gseed)) for gseed in workload.generator_seeds(population)]
