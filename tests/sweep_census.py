"""Sweep: the census of every small pair game.

``oracle.census_failure``, the check that tier-1 runs on every 3-agent
game (``test_decomposition.py::TestAllStableDecompositions::
test_every_3_agent_game``), runs here on every game of three families built
with ``games.every_spec``: every 2x2 marriage (625 games), every 2x3
marriage (32,000) and every 4-agent roommate game (65,536). Each game's
decompositions must be the brute force's, one must generate each absorbing
set, ring parties must come exactly for the non-trivial sets, and the game
must converge exactly when every set is trivial. Too slow for the test
suite (about 40 s for each large family on a 2-core x86-64 machine); run it
by hand:

    PYTHONPATH=src python tests/sweep_census.py

It prints one line per family and a total, and exits 1 at the first
failure, naming the family and the game's label.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stabledec import MarriageSpec, RoommateSpec, marriage_to_game, roommate_to_game  # noqa: E402

from games import every_spec  # noqa: E402
from oracle import census_failure  # noqa: E402

# family -> (make a game from a preference table, every table)
FAMILIES = {
    "marriage 2x2": (
        lambda prefs: marriage_to_game(MarriageSpec(2, 2, prefs)),
        every_spec([[3, 4], [3, 4], [1, 2], [1, 2]]),
    ),
    "marriage 2x3": (
        lambda prefs: marriage_to_game(MarriageSpec(2, 3, prefs)),
        every_spec([[3, 4, 5], [3, 4, 5], [1, 2], [1, 2], [1, 2]]),
    ),
    "roommate 4": (
        lambda prefs: roommate_to_game(RoommateSpec(4, prefs)),
        every_spec([[2, 3, 4], [1, 3, 4], [1, 2, 4], [1, 2, 3]]),
    ),
}


def main() -> int:
    total = 0
    started = time.perf_counter()
    for family, (make, specs) in FAMILIES.items():
        t = time.perf_counter()
        for label, prefs in specs.items():
            wrong = census_failure(make(prefs))
            if wrong is not None:
                print(f"{family} {label}: {wrong}", flush=True)
                return 1
        total += len(specs)
        print(f"{family}: {len(specs)} games pass, {time.perf_counter() - t:.1f} s", flush=True)
    print(f"total: {total} games pass; {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
