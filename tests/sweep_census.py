"""Sweep: the census of every small pair game.

``oracle.census_failure``, the check that tier-1 runs on every 3-agent
game (``test_decomposition.py::TestAllStableDecompositions::
test_every_3_agent_game``), runs here on every game of three families built
with ``games.every_spec``: every 2x2 marriage (625 games), every 2x3
marriage (32,000) and every 4-agent roommate game (65,536). Each game's
tables (rankings, permissible set and position tables), which the spec's
partner check builds and no second validation reads, must be those of
``oracle._reference_pair_tables``, which converts each pair with
``coalition`` and checks every entry. Each game's decompositions must be
the brute force's, one must generate each absorbing set, ring parties must
come exactly for the non-trivial sets, and the game must converge exactly
when every set is trivial. Too slow for the test
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
from oracle import _reference_pair_tables, census_failure  # noqa: E402

# family -> (make a spec from a preference table, its game, every table)
FAMILIES = {
    "marriage 2x2": (
        lambda prefs: MarriageSpec(2, 2, prefs),
        marriage_to_game,
        every_spec([[3, 4], [3, 4], [1, 2], [1, 2]]),
    ),
    "marriage 2x3": (
        lambda prefs: MarriageSpec(2, 3, prefs),
        marriage_to_game,
        every_spec([[3, 4, 5], [3, 4, 5], [1, 2], [1, 2], [1, 2]]),
    ),
    "roommate 4": (
        lambda prefs: RoommateSpec(4, prefs),
        roommate_to_game,
        every_spec([[2, 3, 4], [1, 3, 4], [1, 2, 4], [1, 2, 3]]),
    ),
}


def main() -> int:
    total = 0
    started = time.perf_counter()
    for family, (make, to_game, specs) in FAMILIES.items():
        t = time.perf_counter()
        for label, prefs in specs.items():
            spec = make(prefs)
            g = to_game(spec)
            if (g.rankings, g.permissible, g._pos) != _reference_pair_tables(spec):
                wrong = "tables differ from the reference"
            else:
                wrong = census_failure(g)
            if wrong is not None:
                print(f"{family} {label}: {wrong}", flush=True)
                return 1
        total += len(specs)
        print(f"{family}: {len(specs)} games pass, {time.perf_counter() - t:.1f} s", flush=True)
    print(f"total: {total} games pass; {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
