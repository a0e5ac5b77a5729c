"""Sweep: the ring family search against the in-list reference search on
many seeded games.

For every non-trivial absorbing set of every factor of each game
(``Analysis(...).factors``), ``rings._family_search`` must give the same
families and search the same members, in the same order, as
``_inlist_family_search`` of ``oracle.py``: in-lists for every member,
each search run until it has discovered every in-neighbour of its root,
every ring walk taken, and the stop checked only between searches. The
sweep also counts the sets where some strongly connected component of two
or more coalitions of the step digraph (``_reference_step_sccs``) is not
one of the families, where the components could not stand in for the
search. Too slow for the test suite; run it by hand:

    PYTHONPATH=src python tests/sweep_ring_route.py

It prints each set that disagrees or has a step component that is no
family, one line per family of games and a total, and exits non-zero if any
set disagrees.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stabledec import Analysis  # noqa: E402
from stabledec.rings import _family_search  # noqa: E402

from games import rnd, room  # noqa: E402
from oracle import _inlist_family_search, _reference_step_sccs  # noqa: E402

# label -> (make a game from a seed, seeds)
FAMILIES = {
    "roommate(8, 0.9)": (lambda s: room(8, 0.9, s), range(1, 2001)),
    "roommate(9, 0.7)": (lambda s: room(9, 0.7, s), range(1, 2001)),
    "roommate(9, 0.9)": (lambda s: room(9, 0.9, s), range(1, 1001)),
    "random_game(7, 0.65)": (lambda s: rnd(7, 0.65, s), range(1, 5001)),
}


def main() -> int:
    total = mismatches = differ = 0
    started = time.perf_counter()
    for label, (make, seeds) in FAMILIES.items():
        t = time.perf_counter()
        sets = bad = split = 0
        for s in seeds:
            for f in Analysis(make(s)).factors:
                for a in f.sets:
                    if a.trivial:
                        continue
                    sets += 1
                    got = _family_search(f.graph, a)
                    if got != _inlist_family_search(f.graph, a):
                        bad += 1
                        print(f"{label} seed {s}: the searches disagree", flush=True)
                    families = sorted(tuple(sorted(fam)) for fam in got[0])
                    if any(c not in families for c in _reference_step_sccs(f.graph, a)):
                        split += 1
                        print(f"{label} seed {s}: a step component is no family", flush=True)
        total += sets
        mismatches += bad
        differ += split
        print(f"{label}, seeds {seeds.start}-{seeds.stop - 1}: {sets} non-trivial sets, "
              f"{bad} mismatches, {split} with a step component that is no family, "
              f"{time.perf_counter() - t:.1f} s", flush=True)
    print(f"total: {total} sets, {mismatches} mismatches, {differ} with a step component "
          f"that is no family; {time.perf_counter() - started:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
