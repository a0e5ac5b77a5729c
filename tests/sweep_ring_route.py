"""Sweep: the ring family search against the in-list reference search on
many seeded games.

For every non-trivial absorbing set of every factor of each game
(``Analysis(...).factors``), ``rings._family_search`` must give the same
families and search the same members, in the same order, as
``_inlist_family_search`` of ``oracle.py``: in-lists for every member,
each search run until it has discovered every in-neighbour of its root,
every ring walk taken, and the stop checked only between searches. The
steps folded per member (``rings._in_degrees_and_steps``, read by
``_folded_steps``) must equal the parts loop of ``_reference_steps``. The sweep also counts the sets where some strongly connected component of two
or more coalitions of the step digraph (``_reference_step_sccs``) is not
one of the families, where the components could not stand in for the
search. Each family's ring component analysis (``rings._ring_component``,
all five fields and the ``None`` verdicts) must equal the three-pass
``reference_ring_component``, whose condition (i) is mutual reachability
through ``unanimously_prefers``, sharing no code with the library. So must
the ring party of each family and of each family with one coalition
removed (``rings._ring_party``, whose search stops listing and prunes once
a clash shows the party is not simple): the same verdict, compact sets and
breakers as the reference. Too slow for the test suite; run it by hand:

    PYTHONPATH=src python tests/sweep_ring_route.py

It prints each set that disagrees or has a step component that is no
family, one line per family of games and a total, with the number of ring
parties checked and the time they took, and exits non-zero if any set
disagrees on the search, the steps, a ring component or a ring party.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stabledec import Analysis  # noqa: E402
from stabledec.rings import _family_search, _ring_component, _ring_party  # noqa: E402

from games import rnd, room  # noqa: E402
from oracle import (  # noqa: E402
    _folded_steps,
    _inlist_family_search,
    _reference_step_sccs,
    _reference_steps,
    reference_ring_component,
)

# label -> (make a game from a seed, seeds)
FAMILIES = {
    "roommate(8, 0.9)": (lambda s: room(8, 0.9, s), range(1, 2001)),
    "roommate(9, 0.7)": (lambda s: room(9, 0.7, s), range(1, 2001)),
    "roommate(9, 0.9)": (lambda s: room(9, 0.9, s), range(1, 1001)),
    "random_game(7, 0.65)": (lambda s: rnd(7, 0.65, s), range(1, 5001)),
}


def party_differences(g, fam) -> tuple[int, int]:
    """The number of ring parties checked, the family and each family with
    one coalition removed, and of those ``_ring_party`` gets wrong."""
    fam = tuple(sorted(fam))
    subsets = [fam] + [fam[:i] + fam[i + 1:] for i in range(len(fam))]
    wrong = 0
    for B in subsets:
        want = reference_ring_component(g, B)
        if _ring_party(g, B) != (None if want is None else (want.compact, want.breakers)):
            wrong += 1
    return len(subsets), wrong


def main() -> int:
    total = mismatches = differ = families = components = 0
    checked = parties = party_time = 0
    started = time.perf_counter()
    for label, (make, seeds) in FAMILIES.items():
        t = time.perf_counter()
        sets = bad = split = fams = other = seen = wrong = 0
        spent = 0.0
        for s in seeds:
            for f in Analysis(make(s)).factors:
                for a in f.sets:
                    if a.trivial:
                        continue
                    sets += 1
                    got = _family_search(f.game, f.graph, a)
                    if got != _inlist_family_search(f.graph, a):
                        bad += 1
                        print(f"{label} seed {s}: the searches disagree", flush=True)
                    if _folded_steps(f.game, f.graph, a) != _reference_steps(f.graph, a):
                        bad += 1
                        print(f"{label} seed {s}: the folded steps disagree", flush=True)
                    for fam in got[0]:
                        fams += 1
                        rc = _ring_component(f.game, fam)
                        want = reference_ring_component(f.game, fam)
                        if rc != want or rc is not None and rc.breakers != want.breakers:
                            other += 1
                            print(f"{label} seed {s}: the ring components differ", flush=True)
                        tp = time.perf_counter()
                        n, w = party_differences(f.game, fam)
                        spent += time.perf_counter() - tp
                        seen += n
                        wrong += w
                        if w:
                            print(f"{label} seed {s}: {w} ring parties differ", flush=True)
                    listed = sorted(tuple(sorted(fam)) for fam in got[0])
                    if any(c not in listed for c in _reference_step_sccs(f.graph, a)):
                        split += 1
                        print(f"{label} seed {s}: a step component is no family", flush=True)
        total += sets
        mismatches += bad
        differ += split
        families += fams
        components += other
        checked += seen
        parties += wrong
        party_time += spent
        print(f"{label}, seeds {seeds.start}-{seeds.stop - 1}: {sets} non-trivial sets, "
              f"{bad} mismatches, {split} with a step component that is no family, "
              f"{fams} families, {other} RingComponent differences, "
              f"{seen} ring parties ({spent:.1f} s), {wrong} party differences, "
              f"{time.perf_counter() - t:.1f} s", flush=True)
    print(f"total: {total} sets, {mismatches} mismatches, {differ} with a step component "
          f"that is no family, {families} families, {components} RingComponent "
          f"differences, {checked} ring parties ({party_time:.1f} s), {parties} party "
          f"differences; {time.perf_counter() - started:.1f} s")
    return 1 if mismatches or components or parties else 0


if __name__ == "__main__":
    sys.exit(main())
