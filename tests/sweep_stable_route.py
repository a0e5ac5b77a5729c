"""Sweep: the absorbing sets of many seeded pair-only factors with a stable
matching against enumeration.

Each factor is a factor of ``random_marriage_spec(m, w, density, seed)``
(6 to 7 agents a side) or of ``random_roommate_spec(n, density, seed)``
(n = 8 to 12) that is pair-only and has a stable matching. Its absorbing
sets (``Analysis(...).factors``, found by the stable-partition search
closing every cycle at length 2, branching on the phase-1 table) must be
exactly its stable structures, one trivial set each, in enumeration order:
``reference_stable`` of ``oracle.py``, every structure of
``enumerate_structures`` that no permissible coalition blocks. Too slow
for the test suite; run it by hand:

    PYTHONPATH=src python tests/sweep_stable_route.py

It prints one line per family and a total, and exits non-zero on the first
disagreement, or when a family has fewer factors than it asks for among the
seeds it scans.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stabledec import Analysis  # noqa: E402
from stabledec.absorbing import factor_games  # noqa: E402

from games import mar, room  # noqa: E402
from oracle import reference_stable  # noqa: E402

# family -> (make(density, seed), factors to check); 1,000 in all
FAMILIES = {
    **{
        f"marriage({m}, {w})": (lambda d, s, m=m, w=w: mar(m, w, d, s), 150)
        for m, w in ((6, 6), (6, 7), (7, 6), (7, 7))
    },
    **{f"roommate({n})": (lambda d, s, n=n: room(n, d, s), 80) for n in (8, 9, 10, 11, 12)},
}
DENSITIES = (0.5, 0.7, 0.9, 1.0)
# the last seed scanned: the counts above are met by seed 161 (roommate(11))
LAST_SEED = 1_000


def factors(make, count: int):
    """At most ``count`` tuples (label, factor, its stable structures) of
    pair-only factors with a stable matching, the densities taken in turn
    over the seeds 1 to ``LAST_SEED``. The stable structures are
    ``reference_stable``'s; a factor with none is skipped."""
    found = 0
    for s in range(1, LAST_SEED + 1):
        d = DENSITIES[s % len(DENSITIES)]
        for k, f in enumerate(factor_games(make(d, s))):
            if any(c.bit_count() != 2 for c in f.permissible):
                continue
            stable = reference_stable(f)
            if stable:
                yield f"{d}, {s}/{k}", f, stable
                found += 1
                if found == count:
                    return


def main() -> int:
    total = structures = kept = 0
    started = time.perf_counter()
    for family, (make, count) in FAMILIES.items():
        t = time.perf_counter()
        checked = seen = stable = 0
        for label, g, want in factors(make, count):
            an = Analysis(g)
            (f,) = an.factors
            if f.graph is not None or [a.members for a in f.sets] != [(pi,) for pi in want]:
                print(f"absorbing sets differ from the stable structures on {family} {label}",
                      flush=True)
                return 1
            stable += len(want)
            seen += an.structure_count
            checked += 1
        if checked < count:
            print(f"{family}: only {checked} of {count} factors in seeds 1-{LAST_SEED}",
                  flush=True)
            return 1
        total += checked
        structures += seen
        kept += stable
        print(f"{family}: {checked} factors agree, {stable} stable structures of {seen}, "
              f"{time.perf_counter() - t:.1f} s", flush=True)
    print(f"total: {total} factors agree; {kept} stable structures of {structures}; "
          f"{time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
