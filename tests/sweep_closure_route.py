"""Sweep: the closure route against the full-graph route on many seeded
pair-only games without a stable matching.

Each game is a factor of ``random_roommate_spec(n, density, seed)`` that is
pair-only and has no stable matching; ``assert_routes_agree`` of
``oracle.py`` compares the two routes on it (absorbing sets and their
order, convergence, the bytes of ``analyze --all --json``). Too slow for the
test suite; run it by hand:

    PYTHONPATH=src python tests/sweep_closure_route.py

It prints one line per agent count and a total, and exits non-zero on the
first disagreement, or when an agent count has fewer games than it asks
for among the seeds it scans.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stabledec.absorbing import factor_games  # noqa: E402

from stabledec import Analysis  # noqa: E402

from games import room  # noqa: E402
from oracle import assert_routes_agree, is_closure_factor  # noqa: E402

# agents -> games to check; 1,000 in all
COUNTS = {6: 300, 7: 250, 8: 200, 9: 150, 10: 100}
DENSITIES = (0.6, 0.7, 0.8, 0.9, 1.0)
# the last seed scanned: the counts above are met by seed 3,382 (n = 6)
LAST_SEED = 10_000


def games(n: int, count: int):
    """At most ``count`` (label, factor) pairs of ``n``-agent roommate
    games, the densities taken in turn over the seeds 1 to ``LAST_SEED``."""
    found = 0
    for s in range(1, LAST_SEED + 1):
        d = DENSITIES[s % len(DENSITIES)]
        for k, f in enumerate(factor_games(room(n, d, s))):
            if is_closure_factor(f):
                yield f"roommate({n}, {d}, {s})/{k}", f
                found += 1
                if found == count:
                    return


def main() -> int:
    total = nodes = full_nodes = 0
    started = time.perf_counter()
    for n, count in COUNTS.items():
        t = time.perf_counter()
        checked = grown = sets = 0
        for label, g in games(n, count):
            an = Analysis(g)
            try:
                assert_routes_agree(g, an)
            except AssertionError:
                print(f"routes disagree on {label}", flush=True)
                raise
            (f,) = an.factors
            grown += len(f.graph)
            sets += len(f.sets)
            full_nodes += an.structure_count
            checked += 1
        if checked < count:
            print(f"n={n}: only {checked} of {count} games in seeds 1-{LAST_SEED}", flush=True)
            return 1
        total += checked
        nodes += grown
        print(f"n={n}: {checked} games agree, {sets} absorbing sets, {grown} closure nodes, "
              f"{time.perf_counter() - t:.1f} s", flush=True)
    print(f"total: {total} games agree; closure {nodes} nodes against {full_nodes} "
          f"structures; {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
