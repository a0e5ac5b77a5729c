"""Sweep: the factored analysis against the unfactored one on many seeded
unions of two games.

Each game is a union of two seeded fronts, each a random game of 3 to 5
agents, a roommate game of 4 to 6 or a marriage game of 2 or 3 a side; every
odd seed is relabelled, so that the two components interleave in agent
order. ``Analysis`` works such a game out one component at a time, each on
its own agents, and maps the masks back to the whole game's; with
``absorbing.coalition_components`` patched to give one component it works
the whole game out at once. The bytes of ``analyze - --all --json`` must be
the same both ways. A union with a front that has no permissible coalition
has one factor, the other front on its own agents, and the empty front's
agents are set single where the factor results are joined.
Unions with more than ``LIMIT`` structures are skipped, and so is a union
that is its own factor, one component covering every agent, whose analysis
is never factored.
Too slow for the test suite; run it by hand:

    PYTHONPATH=src python tests/sweep_factor_route.py

It prints one line per front pair, one for the unions of one factor, and a
total, and exits non-zero on the first disagreement, naming its seed, or
when the seeds it scans give fewer games than it asks for.
"""

from __future__ import annotations

import contextlib
import random
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stabledec.absorbing as absorbing_module  # noqa: E402
from stabledec import Analysis, LimitExceeded  # noqa: E402

from games import mar, relabel, rnd, room, union  # noqa: E402
from oracle import analyze_json  # noqa: E402

# games to check, and the last seed scanned: the count is met by seed 1,001
COUNT = 1_000
LAST_SEED = 2_000
# the most structures a union may have
LIMIT = 3_000
DENSITIES = (0.4, 0.6, 0.8)


def front(rng: random.Random):
    """One seeded front: its name and its game."""
    kind = rng.choice(("random", "roommate", "marriage"))
    d = rng.choice(DENSITIES)
    s = rng.randrange(1_000_000)
    if kind == "random":
        return kind, rnd(rng.randint(3, 5), d, s)
    if kind == "roommate":
        return kind, room(rng.randint(4, 6), d, s)
    men = rng.randint(2, 3)
    return kind, mar(men, rng.randint(2, 3), d, s)


def game(seed: int):
    """The union of seed ``seed``, relabelled on odd seeds, and its fronts."""
    rng = random.Random(seed)
    (a, first), (b, second) = front(rng), front(rng)
    g = union(first, second)
    if seed % 2:
        g = relabel(g, seed)
    return f"{a}-{b}", g


@contextlib.contextmanager
def unfactored():
    """``Analysis`` on the whole game, one component, while the context
    lasts."""
    real = absorbing_module.coalition_components
    absorbing_module.coalition_components = lambda g: [(1 << g.n) - 1]
    try:
        yield
    finally:
        absorbing_module.coalition_components = real


def main() -> int:
    started = time.perf_counter()
    checked = Counter()
    large = whole = one = 0
    for seed in range(1, LAST_SEED + 1):
        pair, g = game(seed)
        try:
            an = Analysis(g, LIMIT)
        except LimitExceeded:
            large += 1
            continue
        if an.lifts == [None]:
            # one component covers every agent: nothing to factor
            whole += 1
            continue
        # a front without a permissible coalition leaves one factor
        one += len(an.factors) == 1
        try:
            got = analyze_json(g)
            with unfactored():
                want = analyze_json(g)
        except Exception:
            print(f"seed {seed} ({pair}, {g.n} agents): the analysis failed", flush=True)
            raise
        if got != want:
            print(f"seed {seed} ({pair}, {g.n} agents): the factored report differs "
                  "from the unfactored one", flush=True)
            return 1
        checked[pair] += 1
        if sum(checked.values()) == COUNT:
            break
    total = sum(checked.values())
    for pair in sorted(checked):
        print(f"{pair}: {checked[pair]} unions agree")
    print(f"of one factor, a front without a permissible coalition: {one} unions agree")
    if total < COUNT:
        print(f"only {total} of {COUNT} unions in seeds 1-{LAST_SEED}", flush=True)
        return 1
    print(f"total: {total} unions agree; skipped {large} over {LIMIT} structures and "
          f"{whole} that are their own factor; seeds 1-{seed}; "
          f"{time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
