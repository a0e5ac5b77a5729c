"""Sweep: the layered structure count against the memoized walk on many
seeded games.

``structures._count_structures`` counts in layers, one integer per agent,
unless the frontier is wider than ``_LAYER_CAP``, when it falls back to
``_walk_count``, the memoized walk over placed-agent sets. Each game here
is counted both ways, in layers also past the cap, and by the routed
count, and the counts must agree. On every game all three also
hold the limit boundary: ``limit=count`` returns the count and
``limit=count - 1`` raises ``LimitExceeded("more than count - 1
structures")``. The families are ``random_game(n)`` (n = 7 to 10),
``random_roommate_spec(n)`` (n = 9 to 14), ``random_marriage_spec(m, w)``
(up to 7 a side) and two such games side by side, about 1,000 games each.
Too slow for the test suite; run it by hand:

    PYTHONPATH=src python tests/sweep_count_route.py

It prints one line per family and a total, and exits non-zero on the first
disagreement.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stabledec.structures as structures  # noqa: E402
from stabledec import LimitExceeded  # noqa: E402
from stabledec.structures import _LAYER_CAP, _count_structures, _walk_count  # noqa: E402

from games import mar, rnd, room, union  # noqa: E402


def _pair(s: int):
    # two submarkets of three fronts, chosen by the seed
    fronts = (
        lambda: rnd(5 + s % 2, 0.4, s),
        lambda: room(6 + s % 3, 0.7, s),
        lambda: mar(3 + s % 2, 3 + s // 2 % 2, 0.7, s),
    )
    return union(fronts[s % 3](), fronts[s // 3 % 3]())


# family -> (make(seed), games to check); about 4,000 in all
FAMILIES = {
    "random(7-10)": (lambda s: rnd(7 + s % 4, (0.2, 0.4, 0.6, 0.8)[s // 4 % 4], s), 1000),
    "roommate(9-14)": (lambda s: room(9 + s % 6, (0.3, 0.5, 0.7, 0.9, 1.0)[s // 6 % 5], s), 1000),
    "marriage(<=7x7)": (
        lambda s: mar(1 + s % 7, 1 + s // 7 % 7, (0.5, 0.7, 0.9, 1.0)[s // 49 % 4], s), 1000
    ),
    "two submarkets": (_pair, 1000),
}


def _outcome(count, g, limit):
    try:
        return count(g, limit)
    except LimitExceeded as exc:
        return f"LimitExceeded: {exc}"


def _width(g) -> int:
    front = 0
    for c in g.permissible:
        front |= c & (c - 1)
    return front.bit_count()


def _layers(g, limit):
    # the layered count past the cap too, which it would hand to the walk
    structures._LAYER_CAP = g.n
    try:
        return _count_structures(g, limit)
    finally:
        structures._LAYER_CAP = _LAYER_CAP


def check(g, count: int) -> str | None:
    """``None`` when the layers, the walk and the routed count all give
    ``count`` on ``g`` and hold the limit boundary, else what differs. A
    game with one structure has no positive limit below its count."""
    for limit in (10**18, count, count - 1)[: 3 if count > 1 else 2]:
        want = count if limit >= count else f"LimitExceeded: more than {limit} structures"
        for name, f in (("layers", _layers), ("walk", _walk_count), ("count", _count_structures)):
            got = _outcome(f, g, limit)
            if got != want:
                return f"{name} at limit {limit}: {got!r}, want {want!r}"
    return None


def main() -> int:
    total = layered = 0
    started = time.perf_counter()
    for family, (make, count) in FAMILIES.items():
        t = time.perf_counter()
        widest = structures = narrow = 0
        for s in range(1, count + 1):
            g = make(s)
            n = _walk_count(g, 10**18)
            wrong = check(g, n)
            if wrong is not None:
                print(f"{family} seed {s}: {wrong}", flush=True)
                return 1
            width = _width(g)
            widest = max(widest, width)
            narrow += width <= _LAYER_CAP
            structures += n
        total += count
        layered += narrow
        print(f"{family}: {count} games agree, {narrow} counted in layers, widest frontier "
              f"{widest}, {structures} structures, {time.perf_counter() - t:.1f} s", flush=True)
    print(f"total: {total} games agree, {layered} counted in layers; "
          f"{time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
