"""Coalition structures and the blocking/breaking machinery.

A coalition structure is a partition of the agent set whose non-single parts
are all permissible. Structures are stored as tuples of coalition masks
sorted by least member, which doubles as the canonical form.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import (
    Game,
    coalition,
    lowest_agent,
    members,
    prefers,
    render_coalition,
    singleton,
    unanimously_prefers,
)
from .errors import (
    AgentIdOutOfRange,
    EmptyCollection,
    LimitExceeded,
    MalformedInput,
)

DEFAULT_LIMIT = 1_000_000


def structure_from_parts(g: Game, parts) -> tuple[int, ...]:
    """Validate and canonicalize a partition given as masks or member lists."""
    masks = []
    for p in parts:
        mask = p if isinstance(p, int) else coalition(p)
        if mask == 0:
            raise MalformedInput("structures cannot contain an empty part")
        masks.append(mask)
    union = 0
    for mask in masks:
        if mask & union:
            raise MalformedInput("structure parts overlap")
        union |= mask
        if mask.bit_count() >= 2 and mask not in g._kset:
            raise MalformedInput(
                f"part {render_coalition(mask)} is not a permissible coalition"
            )
    if union != (1 << g.n) - 1:
        raise MalformedInput("structure parts do not cover the agent set")
    return tuple(sorted(masks, key=lowest_agent))


def singleton_structure(n: int) -> tuple[int, ...]:
    return tuple(1 << b for b in range(n))


def coalition_of(pi: tuple[int, ...], i: int) -> int:
    """The part of structure ``pi`` containing agent ``i``."""
    bit = 1 << (i - 1)
    for p in pi:
        if p & bit:
            return p
    raise AgentIdOutOfRange(f"agent {i} is not covered by the structure")


def render_structure(pi: tuple[int, ...]) -> str:
    return " ".join(render_coalition(p) for p in pi)


def structure_key(pi: tuple[int, ...]):
    """Canonical sort key: the tuple of member tuples."""
    return tuple(members(p) for p in pi)


def maximal_sets(collection: Iterable[int]) -> list[tuple[int, ...]]:
    """All inclusion-maximal pairwise-disjoint subsets of the non-single
    coalitions in ``collection``.

    Enumerated as the maximal cliques of the disjointness graph
    (Bron-Kerbosch), so each family is produced exactly once.
    """
    ks = sorted({c for c in collection if c.bit_count() >= 2})
    if not ks:
        raise EmptyCollection("collection has no non-single coalition")
    out: list[tuple[int, ...]] = []

    def bk(r, p, x):
        if not p and not x:
            out.append(tuple(r))
            return
        for v in list(p):
            bk(r + [v], [u for u in p if not u & v], [u for u in x if not u & v])
            p.remove(v)
            x.append(v)

    bk([], ks, [])
    return sorted(out)


def breaks_maximal_set(g: Game, c: int, mset: Iterable[int]) -> bool:
    """Whether ``c`` intersects some member of the maximal set and is
    unanimously preferred to every member it intersects."""
    hit = False
    for m in mset:
        if m & c:
            hit = True
            if not unanimously_prefers(g, c, m):
                return False
    return hit


def breaks(g: Game, c: int, collection: Iterable[int]) -> bool:
    """Whether coalition ``c`` breaks the collection: some maximal set has a
    member meeting ``c`` and ``c`` beats every member it meets there."""
    ks = [x for x in collection if x.bit_count() >= 2]
    if not ks:
        return False
    return any(breaks_maximal_set(g, c, mset) for mset in maximal_sets(ks))


def blocks(g: Game, c: int, pi: tuple[int, ...]) -> bool:
    """Whether every member of ``c`` strictly prefers it to their current
    part. A coalition already in the structure never blocks it."""
    return all(prefers(g, i, c, coalition_of(pi, i)) for i in members(c))


def is_stable(g: Game, pi: tuple[int, ...]) -> bool:
    return not any(blocks(g, c, pi) for c in g.permissible)


def enumerate_structures(g: Game, limit: int = DEFAULT_LIMIT) -> Iterator[tuple[int, ...]]:
    """Lazily yield every coalition structure of the game once, canonical
    and in ``structure_key`` order.

    Recursion assigns the least unassigned agent a part: its singleton
    first, then each disjoint permissible coalition in member order. So no
    structure is produced twice, no dedup set is needed, and no sort
    either: ``full_domination_graph`` relies on that order. Raises
    ``LimitExceeded`` before yielding structure ``limit + 1``.
    """
    n = g.n
    full = (1 << n) - 1
    by_agent: list[list[int]] = [[] for _ in range(n + 1)]
    for c in sorted(g.permissible, key=members):
        for i in members(c):
            by_agent[i].append(c)
    count = 0
    parts: list[int] = []

    def rec(used: int) -> Iterator[tuple[int, ...]]:
        nonlocal count
        if used == full:
            count += 1
            if count > limit:
                raise LimitExceeded(f"more than {limit} structures")
            # parts were added in least-member order, already canonical
            yield tuple(parts)
            return
        free = ~used & full
        low = free & -free
        i = low.bit_length()
        parts.append(low)
        yield from rec(used | low)
        parts.pop()
        for c in by_agent[i]:
            if c & used:
                continue
            parts.append(c)
            yield from rec(used | c)
            parts.pop()

    yield from rec(0)
