"""Coalition structures and the blocking/breaking machinery.

A coalition structure is a partition of the agent set whose non-single parts
are all permissible. Structures are stored as tuples of coalition masks
sorted by least member, which doubles as the canonical form.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .core import (
    Game,
    coalition,
    lowest_agent,
    members,
    prefers,
    render_coalition,
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


def _order_key(g: Game):
    """``structure_key``, or ``None`` when the game's canonical structures
    already compare in its order as plain tuples of masks: when no
    permissible coalition has three or more agents.

    Where two structures first differ, their earlier parts cover the same
    agents, so both parts there hold the same least agent ``a``. When every
    part has at most two agents, those parts are ``{a}`` or a pair
    ``{a, b}``, and their masks compare as their member tuples.
    """
    if all(c.bit_count() <= 2 for c in g.permissible):
        return None
    return structure_key


def maximal_sets(collection: Iterable[int]) -> list[tuple[int, ...]]:
    """All inclusion-maximal pairwise-disjoint subsets of the non-single
    coalitions in ``collection``, each in ascending order, sorted.

    Enumerated as the maximal cliques of the disjointness graph by
    Bron-Kerbosch with Tomita's pivot (Tomita, Tanaka and Takahashi 2006),
    on bitsets over the coalitions' indices, so each family is produced
    exactly once. Each call branches only on the candidates that share an
    agent with the pivot: the candidate or excluded coalition with the most
    candidates disjoint from it.
    """
    ks = sorted({c for c in collection if c.bit_count() >= 2})
    if not ks:
        raise EmptyCollection("collection has no non-single coalition")
    # apart[i]: the indices of the coalitions disjoint from ks[i]
    holding: dict[int, int] = {}
    for i, c in enumerate(ks):
        for a in members(c):
            holding[a] = holding.get(a, 0) | 1 << i
    full = (1 << len(ks)) - 1
    apart = []
    for c in ks:
        meets = 0
        for a in members(c):
            meets |= holding[a]
        apart.append(full & ~meets)
    out: list[tuple[int, ...]] = []

    def expand(chosen: int, cand: int, excl: int) -> None:
        if not cand:
            if not excl:
                found = []
                while chosen:
                    low = chosen & -chosen
                    chosen ^= low
                    found.append(ks[low.bit_length() - 1])
                out.append(tuple(found))
            return
        # every maximal set below holds the pivot or a candidate meeting
        # it, so only those candidates are branched on
        most, skip = -1, 0
        rest = cand | excl
        while rest:
            low = rest & -rest
            rest ^= low
            left = apart[low.bit_length() - 1]
            k = (cand & left).bit_count()
            if k > most:
                most, skip = k, left
        todo = cand & ~skip
        while todo:
            low = todo & -todo
            todo ^= low
            left = apart[low.bit_length() - 1]
            expand(chosen | low, cand & left, excl & left)
            cand ^= low
            excl |= low

    expand(0, full, 0)
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


def _breaking(g: Game, mset: Iterable[int]) -> int:
    """The K-bits (``Game.expansion``) of every coalition breaking the
    maximal set of K-coalitions: those beating each member they meet
    (the AND of ``better``) that meet some member (the OR of ``meets``).
    A member never breaks its own set."""
    bit, better, meets = g.expansion()
    beats, hit = -1, 0
    for m in mset:
        beats &= better[m]
        hit |= meets[bit[m].bit_length() - 1]
    return beats & hit


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
    """Whether no permissible coalition blocks ``pi`` (``blocks``), read
    from the rankings: each agent's part is looked up once, and ``c``
    blocks when every member lists it above their part. A member's
    permissible coalition is listed; an unlisted part ranks below it."""
    pos = g._pos
    missing = (1 << g.n) - 1
    # held[i]: where agent i + 1 ranks their part, past the end if unlisted
    held = [0] * g.n
    for p in pi:
        rest = p & missing
        missing ^= rest
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            held[i] = pos[i].get(p, len(pos[i]))
    if missing:
        raise AgentIdOutOfRange(f"agent {lowest_agent(missing)} is not covered by the structure")
    for c in g.permissible:
        rest = c
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            if pos[i][c] >= held[i]:
                break
        else:
            return False
    return True


def _parts_by_agent(g: Game) -> list[list[int]]:
    """Entry ``i`` lists the parts agent ``i`` can take when they are the
    least agent not yet placed: their singleton, then each permissible
    coalition containing them in member order."""
    by_agent: list[list[int]] = [[]] + [[1 << b] for b in range(g.n)]
    for agents, c in sorted((members(c), c) for c in g.permissible):
        for i in agents:
            by_agent[i].append(c)
    return by_agent


def enumerate_structures(g: Game, limit: int = DEFAULT_LIMIT) -> Iterator[tuple[int, ...]]:
    """Lazily yield every coalition structure of the game once, canonical
    and in ``structure_key`` order.

    The walk assigns the least unassigned agent a part: its singleton
    first, then each disjoint permissible coalition in member order. So no
    structure is produced twice, no dedup set is needed, and no sort
    either: ``full_domination_graph`` relies on that order. Raises
    ``LimitExceeded`` before yielding structure ``limit + 1``.
    """
    for pi, _ in _keyed_structures(g, limit):
        yield pi


def _keyed_structures(
    g: Game, limit: int = DEFAULT_LIMIT
) -> Iterator[tuple[tuple[int, ...], int]]:
    """``enumerate_structures`` with each structure's key: the K-bitset of
    its non-single parts (``Game.expansion``), which identifies it in
    ``dynamics._grow``.

    One iterative walk: a frame per part being placed holds its remaining
    options, the agents placed before it and their key.
    """
    full = (1 << g.n) - 1
    bit = g.expansion().bit
    # (part, its K-bit) per agent; a singleton has none
    options = [[(c, bit.get(c, 0)) for c in own] for own in _parts_by_agent(g)]
    count = 0
    parts: list[int] = []
    frames = [(iter(options[1]), 0, 0)]
    while frames:
        todo, used, key = frames[-1]
        for c, b in todo:
            if c & used:
                continue
            placed = used | c
            parts.append(c)
            if placed == full:
                count += 1
                if count > limit:
                    raise LimitExceeded(f"more than {limit} structures")
                # parts were added in least-member order, already canonical
                yield tuple(parts), key | b
                parts.pop()
                continue
            free = ~placed & full
            frames.append((iter(options[(free & -free).bit_length()]), placed, key | b))
            break
        else:
            # every option of this frame is done: undo the part that led here
            frames.pop()
            if parts:
                parts.pop()


def _count_structures(g: Game, limit: int = DEFAULT_LIMIT) -> int:
    """The number of coalition structures, without enumerating them.

    The walk of ``enumerate_structures`` as a recursion, memoized on the
    set of agents already placed: the structures completing that set
    depend on it alone. Raises ``LimitExceeded`` as soon as one set has
    more than ``limit`` completions; each set it reaches is placed by some
    structure, and its completions give that many distinct structures of
    the game.
    """
    full = (1 << g.n) - 1
    by_agent = _parts_by_agent(g)
    memo = {full: 1}

    def rec(used: int) -> int:
        count = memo.get(used)
        if count is not None:
            return count
        free = ~used & full
        count = 0
        for c in by_agent[(free & -free).bit_length()]:
            if not c & used:
                count += rec(used | c)
        if count > limit:
            raise LimitExceeded(f"more than {limit} structures")
        memo[used] = count
        return count

    # an agent in no permissible coalition is single in every structure
    return rec(sum(own[0] for own in by_agent[1:] if len(own) == 1))
