"""Coalition structures and the blocking/breaking machinery.

A coalition structure is a partition of the agent set whose non-single parts
are all permissible. Structures are stored as tuples of coalition masks
sorted by least member, which doubles as the canonical form.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .core import (
    Game,
    _entry_mask,
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
        mask = p if type(p) is int else _entry_mask(p)
        if mask <= 0:
            if mask:
                raise MalformedInput(f"part mask {mask} is negative")
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

    They are the leaves of ``_bron_kerbosch`` over the coalitions' indices:
    Bron-Kerbosch whose pivot is the lowest candidate or excluded
    coalition, which keeps the search exact (Cazals and Karande 2008) and
    costs no scan, where Tomita's pivot (Tomita, Tanaka and Takahashi 2006)
    scans them all. Each coalition's disjoint ones are one int, built from
    one mask per agent. There is no game, so there are no breakers to carry.
    """
    ks = sorted({c for c in collection if c.bit_count() >= 2})
    if not ks:
        raise EmptyCollection("collection has no non-single coalition")
    holding: dict[int, int] = {}
    for i, c in enumerate(ks):
        for a in members(c):
            holding[a] = holding.get(a, 0) | 1 << i
    full = (1 << len(ks)) - 1
    rows = []
    for c in ks:
        meets = 0
        for a in members(c):
            meets |= holding[a]
        rows.append((full & ~meets, 0, 0))
    return _bron_kerbosch(ks, rows, full)[0]


def _maximal_search(g: Game, inside: int, within: int = 0, prune: bool = False):
    """``_bron_kerbosch`` over the K-coalitions whose K-bits
    (``Game.expansion``) are ``inside``, carrying their breakers."""
    _, better, meets = g.expansion()
    ks = g.permissible
    rows = {}
    rest = inside
    while rest:
        low = rest & -rest
        rest ^= low
        j = low.bit_length() - 1
        hit = meets[j]
        rows[j] = (inside & ~hit, better[ks[j]], hit)
    return _bron_kerbosch(ks, rows, inside, within, prune)


def _bron_kerbosch(ks, rows, cand: int, within: int = 0, prune: bool = False):
    """The library's one search for maximal sets: the maximal cliques of
    the disjointness graph, each produced exactly once, found by
    Bron-Kerbosch with a pivot on bitsets over positions.

    ``cand`` holds the positions of the collection. ``ks[j]`` is the
    coalition at position ``j``. ``rows[j]`` is ``(apart, better, meets)``:
    the positions of the collection disjoint from it, and the bitsets whose
    AND and OR give a set's breakers (``Game.expansion``).

    Each call branches only on the candidates that share an agent with the
    pivot. Any pivot taken from the candidates and the excluded coalitions
    keeps the search exact (Cazals and Karande 2008). Tomita's pivot
    (Tomita, Tanaka and Takahashi 2006), the one with the most candidates
    disjoint from it, costs a scan per call. So the pivot is the lowest
    position of the two, which costs none.

    Each branch carries four values down the recursion: the AND of
    ``better`` over its chosen coalitions, the OR of their ``meets``, and
    the coalitions meeting at least one of them and at least two. So each
    maximal set's breakers, the coalitions beating every member they meet
    that meet some member, come with the set, and so do those of them that
    meet two members. A member never breaks its own set.

    Returns the maximal sets, ascending each and sorted; the OR of their
    breakers; and the OR of their breakers that meet two members of the set.
    With ``within`` nonzero, it returns ``None`` as soon as a set has no
    breaker in ``within``.

    ``prune``, with ``within`` the whole collection, serves a verdict and
    not a listing. Once a breaker in ``within`` meets two members of a set
    (a clash), no set is listed any more, and the breakers it returns hold
    every breaker outside ``within`` but perhaps not every one inside. A
    branch is then skipped when no set below it can change the verdict or
    those breakers: every coalition outside the collection that meets the
    collection and beats every chosen coalition, as each breaker of a set
    below does, is already a breaker; and some coalition ``d`` of the
    collection that meets a chosen coalition and beats them all also beats
    every candidate it meets, so ``d`` is outside every set below and
    breaks each one.
    """
    out: list[tuple[int, ...]] = []
    breakers = clash = 0
    settled = False
    if prune:
        # the coalitions outside the collection that meet it, and by the
        # K-bit of a coalition d of the collection, on first use, the
        # coalitions of the collection that d meets and does not beat
        near = 0
        for _, _, meets in rows.values():
            near |= meets
        near &= ~cand
        unbeaten: dict[int, int] = {}

    def expand(chosen, cand, excl, beats, hit, once, twice) -> bool:
        # True stops the search
        nonlocal breakers, clash, settled
        if not cand:
            if not excl:
                found = beats & hit
                if within and not found & within:
                    return True
                breakers |= found
                if settled:
                    return False
                clash |= found & twice
                if prune and clash & within:
                    settled = True
                    return False
                mset = []
                while chosen:
                    low = chosen & -chosen
                    chosen ^= low
                    mset.append(ks[low.bit_length() - 1])
                out.append(tuple(mset))
            return False
        # once the collection is known not to be simple, a branch that can
        # add no outside breaker, and whose every set some coalition d of
        # the collection breaks, is skipped
        if settled and not beats & near & ~breakers:
            ds = beats & hit & within
            while ds:
                d = ds & -ds
                ds ^= d
                miss = unbeaten.get(d)
                if miss is None:
                    miss = 0
                    rest = rows[d.bit_length() - 1][2] & within
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        if not rows[low.bit_length() - 1][1] & d:
                            miss |= low
                    unbeaten[d] = miss
                if not cand & miss:
                    return False
        # every maximal set below holds the pivot or a candidate meeting it,
        # so only those candidates are branched on
        rest = cand | excl
        todo = cand & ~rows[(rest & -rest).bit_length() - 1][0]
        while todo:
            low = todo & -todo
            todo ^= low
            left, better, meets = rows[low.bit_length() - 1]
            if expand(chosen | low, cand & left, excl & left, beats & better, hit | meets,
                      once | meets, twice | once & meets):
                return True
            cand ^= low
            excl |= low
        return False

    if expand(0, cand, 0, -1, 0, 0, 0):
        return None
    out.sort()
    return out, breakers, clash


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
    either: ``full_domination_graph`` relies on that order, and hands the
    structures to ``dynamics._grow`` unvalidated. Raises ``LimitExceeded``
    before yielding structure ``limit + 1``.

    One iterative walk: a frame per part being placed holds its remaining
    options and the agents placed before it; an agent in no permissible
    coalition takes their singleton, their one option.
    """
    full = (1 << g.n) - 1
    options = _parts_by_agent(g)
    count = 0
    parts: list[int] = []
    frames = [(iter(options[1]), 0)]
    while frames:
        todo, used = frames[-1]
        for c in todo:
            if c & used:
                continue
            placed = used | c
            parts.append(c)
            if placed == full:
                count += 1
                if count > limit:
                    raise LimitExceeded(f"more than {limit} structures")
                # parts were added in least-member order, already canonical
                yield tuple(parts)
                parts.pop()
                continue
            free = ~placed & full
            frames.append((iter(options[(free & -free).bit_length()]), placed))
            break
        else:
            # every option of this frame is done: undo the part that led here
            frames.pop()
            if parts:
                parts.pop()


# a frontier wider than this is counted by the walk: a layer holds 2**width
# slots whether or not they are reached, and the walk visits only the
# placed-agent sets it reaches (the crossover is measured in CHANGES.md)
_LAYER_CAP = 12


def _count_structures(g: Game, limit: int = DEFAULT_LIMIT) -> int:
    """The number of coalition structures, without enumerating them.

    A dynamic programme over the agents in id order, one Python ``int``
    per layer. The frontier agents are those a coalition can place before
    their own turn: the members of a permissible coalition other than its
    least. After agent ``a``, the layer holds one ``B``-bit slot for each
    set of later frontier agents already placed, counting the ways agents
    ``1..a`` can take their parts and place that set. Agent ``a`` folds the
    slots where they were already placed down onto the ones where they were
    free, and each permissible coalition whose least member is ``a`` adds
    the free slots, shifted to the slot that also places its other members:
    a few big-int operations a step, not a call per placed-agent set. The
    count is slot 0 after the last agent.

    Raises ``LimitExceeded`` as soon as a slot exceeds ``limit``, checked
    across all slots at once: each placement a slot counts completes, with
    the rest single, to a distinct structure. A step adds at most ``2 +``
    (its coalitions) slots of at most ``limit`` each into one slot, and
    ``B`` holds that sum with a bit to spare for the compare. A frontier
    wider than ``_LAYER_CAP`` is counted by ``_walk_count``.
    """
    # others[i]: each permissible coalition whose least member is agent
    # i + 1, without that member
    others: list[list[int]] = [[] for _ in range(g.n)]
    front = 0
    for c in g.permissible:
        rest = c & (c - 1)
        others[(c ^ rest).bit_length() - 1].append(rest)
        front |= rest
    width = front.bit_count()
    if width > _LAYER_CAP:
        return _walk_count(g, limit)
    B = limit.bit_length() + (max(map(len, others)) + 2).bit_length() + 1
    total = B << width
    # by a frontier agent's bit: at, where the slot of the set of that
    # agent alone starts, in bits (a set's slot starts at the sum over its
    # agents); free, every slot whose set does not hold the agent
    at: dict[int, int] = {}
    free: dict[int, int] = {}
    rest = front
    run = B
    while rest:
        low = rest & -rest
        rest ^= low
        at[low] = run
        free[low] = _repeat((1 << run) - 1, run << 1, total)
        run <<= 1
    ones = _repeat(1, B, total)
    high = ones << B - 1
    over = ones * ((1 << B - 1) - 1 - limit)
    layer = 1
    for i, opts in enumerate(others):
        bit = 1 << i
        if bit & front:
            empty = layer & free[bit]
            layer = empty + ((layer ^ empty) >> at[bit])
        else:
            empty = layer
        for rest in opts:
            if rest in at:
                layer += (empty & free[rest]) << at[rest]
                continue
            shift, mask = 0, -1
            while rest:
                low = rest & -rest
                rest ^= low
                shift += at[low]
                mask &= free[low]
            layer += (empty & mask) << shift
        if (layer + over) & high:
            raise LimitExceeded(f"more than {limit} structures")
    return layer


def _repeat(x: int, period: int, total: int) -> int:
    """``x`` repeated every ``period`` bits up to ``total`` bits, where
    ``total`` is ``period`` times a power of two."""
    while period < total:
        x |= x << period
        period <<= 1
    return x


def _walk_count(g: Game, limit: int) -> int:
    """The count of ``_count_structures`` by the walk of
    ``enumerate_structures`` as a recursion, memoized on the set of agents
    already placed: the structures completing that set depend on it alone.
    Raises ``LimitExceeded`` as soon as one set has more than ``limit``
    completions; each set it reaches is placed by some structure, and its
    completions give that many distinct structures of the game. An agent in
    no permissible coalition takes their singleton, their one part.
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

    return rec(0)
