"""Rings of coalitions and ring components of absorbing sets.

A ring is an ordered tuple of at least three coalitions where each one is
unanimously preferred to its predecessor, cyclically. A ring component is a
collection of permissible coalitions that (i) pairwise transitively prefer
each other within the collection and (ii) break every one of their own
maximal sets from within. Ring components are recovered from a non-trivial
absorbing set by extracting a ring from a cycle through every edge, closed
by a shortest path back, and merging rings that share a coalition. The
searches stop once every strongly connected component of the set's step
digraph is one merged family (``_ring_families``).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .core import Game, _Frozen, _setattr, intersects, render_coalition, unanimously_prefers
from .dynamics import DominationGraph, _tarjan, dominate_via
from .errors import (
    NotACycle,
    NotARingComponent,
    NotBlocking,
    StartNotInCycle,
    TrivialAbsorbingSet,
    VerificationFailed,
)
from .structures import _breaking, maximal_sets, render_structure


def is_ring(g: Game, seq: Sequence[int]) -> bool:
    """Whether the ordered coalitions form a ring (cyclic unanimous
    improvement; consecutive intersections not required)."""
    if len(seq) < 3 or len(set(seq)) != len(seq):
        return False
    J = len(seq)
    return all(unanimously_prefers(g, seq[(j + 1) % J], seq[j]) for j in range(J))


def is_proper_ring(g: Game, seq: Sequence[int]) -> bool:
    """A ring whose consecutive coalitions also share an agent, so every
    step is a genuine (non-vacuous) improvement."""
    if not is_ring(g, seq):
        return False
    J = len(seq)
    return all(intersects(seq[j], seq[(j + 1) % J]) for j in range(J))


def canonical_rotation(seq: Sequence[int]) -> tuple[int, ...]:
    """The lexicographically least rotation; rings compare equal exactly
    when their canonical rotations coincide."""
    seq = tuple(seq)
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


def cyclically_equal(a: Sequence[int], b: Sequence[int]) -> bool:
    return len(a) == len(b) and canonical_rotation(a) == canonical_rotation(b)


def _via_between(g: Game, prev, nxt) -> int:
    prev_parts = set(prev)
    for c in nxt:
        if c.bit_count() >= 2 and c not in prev_parts:
            try:
                if dominate_via(g, prev, c) == nxt:
                    return c
            except NotBlocking:
                continue
    raise NotACycle(
        f"{render_structure(nxt)} does not dominate {render_structure(prev)}"
    )


def _ring_from_vias(vias: Sequence[int], start_idx: int) -> tuple[int, ...]:
    """Walk the via-coalitions of a cycle: from the current coalition jump to
    the nearest later via sharing an agent; stop at the first repeated value
    and return the segment strictly between the repeats."""
    J = len(vias)
    sel: list[int] = [vias[start_idx]]
    j = start_idx
    while True:
        cur = vias[j]
        nxt = None
        for r in range(1, J):
            t = (j + r) % J
            if vias[t] & cur:
                nxt = t
                break
        if nxt is None:
            raise NotACycle("a formed coalition is never met again along the cycle")
        val = vias[nxt]
        if val in sel:
            s = sel.index(val)
            return tuple(sel[s + 1 :] + [val])
        sel.append(val)
        j = nxt
        if len(sel) > J:
            raise NotACycle("ring extraction failed to close")


def extract_ring(g: Game, cycle: Sequence[tuple[int, ...]], start: int) -> tuple[int, ...]:
    """Extract a ring from a domination cycle, beginning the walk at the
    step that forms ``start``.

    ``cycle`` lists structures with each one dominating its predecessor,
    cyclically (the first dominates the last).
    """
    J = len(cycle)
    if J < 3 or len(set(cycle)) != J:
        raise NotACycle("a domination cycle has at least three distinct structures")
    vias = [_via_between(g, cycle[j - 1], cycle[j]) for j in range(J)]
    if start not in vias:
        raise StartNotInCycle(f"{render_coalition(start)} never forms along the cycle")
    return _ring_from_vias(vias, vias.index(start))


def _pref_digraph_sccs(g: Game, masks: Sequence[int]) -> list[list[int]]:
    """SCCs (lists of indices) of the unanimous-improvement digraph over the
    K-coalitions ``masks``, in reverse topological order.

    The edges come off the ``Game.expansion`` bitsets: ``a`` steps to the
    coalitions of ``better[a] & meets[j(a)]`` inside ``masks``, which are
    exactly those that share an agent with ``a`` and that every shared
    agent ranks above it. ``bit[a]`` is never in ``better[a]``, so there is
    no self-loop. Each coalition's successors are listed in K order, the
    order of ``masks`` when it is sorted, as every caller passes it.
    """
    bit, better, meets = g.expansion()
    index = {}
    inside = 0
    for i, c in enumerate(masks):
        b = bit[c]
        index[b] = i
        inside |= b
    adj = []
    for c in masks:
        out = []
        succ = better[c] & meets[bit[c].bit_length() - 1] & inside
        while succ:
            low = succ & -succ
            succ ^= low
            out.append((index[low],))
        adj.append(out)
    return _tarjan(adj)


class RingComponent(_Frozen):
    """A ring component: its coalitions, whether it is simple, its maximal
    sets and its compact sets. ``breakers`` are the coalitions outside it
    that break one of its maximal sets, ascending; masks, which mean the
    same in every game holding them. They follow from the rest, so
    equality, the hash and the repr leave them out."""

    __slots__ = ("coalitions", "simple", "maximal", "compact", "breakers")

    def __init__(
        self,
        coalitions: tuple[int, ...],
        simple: bool,
        maximal: tuple[tuple[int, ...], ...],
        compact: tuple[tuple[int, ...], ...],
        breakers: tuple[int, ...],
    ) -> None:
        _setattr(self, "coalitions", coalitions)
        _setattr(self, "simple", simple)
        _setattr(self, "maximal", maximal)
        _setattr(self, "compact", compact)
        _setattr(self, "breakers", breakers)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.coalitions, self.simple, self.maximal, self.compact) == (
                other.coalitions, other.simple, other.maximal, other.compact
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coalitions, self.simple, self.maximal, self.compact))

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(coalitions={self.coalitions!r}, "
            f"simple={self.simple!r}, maximal={self.maximal!r}, compact={self.compact!r})"
        )

    def __reduce__(self):
        return self.__class__, (
            self.coalitions, self.simple, self.maximal, self.compact, self.breakers
        )


def _ring_component(g: Game, coalitions: Iterable[int]) -> RingComponent | None:
    """The ring component analysis of the collection, ``None`` when it is
    not one; simpleness, the compact sets and the breakers are worked out
    only for a collection that passes conditions (i) and (ii)."""
    B = tuple(sorted(set(coalitions)))
    if len(B) < 3 or any(c not in g._kset for c in B):
        return None
    # condition (i) as strong connectivity of the in-collection improvement
    # digraph: an edge d -> e when e beats d on a shared agent, read off
    # the K-bitsets
    if len(_pref_digraph_sccs(g, B)) != 1:
        return None
    # condition (ii): each maximal set must be broken by a member, which
    # lies outside it (``_breaking``); simple: every such breaker meets
    # exactly one coalition of the set. The breakers from outside are kept
    bit, _, meets = g.expansion()
    inside = 0
    for c in B:
        inside |= bit[c]
    maximal = tuple(maximal_sets(B))
    simple = True
    outside = 0
    for mset in maximal:
        found = _breaking(g, mset)
        outside |= found
        found &= inside
        if not found:
            return None
        if simple:
            once = twice = 0
            for m in mset:
                hit = meets[bit[m].bit_length() - 1]
                twice |= once & hit
                once |= hit
            simple = not found & twice
    outside &= ~inside
    ks = g.permissible
    breakers = []
    while outside:
        low = outside & -outside
        outside ^= low
        breakers.append(ks[low.bit_length() - 1])
    compact = maximal if simple else tuple((r,) for r in B)
    return RingComponent(B, simple, maximal, compact, tuple(breakers))


def is_ring_component(g: Game, coalitions: Iterable[int]) -> bool:
    """Whether the collection is a ring component: at least three
    permissible coalitions, pairwise mutual transitive preference within the
    collection, and every maximal set broken from within."""
    return _ring_component(g, coalitions) is not None


def component(g: Game, coalitions: Iterable[int]) -> RingComponent:
    """Analyze a ring component; raises ``NotARingComponent`` otherwise."""
    rc = _ring_component(g, coalitions)
    if rc is None:
        raise NotARingComponent("collection is not a ring component")
    return rc


def classify_simple(g: Game, coalitions: Iterable[int]) -> bool:
    """Whether the ring component is simple: every in-component breaker of a
    maximal set intersects exactly one coalition of that set."""
    return component(g, coalitions).simple


def _in_degrees_and_steps(
    G: DominationGraph, ids: Sequence[int]
) -> tuple[list[int], dict[int, int], dict[int, int]]:
    """One pass over the edges of a set of nodes closed under domination:
    the in-degree of each member (``-1`` off the set), and its step digraph,
    as each via's sources (the K-bits of the parts that forming it
    dissolves, ``keys[u] & ~keys[v]`` for an edge ``u -> v``) together with
    the via of each K-bit that forms on some edge."""
    adj, keys = G.adj, G.keys
    indegree = [-1] * len(G)
    for v in ids:
        indegree[v] = 0
    sources: dict[int, int] = {}
    via_of: dict[int, int] = {}
    for u in ids:
        key = keys[u]
        for v, via in adj[u]:
            d = indegree[v]
            if d < 0:
                raise VerificationFailed("absorbing set has an outgoing edge")
            indegree[v] = d + 1
            kv = keys[v]
            found = sources.get(via)
            if found is None:
                via_of[kv & ~key] = via
                found = 0
            sources[via] = found | key & ~kv
    return indegree, sources, via_of


def _ring_families(G: DominationGraph, absorbing) -> list[set[int]]:
    """The rings read off the absorbing set's cycles, merged on shared
    coalitions, in the order of their sorted coalitions.

    Every edge ``u -> v`` inside the set closes a cycle with the shortest
    path ``v -> u`` that breadth-first search from ``v`` finds; a ring is
    extracted from every start position of that cycle. One search from each
    member ``v`` serves all the edges into ``v``: expanding a node ``u``
    with an edge to ``v`` closes that edge's cycle, and the search stops
    once it has closed as many as ``v`` has in-edges. Since a node's
    search-tree parent is fixed when it is first discovered, each path
    equals the one a search from ``v`` stopping at that single in-neighbour
    would find.

    A ring steps from a coalition to the first later via meeting it, and
    the coalition stands until then: each step goes from a coalition of a
    member ``u`` to the via of an edge ``u -> v`` that meets it. Those
    coalitions are the parts that forming the via dissolves, read off the
    node keys as ``G.keys[u] & ~G.keys[v]``. So every ring is a cycle of
    this step digraph, inside one of its strongly connected components, and
    once each component of two or more coalitions is one family, no further
    ring can change a family, and the searches stop, mid-search if need
    be. A ring is also a subset of its cycle's vias, so the rings of a
    cycle whose vias all lie in one family are not walked.

    The searches start at the members with the most in-edges, ties broken
    by id. The order does not change the families: if the searches stop,
    the families are those components; if they never stop, every member is
    searched and every ring that can change a family read. So every order
    stops or none does.
    """
    return _family_search(G, absorbing)[0]


def _family_search(
    G: DominationGraph, absorbing, roots: Iterable[int] | None = None
) -> tuple[list[set[int]], list[int]]:
    """``_ring_families``' families, and the members it searched from, in
    order; ``roots``, an order of all the members, replaces the default."""
    ids = [G.node_id(pi) for pi in absorbing.members]
    adj = G.adj
    indegree, sources, via_of = _in_degrees_and_steps(G, ids)
    # the step digraph reversed, via to source, has the same components; a
    # source that is never a via has no step into it and is left out
    formed = sorted(sources)
    index = {c: i for i, c in enumerate(formed)}
    back = []
    for c in formed:
        out = []
        bits = sources[c]
        while bits:
            low = bits & -bits
            bits ^= low
            x = via_of.get(low)
            if x is not None:
                out.append((index[x],))
        back.append(out)
    # each component of two or more coalitions not yet one family, with
    # its least coalition
    unmerged = [
        (formed[min(comp)], {formed[i] for i in comp}) for comp in _tarjan(back) if len(comp) > 1
    ]
    if roots is None:
        roots = sorted(ids, key=lambda v: (-indegree[v], v))
    # per-node search state, stamped with the search root instead of reset
    n = len(G)
    seen_by = [-1] * n
    prev = [0] * n
    pvia = [0] * n

    def cycles(v: int):
        """The vias of the cycle each edge into ``v`` closes, aligned with
        the cycle (v, ..., u): first the edge into v, then the path steps in
        forward order; no two edges join the same pair of structures."""
        left = indegree[v]
        seen_by[v] = v
        queue = [v]
        head = 0
        while left:
            if head == len(queue):
                raise VerificationFailed("absorbing set is not strongly connected")
            x = queue[head]
            head += 1
            for w, wv in adj[x]:
                if w == v:
                    path = []
                    u = x
                    while u != v:
                        path.append(pvia[u])
                        u = prev[u]
                    path.append(wv)
                    yield tuple(reversed(path))
                    left -= 1
                    if not left:
                        return
                elif seen_by[w] != v:
                    seen_by[w] = v
                    prev[w] = x
                    pvia[w] = wv
                    queue.append(w)

    # coalition -> its family, one set shared by all of the family's coalitions
    family: dict[int, set[int]] = {}
    tried: set[tuple[int, ...]] = set()
    searched: list[int] = []
    for v in roots:
        if not unmerged:
            break
        searched.append(v)
        for vias in cycles(v):
            # a ring lies within its cycle's vias, so a cycle whose vias are
            # all in one family already cannot change a family
            settled = family.get(vias[0])
            if settled is not None and all(family.get(c) is settled for c in vias):
                continue
            if vias in tried:
                continue
            tried.add(vias)
            for s in range(len(vias)):
                ring = _ring_from_vias(vias, s)
                merged = set(ring).union(*(family.get(c, ()) for c in ring))
                for c in merged:
                    family[c] = merged
            unmerged = [(c, comp) for c, comp in unmerged if family.get(c) != comp]
            if not unmerged:
                break
    groups = {id(f): f for f in family.values()}
    return sorted(groups.values(), key=lambda f: tuple(sorted(f))), searched


def ring_components_of(g: Game, absorbing, G: DominationGraph) -> list[RingComponent]:
    """All ring components carried by a non-trivial absorbing set of ``G``.

    The merged ring families of the set (``_ring_families``) are analyzed
    once each, and those that are ring components are kept. A family that
    misses a member of the set is no party of its decomposition, so only a
    covering one must pass. Each call works the components out anew.
    """
    if absorbing.trivial:
        raise TrivialAbsorbingSet("trivial absorbing sets carry no ring component")
    comps = []
    for fam in _ring_families(G, absorbing):
        rc = _ring_component(g, fam)
        if rc is not None:
            comps.append(rc)
        elif all(fam.intersection(pi) for pi in absorbing.members):
            raise VerificationFailed("merged ring family fails the ring component test")
    return comps


def has_proper_ring(g: Game) -> bool:
    """Whether any proper ring exists: whether the unanimous-improvement
    digraph over the permissible set has a cycle. 1- and 2-cycles are
    impossible under strict preferences, so any SCC with two or more
    coalitions holds a ring."""
    return any(len(c) >= 2 for c in _pref_digraph_sccs(g, g.permissible))
