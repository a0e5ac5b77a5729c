"""Rings of coalitions and ring components of absorbing sets.

A ring is an ordered tuple of at least three coalitions where each one is
unanimously preferred to its predecessor, cyclically. A ring component is a
collection of permissible coalitions that (i) pairwise transitively prefer
each other within the collection and (ii) break every one of their own
maximal sets from within. Ring components are recovered from a non-trivial
absorbing set by extracting a ring from a cycle through every edge, closed
by a shortest path back, and merging rings that share a coalition; the
walks from every start of a cycle share one table of next meeting vias
(``_walk_table``). The graph stores its edges as target ids, and every via
is read off the node keys. The set's in-degrees come from the graph's one
Tarjan pass, and its step digraph is folded per member off the keys and the
via bits (``_in_degrees_and_steps``), so no edge is walked outside the
searches. One breadth-first search per member closes the cycle of each
in-edge as its source is discovered, recognised from the keys. The
searches stop once every strongly connected component of the step digraph
is one merged family (``_ring_families``). One builder (``_kbit_sccs``)
gives those components and the improvement digraph's, which decide
condition (i) and ``has_proper_ring``. One search (``_ring_component``)
analyzes a collection, for a merged family and for a party alike; a party's
is pruned (``decomposition.make_party``).
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
from .structures import _maximal_search, render_structure


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
    """The lexicographically least rotation, ``()`` for an empty sequence;
    rings compare equal exactly when their canonical rotations coincide."""
    seq = tuple(seq)
    return min((seq[i:] + seq[:i] for i in range(len(seq))), default=())


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


def _walk_table(vias: Sequence[int]) -> list[int | None]:
    """For each position of a cycle's vias, the nearest later position,
    cyclically, whose via shares an agent with it; ``None`` where no other
    via does. One table serves the walks from every start position."""
    J = len(vias)
    twice = [*vias, *vias]
    table: list[int | None] = []
    for j, cur in enumerate(vias):
        nxt = None
        for t in range(j + 1, j + J):
            if twice[t] & cur:
                nxt = t - J if t >= J else t
                break
        table.append(nxt)
    return table


def _ring_from_vias(
    vias: Sequence[int], start_idx: int, table: Sequence[int | None]
) -> tuple[int, ...]:
    """Walk the via-coalitions of a cycle on its ``_walk_table``: from the
    current coalition jump to the nearest later via sharing an agent; stop
    at the first repeated value and return the segment strictly between the
    repeats. The selected values are distinct vias, so a value repeats
    within as many jumps as the cycle has vias."""
    sel: list[int] = [vias[start_idx]]
    j = start_idx
    while True:
        j = table[j]
        if j is None:
            raise NotACycle("a formed coalition is never met again along the cycle")
        val = vias[j]
        if val in sel:
            return tuple(sel[sel.index(val) + 1 :] + [val])
        sel.append(val)


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
    return _ring_from_vias(vias, vias.index(start), _walk_table(vias))


def _kbit_sccs(meets: Sequence[int], inside: int, reach: Sequence[int]) -> list[list[int]]:
    """SCCs, as lists of positions in reverse topological order, of the
    digraph over the K-bits of ``inside`` (``Game.expansion``), taken low to
    high as positions 0, 1, ...: the K-bit ``d`` at position ``i`` steps to
    every K-bit of ``reach[i] & meets[j(d)] & inside``, in K order."""
    index = {}
    rest = inside
    while rest:
        low = rest & -rest
        rest ^= low
        index[low] = len(index)
    adj = []
    for d, r in zip(index, reach):
        out = []
        succ = r & meets[d.bit_length() - 1] & inside
        while succ:
            low = succ & -succ
            succ ^= low
            out.append(index[low])
        adj.append(out)
    return _tarjan(adj)[0]


def _pref_digraph_sccs(g: Game, masks: Sequence[int]) -> list[list[int]]:
    """SCCs (lists of indices, in K order, the order of ``masks`` when it is
    sorted and distinct) of the unanimous-improvement digraph over the
    K-coalitions ``masks``, in reverse topological order: ``_kbit_sccs``
    with each coalition ``a`` reaching ``better[a]``, so it steps to those
    that share an agent with it and that every shared agent ranks above
    it. ``bit[a]`` is never in ``better[a]``, so there is no self-loop."""
    bit, better, meets = g.expansion()
    ordered = sorted(set(masks))
    inside = sum(bit[c] for c in ordered)
    return _kbit_sccs(meets, inside, [better[c] for c in ordered])


class RingComponent(_Frozen):
    """A ring component: its coalitions, whether it is simple, its maximal
    sets (none from a pruned search, ``_ring_component``) and its compact
    sets. ``breakers`` are the coalitions outside it that break one of its
    maximal sets, ascending. All are masks of the component's game;
    ``Analysis`` lifts a factor game's to the whole game's. The breakers
    follow from the rest, so equality, the hash and the repr leave them
    out."""

    __slots__ = _fields = ("coalitions", "simple", "maximal", "compact", "breakers")
    _shown = 4

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


def _ring_component(
    g: Game, coalitions: Iterable[int], prune: bool = False
) -> RingComponent | None:
    """The collection's ``RingComponent``, on the K-bitsets of
    ``Game.expansion``, or ``None`` when it is not a ring component.

    Condition (i) is strong connectivity of the in-collection improvement
    digraph: ``_kbit_sccs`` finds one component over the collection's
    K-bits, ``inside``. Condition (ii), simpleness and the breakers come
    from one maximal-set search over ``inside``
    (``structures._maximal_search``), whose every set arrives with its
    breakers: it stops at the first set no member breaks, and the component
    is simple when no member breaking a set meets two of its coalitions.
    The breakers from outside are kept. The search's pivot is the lowest
    candidate or excluded coalition rather than Tomita's: any pivot taken
    from the two keeps the search exact (Cazals and Karande 2008). With
    ``prune`` the search stops listing the sets of a component that is not
    simple, whose compact sets are its coalitions, and skips the branches
    that cannot change the verdict or the outside breakers; its maximal
    sets are then not all there, so a pruned component carries
    ``maximal=()``, and only its verdict, ``compact`` and ``breakers``
    hold. ``make_party`` runs the pruned search and keeps those.
    """
    B = tuple(sorted(set(coalitions)))
    if len(B) < 3 or any(c not in g._kset for c in B):
        return None
    bit, better, meets = g.expansion()
    inside = sum(bit[c] for c in B)
    if len(_kbit_sccs(meets, inside, [better[c] for c in B])) != 1:
        return None
    search = _maximal_search(g, inside, inside, prune)
    if search is None:
        return None
    maximal, outside, clash = search
    maximal = tuple(maximal)
    simple = not clash & inside
    outside &= ~inside
    ks = g.permissible
    breakers = []
    while outside:
        low = outside & -outside
        outside ^= low
        breakers.append(ks[low.bit_length() - 1])
    compact = maximal if simple else tuple((r,) for r in B)
    return RingComponent(B, simple, () if prune else maximal, compact, tuple(breakers))


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
) -> tuple[list[int], int, dict[int, int]]:
    """For a set of nodes that is exactly one sink component of ``G``: each
    node's in-degree from its own component (``DominationGraph.in_degrees``),
    the K-bits of every via formed from a member, and the step digraph
    folded per member. No edge is walked.

    An edge ``u -> v`` forms one via and dissolves the parts of ``u`` that
    meet it, so ``via_bits[u]`` holds the vias formed from ``u``, and it is
    folded into ``fold[d]`` for each K-bit ``d`` of ``keys[u]``. A coalition
    ``d`` steps to a via ``c`` (``d`` is dissolved where ``c`` forms)
    exactly when ``c`` is in ``fold[d] & meets[j(d)]``: some member holds
    ``d`` and forms ``c``, and ``c`` meets ``d``. A set that is not one sink
    component, such as a strict part of one or a union of several, raises
    ``VerificationFailed``."""
    comp_of = G.comp_of()
    ci = comp_of[ids[0]] if ids else -1
    if not (
        ids
        and G.is_sink(ci)
        and len(G.sccs()[ci]) == len(ids) == len(set(ids))
        and all(comp_of[v] == ci for v in ids)
    ):
        raise VerificationFailed("absorbing set is not one sink component of the graph")
    via_bits, keys = G.via_bits, G.keys
    formed = 0
    fold: dict[int, int] = {}
    for u in ids:
        acc = via_bits[u]
        formed |= acc
        key = keys[u]
        while key:
            low = key & -key
            key ^= low
            fold[low] = fold.get(low, 0) | acc
    return G.in_degrees(), formed, fold


def _ring_families(g: Game, G: DominationGraph, absorbing) -> list[set[int]]:
    """The rings read off the absorbing set's cycles, merged on shared
    coalitions, in the order of their sorted coalitions.

    Every edge ``u -> v`` inside the set closes a cycle with the shortest
    path ``v -> u`` that breadth-first search from ``v`` finds; a ring is
    extracted from every start position of that cycle, all walks on one
    ``_walk_table``. One search from each member ``v`` serves all the edges
    into ``v``: discovering a node ``u`` with an edge to ``v``, recognised
    from the keys, closes that edge's cycle, and the search stops once it
    has closed as many as ``v`` has in-edges. Since a node's search-tree
    parent is fixed when it is first discovered, each path equals the one a
    search from ``v`` stopping at that single in-neighbour would find, and
    the queue is first in, first out, so the cycles come in the order in
    which a search closing them on expansion would close them.

    A ring steps from a coalition to the first later via meeting it, and
    the coalition stands until then: each step goes from a coalition of a
    member ``u`` to the via of an edge ``u -> v`` that meets it, one that
    forming the via dissolves (``_in_degrees_and_steps``). So every ring is
    a cycle of this step digraph, inside one of its strongly connected
    components, and once each component of two or more coalitions is one
    family, no further ring can change a family, and the searches stop,
    mid-search if need be. A ring is also a subset of its cycle's vias, so
    the rings of a cycle whose vias all lie in one family are not walked,
    and a ring whose coalitions already share one family is not merged.

    The searches start at the members with the most in-edges, ties broken
    by id. The order does not change the families: if the searches stop,
    the families are those components; if they never stop, every member is
    searched and every ring that can change a family read. So every order
    stops or none does.
    """
    return _family_search(g, G, absorbing)[0]


def _family_search(g: Game, G: DominationGraph, absorbing) -> tuple[list[set[int]], list[int]]:
    """``_ring_families``' families, and the members it searched from, in
    order."""
    ids = [G.node_id(pi) for pi in absorbing.members]
    indegree, formed, fold = _in_degrees_and_steps(G, ids)
    # the step digraph over the vias, in K order; a coalition that is never
    # a via has no step into it and is left out
    ks = g.permissible
    meets = g.expansion().meets
    masks, reach = [], []
    bits = formed
    while bits:
        low = bits & -bits
        bits ^= low
        masks.append(ks[low.bit_length() - 1])
        reach.append(fold[low])
    # each component of two or more coalitions not yet one family, with
    # its least coalition
    unmerged = [
        (masks[min(comp)], {masks[i] for i in comp})
        for comp in _kbit_sccs(meets, formed, reach)
        if len(comp) > 1
    ]
    roots = sorted(ids, key=lambda v: (-indegree[v], v))
    # per-node search state, stamped with the search root instead of reset
    targets, via_bits, keys, via = G.succ, G.via_bits, G.keys, G.via
    seen_by = [-1] * len(G)
    prev = [0] * len(G)

    def cycles(v: int):
        """The vias of the cycle each edge into ``v`` closes, aligned with
        the cycle (v, ..., u): first the edge into v, then the path steps in
        forward order; no two edges join the same pair of structures.

        A node ``u`` is an in-neighbour of ``v`` exactly when
        ``b = keys[v] & ~keys[u]`` is one K-bit, a via that ``u`` forms,
        whose formation turns ``keys[u]`` into ``keys[v]``; so each cycle is
        closed as ``u`` is discovered, where its tree path is fixed."""
        left = indegree[v]
        kv = keys[v]
        seen_by[v] = v
        queue = [v]
        head = 0
        while left:
            if head == len(queue):
                raise VerificationFailed("absorbing set is not strongly connected")
            x = queue[head]
            head += 1
            for u in targets[x]:
                if seen_by[u] == v:
                    continue
                seen_by[u] = v
                prev[u] = x
                queue.append(u)
                b = kv & ~keys[u]
                if (
                    b & via_bits[u]
                    and not b & (b - 1)
                    and keys[u] & ~meets[b.bit_length() - 1] | b == kv
                ):
                    path = []
                    w = u
                    while w != v:
                        p = prev[w]
                        path.append(via(p, w))
                        w = p
                    path.append(ks[b.bit_length() - 1])
                    yield tuple(reversed(path))
                    left -= 1
                    if not left:
                        return

    # coalition -> its family, one set shared by all of the family's
    # coalitions; the families are disjoint, so coalitions share one family
    # exactly when they all lie in the family of one of them
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
            if settled is not None and settled.issuperset(vias):
                continue
            if vias in tried:
                continue
            tried.add(vias)
            table = _walk_table(vias)
            merges = False
            for s in range(len(vias)):
                ring = _ring_from_vias(vias, s, table)
                # a ring merged before, or inside one family, changes nothing
                held = family.get(ring[0])
                if held is not None and held.issuperset(ring):
                    continue
                merged = set(ring).union(*(family.get(c, ()) for c in ring))
                for c in merged:
                    family[c] = merged
                merges = True
            if merges:
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
    for fam in _ring_families(g, G, absorbing):
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
