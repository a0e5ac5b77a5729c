"""The domination relation between coalition structures and its digraph.

``pi2`` dominates ``pi`` via ``c`` when ``c`` blocks ``pi``, agents abandoned
by ``c``'s formation fall back to singletons, and untouched parts carry
over. Graph growth expands each structure with integer bitsets over the
permissible set (see ``Game.expansion``); node identity is the canonical
structure tuple.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .core import Game, compact_coalition, lowest_agent, members, render_coalition
from .errors import LimitExceeded, NodeNotInGraph, NotBlocking
from .structures import (
    DEFAULT_LIMIT,
    _order_key,
    blocks,
    render_structure,
    structure_from_parts,
    structure_key,
)


class DominationEdge(namedtuple("DominationEdge", "source target via")):
    __slots__ = ()
    source: tuple[int, ...]
    target: tuple[int, ...]
    via: int


def dominate_via(g: Game, pi: tuple[int, ...], c: int) -> tuple[int, ...]:
    """The structure obtained when ``c`` forms against ``pi``.

    Raises ``NotBlocking`` unless ``c`` blocks ``pi``.
    """
    if not blocks(g, c, pi):
        raise NotBlocking(f"{render_coalition(c)} does not block {render_structure(pi)}")
    return _form(pi, c)


def _form(pi: tuple[int, ...], c: int, lowest=lowest_agent) -> tuple[int, ...]:
    # c forms against pi: parts meeting c lose those agents to c and the
    # rest of each such part falls back to singletons; ``lowest`` orders
    # the parts as ``lowest_agent`` does
    parts = [c]
    rest = 0
    for p in pi:
        if p & c:
            rest |= p & ~c
        else:
            parts.append(p)
    while rest:
        low = rest & -rest
        parts.append(low)
        rest ^= low
    parts.sort(key=lowest)
    return tuple(parts)


def successors(g: Game, pi: tuple[int, ...]) -> list[DominationEdge]:
    """All one-step dominations of ``pi``, in ascending via-coalition order."""
    out = []
    for c in g.permissible:
        if blocks(g, c, pi):
            out.append(DominationEdge(pi, dominate_via(g, pi, c), c))
    return out


def _tarjan(adj) -> tuple[list[list[int]], list[int], list[bool], list[int]]:
    """Strongly connected components of a digraph, iterative Tarjan lowlink.

    ``adj[v]`` lists the target ids of ``v``'s out-edges. Each component
    lists its nodes in the order they leave the Tarjan stack; components
    come out in reverse topological order. Returns them, each node's
    component index, a sink flag per component and each node's in-degree
    from its own component. An index is ``-1`` until its component closes,
    so an edge into a node with one, or a tree edge into a child that
    closed, leaves the open component: ``leaves`` marks that node and its
    ancestors up to the component root. Every other edge, into a node
    still on the stack or a tree edge into a child whose component did not
    close, joins two nodes of one component and is counted.
    """
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    comp_of = [-1] * n
    leaves = [False] * n
    indegree = [0] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    sink: list[bool] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if comp_of[w] != -1:
                    leaves[v] = True
                else:
                    indegree[w] += 1
                    if index[w] < low[v]:
                        low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    w = -1
                    while w != v:
                        w = stack.pop()
                        comp_of[w] = len(comps)
                        comp.append(w)
                    comps.append(comp)
                    sink.append(not leaves[v])
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if comp_of[v] != -1:
                        leaves[u] = True
                    else:
                        indegree[v] += 1
                        if leaves[v]:
                            leaves[u] = True
    return comps, comp_of, sink, indegree


class DominationGraph:
    """Immutable domination digraph over a set of structures.

    ``succ[v]`` lists the target ids of node ``v``'s out-edges in ascending
    via order, and ``via_bits[v]`` is the K-bitset (``Game.expansion``) of
    their vias, the coalitions that block ``v``. ``keys[v]`` is node
    ``v``'s key: the K-bitset of its non-single parts, which identifies the
    structure within its game. For an edge ``u -> v`` via ``c``,
    ``keys[v] & ~keys[u]`` is the bit of ``c``, so no via is stored per
    edge (``via``), and ``keys[u] & ~keys[v]`` the bits of the parts of
    ``u`` that meet ``c``, which its formation dissolves. ``adj[v]`` lists
    ``(target_id, via_mask)`` pairs; it is built on first use. One Tarjan
    pass, run on demand and memoized, gives the strongly connected
    components (``sccs``), each node's component (``comp_of``), the sink
    components (``sinks``), which are the absorbing sets
    (``absorbing.sink_components``), and each node's in-degree from its own
    component (``in_degrees``).

    Every graph is grown by ``_grow``, which keys the seeds. Seeds are
    numbered first, in ``structure_key`` order, and discovered nodes after
    them, so node ids need not follow that order. ``order`` sorts
    structures in it, and every sink order and convergence witness is read
    through it: ``None`` for plain tuples, when no coalition of the game has
    three or more agents (``structures._order_key``).
    """

    __slots__ = (
        "nodes", "succ", "via_bits", "keys", "seeds", "order", "_permissible", "_index",
        "_adj", "_comps", "_comp_of", "_sink", "_sinks", "_in_degrees",
    )

    def __init__(self, nodes, succ, via_bits, keys, seeds, order, permissible):
        self.nodes: list[tuple[int, ...]] = nodes
        self.succ: list[list[int]] = succ
        self.via_bits: list[int] = via_bits
        self.keys: list[int] = keys
        self.seeds: tuple[int, ...] = tuple(seeds)
        self.order = order
        self._permissible: tuple[int, ...] = permissible
        self._index = {pi: v for v, pi in enumerate(nodes)}
        self._adj = None
        self._comps = None

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, pi) -> bool:
        return pi in self._index

    def node_id(self, pi) -> int:
        try:
            return self._index[pi]
        except KeyError:
            raise NodeNotInGraph(f"{render_structure(pi)} is not in the graph") from None

    def edge_count(self) -> int:
        return sum(len(out) for out in self.succ)

    def via(self, u: int, v: int) -> int:
        """The via coalition of the edge ``u -> v``, read off the keys."""
        return self._permissible[(self.keys[v] & ~self.keys[u]).bit_length() - 1]

    @property
    def adj(self) -> list[list[tuple[int, int]]]:
        """``(target_id, via_mask)`` pairs per node, in ascending via order."""
        if self._adj is None:
            via = self.via
            self._adj = [[(w, via(u, w)) for w in out] for u, out in enumerate(self.succ)]
        return self._adj

    def sccs(self) -> list[list[int]]:
        """Strongly connected components in reverse topological order: every
        edge leaving a component points at a lower component index. Each
        lists its nodes in Tarjan stack-pop order, not sorted."""
        if self._comps is None:
            comps, self._comp_of, self._sink, self._in_degrees = _tarjan(self.succ)
            self._sinks = [comp for comp, s in zip(comps, self._sink) if s]
            self._comps = comps
        return self._comps

    def comp_of(self) -> list[int]:
        """Each node's component index in ``sccs()``."""
        self.sccs()
        return self._comp_of

    def is_sink(self, ci: int) -> bool:
        """Whether no edge leaves component ``ci`` of ``sccs()``."""
        self.sccs()
        return self._sink[ci]

    def sinks(self) -> list[list[int]]:
        """The components that no edge leaves, in ``sccs()`` order."""
        self.sccs()
        return self._sinks

    def in_degrees(self) -> list[int]:
        """Each node's in-degree from its own component: the edges into it
        whose source lies in its component. On a sink component these are
        all its edges."""
        self.sccs()
        return self._in_degrees


def transitively_dominates(G: DominationGraph, a, b, strict_self: bool = False) -> bool:
    """Whether ``a`` transitively dominates ``b`` in the graph.

    With ``strict_self=False`` (chains of length >= 1, taken literally),
    ``a == b`` holds exactly when the structure lies on a domination cycle;
    ``strict_self=True`` reports the irreflexive reading instead.
    """
    ia, ib = G.node_id(a), G.node_id(b)
    if strict_self and ia == ib:
        return False
    seen = {ib}
    todo = [ib]
    while todo:
        for w in G.succ[todo.pop()]:
            if w == ia:
                return True
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return False


def grow_graph(g: Game, seeds: Iterable, limit: int = DEFAULT_LIMIT) -> DominationGraph:
    """Breadth-first closure of ``seeds`` under domination.

    Each seed is validated and canonicalized (``structure_from_parts``),
    duplicates are dropped and the rest sorted by ``structure_key``; then
    ``_grow`` numbers them, keys them and grows their closure.
    """
    seed_structs = sorted(
        {structure_from_parts(g, pi) for pi in seeds}, key=structure_key
    )
    return _grow(g, seed_structs, limit)


def _grow(g: Game, seeds: Iterable, limit: int) -> DominationGraph:
    """``grow_graph`` for seeds that are already valid, canonical, distinct
    and sorted by ``structure_key``. They are taken as given. Every graph is
    grown here, and here alone each seed gets its key: the K-bitset of its
    non-single parts (``Game.expansion``), which identifies a structure in
    its game. Nodes are numbered by discovery order starting from the
    seeds, and successor edges per node come in ascending via order."""
    bit, better, meets = g.expansion()
    # per K-coalition: the coalition and the key bits its formation keeps
    table = [(c, ~m) for c, m in zip(g.permissible, meets)]
    # every part's lowest bit, so that _form sorts with a C-level key
    low_bit = {c: c & -c for c in g.permissible}
    low_bit.update((1 << b, 1 << b) for b in range(g.n))
    lowest = low_bit.__getitem__
    nodes: list[tuple[int, ...]] = list(seeds)
    keys = [sum(bit[p] for p in pi if p & (p - 1)) for pi in nodes]
    if len(nodes) > limit:
        raise LimitExceeded(f"domination graph exceeds {limit} nodes")
    index = dict(zip(keys, range(len(keys))))
    succ: list[list[int]] = []
    via_bits: list[int] = []
    seed_ids = range(len(nodes))

    v = 0
    while v < len(nodes):
        pi = nodes[v]
        key = keys[v]
        blocking = -1
        for p in pi:
            blocking &= better[p]
        via_bits.append(blocking)
        out = []
        succ.append(out)
        # set bits low to high are the blocking coalitions in mask order
        while blocking:
            low = blocking & -blocking
            blocking ^= low
            c, keep = table[low.bit_length() - 1]
            key2 = key & keep | low
            w = index.get(key2)
            if w is None:
                w = len(nodes)
                if w >= limit:
                    raise LimitExceeded(f"domination graph exceeds {limit} nodes")
                nodes.append(_form(pi, c, lowest))
                keys.append(key2)
                index[key2] = w
            out.append(w)
        v += 1
    return DominationGraph(nodes, succ, via_bits, keys, seed_ids, _order_key(g), g.permissible)


def to_dot(G: DominationGraph, highlight: Iterable[int] = ()) -> str:
    """Graphviz rendering: nodes labeled with the canonical structure,
    edges with the via coalition, highlighted nodes filled."""
    marked = set(highlight)
    n_agents = max((max(members(p)) for pi in G.nodes for p in pi), default=1)
    lines = ["digraph domination {", "  rankdir=LR;", '  node [shape=box, fontname="monospace"];']
    for v, pi in enumerate(G.nodes):
        style = ' style=filled fillcolor="lightsteelblue"' if v in marked else ""
        lines.append(f'  n{v} [label="{render_structure(pi)}"{style}];')
    for v, out in enumerate(G.adj):
        for w, via in out:
            lines.append(f'  n{v} -> n{w} [label="{compact_coalition(via, n_agents)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
