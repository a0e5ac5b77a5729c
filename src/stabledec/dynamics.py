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


def _tarjan(adj) -> list[list[int]]:
    """Strongly connected components of a digraph, iterative Tarjan lowlink.

    ``adj[v]`` lists out-edges whose first item is the target index. Each
    component lists its nodes in the order they leave the Tarjan stack;
    components come out in reverse topological order.
    """
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on[root] = True
        work = [(root, iter(adj[root]))]
        while work:
            v, edges = work[-1]
            for e in edges:
                w = e[0]
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on[w] = True
                    work.append((w, iter(adj[w])))
                    break
                if on[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    w = -1
                    while w != v:
                        w = stack.pop()
                        on[w] = False
                        comp.append(w)
                    comps.append(comp)
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return comps


class DominationGraph:
    """Immutable domination digraph over a set of structures.

    ``adj[v]`` lists ``(target_id, via_mask)`` pairs in ascending via order.
    ``keys[v]`` is node ``v``'s key: the K-bitset (``Game.expansion``) of its
    non-single parts, which identifies the structure within its game. For
    an edge ``u -> v`` via ``c``, ``keys[v] & ~keys[u]`` is the bit of ``c``
    and ``keys[u] & ~keys[v]`` the bits of the parts of ``u`` that meet
    ``c``, which its formation dissolves. Strongly connected components and
    the sink components (``absorbing.sink_components``) are computed once
    on demand and memoized.

    Seeds are numbered first, in ``structure_key`` order, and discovered
    nodes after them. So when every node is a seed (``key_ordered``), as on
    every full graph, node ids are in ``structure_key`` order, and the least
    id of a set of nodes is its least structure. Otherwise ``order`` sorts
    structures in that order: ``None`` for plain tuples, when no coalition
    of the game has three or more agents (``structures._order_key``).
    """

    __slots__ = (
        "nodes", "adj", "keys", "seeds", "order", "_index", "_comps", "_comp_of", "_sinks",
    )

    def __init__(self, nodes, adj, keys, seeds, order):
        self.nodes: list[tuple[int, ...]] = nodes
        self.adj: list[list[tuple[int, int]]] = adj
        self.keys: list[int] = keys
        self.seeds: tuple[int, ...] = tuple(seeds)
        self.order = order
        self._index = {pi: v for v, pi in enumerate(nodes)}
        self._comps = None
        self._comp_of = None
        # the absorbing sets, filled by absorbing.py
        self._sinks = None

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, pi) -> bool:
        return pi in self._index

    def node_id(self, pi) -> int:
        try:
            return self._index[pi]
        except KeyError:
            raise NodeNotInGraph(f"{render_structure(pi)} is not in the graph") from None

    def key_ordered(self) -> bool:
        """Whether node ids follow ``structure_key`` order: true when every
        node is a seed."""
        return len(self.seeds) == len(self.nodes)

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj)

    def sccs(self) -> list[list[int]]:
        """Strongly connected components, each sorted, in reverse topological
        order: every edge leaving a component points at a lower component
        index.
        """
        if self._comps is None:
            comps = [sorted(comp) for comp in _tarjan(self.adj)]
            comp_of = [-1] * len(self.nodes)
            for ci, comp in enumerate(comps):
                for v in comp:
                    comp_of[v] = ci
            self._comps = comps
            self._comp_of = comp_of
        return self._comps


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
        for w, _ in G.adj[todo.pop()]:
            if w == ia:
                return True
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return False


def grow_graph(g: Game, seeds: Iterable, limit: int = DEFAULT_LIMIT) -> DominationGraph:
    """Breadth-first closure of ``seeds`` under domination.

    Each seed is validated and canonicalized (``structure_from_parts``),
    duplicates are dropped and the rest sorted by ``structure_key``. Nodes
    are numbered by discovery order starting from those seeds, and each
    keeps its key (``DominationGraph.keys``); successor edges per node come
    in ascending via order.
    """
    seed_structs = sorted(
        {structure_from_parts(g, pi) for pi in seeds}, key=structure_key
    )
    bit = g.expansion().bit
    keyed = ((pi, sum(bit[p] for p in pi if p & (p - 1))) for pi in seed_structs)
    return _grow(g, keyed, limit)


def _grow(g: Game, keyed_seeds: Iterable, limit: int) -> DominationGraph:
    """``grow_graph`` for seeds that are already valid, canonical, distinct
    and sorted by ``structure_key``, each paired with its key: the K-bitset
    of its non-single parts, which identifies a structure here. They are
    taken as given."""
    _, better, meets = g.expansion()
    # per K-coalition: the coalition and the key bits its formation keeps
    table = [(c, ~m) for c, m in zip(g.permissible, meets)]
    # every part's lowest bit, so that _form sorts with a C-level key
    low_bit = {c: c & -c for c in g.permissible}
    low_bit.update((1 << b, 1 << b) for b in range(g.n))
    lowest = low_bit.__getitem__
    nodes: list[tuple[int, ...]] = []
    keys: list[int] = []
    for pi, key in keyed_seeds:
        nodes.append(pi)
        keys.append(key)
    if len(nodes) > limit:
        raise LimitExceeded(f"domination graph exceeds {limit} nodes")
    index = dict(zip(keys, range(len(keys))))
    adj: list[list[tuple[int, int]]] = []
    seed_ids = range(len(nodes))

    v = 0
    while v < len(nodes):
        pi = nodes[v]
        key = keys[v]
        blocking = -1
        for p in pi:
            blocking &= better[p]
        out = []
        adj.append(out)
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
            out.append((w, c))
        v += 1
    return DominationGraph(nodes, adj, keys, seed_ids, _order_key(g))


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
