"""The domination relation between coalition structures and its digraph.

``pi2`` dominates ``pi`` via ``c`` when ``c`` blocks ``pi``, agents abandoned
by ``c``'s formation fall back to singletons, and untouched parts carry
over. Graph growth expands each structure with integer bitsets over the
permissible set (see ``Game.expansion``); node identity is the canonical
structure tuple.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .core import Game, compact_coalition, lowest_agent, members, render_coalition
from .errors import LimitExceeded, NodeNotInGraph, NotBlocking
from .structures import (
    DEFAULT_LIMIT,
    blocks,
    render_structure,
    structure_from_parts,
    structure_key,
)


class DominationEdge(NamedTuple):
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


def _form(pi: tuple[int, ...], c: int) -> tuple[int, ...]:
    # c forms against pi: parts meeting c lose those agents to c and the
    # rest of each such part falls back to singletons
    parts = [c]
    for p in pi:
        if p & c:
            rest = p & ~c
            while rest:
                low = rest & -rest
                parts.append(low)
                rest ^= low
        else:
            parts.append(p)
    return tuple(sorted(parts, key=lowest_agent))


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
        work = [(root, 0)]
        while work:
            v, ptr = work[-1]
            if ptr == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on[v] = True
            descended = False
            out = adj[v]
            for k in range(ptr, len(out)):
                w = out[k][0]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
    return comps


class DominationGraph:
    """Immutable domination digraph over a set of structures.

    ``adj[v]`` lists ``(target_id, via_mask)`` pairs in ascending via order.
    Strongly connected components, condensation reachability, the sink
    components (``absorbing.sink_components``) and the ring components of
    each absorbing set (``rings.ring_components_of``) are computed once on
    demand and memoized; reachability queries never materialize a
    node-by-node matrix.
    """

    __slots__ = (
        "nodes", "adj", "seeds", "_index", "_comps", "_comp_of", "_reach",
        "_sinks", "_rings",
    )

    def __init__(self, nodes, adj, seeds):
        self.nodes: list[tuple[int, ...]] = nodes
        self.adj: list[list[tuple[int, int]]] = adj
        self.seeds: tuple[int, ...] = tuple(seeds)
        self._index = {pi: v for v, pi in enumerate(nodes)}
        self._comps = None
        self._comp_of = None
        self._reach = None
        # the absorbing sets, filled by absorbing.py
        self._sinks = None
        # absorbing-set members -> its ring components, filled by rings.py
        self._rings: dict = {}

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
        return sum(len(a) for a in self.adj)

    def edges(self) -> Iterator[DominationEdge]:
        for v, out in enumerate(self.adj):
            for w, via in out:
                yield DominationEdge(self.nodes[v], self.nodes[w], via)

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

    def comp_of(self, v: int) -> int:
        self.sccs()
        return self._comp_of[v]

    def _reach_sets(self) -> list[int]:
        # reach[c] = bitmask of components reachable from c (including c)
        if self._reach is None:
            comps = self.sccs()
            cadj: list[set[int]] = [set() for _ in comps]
            for v in range(len(self.nodes)):
                cv = self._comp_of[v]
                for w, _ in self.adj[v]:
                    cw = self._comp_of[w]
                    if cw != cv:
                        cadj[cv].add(cw)
            reach = [0] * len(comps)
            # reverse topological emission: successors have lower indices
            for c in range(len(comps)):
                r = 1 << c
                for d in cadj[c]:
                    r |= reach[d]
                reach[c] = r
            self._reach = reach
        return self._reach

    def reaches(self, src: int, dst: int) -> bool:
        """Whether a domination path of length >= 1 leads from src to dst."""
        comps = self.sccs()
        cs, cd = self._comp_of[src], self._comp_of[dst]
        if cs == cd:
            return src != dst or len(comps[cs]) >= 2
        return bool(self._reach_sets()[cs] >> cd & 1)


def transitively_dominates(G: DominationGraph, a, b, strict_self: bool = False) -> bool:
    """Whether ``a`` transitively dominates ``b`` in the graph.

    With ``strict_self=False`` (chains of length >= 1, taken literally),
    ``a == b`` holds exactly when the structure lies on a domination cycle;
    ``strict_self=True`` reports the irreflexive reading instead.
    """
    ia, ib = G.node_id(a), G.node_id(b)
    if strict_self and ia == ib:
        return False
    return G.reaches(ib, ia)


def grow_graph(g: Game, seeds: Iterable, limit: int = DEFAULT_LIMIT) -> DominationGraph:
    """Breadth-first closure of ``seeds`` under domination.

    Each seed is validated and canonicalized (``structure_from_parts``),
    duplicates are dropped and the rest sorted by ``structure_key``. Nodes
    are numbered by discovery order starting from those seeds; successor
    edges per node come in ascending via order.
    """
    seed_structs = sorted(
        {structure_from_parts(g, pi) for pi in seeds}, key=structure_key
    )
    return _grow(g, seed_structs, limit)


def _grow(g: Game, seed_structs: Iterable, limit: int) -> DominationGraph:
    """``grow_graph`` for seeds that are already valid, canonical, distinct
    and sorted by ``structure_key``; they are taken as given."""
    ks = g.permissible
    bit, better, meets = g.expansion()
    nodes: list[tuple[int, ...]] = []
    adj: list[list[tuple[int, int]]] = []
    # a structure is identified by the K-bitset of its non-single parts
    keys: list[int] = []
    index: dict[int, int] = {}

    def add_node(pi, key) -> int:
        if len(nodes) >= limit:
            raise LimitExceeded(f"domination graph exceeds {limit} nodes")
        v = len(nodes)
        nodes.append(pi)
        adj.append([])
        keys.append(key)
        index[key] = v
        return v

    for pi in seed_structs:
        add_node(pi, sum(bit[p] for p in pi if p & (p - 1)))
    seed_ids = tuple(range(len(nodes)))

    v = 0
    while v < len(nodes):
        pi = nodes[v]
        key = keys[v]
        blocking = -1
        for p in pi:
            blocking &= better[p]
        out = adj[v]
        # set bits low to high are the blocking coalitions in mask order
        while blocking:
            low = blocking & -blocking
            blocking ^= low
            j = low.bit_length() - 1
            c = ks[j]
            key2 = key & ~meets[j] | low
            w = index.get(key2)
            if w is None:
                w = add_node(_form(pi, c), key2)
            out.append((w, c))
        v += 1
    return DominationGraph(nodes, adj, seed_ids)


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
