"""Absorbing sets of the domination dynamics.

An absorbing set is a set of structures closed under transitive domination
whose members all transitively dominate each other; equivalently, a sink
strongly connected component of the domination graph. Trivial (size-1)
absorbing sets are exactly the stable structures.

A game whose permissible coalitions fall into two or more groups of agents
that no coalition links is analyzed one group at a time (``Analysis``):
a domination step changes one group only, so the domination graph is the
Cartesian product of the groups' graphs and the absorbing sets are the
products of theirs.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .core import Game, lowest_agent, members
from .errors import LimitExceeded, TrivialAbsorbingSet, VerificationFailed
from .structures import DEFAULT_LIMIT, enumerate_structures, structure_key
from .dynamics import DominationEdge, DominationGraph, _grow, grow_graph
from .rings import RingComponent, ring_components_of


@dataclass(frozen=True)
class AbsorbingSet:
    members: tuple[tuple[int, ...], ...]

    @property
    def trivial(self) -> bool:
        return len(self.members) == 1

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, pi) -> bool:
        return pi in self.members


def full_domination_graph(g: Game, limit: int = DEFAULT_LIMIT) -> DominationGraph:
    """The domination graph over every coalition structure of the game.

    Structures stream in lazily; domination never leaves the structure
    space, so seeding growth with all of them yields the complete graph.
    Enumeration already yields each valid structure once, canonical and in
    ``structure_key`` order, so the seeds skip ``grow_graph``'s validation
    and sort; nodes and edges come out the same.
    """
    return _grow(g, enumerate_structures(g, limit=limit), limit)


def sink_components(G: DominationGraph) -> list[AbsorbingSet]:
    """Sink SCCs of the graph as absorbing sets, canonically ordered.

    Computed once per graph and memoized on it; each call returns a new
    list.
    """
    if G._sinks is None:
        G._sinks = _scan_sinks(G)
    return list(G._sinks)


def _scan_sinks(G: DominationGraph) -> list[AbsorbingSet]:
    comps = G.sccs()
    comp_of = G._comp_of
    has_out = [False] * len(comps)
    for v, out in enumerate(G.adj):
        cv = comp_of[v]
        if has_out[cv]:
            continue
        for w, _ in out:
            if comp_of[w] != cv:
                has_out[cv] = True
                break
    sets = []
    for ci, comp in enumerate(comps):
        if has_out[ci]:
            continue
        structures = sorted((G.nodes[v] for v in comp), key=structure_key)
        sets.append(AbsorbingSet(tuple(structures)))
    return sorted(sets, key=lambda a: structure_key(a.members[0]))


def absorbing_sets(g: Game, limit: int = DEFAULT_LIMIT) -> list[AbsorbingSet]:
    """All absorbing sets of the game, canonically ordered."""
    return Analysis(g, limit).absorbing_sets()


def coalition_components(g: Game) -> list[int]:
    """The groups of agents linked by permissible coalitions, as agent
    masks ordered by least agent. An agent in no permissible coalition
    belongs to none of them."""
    comps: list[int] = []
    for c in g.permissible:
        merged = c
        rest = []
        for m in comps:
            if m & c:
                merged |= m
            else:
                rest.append(m)
        rest.append(merged)
        comps = rest
    return sorted(comps, key=lowest_agent)


def factor_games(g: Game) -> list[Game]:
    """One sub-game per coalition component, or ``[g]`` itself when there
    are fewer than two.

    A sub-game keeps all ``n`` agents and their coalition masks: the
    component's agents keep their rankings and every other agent ranks
    only their singleton. So its permissible set is the part of K inside
    the component, and its structures are the game's structures with every
    agent outside the component single.
    """
    comps = coalition_components(g)
    if len(comps) < 2:
        return [g]
    return [Game(g.n, {i: g.rankings[i - 1] for i in members(m)}) for m in comps]


class Factor(NamedTuple):
    """A factor's sub-game and the full domination graph over its
    structures."""

    game: Game
    graph: DominationGraph


def _merge(full: int, pis) -> tuple[int, ...]:
    # the non-single parts of one structure per factor, everyone else single
    parts = [p for pi in pis for p in pi if p & (p - 1)]
    rest = full
    for p in parts:
        rest &= ~p
    while rest:
        low = rest & -rest
        parts.append(low)
        rest ^= low
    return tuple(sorted(parts, key=lowest_agent))


class Analysis:
    """The absorbing sets, their ring components and the structure count of
    a game, read off one full domination graph per factor (``factor_games``)
    and never off the product graph.

    Every domination step changes one factor, so the game's structures are
    the products of factor structures, its absorbing sets the products of
    factor absorbing sets, and the ring components of a product set those
    of its non-trivial factor sets: a shortest path back along a cycle never
    leaves the factor that the cycle's edge changes. The stable
    decompositions (``decomposition.factored_decompositions``) and the
    convergence verdict (``applications.factored_convergence``) combine the
    same way. A game with one factor is analyzed on its own full graph.

    Raises ``LimitExceeded`` when the game has more than ``limit``
    structures.
    """

    def __init__(self, g: Game, limit: int = DEFAULT_LIMIT) -> None:
        self.game = g
        self.limit = limit
        self.factors = [
            Factor(sub, full_domination_graph(sub, limit=limit)) for sub in factor_games(g)
        ]
        count = 1
        for f in self.factors:
            count *= len(f.graph)
        if count > limit:
            raise LimitExceeded(f"more than {limit} structures")
        self.structure_count = count
        self._sets: list[tuple[AbsorbingSet, tuple[AbsorbingSet, ...]]] | None = None

    def _products(self) -> list[tuple[AbsorbingSet, tuple[AbsorbingSet, ...]]]:
        # (absorbing set, its factor absorbing sets) pairs in report order
        if self._sets is None:
            per = [sink_components(f.graph) for f in self.factors]
            if len(per) == 1:
                self._sets = [(a, (a,)) for a in per[0]]
            else:
                full = (1 << self.game.n) - 1
                sets = []
                for combo in itertools.product(*per):
                    product = itertools.product(*(a.members for a in combo))
                    structures = sorted((_merge(full, pis) for pis in product), key=structure_key)
                    sets.append((AbsorbingSet(tuple(structures)), combo))
                sets.sort(key=lambda e: structure_key(e[0].members[0]))
                self._sets = sets
        return self._sets

    def absorbing_sets(self) -> list[AbsorbingSet]:
        """The absorbing sets, canonically ordered, as ``sink_components``
        orders them on the full graph; each call returns a new list."""
        return [a for a, _ in self._products()]

    def factor_sets(self, idx: int) -> tuple[AbsorbingSet, ...]:
        """The absorbing set of each factor whose product is absorbing set
        ``idx``, aligned with ``factors``."""
        return self._products()[idx][1]

    def ring_components(self, idx: int) -> list[RingComponent]:
        """The ring components of absorbing set ``idx``, sorted by
        coalitions, as ``ring_components_of`` gives them on the full graph."""
        a, combo = self._products()[idx]
        if a.trivial:
            raise TrivialAbsorbingSet("trivial absorbing sets carry no ring component")
        comps = [
            rc
            for f, fa in zip(self.factors, combo)
            if not fa.trivial
            for rc in ring_components_of(f.game, fa, f.graph)
        ]
        return sorted(comps, key=lambda rc: rc.coalitions)


def reaches_absorbing(
    g: Game, pi, limit: int = DEFAULT_LIMIT
) -> tuple[AbsorbingSet, list[DominationEdge]]:
    """An absorbing set reachable from ``pi`` plus a witness domination path.

    The path is empty when ``pi`` already belongs to the returned set.
    Breadth-first search over the closure of ``pi`` keeps the witness
    shortest and the choice deterministic.
    """
    G = grow_graph(g, [pi], limit=limit)
    start = G.seeds[0]
    sinks = sink_components(G)
    sink_of: dict[int, AbsorbingSet] = {}
    for a in sinks:
        for m in a.members:
            sink_of[G.node_id(m)] = a
    parent: dict[int, tuple[int, int] | None] = {start: None}
    order = deque([start])
    while order:
        v = order.popleft()
        if v in sink_of:
            path: list[DominationEdge] = []
            cur = v
            while parent[cur] is not None:
                prev, via = parent[cur]
                path.append(DominationEdge(G.nodes[prev], G.nodes[cur], via))
                cur = prev
            path.reverse()
            return sink_of[v], path
        for w, via in G.adj[v]:
            if w not in parent:
                parent[w] = (v, via)
                order.append(w)
    raise VerificationFailed("no absorbing set reachable; the graph is finite, so this is a bug")
