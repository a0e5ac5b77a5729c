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

A group whose permissible coalitions are all pairs and which has a stable
structure needs no graph: from every matching some sequence of blocking
pairs reaches a stable one (Roth and Vande Vate 1990 for two-sided games,
Diamantoudi, Miyagawa and Xue 2004 for roommate games), so its absorbing
sets are exactly its stable structures. A pruned search finds them without
enumerating the group's structures, and a memoized count, not enumeration,
holds each group to the structure limit.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .core import Game, lowest_agent
from .errors import LimitExceeded, TrivialAbsorbingSet, VerificationFailed
from .structures import (
    DEFAULT_LIMIT,
    _count_structures,
    _keyed_structures,
    _parts_by_agent,
    is_stable,
    render_structure,
    structure_key,
)
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
    Enumeration already yields each valid structure once, canonical, in
    ``structure_key`` order and with its key, so the seeds skip
    ``grow_graph``'s validation, sort and keying; nodes and edges come out
    the same. Every node is a seed, so node ids are in ``structure_key``
    order.
    """
    return _grow(g, _keyed_structures(g, limit), limit)


def sink_components(G: DominationGraph) -> list[AbsorbingSet]:
    """Sink SCCs of the graph as absorbing sets, canonically ordered: the
    members of each set by ``structure_key``, and the sets by their least
    member.

    On a graph whose node ids are in ``structure_key`` order
    (``DominationGraph.key_ordered``), such as every full graph, that is
    id order, and no key is computed; on any other graph the members are
    sorted by key. Computed once per graph and memoized on it; each call
    returns a new list.
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
    sinks = [comp for ci, comp in enumerate(comps) if not has_out[ci]]
    nodes = G.nodes
    if G.key_ordered():
        # each component is sorted by id, so its least id comes first
        sinks.sort(key=lambda comp: comp[0])
        return [AbsorbingSet(tuple(nodes[v] for v in comp)) for comp in sinks]
    sets = [
        AbsorbingSet(tuple(sorted((nodes[v] for v in comp), key=structure_key)))
        for comp in sinks
    ]
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
    agent outside the component single. Each sub-game is built from the
    game's already checked tables (``Game._restricted``), not validated
    again.
    """
    comps = coalition_components(g)
    if len(comps) < 2:
        return [g]
    return [Game._restricted(g, m) for m in comps]


class Factor(NamedTuple):
    """A factor's sub-game, its absorbing sets in ``sink_components``
    order, and the full domination graph over its structures, or ``None``
    for a pair-only factor with a stable structure, whose absorbing sets
    are its stable structures, found by a search that enumerates none of
    the others (``_stable_matchings``)."""

    game: Game
    sets: tuple[AbsorbingSet, ...]
    graph: DominationGraph | None


def _stable_matchings(g: Game) -> list[tuple[int, ...]] | None:
    """The stable structures in ``enumerate_structures`` order, or ``None``
    when some permissible coalition is not a pair.

    A structure is stable when the AND of ``better`` over its parts is 0
    (``Game.expansion``). The search places parts in enumeration order and
    carries that AND over the parts placed so far. ``better[p]`` keeps the
    bit of every coalition that does not meet ``p``, so once all agents of
    a coalition are placed, no later part clears its bit: a branch where
    such a coalition keeps it holds no stable structure, and is dropped.
    Each structure found is re-checked against the definition
    (``structures.is_stable``).
    """
    if any(c.bit_count() != 2 for c in g.permissible):
        return None
    bit, better, _ = g.expansion()
    full = (1 << g.n) - 1
    by_agent = _parts_by_agent(g)
    # K-bits of the coalitions each agent belongs to
    holding = [0] * (g.n + 1)
    for i, own in enumerate(by_agent):
        for c in own[1:]:
            holding[i] |= bit[c]
    # an agent in no permissible coalition is single in every structure
    singles = [own[0] for own in by_agent[1:] if len(own) == 1]
    # placed agents -> a mask whose K-bits are the coalitions all of whose
    # agents are placed
    inside: dict[int, int] = {}
    stable = []
    parts: list[int] = []

    def rec(used: int, blocking: int) -> None:
        if used == full:
            pi = tuple(sorted(parts + singles, key=lowest_agent))
            if not is_stable(g, pi):
                raise VerificationFailed(
                    f"{render_structure(pi)} passes the expansion test but is not stable"
                )
            stable.append(pi)
            return
        free = ~used & full
        for c in by_agent[(free & -free).bit_length()]:
            if c & used:
                continue
            placed = used | c
            kept = blocking & better[c]
            done = inside.get(placed)
            if done is None:
                meets_free = 0
                rest = full & ~placed
                while rest:
                    low = rest & -rest
                    meets_free |= holding[low.bit_length()]
                    rest ^= low
                done = inside[placed] = ~meets_free
            if kept & done:
                continue
            parts.append(c)
            rec(placed, kept)
            parts.pop()

    rec(sum(singles), -1)
    return stable


def _factor(g: Game, limit: int) -> Factor:
    # a pair-only factor with a stable structure needs no graph; any other
    # grows its graph from the enumeration, whose count Analysis has already
    # held to the limit
    stable = _stable_matchings(g)
    if stable:
        return Factor(g, tuple(AbsorbingSet((pi,)) for pi in stable), None)
    graph = full_domination_graph(g, limit)
    return Factor(g, tuple(sink_components(graph)), graph)


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
    a game, worked out per factor (``factor_games``) and never on the
    product graph.

    Each factor's structures are first counted, memoized on the agents
    already placed (``structures._count_structures``), and the limit is
    checked before any factor is searched, enumerated or grown. A factor
    whose permissible coalitions are all pairs and which has a stable
    structure takes its stable structures, found by a pruned search
    (``_stable_matchings``), as its absorbing sets, and neither enumerates
    its structures nor builds a graph: from every matching some sequence of
    blocking pairs reaches a stable one (Roth and Vande Vate 1990;
    Diamantoudi, Miyagawa and Xue 2004), so every absorbing set is trivial.
    Every other factor grows its full domination graph from one enumeration
    of its structures and reads its sink components.

    Every domination step changes one factor, so the game's structures are
    the products of factor structures, its absorbing sets the products of
    factor absorbing sets, and the ring components of a product set those
    of its non-trivial factor sets (``factor_rings``, worked out once each):
    a shortest path back along a cycle never leaves the factor that the
    cycle's edge changes, and coalitions of different factors are disjoint.
    The stable decompositions (``decomposition.factored_decompositions``)
    and the convergence verdict (``applications.factored_convergence``)
    combine the same way.

    Raises ``LimitExceeded`` when the game has more than ``limit``
    structures.
    """

    def __init__(self, g: Game, limit: int = DEFAULT_LIMIT) -> None:
        self.game = g
        self.limit = limit
        subs = factor_games(g)
        count = 1
        for sub in subs:
            count *= _count_structures(sub, limit)
        if count > limit:
            raise LimitExceeded(f"more than {limit} structures")
        self.structure_count = count
        self.factors = [_factor(sub, limit) for sub in subs]
        self._sets: list[tuple[AbsorbingSet, tuple[AbsorbingSet, ...]]] | None = None
        self._rings: dict[tuple[int, AbsorbingSet], list[RingComponent]] = {}

    def _products(self) -> list[tuple[AbsorbingSet, tuple[AbsorbingSet, ...]]]:
        # (absorbing set, its factor absorbing sets) pairs in report order
        if self._sets is None:
            per = [f.sets for f in self.factors]
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

    def factor_rings(self, fi: int, fa: AbsorbingSet) -> list[RingComponent]:
        """The ring components of factor ``fi``'s absorbing set ``fa`` (none
        for a trivial one), worked out once per set."""
        if (fi, fa) not in self._rings:
            f = self.factors[fi]
            self._rings[(fi, fa)] = [] if fa.trivial else ring_components_of(f.game, fa, f.graph)
        return self._rings[(fi, fa)]

    def ring_components(self, idx: int) -> list[RingComponent]:
        """The ring components of absorbing set ``idx``, sorted by
        coalitions, as ``ring_components_of`` gives them on the full graph."""
        a, combo = self._products()[idx]
        if a.trivial:
            raise TrivialAbsorbingSet("trivial absorbing sets carry no ring component")
        comps = [rc for fi, fa in enumerate(combo) for rc in self.factor_rings(fi, fa)]
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
