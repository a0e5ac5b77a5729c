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
enumerating the group's structures, and a count, not enumeration, holds
each group to the structure limit: a dynamic programme over the agents in
id order, one integer per layer with a slot for each set of frontier
agents already placed, or the walk memoized on the placed agents when the
frontier is too wide for layers (``structures._count_structures``).

A pair-only group without a stable structure grows only the closure of its
P-stable matchings. A stable partition (Tan 1991) is a permutation ``pi``
of the agents whose steps are permissible pairs, an agent on a cycle of
length 1 being single, such that (T1) every agent ranks ``pi(i)`` at least
as high as ``pi^-1(i)``, and (T2) no permissible pair ``{i, j}`` has each
agent ranking the other above their own predecessor, a single agent being
their own predecessor. A P-stable matching pairs consecutive agents along
each cycle: a 2-cycle is a pair, an even cycle of length 4 or more gives
its two alternating matchings, and an odd cycle of length ``k`` gives
``k``, each leaving a different agent single. The closure is closed under
domination, so each of its sinks is an absorbing set, with no theorem
needed. The converse needs one: from every matching some sequence of
blocking pairs reaches a P-stable matching (Iñarra, Larrea and Molis 2008,
*Random paths to P-stability in the roommate problem*). From a member of an
absorbing set that path stays inside the set, so every absorbing set holds
a P-stable matching, lies in the closure and is one of its sinks. The
structure limit still counts all of the group's structures.

Both searches of a pair-only group, for its stable matchings and for its
stable partitions, branch only on the pairs left in Irving's (1985, *An
efficient algorithm for the stable roommates problem*) phase-1 table
(``_phase_one``), built once per group over the agents that hold a
permissible pair: each agent proposes to the first partner left in their
row, the receiver drops every pair they rank below that proposer (from
both rows), and this repeats until nothing changes. A proposer's first
partner is dropped only by that partner: the pairs an agent drops as a
receiver lie below the proposer, who is in their row and so ranked no
higher than their first partner. So an agent who has received a proposal
holds one from then on, and no pair joins two agents whose rows end empty.
At the fixpoint the first partner of every agent with a non-empty row
ranks that agent last in their own row, so the map from an agent to their
first partner is a bijection on the agents with non-empty rows. Blocking
and T2 are still tested against every permissible pair. Two lemmas make
the table exact:

1. A dropped pair is adjacent in no stable partition, so it is in no
   stable matching, a stable matching being a stable partition of cycles
   of length 1 and 2. Take the first dropped pair ``{y, z}`` that is
   adjacent in some stable partition ``pi``: it was dropped because ``x``
   proposed to ``y`` and ``y`` ranks ``x`` above ``z``. Every pair ``x``
   ranks above ``{x, y}`` was dropped earlier, so no neighbour of ``x`` in
   ``pi`` is one ``x`` ranks above ``y``. If ``pi(x) = y``, then
   ``pi^-1(y) = x``, so ``pi(y) = z`` is ranked below ``pi^-1(y)``: T1
   fails at ``y``. If ``pi^-1(x) = y``, then ``pi(y) = x`` and
   ``pi^-1(y) = z``, so ``pi(x) != y`` and ``x`` ranks ``pi(x)`` below
   ``y = pi^-1(x)``: T1 fails at ``x``. Otherwise ``x`` ranks ``y`` above
   ``pi^-1(x)`` (or is single), and ``y`` ranks ``x`` above ``pi^-1(y)``,
   which is ``z`` or, by T1 at ``y``, ranked no higher than ``pi(y) =
   z``: ``{x, y}`` violates T2.
2. An agent whose row is not empty is matched in every stable matching
   ``M``. By Lemma 1, ``M`` pairs each matched agent with a partner left
   in their row. Let ``w`` have a non-empty row with first partner ``v``.
   Either ``M(w) = v``, or ``w`` ranks ``v`` above ``M(w)`` or is single;
   then, as ``{w, v}`` does not block ``M``, ``v`` holds a partner they
   rank above ``w``. Either way ``v`` is matched, and every agent with a
   non-empty row is the first partner of one.

Lemma 2 carries over to stable partitions: an agent whose row is not empty
is on a cycle of length 2 or more in every stable partition ``pi``. Let
``w`` have a non-empty row with first partner ``v``, and suppose ``v`` is
single. Then ``v`` ranks ``w`` above their predecessor, themself. By Lemma
1, ``pi^-1(w)`` is ``w`` or a partner left in ``w``'s row, and it is not
``v``, so ``w`` ranks ``v`` above it: ``{w, v}`` violates T2. So the first
partner of every agent with a non-empty row is on a longer cycle, and every
agent with a non-empty row is the first partner of one. An agent with an
empty row is single in every stable partition, by Lemma 1.

So both searches place every agent with an empty row single and never
offer the others their singleton.
"""

from __future__ import annotations

import itertools
from collections import deque, namedtuple
from collections.abc import Iterator

from .core import Game, _Frozen, _setattr, lowest_agent, members
from .errors import LimitExceeded, TrivialAbsorbingSet, VerificationFailed
from .structures import (
    DEFAULT_LIMIT,
    _count_structures,
    enumerate_structures,
    is_stable,
    render_structure,
    structure_key,
)
from .dynamics import DominationEdge, DominationGraph, _grow, grow_graph
from .rings import RingComponent, ring_components_of


class AbsorbingSet(_Frozen):
    """The members of an absorbing set, in canonical order."""

    __slots__ = ("members",)
    _fields = ("members",)

    def __init__(self, members: tuple[tuple[int, ...], ...]) -> None:
        _setattr(self, "members", members)

    @property
    def trivial(self) -> bool:
        return len(self.members) == 1

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, pi) -> bool:
        return pi in self.members


def full_domination_graph(g: Game, limit: int = DEFAULT_LIMIT) -> DominationGraph:
    """The domination graph over every coalition structure of the game.

    Domination never leaves the structure space, so seeding growth with
    every structure yields the complete graph. Enumeration already yields
    each valid structure once, canonical and in ``structure_key`` order, so
    the seeds skip ``grow_graph``'s validation and sort; ``_grow`` keys
    them, and nodes and edges come out the same.
    """
    return _grow(g, enumerate_structures(g, limit), limit)


def sink_components(G: DominationGraph) -> list[AbsorbingSet]:
    """Sink SCCs of the graph (``DominationGraph.sinks``, from its one
    Tarjan pass) as absorbing sets, canonically ordered: the members of
    each set by ``structure_key``, and the sets by their least member.

    Both sorts go through the graph's ``order``: as plain tuples when no
    coalition of its game has three or more agents, which is that order,
    and by ``structure_key`` otherwise (``structures._order_key``). Each
    call builds a new list of new sets.
    """
    nodes = G.nodes
    order = G.order
    sets = [AbsorbingSet(tuple(sorted((nodes[v] for v in comp), key=order))) for comp in G.sinks()]
    if order is None:
        return sorted(sets, key=lambda a: a.members[0])
    return sorted(sets, key=lambda a: order(a.members[0]))


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


class Factor(namedtuple("Factor", "game sets graph")):
    """A factor's sub-game, its absorbing sets in ``sink_components``
    order, and its graph:

    - ``None`` for a pair-only factor with a stable structure, whose
      absorbing sets are its stable structures, found by a search that
      enumerates none of the others (``_stable_matchings``);
    - for a pair-only factor without one, the closure of its P-stable
      matchings (``_stable_partitions``, ``_p_stable_matchings``), whose
      sinks are its absorbing sets and which need not hold its other
      structures;
    - for every other factor, the full domination graph over its
      structures.

    Both searches of a pair-only factor branch only on the pairs left in
    its phase-1 table (``_phase_one``), built once with its rows
    (``_pair_rows``): a dropped pair is adjacent in no stable partition,
    hence in no stable matching (Lemma 1), and an agent whose row is not
    empty is matched in every stable matching (Lemma 2) and on a cycle of
    length 2 or more in every stable partition.
    """

    __slots__ = ()
    game: Game
    sets: tuple[AbsorbingSet, ...]
    graph: DominationGraph | None


class _PairRows(namedtuple("_PairRows", "agents holding table envy")):
    """The rows of a pair-only factor, built once and shared by
    ``_stable_matchings`` and ``_stable_partitions``. Lists are indexed by
    agent; an agent outside ``agents`` holds no permissible pair and has an
    empty ``table`` row, an empty ``envy`` row and no K-bits.

    - ``agents``: the agents that hold a permissible pair;
    - ``holding[i]``: the K-bits (``Game.expansion``) of ``i``'s pairs;
    - ``table[i]``: the partners left in ``i``'s row of the phase-1 table
      (``_phase_one``), best first;
    - ``envy[i][j]``, for every permissible partner ``j`` of ``i``: the
      K-bits of the pairs ``i`` ranks above ``{i, j}``, every pair without
      ``i`` included; ``envy[i][i]`` is ``-1``, since a single agent ranks
      every partner above their singleton.
    """

    __slots__ = ()
    agents: int
    holding: list[int]
    table: list[list[int]]
    envy: list[dict[int, int]]


def _pair_rows(g: Game) -> _PairRows | None:
    """The rows of a pair-only game, or ``None`` when some permissible
    coalition is not a pair. Only the rankings of agents holding a
    permissible pair are read, and ``Game.expansion`` is not built: K-bit
    ``j`` stands for ``permissible[j]`` here too."""
    ks = g.permissible
    if any(c.bit_count() != 2 for c in ks):
        return None
    n = g.n
    bit = {}
    agents = 0
    holding = [0] * (n + 1)
    for j, c in enumerate(ks):
        b = bit[c] = 1 << j
        agents |= c
        holding[(c & -c).bit_length()] |= b
        holding[c.bit_length()] |= b
    table: list[list[int]] = [[] for _ in range(n + 1)]
    envy: list[dict[int, int]] = [{} for _ in range(n + 1)]
    for i in members(agents):
        own = 1 << (i - 1)
        row = table[i]
        wish = envy[i]
        wish[i] = -1
        above = ~holding[i]
        # every permissible pair of i is ranked above their singleton
        for c in g.rankings[i - 1]:
            if c == own:
                break
            b = bit.get(c)
            if b is None:
                continue
            j = (c & ~own).bit_length()
            row.append(j)
            wish[j] = above
            above |= b
    _phase_one(table, agents)
    return _PairRows(agents, holding, table, envy)


def _phase_one(table: list[list[int]], agents: int) -> None:
    """Reduce the best-first partner rows of the given agents, in place, to
    Irving's (1985) phase-1 table. Rows must be symmetric, ``j`` in row
    ``i`` exactly when ``i`` is in row ``j``. Each agent proposes to the
    first partner left in their row, the receiver drops every pair they
    rank below that proposer (from both rows), and this repeats until
    nothing changes. Rows keep their order.

    At the fixpoint the first partner of every agent with a non-empty row
    ranks that agent last; the module docstring proves that no pair this
    drops is adjacent in any stable partition (Lemma 1) and that every
    agent whose row is not empty is matched in every stable matching
    (Lemma 2).
    """
    todo = list(members(agents))
    while todo:
        x = todo.pop()
        row = table[x]
        if not row:
            continue
        y = row[0]
        held = table[y]
        k = held.index(x) + 1
        for z in held[k:]:
            other = table[z]
            if other[0] == y:
                # z loses their first partner and proposes again
                todo.append(z)
            other.remove(y)
        del held[k:]


def _stable_matchings(g: Game, rows: _PairRows) -> list[tuple[int, ...]]:
    """The stable structures in ``enumerate_structures`` order of a pair-only
    game whose ``_pair_rows`` are ``rows``.

    A matching is stable when the AND over its parts of the K-bits of the
    pairs that each part's agents would rather hold is 0: ``envy[i][j] &
    envy[j][i]`` for a pair ``{i, j}``, which is ``better[{i, j}]`` of
    ``Game.expansion`` on K, and every pair for a single agent. The search
    places parts in enumeration order and carries that AND over the parts
    placed so far. A part's mask keeps the bit of every pair that does not
    meet it, so once both agents of a pair are placed, no later part clears
    its bit: a branch where such a pair keeps it holds no stable structure,
    and is dropped.

    The search branches only on the pairs left in the phase-1 table
    (``_phase_one``): a dropped pair is in no stable matching (Lemma 1), so
    an agent with an empty row is single in every stable matching and is
    placed so before the search starts, as is every agent outside the
    factor; an agent with a non-empty row is matched in every stable
    matching (Lemma 2), so the search never offers them their singleton.
    Blocking is still tested against every permissible pair, and each
    structure found is re-checked against the definition
    (``structures.is_stable``).
    """
    holding, table, envy = rows.holding, rows.table, rows.envy
    full = (1 << g.n) - 1
    # the pairs each matched agent can take as the least agent not yet
    # placed, in member order, with their mask
    options: list[list[tuple[int, int]]] = [[] for _ in range(g.n + 1)]
    matched = held = 0
    for i in members(rows.agents):
        own = 1 << (i - 1)
        if table[i]:
            matched |= own
            for j in sorted(table[i]):
                if j > i:
                    options[i].append((own | 1 << (j - 1), envy[i][j] & envy[j][i]))
        else:
            held |= holding[i]
    singles = full & ~matched
    single_parts = [1 << (i - 1) for i in members(singles)]
    stable = []
    parts: list[int] = []

    # ``used``: the agents placed; ``blocking``: the AND of the masks of
    # their parts; ``held``: the K-bits of their pairs; ``within``: the
    # K-bits of the pairs both of whose agents are placed. No pair joins
    # two agents with empty rows (see the module docstring), so ``within``
    # starts at 0
    def rec(used: int, blocking: int, within: int, held: int) -> None:
        if used == full:
            pi = tuple(sorted(parts + single_parts, key=lowest_agent))
            if not is_stable(g, pi):
                raise VerificationFailed(
                    f"{render_structure(pi)} passes the expansion test but is not stable"
                )
            stable.append(pi)
            return
        free = ~used & full
        a = (free & -free).bit_length()
        for c, mask in options[a]:
            if c & used:
                continue
            kept = blocking & mask
            h = holding[a] | holding[c.bit_length()]
            inside = within | h & held
            if kept & inside:
                continue
            parts.append(c)
            rec(used | c, kept, inside, held | h)
            parts.pop()

    rec(singles, -1, 0, held)
    return stable


def _stable_partitions(g: Game, rows: _PairRows) -> list[tuple[tuple[int, ...], ...]]:
    """Every stable partition of a pair-only game (Tan 1991), each as its
    cycles: a cycle lists its agents along the permutation from its least
    agent, and the cycles come by least agent. ``rows`` are the game's
    ``_pair_rows``.

    A stable partition is a permutation ``pi`` of the agents whose every
    step ``i -> pi(i)`` with ``pi(i) != i`` is a permissible pair; an agent
    on a cycle of length 1 is single. It satisfies

    - T1: every agent ``i`` ranks ``pi(i)`` at least as high as their
      predecessor ``pi^-1(i)``, the same agent only on a cycle of length 2;
    - T2: no permissible pair ``{i, j}`` has ``i`` ranking ``j`` above
      ``pi^-1(i)`` and ``j`` ranking ``i`` above ``pi^-1(j)``. A single
      agent is their own predecessor, and ranks every partner above it.

    The search closes one cycle at a time, from the least agent not yet
    placed, and places each successor among the partners left in the current
    agent's row of the phase-1 table that they rank above their predecessor,
    so T1 holds as each successor is placed (at a cycle's first agent, once
    it closes). A pair dropped from the table is adjacent in no stable
    partition (Lemma 1 of the module docstring), so no partition is lost.
    Each agent with a known predecessor keeps the K-bits of every
    permissible pair they would rather hold (``envy``), every pair without
    them included, and a branch is dropped once the AND of those masks keeps
    a pair both of whose agents have known predecessors. Agents outside the
    factor and agents with an empty row are single from the start; every
    other agent is on a cycle of length 2 or more (the module docstring,
    after Lemma 2), so the search never offers them their singleton.
    """
    holding, partners, envy = rows.holding, rows.table, rows.envy
    agents = rows.agents
    n = g.n
    # the agents outside the factor, each a cycle of length 1
    outside = [(b + 1,) for b in range(n) if not agents >> b & 1]
    succ = [0] * (n + 1)
    found = []
    # each partner's position in the table row. An agent with an empty row
    # is single, with an envy mask of -1; no pair joins two of them (see the
    # module docstring), so ``within`` starts at 0
    rank: list[dict[int, int]] = [{} for _ in range(n + 1)]
    cycling = held = 0
    for i in members(agents):
        if partners[i]:
            rank[i] = {j: k for k, j in enumerate(partners[i])}
            cycling |= 1 << (i - 1)
        else:
            succ[i] = i
            held |= holding[i]

    def cycles() -> tuple[tuple[int, ...], ...]:
        out = list(outside)
        rest = agents
        while rest:
            low = rest & -rest
            i = low.bit_length()
            cyc = [i]
            j = succ[i]
            while j != i:
                cyc.append(j)
                j = succ[j]
            for j in cyc:
                rest &= ~(1 << (j - 1))
            out.append(tuple(cyc))
        if outside:
            out.sort()
        return tuple(out)

    # ``free``: agents in no cycle yet; ``blocking``: the AND of the envy
    # masks of the agents with known predecessors; ``within``: the K-bits
    # of the pairs both of whose agents have one; ``held``: the K-bits of
    # those agents' pairs
    def start(free: int, blocking: int, within: int, held: int) -> None:
        if not free:
            found.append(cycles())
            return
        low = free & -free
        a = low.bit_length()
        free ^= low
        for y in partners[a]:
            if free >> (y - 1) & 1:
                succ[a] = y
                place(a, a, y, free ^ 1 << (y - 1), blocking, within, held)

    def place(a: int, x: int, y: int, free: int, blocking: int, within: int, held: int) -> None:
        # y becomes x's successor on the cycle from a
        blocking &= envy[y][x]
        within |= holding[y] & held
        if blocking & within:
            return
        held |= holding[y]
        # T1 at y: the successor is ranked above x, or is x on a 2-cycle
        for z in partners[y][: rank[y][x]]:
            if z == a:
                # closing: T1 at a, whose predecessor becomes y
                if rank[a][succ[a]] < rank[a][y]:
                    succ[y] = a
                    close(a, y, free, blocking, within, held)
            elif free >> (z - 1) & 1:
                succ[y] = z
                place(a, y, z, free ^ 1 << (z - 1), blocking, within, held)
        if x == a:
            succ[y] = a
            close(a, y, free, blocking, within, held)

    def close(a: int, y: int, free: int, blocking: int, within: int, held: int) -> None:
        # the cycle from a closes at y, a's predecessor
        blocking &= envy[a][y]
        within |= holding[a] & held
        if not blocking & within:
            start(free, blocking, within, held | holding[a])

    start(cycling, -1, 0, held)
    return found


def _p_stable_matchings(partitions) -> Iterator[list[int]]:
    """The P-stable matchings of the stable partitions, each as a list of
    its parts, for ``grow_graph`` to validate, dedup and sort: two
    partitions can give one matching. A cycle of length 2 is a pair, an
    even cycle of length 4 or more gives its two alternating matchings, and
    an odd cycle of length ``k`` gives ``k``: one per agent left single, the
    others paired along it."""
    for partition in partitions:
        options = []
        for cyc in partition:
            k = len(cyc)
            masks = [1 << (a - 1) for a in cyc]
            if k < 3:
                options.append([[sum(masks)]])
            elif k % 2 == 0:
                options.append(
                    [[masks[i] | masks[(i + 1) % k] for i in range(s, k + s, 2)] for s in (0, 1)]
                )
            else:
                options.append(
                    [
                        [masks[s]]
                        + [masks[(s + i) % k] | masks[(s + i + 1) % k] for i in range(1, k, 2)]
                        for s in range(k)
                    ]
                )
        for choice in itertools.product(*options):
            yield [p for chosen in choice for p in chosen]


def _factor(g: Game, limit: int) -> Factor:
    # a pair-only factor with a stable structure needs no graph; one without
    # grows the closure of its P-stable matchings; any other grows its graph
    # from the enumeration. Both pair searches share one phase-1 table.
    # Analysis has already held the structure count, which bounds either
    # graph, to the limit
    rows = _pair_rows(g)
    if rows is None:
        graph = full_domination_graph(g, limit)
    else:
        stable = _stable_matchings(g, rows)
        if stable:
            return Factor(g, tuple(AbsorbingSet((pi,)) for pi in stable), None)
        partitions = _stable_partitions(g, rows)
        if not partitions:
            raise VerificationFailed("no stable partition found; every game has one")
        graph = grow_graph(g, _p_stable_matchings(partitions), limit)
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

    Each factor's structures are first counted, in layers over the agents
    in id order or, past a frontier width, by the walk memoized on the
    agents already placed (``structures._count_structures``), and the limit
    is checked before any factor is searched, enumerated or grown; the
    limit counts structures on every route. A factor whose permissible
    coalitions are all pairs and which has a stable structure takes its stable
    structures, found by a pruned search (``_stable_matchings``), as its
    absorbing sets, and neither enumerates its structures nor builds a
    graph: from every matching some sequence of blocking pairs reaches a
    stable one (Roth and Vande Vate 1990; Diamantoudi, Miyagawa and Xue
    2004), so every absorbing set is trivial. A pair-only factor without a
    stable structure enumerates none either: it grows the closure of its
    P-stable matchings, read off its stable partitions (Tan 1991), and
    reads the closure's sinks, which are exactly its absorbing sets (see
    the module docstring; Iñarra, Larrea and Molis 2008). Both searches
    branch only on the pairs left in the factor's phase-1 table (Irving
    1985), built once per factor: a dropped pair is adjacent in no stable
    partition and so in no stable matching, and an agent whose row is not
    empty is matched in every stable matching (the module docstring proves
    both). Every other
    factor grows its full domination graph from one enumeration of its
    structures and reads its sink components.

    Every domination step changes one factor, so the game's structures are
    the products of factor structures, its absorbing sets the products of
    factor absorbing sets, and the ring components of a product set those
    of its non-trivial factor sets (``factor_rings``, kept by position):
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
        self._sets: list[tuple[AbsorbingSet, tuple[int, ...]]] | None = None
        # the ring components of each factor's sets, by position
        self._rings: list[list] = [[None] * len(f.sets) for f in self.factors]

    def _products(self) -> list[tuple[AbsorbingSet, tuple[int, ...]]]:
        # (absorbing set, its factor sets' positions) pairs in report order
        if self._sets is None:
            per = [f.sets for f in self.factors]
            if len(per) == 1:
                self._sets = [(a, (k,)) for k, a in enumerate(per[0])]
            else:
                full = (1 << self.game.n) - 1
                sets = []
                for combo in itertools.product(*(range(len(s)) for s in per)):
                    product = itertools.product(*(s[k].members for s, k in zip(per, combo)))
                    structures = sorted((_merge(full, pis) for pis in product), key=structure_key)
                    sets.append((AbsorbingSet(tuple(structures)), combo))
                sets.sort(key=lambda e: structure_key(e[0].members[0]))
                self._sets = sets
        return self._sets

    def absorbing_sets(self) -> list[AbsorbingSet]:
        """The absorbing sets, canonically ordered, as ``sink_components``
        orders them on the full graph; each call returns a new list."""
        return [a for a, _ in self._products()]

    def factor_sets(self, idx: int) -> tuple[int, ...]:
        """The positions in ``Factor.sets`` of the factor absorbing sets
        whose product is absorbing set ``idx``, aligned with ``factors``."""
        return self._products()[idx][1]

    def factor_rings(self, fi: int, k: int) -> list[RingComponent]:
        """The ring components of factor ``fi``'s absorbing set ``sets[k]``
        (none for a trivial one), worked out once per position."""
        rings = self._rings[fi]
        if rings[k] is None:
            f = self.factors[fi]
            rings[k] = [] if f.sets[k].trivial else ring_components_of(f.game, f.sets[k], f.graph)
        return rings[k]

    def ring_components(self, idx: int) -> list[RingComponent]:
        """The ring components of absorbing set ``idx``, sorted by
        coalitions, as ``ring_components_of`` gives them on the full graph."""
        a, combo = self._products()[idx]
        if a.trivial:
            raise TrivialAbsorbingSet("trivial absorbing sets carry no ring component")
        comps = [rc for fi, k in enumerate(combo) for rc in self.factor_rings(fi, k)]
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
    parent: dict[int, int | None] = {start: None}
    order = deque([start])
    while order:
        v = order.popleft()
        if v in sink_of:
            path: list[DominationEdge] = []
            cur = v
            while parent[cur] is not None:
                prev = parent[cur]
                path.append(DominationEdge(G.nodes[prev], G.nodes[cur], G.via(prev, cur)))
                cur = prev
            path.reverse()
            return sink_of[v], path
        for w in G.succ[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    raise VerificationFailed("no absorbing set reachable; the graph is finite, so this is a bug")
