"""Stable decompositions: parties, protection, and the absorbing-set bridge.

A decomposition splits the agent set into parties: at most one pool of
singletons, single permissible coalitions, and ring components. It is stable
when every coalition party is protected (each breaker is prevented by some
party) and no party formed over the pool's agents would be protected.

Stable decompositions correspond one-to-one with absorbing sets:
``from_absorbing_set`` recovers the decomposition, ``d_structures`` +
``generated_set`` rebuild the absorbing set.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .core import (
    Game,
    coalition,
    compact_coalition,
    lowest_agent,
    members,
    prefers,
    render_coalition,
)
from .errors import (
    DisjointParty,
    LimitExceeded,
    MalformedParty,
    PartyIsSingletonPool,
    VerificationFailed,
)
from .structures import DEFAULT_LIMIT, breaks, structure_from_parts, structure_key
from .dynamics import grow_graph
from .absorbing import AbsorbingSet, Analysis, sink_components
from . import rings as _rings

POOL = "singleton_pool"
SINGLE = "single_coalition"
RING = "ring_component"


@dataclass(frozen=True)
class Party:
    kind: str
    coalitions: tuple[int, ...]
    # compact sets of the ring component; empty for the other kinds
    compact: tuple[tuple[int, ...], ...] = field(default=())

    @property
    def agents(self) -> int:
        mask = 0
        for c in self.coalitions:
            mask |= c
        return mask

    def render(self, n: int) -> str:
        return "{" + ",".join(compact_coalition(c, n) for c in self.coalitions) + "}"


def make_party(g: Game, coalitions: Iterable) -> Party:
    """Build a party from a collection of coalitions, inferring its kind.

    All singletons -> pool; one permissible coalition -> single coalition;
    three or more -> ring component (verified). Anything else is malformed.
    """
    masks = []
    for c in coalitions:
        mask = c if isinstance(c, int) else coalition(c)
        if mask <= 0:
            raise MalformedParty("parties cannot contain an empty coalition")
        masks.append(mask)
    masks = tuple(sorted(set(masks)))
    if not masks:
        raise MalformedParty("a party needs at least one coalition")
    sizes = {m.bit_count() for m in masks}
    if sizes == {1}:
        return Party(POOL, masks)
    if 1 in sizes:
        raise MalformedParty("a party cannot mix singletons with larger coalitions")
    if len(masks) == 1:
        if masks[0] not in g._kset:
            raise MalformedParty(
                f"{render_coalition(masks[0])} is not a permissible coalition"
            )
        return Party(SINGLE, masks)
    if not _rings.is_ring_component(g, masks):
        raise MalformedParty("multi-coalition parties must be ring components")
    return Party(RING, masks, tuple(_rings.compact_collection(g, masks)))


@dataclass(frozen=True)
class StableDecomposition:
    parties: tuple[Party, ...]

    def pool(self) -> Party | None:
        for p in self.parties:
            if p.kind == POOL:
                return p
        return None

    def render(self, n: int) -> str:
        return "{" + ",".join(p.render(n) for p in self.parties) + "}"

    def __iter__(self):
        return iter(self.parties)


def decomposition(parties: Iterable[Party]) -> StableDecomposition:
    """Canonical ordering: parties sorted by their least agent."""
    ordered = tuple(sorted(parties, key=lambda p: lowest_agent(p.agents)))
    return StableDecomposition(ordered)


def decomposition_from_collections(g: Game, collections: Iterable[Iterable]) -> StableDecomposition:
    return decomposition(make_party(g, c) for c in collections)


def prevents(g: Game, party: Party, c: int) -> bool:
    """Whether the party impedes the formation of coalition ``c``.

    A single coalition prevents ``c`` when one of its members in ``c``
    prefers it; a ring component prevents ``c`` when every set of its
    compact collection contains such a dissenting coalition.
    """
    if party.kind == POOL:
        raise PartyIsSingletonPool("a singleton pool cannot prevent formation")
    if not party.agents & c:
        raise DisjointParty(
            f"party {party.render(g.n)} shares no agent with {render_coalition(c)}"
        )
    if c in party.coalitions:
        return False

    def dissents(cp: int) -> bool:
        return any(prefers(g, i, cp, c) for i in members(cp & c))

    if party.kind == SINGLE:
        return dissents(party.coalitions[0])
    return all(any(cp & c and dissents(cp) for cp in E) for E in party.compact)


def _prevented_by(g: Game, D: StableDecomposition, c: int) -> Party | None:
    for party in D.parties:
        if party.kind == POOL or c in party.coalitions or not party.agents & c:
            continue
        if prevents(g, party, c):
            return party
    return None


def unprevented_breakers(g: Game, party: Party, D: StableDecomposition) -> list[int]:
    """Breakers of the party that no party of ``D`` prevents, ascending."""
    out = []
    own = set(party.coalitions)
    for c in g.permissible:
        if c in own:
            continue
        if breaks(g, c, party.coalitions) and _prevented_by(g, D, c) is None:
            out.append(c)
    return out


def is_protected(g: Game, party: Party, D: StableDecomposition) -> bool:
    """Whether every permissible coalition breaking the party is prevented
    by some party of the decomposition."""
    if party.kind == POOL:
        raise PartyIsSingletonPool("protection is defined for coalition parties")
    return not unprevented_breakers(g, party, D)


class Violation(NamedTuple):
    code: str
    party: Party | None
    coalition: int | None

    def describe(self, n: int) -> str:
        if self.code == "unprotected":
            return (
                f"{self.party.render(n)} unprotected against breaker "
                f"{compact_coalition(self.coalition, n)}"
            )
        if self.code == "pool-supports-party":
            return f"singleton pool supports protected party {self.party.render(n)}"
        if self.code == "multiple-pools":
            return "more than one singleton pool"
        return "parties do not partition the agent set"


def _protected_pool_subparty(
    g: Game, D: StableDecomposition, pool_mask: int, limit: int
) -> Party | None:
    """A protected party formed over the pool's agents, if any exists.

    Candidates are single permissible coalitions inside the pool and ring
    components assembled from them; ring candidates are confined to the
    strongly connected pieces of the improvement digraph, since a ring
    component is internally strongly connected.
    """
    ks = [c for c in g.permissible if not c & ~pool_mask]
    for c in ks:
        party = Party(SINGLE, (c,))
        if is_protected(g, party, D):
            return party
    checked = 0
    for comp_idx in _rings._pref_digraph_sccs(g, ks):
        if len(comp_idx) < 3:
            continue
        masks = sorted(ks[i] for i in comp_idx)
        for r in range(3, len(masks) + 1):
            for sub in itertools.combinations(masks, r):
                checked += 1
                if checked > limit:
                    raise LimitExceeded(
                        f"more than {limit} candidate parties over the pool"
                    )
                if _rings.is_ring_component(g, sub):
                    party = Party(RING, tuple(sub), tuple(_rings.compact_collection(g, sub)))
                    if is_protected(g, party, D):
                        return party
    return None


def check_stable_decomposition(
    g: Game, D: StableDecomposition, limit: int = DEFAULT_LIMIT
) -> list[Violation]:
    """All reasons the decomposition is not stable; empty when it is."""
    full = (1 << g.n) - 1
    pools = [p for p in D.parties if p.kind == POOL]
    violations: list[Violation] = []
    if len(pools) > 1:
        violations.append(Violation("multiple-pools", None, None))
    union = 0
    for p in D.parties:
        if p.agents & union:
            violations.append(Violation("not-partition", p, None))
            return violations
        union |= p.agents
    if union != full:
        violations.append(Violation("not-partition", None, None))
        return violations
    for p in D.parties:
        if p.kind == POOL:
            continue
        bad = unprevented_breakers(g, p, D)
        if bad:
            violations.append(Violation("unprotected", p, bad[0]))
    if len(pools) == 1:
        found = _protected_pool_subparty(g, D, pools[0].agents, limit)
        if found is not None:
            violations.append(Violation("pool-supports-party", found, None))
    return violations


def is_stable_decomposition(g: Game, D: StableDecomposition, limit: int = DEFAULT_LIMIT) -> bool:
    return not check_stable_decomposition(g, D, limit)


def _pool(n: int, mask: int) -> Party:
    return Party(POOL, tuple(1 << b for b in range(n) if mask >> b & 1))


def _absorbing_parties(g: Game, absorbing: AbsorbingSet, G, limit: int) -> list[Party]:
    # the parties of from_absorbing_set, not yet checked
    parties: list[Party] = []
    if absorbing.trivial:
        pi = absorbing.members[0]
        pool_mask = 0
        for part in pi:
            if part.bit_count() >= 2:
                parties.append(Party(SINGLE, (part,)))
            else:
                pool_mask |= part
    else:
        if G is None:
            G = grow_graph(g, absorbing.members, limit=limit)
        part_sets = [set(pi) for pi in absorbing.members]
        comps = _rings.ring_components_of(g, absorbing, G)
        covered = 0
        for rc in comps:
            if all(any(r in ps for r in rc.coalitions) for ps in part_sets):
                parties.append(Party(RING, rc.coalitions, rc.compact))
                for c in rc.coalitions:
                    covered |= c
        for c in g.permissible:
            if all(c in ps for ps in part_sets):
                parties.append(Party(SINGLE, (c,)))
                covered |= c
        pool_mask = (1 << g.n) - 1 & ~covered
    if pool_mask:
        parties.append(_pool(g.n, pool_mask))
    return parties


def _verified(g: Game, parties: list[Party], limit: int) -> StableDecomposition:
    D = decomposition(parties)
    problems = check_stable_decomposition(g, D, limit)
    if problems:
        raise VerificationFailed(
            "constructed decomposition fails verification: "
            + "; ".join(v.describe(g.n) for v in problems)
        )
    return D


def from_absorbing_set(
    g: Game, absorbing: AbsorbingSet, G=None, limit: int = DEFAULT_LIMIT
) -> StableDecomposition:
    """The stable decomposition corresponding to an absorbing set.

    Trivial set: one single-coalition party per part plus a pool of the
    single agents. Non-trivial set: the ring components with a coalition in
    every member, plus single parties for coalitions present in every
    member, plus a pool of the remaining agents. The result is re-verified.
    """
    return _verified(g, _absorbing_parties(g, absorbing, G, limit), limit)


def factored_decompositions(an: Analysis) -> list[StableDecomposition]:
    """The stable decomposition of each absorbing set of the analysis, in
    the same order.

    An absorbing set's decomposition is the union of the coalition parties
    of its factor sets' decompositions, each built on its factor's game and
    graph, plus one pool of the remaining agents; it is re-verified against
    the whole game.
    """
    g = an.game
    full = (1 << g.n) - 1
    # (factor index, factor absorbing set) -> its coalition parties
    memo: dict = {}
    out = []
    for idx in range(len(an.absorbing_sets())):
        parties: list[Party] = []
        covered = 0
        for fi, (f, fa) in enumerate(zip(an.factors, an.factor_sets(idx))):
            own = memo.get((fi, fa))
            if own is None:
                own = memo[(fi, fa)] = [
                    p
                    for p in _absorbing_parties(f.game, fa, f.graph, an.limit)
                    if p.kind != POOL
                ]
            for p in own:
                parties.append(p)
                covered |= p.agents
        if full & ~covered:
            parties.append(_pool(g.n, full & ~covered))
        out.append(_verified(g, parties, an.limit))
    return out


class DStructure(NamedTuple):
    structure: tuple[int, ...]
    # (ring party, chosen compact set) pairs, aligned with the ring parties
    chosen: tuple[tuple[Party, tuple[int, ...]], ...]


def d_structures(g: Game, D: StableDecomposition) -> list[DStructure]:
    """All structures induced by the decomposition: non-ring parties appear
    verbatim, each ring component contributes one of its compact sets with
    its remaining agents single."""
    ring_parties = [p for p in D.parties if p.kind == RING]
    fixed: list[int] = []
    for p in D.parties:
        if p.kind == SINGLE:
            fixed.append(p.coalitions[0])
        elif p.kind == POOL:
            fixed.extend(p.coalitions)
    out: list[DStructure] = []
    for choice in itertools.product(*(p.compact for p in ring_parties)):
        parts = list(fixed)
        for party, chosen in zip(ring_parties, choice):
            parts.extend(chosen)
            leftover = party.agents
            for c in chosen:
                leftover &= ~c
            parts.extend(1 << b for b in range(g.n) if leftover >> b & 1)
        out.append(
            DStructure(structure_from_parts(g, parts), tuple(zip(ring_parties, choice)))
        )
    return out


def generated_set(g: Game, pi_d, limit: int = DEFAULT_LIMIT) -> AbsorbingSet:
    """The absorbing set generated by a D-structure: the structure together
    with everything transitively dominating it. Verified to be absorbing."""
    pi = pi_d.structure if isinstance(pi_d, DStructure) else structure_from_parts(g, pi_d)
    G = grow_graph(g, [pi], limit=limit)
    if len(G.sccs()) != 1:
        raise VerificationFailed("generated set is not absorbing")
    if len(G) == 2:
        raise VerificationFailed("absorbing sets never have exactly two members")
    return AbsorbingSet(tuple(sorted(G.nodes, key=structure_key)))


def all_stable_decompositions(
    g: Game, limit: int = DEFAULT_LIMIT, graph=None
) -> list[StableDecomposition]:
    """Every stable decomposition of the game, via its absorbing sets.

    Without ``graph`` the absorbing sets come from ``Analysis``, one graph
    per factor; with it, from that graph's sink components.
    """
    if graph is None:
        return factored_decompositions(Analysis(g, limit))
    return [from_absorbing_set(g, a, graph, limit) for a in sink_components(graph)]


def protection_certificates(g: Game, D: StableDecomposition) -> list[dict]:
    """For every coalition party, each breaker with the party preventing it
    and the dissenting witnesses ((coalition, agent) pairs)."""
    out = []
    for party in D.parties:
        if party.kind == POOL:
            continue
        entry = {"party": party, "breakers": []}
        own = set(party.coalitions)
        for c in g.permissible:
            if c in own or not breaks(g, c, party.coalitions):
                continue
            by = _prevented_by(g, D, c)
            witnesses = []
            if by is not None:
                groups = [by.coalitions] if by.kind == SINGLE else by.compact
                for E in groups:
                    for cp in E:
                        hit = next(
                            (i for i in members(cp & c) if prefers(g, i, cp, c)), None
                        )
                        if hit is not None:
                            witnesses.append((cp, hit))
                            break
            entry["breakers"].append({"coalition": c, "prevented_by": by, "witnesses": witnesses})
        out.append(entry)
    return out
