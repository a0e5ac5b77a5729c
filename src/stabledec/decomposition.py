"""Stable decompositions: parties, protection, and the absorbing-set bridge.

A decomposition splits the agent set into parties: at most one pool of
singletons, single permissible coalitions, and ring components. It is stable
when every coalition party is protected (each breaker is prevented by some
party) and no party formed over the pool's agents would be protected.

Stable decompositions correspond one-to-one with absorbing sets:
``from_absorbing_set`` recovers the decomposition, ``d_structures`` +
``generated_set`` rebuild the absorbing set.

Protection is one walk (``_protection``): each coalition party with its
breakers in ``g.permissible`` order, each paired with the first party that
prevents it, a few ANDs per party on the K-bitsets of ``Game.expansion``.
``check_stable_decomposition`` (and ``verify``), ``unprevented_breakers``,
the re-check of each decomposition built from an absorbing set, and the
certificates all read it. Only once the parties partition the agents and
every coalition party is protected does ``check_stable_decomposition``
decide the pool condition, through that correspondence rather than by searching the pool
for parties: the condition holds when no permissible coalition lies inside
the pool; without a ring party, such a coalition blocks the decomposition's
only D-structure; otherwise the closure of the first D-structure must be one
absorbing set whose parties are the decomposition's own.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable

from .core import (
    Game,
    _entry_mask,
    _Frozen,
    _setattr,
    compact_coalition,
    lowest_agent,
    members,
    render_coalition,
)
from .errors import (
    AgentIdOutOfRange,
    DisjointParty,
    MalformedParty,
    PartyIsSingletonPool,
    VerificationFailed,
)
from .structures import DEFAULT_LIMIT, _maximal_search, structure_from_parts
from .dynamics import grow_graph
from .absorbing import AbsorbingSet, Analysis, sink_components
from . import rings as _rings

POOL = "singleton_pool"
SINGLE = "single_coalition"
RING = "ring_component"


class Party(_Frozen):
    """A party of a decomposition: its kind and coalitions, and ``compact``,
    the compact sets of a ring component (empty for the other kinds).
    ``breakers`` are the ring component's (``RingComponent.breakers``),
    which follow from the coalitions; None for the other kinds and for a
    party built by hand, whose breakers are then computed. Equality, the
    hash and the repr leave them out."""

    __slots__ = _fields = ("kind", "coalitions", "compact", "breakers")
    _shown = 3

    def __init__(
        self,
        kind: str,
        coalitions: tuple[int, ...],
        compact: tuple[tuple[int, ...], ...] = (),
        breakers: tuple[int, ...] | None = None,
    ) -> None:
        _setattr(self, "kind", kind)
        _setattr(self, "coalitions", coalitions)
        _setattr(self, "compact", compact)
        _setattr(self, "breakers", breakers)

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
        mask = _entry_mask(c)
        if mask <= 0:
            if mask:
                raise MalformedParty(f"coalition mask {mask} is negative")
            raise MalformedParty("parties cannot contain an empty coalition")
        above = mask >> g.n
        if above:
            raise AgentIdOutOfRange(
                f"agent id {g.n + (above & -above).bit_length()} is out of range"
            )
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
    party = _rings._ring_party(g, masks)
    if party is None:
        raise MalformedParty("multi-coalition parties must be ring components")
    return Party(RING, masks, *party)


class StableDecomposition(_Frozen):
    """The parties of a decomposition, in canonical order
    (``decomposition``)."""

    __slots__ = _fields = ("parties",)

    def __init__(self, parties: tuple[Party, ...]) -> None:
        _setattr(self, "parties", parties)

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
    shared = party.agents & c
    if shared >> g.n:
        raise AgentIdOutOfRange(f"agent id {lowest_agent(shared >> g.n << g.n)} is out of range")
    return _witnesses(g, party, c) is not None


def _witnesses(g: Game, party: Party, c: int) -> list[tuple[int, int]] | None:
    """The first (coalition, agent preferring it to ``c``) of each compact set
    of the party (of its coalition if single); ``None`` when a set has none.
    Each agent tried is in both coalitions, so keys compare directly."""
    key = g._key
    out = []
    for E in party.compact if party.kind == RING else (party.coalitions,):
        hit = next(((cp, i) for cp in E for i in members(cp & c) if key(i, cp) < key(i, c)), None)
        if hit is None:
            return None
        out.append(hit)
    return out


def _kbit(bit: dict[int, int], c: int) -> int:
    # the K-bit of a party's coalition, which a hand-built party may lack
    b = bit.get(c)
    if b is None:
        raise MalformedParty(f"{render_coalition(c)} is not a permissible coalition")
    return b


def _breakers(g: Game, party: Party) -> int:
    """The K-bits (``Game.expansion``) of the party's breakers: the
    coalitions outside it that break one of its maximal sets. A ring
    party built by ``make_party`` or from its ring component carries them;
    a single coalition is its only maximal set, broken by the coalitions it
    meets that beat it; otherwise one maximal-set search
    (``structures._maximal_search``) finds them."""
    ks = [x for x in party.coalitions if x.bit_count() >= 2]
    if not ks:
        return 0
    bit, better, meets = g.expansion()
    own = found = 0
    for c in ks:
        own |= _kbit(bit, c)
    if party.breakers is not None:
        for c in party.breakers:
            found |= bit[c]
    elif own & (own - 1):
        found = _maximal_search(g, own)[1]
    else:
        found = better[ks[0]] & meets[own.bit_length() - 1]
    return found & ~own


def _prevention(g: Game, D: StableDecomposition) -> list[tuple[Party, int]]:
    """Each coalition party of ``D`` with the K-bits of the coalitions it
    prevents, in ``D``'s order.

    A coalition ``d`` dissents from ``c`` when a member of both prefers
    ``d``: ``bit[c]`` lies in ``meets[j(d)] & ~better[d]``. A single party
    prevents what its coalition dissents from, a ring party what some
    coalition of each compact set dissents from; neither prevents its own
    coalitions. Without a coalition party, the expansion is not built.
    """
    parties = [p for p in D.parties if p.kind != POOL]
    if not parties:
        return []
    bit, better, meets = g.expansion()
    out = []
    for party in parties:
        own = reach = 0
        for c in party.coalitions:
            b = _kbit(bit, c)
            own |= b
            reach |= meets[b.bit_length() - 1]
        for E in party.compact if party.kind == RING else (party.coalitions,):
            dissent = 0
            for d in E:
                dissent |= meets[_kbit(bit, d).bit_length() - 1] & ~better[d]
            reach &= dissent
        out.append((party, reach & ~own))
    return out


def _protection(g: Game, D: StableDecomposition, parties=None) -> list:
    """The protection walk: each coalition party of ``D`` (or each of
    ``parties``, which need not be in ``D``) with its breakers in
    ``g.permissible`` order, each paired with the first party of ``D`` that
    prevents it, or ``None``."""
    ks = g.permissible
    masks = _prevention(g, D)
    out = []
    for party in [p for p in D.parties if p.kind != POOL] if parties is None else parties:
        pairs = []
        found = _breakers(g, party)
        while found:
            low = found & -found
            found ^= low
            by = next((p for p, mask in masks if mask & low), None)
            pairs.append((ks[low.bit_length() - 1], by))
        out.append((party, pairs))
    return out


def unprevented_breakers(g: Game, party: Party, D: StableDecomposition) -> list[int]:
    """Breakers of the party that no party of ``D`` prevents, ascending."""
    ((_, pairs),) = _protection(g, D, [party])
    return [c for c, by in pairs if by is None]


def is_protected(g: Game, party: Party, D: StableDecomposition) -> bool:
    """Whether every permissible coalition breaking the party is prevented
    by some party of the decomposition."""
    if party.kind == POOL:
        raise PartyIsSingletonPool("protection is defined for coalition parties")
    return not unprevented_breakers(g, party, D)


class Violation(namedtuple("Violation", "code party coalition")):
    __slots__ = ()
    code: str
    party: Party | None
    coalition: int | None

    def describe(self, n: int) -> str:
        if self.code == "unprotected":
            return (
                f"{self.party.render(n)} unprotected against breaker "
                f"{compact_coalition(self.coalition, n)}"
            )
        if self.code == "pool-blocks":
            return (
                f"{compact_coalition(self.coalition, n)} blocks the D-structure "
                "within the singleton pool"
            )
        if self.code == "pool-supports-party":
            return f"singleton pool supports protected party {self.party.render(n)}"
        if self.code == "multiple-pools":
            return "more than one singleton pool"
        return "parties do not partition the agent set"


def _partition_and_protection(g: Game, D: StableDecomposition) -> tuple[list[Violation], list]:
    # every violation but the pool condition's, and the protection walk
    # (empty when the parties do not partition the agents)
    full = (1 << g.n) - 1
    pools = [p for p in D.parties if p.kind == POOL]
    violations: list[Violation] = []
    if len(pools) > 1:
        violations.append(Violation("multiple-pools", None, None))
    union = 0
    for p in D.parties:
        if p.agents & union:
            violations.append(Violation("not-partition", p, None))
            return violations, []
        union |= p.agents
    if union != full:
        violations.append(Violation("not-partition", None, None))
        return violations, []
    walk = _protection(g, D)
    for party, pairs in walk:
        bad = next((c for c, by in pairs if by is None), None)
        if bad is not None:
            violations.append(Violation("unprotected", party, bad))
    return violations, walk


def _pool_violation(
    g: Game, D: StableDecomposition, pool_mask: int, limit: int
) -> Violation | None:
    """The pool condition of a partition whose coalition parties are all
    protected, decided through the absorbing-set correspondence.

    No permissible coalition inside the pool: no party can form there.
    Without a ring party, D has one D-structure, which such a coalition
    blocks, and D is stable exactly when that structure is. Otherwise D is
    stable exactly when the closure of its first D-structure (at most
    ``limit`` nodes) is one absorbing set whose parties are D's. The closure
    may hold several absorbing sets, so each is searched for a party that D
    lacks.
    """
    inside = next((c for c in g.permissible if not c & ~pool_mask), None)
    if inside is None:
        return None
    if all(p.kind != RING for p in D.parties):
        return Violation("pool-blocks", None, inside)
    G = grow_graph(g, [d_structures(g, D)[0].structure], limit=limit)
    sinks = sink_components(G)
    own = {p.coalitions for p in D.parties}
    for sink in sinks:
        comps = [] if sink.trivial else _rings.ring_components_of(g, sink, G)
        built = _absorbing_parties(g, sink, comps, G)
        for p in built:
            if p.kind != POOL and p.coalitions not in own:
                return Violation("pool-supports-party", p, None)
    if len(sinks) != 1 or {p.coalitions for p in built} != own:
        raise VerificationFailed(
            "the closure of the D-structure does not give back the decomposition"
        )
    return None


def check_stable_decomposition(
    g: Game, D: StableDecomposition, limit: int = DEFAULT_LIMIT
) -> list[Violation]:
    """All reasons the decomposition is not stable; empty when it is.

    The parties must partition the agent set with at most one pool, and
    every breaker of each coalition party must be prevented
    (``unprevented_breakers``); each failure is listed. Only once all of
    that holds is the pool condition decided (see ``_pool_violation``), as
    ``pool-blocks`` or ``pool-supports-party``. That step may grow a
    domination graph of at most ``limit`` nodes, and raises
    ``LimitExceeded`` beyond it.
    """
    violations, _ = _partition_and_protection(g, D)
    pool = D.pool()
    if violations or pool is None:
        return violations
    found = _pool_violation(g, D, pool.agents, limit)
    return [] if found is None else [found]


def is_stable_decomposition(g: Game, D: StableDecomposition, limit: int = DEFAULT_LIMIT) -> bool:
    """Whether ``check_stable_decomposition`` finds no violation."""
    return not check_stable_decomposition(g, D, limit)


def _pool(n: int, mask: int) -> Party:
    return Party(POOL, tuple(1 << b for b in range(n) if mask >> b & 1))


def _absorbing_parties(g: Game, absorbing: AbsorbingSet, comps, G) -> list[Party]:
    # the parties of from_absorbing_set, not yet checked. For a non-trivial
    # set, comps are its ring components and G a graph of g holding it; the
    # parties are read off the member keys: a coalition held in every member
    # has its bit in the AND of the keys, and a component covers every
    # member when each key meets its bits
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
        keys = [G.keys[G.node_id(pi)] for pi in absorbing.members]
        bit = g.expansion().bit
        covered = 0
        for rc in comps:
            own = 0
            for c in rc.coalitions:
                own |= bit[c]
            if all(key & own for key in keys):
                parties.append(Party(RING, rc.coalitions, rc.compact, rc.breakers))
                for c in rc.coalitions:
                    covered |= c
        held = -1
        for key in keys:
            held &= key
        ks = g.permissible
        while held:
            low = held & -held
            held ^= low
            c = ks[low.bit_length() - 1]
            parties.append(Party(SINGLE, (c,)))
            covered |= c
        pool_mask = (1 << g.n) - 1 & ~covered
    if pool_mask:
        parties.append(_pool(g.n, pool_mask))
    return parties


def _verified(g: Game, parties: list[Party], absorbing: AbsorbingSet) -> tuple:
    """The decomposition of ``parties``, built from ``absorbing``, with its
    protection walk and D-structures, after the partition and protection
    checks and the round trip: its first D-structure must be a member of
    ``absorbing``. A sink component is the closure of each of its members,
    so that D-structure generates exactly ``absorbing``, whose parties are D's."""
    D = decomposition(parties)
    violations, walk = _partition_and_protection(g, D)
    problems = [v.describe(g.n) for v in violations]
    induced = [] if problems else d_structures(g, D)
    if not problems and induced[0].structure not in absorbing:
        problems.append("its first D-structure is not in the absorbing set")
    if problems:
        raise VerificationFailed(
            "constructed decomposition fails verification: " + "; ".join(problems)
        )
    return D, walk, induced


def from_absorbing_set(
    g: Game, absorbing: AbsorbingSet, G=None, limit: int = DEFAULT_LIMIT
) -> StableDecomposition:
    """The stable decomposition corresponding to an absorbing set.

    Trivial set: one single-coalition party per part plus a pool of the
    single agents. Non-trivial set: the ring components with a coalition in
    every member, plus single parties for coalitions present in every
    member, plus a pool of the remaining agents. The result is re-checked:
    the parties partition the agents, every coalition party is protected,
    and the first D-structure lies in ``absorbing``, so that it generates
    the set back. ``limit`` bounds the graph grown when ``G`` is not given.
    """
    comps = []
    if not absorbing.trivial:
        if G is None:
            G = grow_graph(g, absorbing.members, limit=limit)
        comps = _rings.ring_components_of(g, absorbing, G)
    return _verified(g, _absorbing_parties(g, absorbing, comps, G), absorbing)[0]


def factored_decompositions(an: Analysis) -> list[StableDecomposition]:
    """The stable decomposition of each absorbing set of the analysis, in
    the same order.

    An absorbing set's decomposition is the union of the coalition parties
    of its factor sets' decompositions, each built on its factor's game
    from the ring components the analysis works out once per factor set
    (``Analysis.factor_rings``) and lifted to the whole game's masks, plus
    one pool of the remaining agents; it is re-checked against the whole
    game and its absorbing set, as ``from_absorbing_set`` re-checks.
    """
    return [D for D, _, _ in _checked_decompositions(an)]


def _lift_party(p: Party, lift: dict[int, int]) -> Party:
    # a factor's coalition party in the whole game's masks
    up = lift.__getitem__
    return Party(
        p.kind,
        tuple(map(up, p.coalitions)),
        tuple(tuple(map(up, E)) for E in p.compact),
        None if p.breakers is None else tuple(map(up, p.breakers)),
    )


def _checked_decompositions(an: Analysis) -> list[tuple]:
    # (decomposition, protection walk, D-structures) of each absorbing set,
    # as the re-check built them; the factor parties are built on the
    # factor games and lifted to the whole game's masks (Analysis.lifts)
    g = an.game
    full = (1 << g.n) - 1
    # the coalition parties of each factor's sets, by position
    memo = [[None] * len(f.sets) for f in an.factors]
    out = []
    for idx, absorbing in enumerate(an.absorbing_sets()):
        parties: list[Party] = []
        covered = 0
        for fi, (f, k, lift) in enumerate(zip(an.factors, an.factor_sets(idx), an.lifts)):
            own = memo[fi][k]
            if own is None:
                own = memo[fi][k] = [
                    p if lift is None else _lift_party(p, lift)
                    for p in _absorbing_parties(f.game, f.sets[k], an.factor_rings(fi, k), f.graph)
                    if p.kind != POOL
                ]
            for p in own:
                parties.append(p)
                covered |= p.agents
        if full & ~covered:
            parties.append(_pool(g.n, full & ~covered))
        out.append(_verified(g, parties, absorbing))
    return out


class DStructure(namedtuple("DStructure", "structure chosen")):
    __slots__ = ()
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
    return sink_components(G)[0]


def all_stable_decompositions(
    g: Game, limit: int = DEFAULT_LIMIT, graph=None
) -> list[StableDecomposition]:
    """Every stable decomposition of the game, via its absorbing sets.

    Without ``graph`` the absorbing sets come from ``Analysis``, per
    factor; with it, from that graph's sink components.
    """
    if graph is None:
        return factored_decompositions(Analysis(g, limit))
    return [from_absorbing_set(g, a, graph, limit) for a in sink_components(graph)]


def protection_certificates(g: Game, D: StableDecomposition) -> list[dict]:
    """For every coalition party, each breaker with the party preventing it
    and the dissenting witnesses ((coalition, agent) pairs)."""
    return _certificates(g, _protection(g, D))


def _certificates(g: Game, walk: list) -> list[dict]:
    # the certificates of a protection walk: witnesses are looked up only
    # for the first preventing party of each breaker
    out = []
    for party, pairs in walk:
        breakers = []
        for c, by in pairs:
            witnesses = [] if by is None else _witnesses(g, by, c)
            breakers.append({"coalition": c, "prevented_by": by, "witnesses": witnesses})
        out.append({"party": party, "breakers": breakers})
    return out
