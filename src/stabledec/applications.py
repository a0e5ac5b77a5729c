"""Matching-market front ends and convergence analysis.

Roommate and marriage specs list acceptable partners per agent; both reduce
to coalition formation games whose permissible coalitions are the mutually
acceptable pairs. ``converges_to_stability`` decides whether every structure
can reach a stable one. On a domination graph with no stable structure the
answer is no, with the least structure as witness; otherwise one walk over
the graph's memoized SCCs, in reverse topological order, decides it. Both
cases cross-check against sink triviality. The least structure, all agents
single, is the witness even on a graph that lacks it, as the closure of a
pair-only factor's P-stable matchings does. A factored analysis runs that
on every factor with a graph, while a pair-only factor with a stable
structure converges by theorem and has no graph to check.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence

from .core import Game, _Frozen, _is_list_like, _setattr
from .errors import MalformedSpec, VerificationFailed
from .structures import DEFAULT_LIMIT, singleton_structure, structure_key
from .absorbing import Analysis, sink_components


def _check_pref_table(n: int, preferences: Mapping) -> dict[int, list[int]]:
    if not isinstance(preferences, Mapping):
        raise MalformedSpec("preferences must map agents to partner lists")
    table: dict[int, list[int]] = {}
    for key, partners in preferences.items():
        try:
            agent = int(key)
        except (TypeError, ValueError):
            raise MalformedSpec(f"bad agent id {key!r}") from None
        if not 1 <= agent <= n:
            raise MalformedSpec(f"agent id {agent} is out of range")
        if agent in table:
            raise MalformedSpec(f"agent {agent} listed twice")
        if type(partners) is not list and not _is_list_like(partners):
            raise MalformedSpec(f"agent {agent}'s partners must be a list")
        row = []
        for p in partners:
            if isinstance(p, bool) or not isinstance(p, int) or not 1 <= p <= n:
                raise MalformedSpec(f"agent {agent} lists invalid partner {p!r}")
            if p == agent:
                raise MalformedSpec(f"agent {agent} lists itself as a partner")
            if p in row:
                raise MalformedSpec(f"agent {agent} lists partner {p} twice")
            row.append(p)
        table[agent] = row
    for agent in range(1, n + 1):
        table.setdefault(agent, [])
    return table


class RoommateSpec(_Frozen):
    """Pairwise matching among ``n`` agents; each lists acceptable partners
    in strictly descending order of preference. Checked when built;
    ``preferences`` is then a dict of partner lists with a row for every
    agent."""

    __slots__ = ("n", "preferences")

    def __init__(self, n: int, preferences: Mapping[int, Sequence[int]]) -> None:
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise MalformedSpec("agent count must be a positive integer")
        _setattr(self, "n", n)
        _setattr(self, "preferences", _check_pref_table(n, preferences))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.preferences) == (other.n, other.preferences)
        return NotImplemented

    # unhashable, as the preferences dict is
    __hash__ = None

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(n={self.n!r}, preferences={self.preferences!r})"

    def __reduce__(self):
        return self.__class__, (self.n, self.preferences)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "preferences": {str(i): list(ps) for i, ps in sorted(self.preferences.items())},
        }


class MarriageSpec(_Frozen):
    """Two-sided matching: men are agents ``1..men``, women are agents
    ``men+1..men+women``; partners must come from the opposite side.
    Checked when built, as ``RoommateSpec`` is."""

    __slots__ = ("men", "women", "preferences")

    def __init__(self, men: int, women: int, preferences: Mapping[int, Sequence[int]]) -> None:
        if any(isinstance(k, bool) or not isinstance(k, int) for k in (men, women)):
            raise MalformedSpec("side sizes must be integers")
        if men < 1 or women < 1:
            raise MalformedSpec("both sides need at least one agent")
        table = _check_pref_table(men + women, preferences)
        for agent, row in table.items():
            for p in row:
                if (agent <= men) == (p <= men):
                    raise MalformedSpec(
                        f"agent {agent} lists partner {p} from its own side"
                    )
        _setattr(self, "men", men)
        _setattr(self, "women", women)
        _setattr(self, "preferences", table)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.men, self.women, self.preferences) == (
                other.men, other.women, other.preferences
            )
        return NotImplemented

    # unhashable, as the preferences dict is
    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(men={self.men!r}, women={self.women!r}, "
            f"preferences={self.preferences!r})"
        )

    def __reduce__(self):
        return self.__class__, (self.men, self.women, self.preferences)

    @property
    def n(self) -> int:
        return self.men + self.women

    def to_dict(self) -> dict:
        return {
            "men": self.men,
            "women": self.women,
            "preferences": {str(i): list(ps) for i, ps in sorted(self.preferences.items())},
        }


def _pair_game(spec: RoommateSpec | MarriageSpec) -> Game:
    # the spec has checked every partner id, so the pair masks need no
    # conversion; Game still checks the rankings
    rankings = {}
    for i, partners in spec.preferences.items():
        own = 1 << (i - 1)
        rankings[i] = [own | 1 << (p - 1) for p in partners] + [own]
    return Game(spec.n, rankings)


def roommate_to_game(spec: RoommateSpec) -> Game:
    return _pair_game(spec)


def marriage_to_game(spec: MarriageSpec) -> Game:
    return _pair_game(spec)


def converges_to_stability(
    g: Game, limit: int = DEFAULT_LIMIT, graph=None
) -> tuple[bool, tuple[int, ...] | None]:
    """Whether every structure can reach a stable one under domination.

    Returns ``(True, None)`` or ``(False, witness)`` with the least
    structure, by ``structure_key``, from which no stable structure is
    reachable. On a graph with no stable structure that is all agents
    single, the least structure, whether or not the graph holds it, as a
    closure need not. Otherwise the memoized SCCs are walked once in Tarjan's
    reverse topological order: a component reaches a stable structure when
    it holds one or has an edge into a component that reaches one. The
    verdict is cross-checked against triviality of the sink components; the
    two routes must agree.

    Without ``graph`` the verdict comes from ``factored_convergence``, per
    factor; with it, from that graph. A graph that holds a stable structure
    is taken to hold every structure: the witness is the least of its own
    nodes that reach none.
    """
    if graph is None:
        return factored_convergence(Analysis(g, limit))
    adj = graph.adj
    stuck = bool(graph.nodes) and all(adj)
    if stuck:
        stragglers = range(len(graph))
    else:
        comps = graph.sccs()
        comp_of = graph._comp_of
        good = [False] * len(comps)
        # every edge leaving a component points at a lower index
        for ci, comp in enumerate(comps):
            good[ci] = any(
                not adj[v] or any(good[comp_of[w]] for w, _ in adj[v]) for v in comp
            )
        stragglers = [v for v in range(len(graph)) if not good[comp_of[v]]]
    verdict = not stragglers

    trivial_sinks = all(a.trivial for a in sink_components(graph))
    if verdict != trivial_sinks:
        raise VerificationFailed(
            "reverse reachability disagrees with sink triviality"
        )
    if verdict:
        return True, None
    if stuck:
        return False, singleton_structure(g.n)
    if graph.key_ordered():
        return False, graph.nodes[stragglers[0]]
    return False, min((graph.nodes[v] for v in stragglers), key=structure_key)


def factored_convergence(an: Analysis) -> tuple[bool, tuple[int, ...] | None]:
    """``converges_to_stability`` of the analysis's game, decided per factor.

    The game converges exactly when every factor does. A factor without a
    graph is pair-only with a stable structure, which every structure
    reaches (see ``absorbing.Analysis``); every other factor is decided on
    its graph, with its own cross-check. The witness is the least, by
    ``structure_key``, of the failing factors' witnesses: setting the
    agents of other components single never moves a structure later in
    that order, so the least structure that cannot reach a stable one has
    non-single parts in one factor only, where it is that factor's least.
    """
    witnesses = []
    for f in an.factors:
        if f.graph is None:
            continue
        ok, witness = converges_to_stability(f.game, an.limit, graph=f.graph)
        if not ok:
            witnesses.append(witness)
    if not witnesses:
        return True, None
    return False, min(witnesses, key=structure_key)


def random_game(n: int, density: float = 0.35, seed: int | None = None) -> Game:
    """A random game: each coalition of two or more agents is permitted with
    probability ``density``, then every member ranks the chosen coalitions in
    an independently shuffled order with the singleton inserted uniformly."""
    if not isinstance(n, int) or not 1 <= n <= 16:
        raise MalformedSpec("random games support 1..16 agents")
    if not 0.0 <= density <= 1.0:
        raise MalformedSpec("density must lie in [0, 1]")
    rng = random.Random(seed)
    chosen = [
        mask
        for mask in range(1, 1 << n)
        if mask.bit_count() >= 2 and rng.random() < density
    ]
    rankings = {}
    for i in range(1, n + 1):
        mine = [c for c in chosen if c >> (i - 1) & 1]
        rng.shuffle(mine)
        mine.insert(rng.randint(0, len(mine)), 1 << (i - 1))
        rankings[i] = mine
    return Game(n, rankings)


def random_roommate_spec(
    n: int, density: float = 0.5, seed: int | None = None
) -> RoommateSpec:
    """Each unordered pair is mutually acceptable with probability
    ``density``; every agent ranks their acceptable partners in a random
    order."""
    if not isinstance(n, int) or not 1 <= n <= 63:
        raise MalformedSpec("roommate specs support 1..63 agents")
    if not 0.0 <= density <= 1.0:
        raise MalformedSpec("density must lie in [0, 1]")
    rng = random.Random(seed)
    partners: dict[int, list[int]] = {i: [] for i in range(1, n + 1)}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < density:
                partners[i].append(j)
                partners[j].append(i)
    for row in partners.values():
        rng.shuffle(row)
    return RoommateSpec(n, partners)


def random_marriage_spec(
    men: int, women: int, density: float = 0.7, seed: int | None = None
) -> MarriageSpec:
    """Each man-woman pair is mutually acceptable with probability
    ``density``; both sides rank their acceptable partners randomly."""
    if not isinstance(men, int) or not isinstance(women, int):
        raise MalformedSpec("side sizes must be integers")
    if not (1 <= men and 1 <= women and men + women <= 63):
        raise MalformedSpec("side sizes must be positive with at most 63 agents")
    if not 0.0 <= density <= 1.0:
        raise MalformedSpec("density must lie in [0, 1]")
    rng = random.Random(seed)
    partners: dict[int, list[int]] = {i: [] for i in range(1, men + women + 1)}
    for m in range(1, men + 1):
        for w in range(men + 1, men + women + 1):
            if rng.random() < density:
                partners[m].append(w)
                partners[w].append(m)
    for row in partners.values():
        rng.shuffle(row)
    return MarriageSpec(men, women, partners)
