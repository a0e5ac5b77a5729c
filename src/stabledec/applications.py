"""Matching-market front ends and convergence analysis.

Roommate and marriage specs list acceptable partners per agent; both reduce
to coalition formation games whose permissible coalitions are the mutually
acceptable pairs. ``converges_to_stability`` decides whether every structure
can reach a stable one, with a cross-check against sink triviality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import Game, coalition
from .errors import MalformedSpec, VerificationFailed
from .structures import DEFAULT_LIMIT, structure_key
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
        row = []
        for p in partners:
            if not isinstance(p, int) or not 1 <= p <= n:
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


@dataclass(frozen=True)
class RoommateSpec:
    """Pairwise matching among ``n`` agents; each lists acceptable partners
    in strictly descending order of preference."""

    n: int
    preferences: Mapping[int, Sequence[int]]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise MalformedSpec("agent count must be a positive integer")
        object.__setattr__(self, "preferences", _check_pref_table(self.n, self.preferences))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "preferences": {str(i): list(ps) for i, ps in sorted(self.preferences.items())},
        }


@dataclass(frozen=True)
class MarriageSpec:
    """Two-sided matching: men are agents ``1..men``, women are agents
    ``men+1..men+women``; partners must come from the opposite side."""

    men: int
    women: int
    preferences: Mapping[int, Sequence[int]]

    def __post_init__(self):
        if not isinstance(self.men, int) or not isinstance(self.women, int):
            raise MalformedSpec("side sizes must be integers")
        if self.men < 1 or self.women < 1:
            raise MalformedSpec("both sides need at least one agent")
        n = self.men + self.women
        table = _check_pref_table(n, self.preferences)
        for agent, row in table.items():
            for p in row:
                if (agent <= self.men) == (p <= self.men):
                    raise MalformedSpec(
                        f"agent {agent} lists partner {p} from its own side"
                    )
        object.__setattr__(self, "preferences", table)

    @property
    def n(self) -> int:
        return self.men + self.women

    def to_dict(self) -> dict:
        return {
            "men": self.men,
            "women": self.women,
            "preferences": {str(i): list(ps) for i, ps in sorted(self.preferences.items())},
        }


def roommate_to_game(spec: RoommateSpec) -> Game:
    rankings = {
        i: [coalition((i, p)) for p in spec.preferences[i]] + [coalition((i,))]
        for i in range(1, spec.n + 1)
    }
    return Game(spec.n, rankings)


def marriage_to_game(spec: MarriageSpec) -> Game:
    rankings = {
        i: [coalition((i, p)) for p in spec.preferences[i]] + [coalition((i,))]
        for i in range(1, spec.n + 1)
    }
    return Game(spec.n, rankings)


def converges_to_stability(
    g: Game, limit: int = DEFAULT_LIMIT, graph=None
) -> tuple[bool, tuple[int, ...] | None]:
    """Whether every structure can reach a stable one under domination.

    Returns ``(True, None)`` or ``(False, witness)`` with a structure from
    which no stable structure is reachable. Decided by reverse reachability
    from the stable structures and cross-checked against triviality of the
    sink components; the two routes must agree.

    Without ``graph`` the verdict comes from ``factored_convergence``, one
    graph per factor; with it, from that graph.
    """
    if graph is None:
        return factored_convergence(Analysis(g, limit))
    stable_ids = [v for v in range(len(graph)) if not graph.adj[v]]
    reached = [False] * len(graph)
    incoming: list[list[int]] = [[] for _ in range(len(graph))]
    for u in range(len(graph)):
        for v, _via in graph.adj[u]:
            incoming[v].append(u)
    frontier = list(stable_ids)
    for v in frontier:
        reached[v] = True
    while frontier:
        v = frontier.pop()
        for u in incoming[v]:
            if not reached[u]:
                reached[u] = True
                frontier.append(u)
    stragglers = [graph.nodes[v] for v in range(len(graph)) if not reached[v]]
    verdict = not stragglers

    trivial_sinks = all(a.trivial for a in sink_components(graph))
    if verdict != trivial_sinks:
        raise VerificationFailed(
            "reverse reachability disagrees with sink triviality"
        )
    if verdict:
        return True, None
    return False, min(stragglers, key=structure_key)


def factored_convergence(an: Analysis) -> tuple[bool, tuple[int, ...] | None]:
    """``converges_to_stability`` of the analysis's game, decided per factor.

    The game converges exactly when every factor does, and each factor
    keeps its own cross-check. The witness is the least, by
    ``structure_key``, of the failing factors' witnesses: setting the
    agents of other components single never moves a structure later in
    that order, so the least structure that cannot reach a stable one has
    non-single parts in one factor only, where it is that factor's least.
    """
    witnesses = []
    for f in an.factors:
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
