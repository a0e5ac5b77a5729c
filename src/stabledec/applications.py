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

from .core import MAX_AGENTS, Game, _agent_key, _Frozen, _is_list_like, _setattr
from .errors import MalformedSpec, VerificationFailed
from .structures import DEFAULT_LIMIT, singleton_structure, structure_key
from .absorbing import Analysis, _merge


def _check_pref_table(
    n: int, preferences: Mapping
) -> tuple[dict[int, list[int]], tuple[dict[int, int], ...]]:
    """The checked partner lists, with a row for every agent, and each
    agent's position table: their pair masks, best first, then their
    singleton. The table is built as the partners are checked and doubles
    as the duplicate check."""
    # the table gets a row for every agent: refuse a count beyond the cap
    # before building any
    if n > MAX_AGENTS:
        raise MalformedSpec(f"at most {MAX_AGENTS} agents are supported, got {n}")
    if not isinstance(preferences, Mapping):
        raise MalformedSpec("preferences must map agents to partner lists")
    table: dict[int, list[int]] = {}
    positions: list[dict[int, int] | None] = [None] * n
    for key, partners in preferences.items():
        agent = _agent_key(key)
        if agent is None:
            raise MalformedSpec(f"bad agent id {key!r}")
        if not 1 <= agent <= n:
            raise MalformedSpec(f"agent id {agent} is out of range")
        if agent in table:
            raise MalformedSpec(f"agent {agent} listed twice")
        if type(partners) is not list and not _is_list_like(partners):
            raise MalformedSpec(f"agent {agent}'s partners must be a list")
        own = 1 << (agent - 1)
        row = []
        pos: dict[int, int] = {}
        for p in partners:
            # the exact-type test first: partners are nearly always plain ints
            if (
                type(p) is not int and (isinstance(p, bool) or not isinstance(p, int))
                or not 1 <= p <= n
            ):
                raise MalformedSpec(f"agent {agent} lists invalid partner {p!r}")
            if p == agent:
                raise MalformedSpec(f"agent {agent} lists itself as a partner")
            pair = own | 1 << (p - 1)
            if pair in pos:
                raise MalformedSpec(f"agent {agent} lists partner {p} twice")
            pos[pair] = len(row)
            row.append(p)
        pos[own] = len(row)
        table[agent] = row
        positions[agent - 1] = pos
    for agent in range(1, n + 1):
        if positions[agent - 1] is None:
            table[agent] = []
            positions[agent - 1] = {1 << (agent - 1): 0}
    return table, tuple(positions)


class RoommateSpec(_Frozen):
    """Pairwise matching among ``n`` agents; each lists acceptable partners
    in strictly descending order of preference. Checked when built;
    ``preferences`` is then a dict of partner lists with a row for every
    agent. The position tables of the check are kept for ``_pair_game`` in
    a slot outside ``_fields``, so equality, the hash, the repr and
    pickling, which builds the spec anew, ignore them. The game is built
    from those tables: a later change to ``preferences`` does not reach
    it."""

    __slots__ = ("n", "preferences", "_tables")
    _fields = ("n", "preferences")
    # unhashable, as the preferences dict is
    __hash__ = None

    def __init__(self, n: int, preferences: Mapping[int, Sequence[int]]) -> None:
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise MalformedSpec("agent count must be a positive integer")
        table, tables = _check_pref_table(n, preferences)
        _setattr(self, "n", n)
        _setattr(self, "preferences", table)
        _setattr(self, "_tables", tables)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "preferences": {str(i): list(ps) for i, ps in sorted(self.preferences.items())},
        }


class MarriageSpec(_Frozen):
    """Two-sided matching: men are agents ``1..men``, women are agents
    ``men+1..men+women``; partners must come from the opposite side.
    Checked when built, and keeps its position tables, as ``RoommateSpec``
    does."""

    __slots__ = ("men", "women", "preferences", "_tables")
    _fields = ("men", "women", "preferences")
    # unhashable, as the preferences dict is
    __hash__ = None

    def __init__(self, men: int, women: int, preferences: Mapping[int, Sequence[int]]) -> None:
        if any(isinstance(k, bool) or not isinstance(k, int) for k in (men, women)):
            raise MalformedSpec("side sizes must be integers")
        if men < 1 or women < 1:
            raise MalformedSpec("both sides need at least one agent")
        table, tables = _check_pref_table(men + women, preferences)
        for agent, row in table.items():
            for p in row:
                if (agent <= men) == (p <= men):
                    raise MalformedSpec(
                        f"agent {agent} lists partner {p} from its own side"
                    )
        _setattr(self, "men", men)
        _setattr(self, "women", women)
        _setattr(self, "preferences", table)
        _setattr(self, "_tables", tables)

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
    # the spec's checked position tables are the game's; each pair is taken
    # from its lower agent's table (``c >> (i + 1)``: its other agent is
    # higher) and is permissible when the other agent's table holds it too
    tables = spec._tables
    permissible = sorted(
        c for i, pos in enumerate(tables) for c in pos
        if c >> (i + 1) and c in tables[c.bit_length() - 1]
    )
    return Game._trusted(tables, tuple(permissible))


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
    closure need not. Otherwise the graph's memoized SCCs are walked once in
    Tarjan's reverse topological order: a component reaches a stable
    structure when it holds one or has an edge into a component that
    reaches one. The verdict is cross-checked against the sinks of the same
    Tarjan pass (``DominationGraph.sinks``): it holds exactly when every
    sink has one member.

    Without ``graph`` the verdict comes from ``factored_convergence``, per
    factor; with it, from that graph. A graph that holds a stable structure
    is taken to hold every structure: the witness is the least of its own
    nodes that reach none, by the graph's ``order``.
    """
    if graph is None:
        return factored_convergence(Analysis(g, limit))
    succ = graph.succ
    stuck = bool(graph.nodes) and all(succ)
    if stuck:
        stragglers = range(len(graph))
    else:
        comps = graph.sccs()
        comp_of = graph.comp_of()
        good = [False] * len(comps)
        # every edge leaving a component points at a lower index
        for ci, comp in enumerate(comps):
            good[ci] = any(
                not succ[v] or any(good[comp_of[w]] for w in succ[v]) for v in comp
            )
        stragglers = [v for v in range(len(graph)) if not good[comp_of[v]]]
    verdict = not stragglers

    if verdict != all(len(comp) == 1 for comp in graph.sinks()):
        raise VerificationFailed(
            "reverse reachability disagrees with sink triviality"
        )
    if verdict:
        return True, None
    if stuck:
        return False, singleton_structure(g.n)
    return False, min((graph.nodes[v] for v in stragglers), key=graph.order)


def factored_convergence(an: Analysis) -> tuple[bool, tuple[int, ...] | None]:
    """``converges_to_stability`` of the analysis's game, decided per factor.

    The game converges exactly when every factor does. A factor without a
    graph is pair-only with a stable structure, which every structure
    reaches (see ``absorbing.Analysis``); every other factor is decided on
    its graph, with its own cross-check. Each failing factor's witness is
    lifted to the whole game (``Analysis.lifts``), every agent outside the
    factor single; the lift keeps the order of ``structure_key``. The
    witness is the least of them by that order: setting the agents of other
    components single never moves a structure later in it, so the least
    structure that cannot reach a stable one has non-single parts in one
    factor only, where it is that factor's least.
    """
    full = (1 << an.game.n) - 1
    witnesses = []
    for f, lift in zip(an.factors, an.lifts):
        if f.graph is None:
            continue
        ok, witness = converges_to_stability(f.game, graph=f.graph)
        if not ok:
            if lift is not None:
                witness = _merge(full, [[lift[p] for p in witness if p & (p - 1)]])
            witnesses.append(witness)
    if not witnesses:
        return True, None
    return False, min(witnesses, key=structure_key)


def _check_density(density) -> None:
    """Raise ``MalformedSpec`` unless ``density`` is a real number, not a
    bool, in [0, 1]."""
    # imported here: only the generators need it, and the command line
    # starts without it
    from numbers import Real

    if isinstance(density, bool) or not isinstance(density, Real):
        raise MalformedSpec("density must be a real number")
    if not 0.0 <= density <= 1.0:
        raise MalformedSpec("density must lie in [0, 1]")


def random_game(n: int, density: float = 0.35, seed: int | None = None) -> Game:
    """A random game: each coalition of two or more agents is permitted with
    probability ``density``, then every member ranks the chosen coalitions in
    an independently shuffled order with the singleton inserted uniformly."""
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= 16:
        raise MalformedSpec("random games support 1..16 agents")
    _check_density(density)
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
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= 63:
        raise MalformedSpec("roommate specs support 1..63 agents")
    _check_density(density)
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
    if any(isinstance(k, bool) or not isinstance(k, int) for k in (men, women)):
        raise MalformedSpec("side sizes must be integers")
    if not (1 <= men and 1 <= women and men + women <= 63):
        raise MalformedSpec("side sizes must be positive with at most 63 agents")
    _check_density(density)
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
