"""Agents, coalitions, preference profiles, and game parsing.

Agents are numbered ``1..n``. A coalition is a plain ``int`` bitmask with bit
``i-1`` set when agent ``i`` belongs, so set algebra is integer arithmetic and
the canonical order of coalitions is numeric order of the masks.
"""

from __future__ import annotations

import json
import re
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    AgentIdOutOfRange,
    AgentNotMember,
    InconsistentRanking,
    MalformedInput,
)

# Coalition masks are unbounded Python ints, so the representation needs no
# cap; this one only bounds the size of accepted input.
MAX_AGENTS = 63


def coalition(agents: Iterable[int]) -> int:
    """Build a coalition mask from agent ids."""
    mask = 0
    for a in agents:
        a = int(a)
        if a < 1:
            raise AgentIdOutOfRange(f"agent id {a} is out of range")
        mask |= 1 << (a - 1)
    return mask


def members(mask: int) -> tuple[int, ...]:
    """Agent ids of a coalition, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def singleton(i: int) -> int:
    return 1 << (i - 1)


def is_singleton(mask: int) -> bool:
    return mask.bit_count() == 1


def lowest_agent(mask: int) -> int:
    return (mask & -mask).bit_length()


def contains(mask: int, i: int) -> bool:
    return bool(mask >> (i - 1) & 1)


def intersects(a: int, b: int) -> bool:
    """Whether two coalitions share an agent."""
    return bool(a & b)


def render_coalition(mask: int) -> str:
    return "{" + ",".join(map(str, members(mask))) + "}"


def compact_coalition(mask: int, n: int) -> str:
    """Short rendering: digit string for games with single-digit agent ids."""
    if n <= 9:
        return "".join(map(str, members(mask)))
    return render_coalition(mask)


class Expansion(NamedTuple):
    """Per-game bitsets over the permissible set K that drive successor
    expansion; bit ``j`` stands for ``permissible[j]``.

    ``better[p]``, for every part ``p`` an agent can hold (their singleton
    or a K-coalition containing them), marks the coalitions that each member
    of ``p`` either ranks strictly above ``p`` or does not belong to, so the
    coalitions blocking a structure are the AND of ``better`` over its
    parts. ``meets[j]`` marks the K-coalitions sharing an agent with
    ``permissible[j]``.
    """

    bit: dict[int, int]
    better: dict[int, int]
    meets: tuple[int, ...]


class Game:
    """A coalition formation game with strict per-agent rankings.

    ``rankings[i-1]`` holds the coalition masks agent ``i`` listed, best
    first; the list always contains the singleton ``{i}``. Coalitions an
    agent did not list compare strictly below the singleton and among
    themselves by mask value, which keeps every agent's preference a strict
    total order over all own coalitions.

    ``permissible`` caches the set K: non-single coalitions that every
    member ranks strictly above their own singleton.
    """

    __slots__ = ("n", "rankings", "permissible", "_kset", "_pos", "_expansion")

    def __init__(self, n: int, rankings) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise MalformedInput(f"agent count must be a positive integer, got {n!r}")
        if n > MAX_AGENTS:
            raise MalformedInput(f"at most {MAX_AGENTS} agents are supported, got {n}")
        self.n = n
        self.rankings = self._normalize(n, rankings)
        self._pos = tuple(
            {c: p for p, c in enumerate(ranking)} for ranking in self.rankings
        )
        self.permissible = self._permissible_set()
        self._kset = frozenset(self.permissible)
        self._expansion = None

    @staticmethod
    def _normalize(n, rankings):
        if isinstance(rankings, Mapping):
            items = dict(rankings)
        else:
            items = {i + 1: rankings[i] for i in range(len(rankings))}
        for agent in items:
            if not (isinstance(agent, int) and 1 <= agent <= n):
                raise AgentIdOutOfRange(f"ranking row for agent {agent!r} is out of range 1..{n}")
        full = (1 << n) - 1
        out = []
        for i in range(1, n + 1):
            raw = items.get(i, ())
            if not raw:
                # absent or empty row: the agent accepts only their singleton
                out.append((singleton(i),))
                continue
            ranking = []
            seen = set()
            for entry in raw:
                mask = entry if isinstance(entry, int) else coalition(entry)
                if mask == 0:
                    raise InconsistentRanking(f"agent {i} ranked an empty coalition")
                if mask & ~full:
                    raise AgentIdOutOfRange(
                        f"agent {i} ranked coalition {render_coalition(mask)} with ids above {n}"
                    )
                if not contains(mask, i):
                    raise InconsistentRanking(
                        f"agent {i} ranked coalition {render_coalition(mask)} not containing them"
                    )
                if mask in seen:
                    raise InconsistentRanking(
                        f"agent {i} ranked coalition {render_coalition(mask)} twice"
                    )
                seen.add(mask)
                ranking.append(mask)
            if singleton(i) not in seen:
                raise InconsistentRanking(f"agent {i}'s ranking omits their singleton")
            out.append(tuple(ranking))
        return tuple(out)

    def _permissible_set(self) -> tuple[int, ...]:
        cands = set()
        for ranking in self.rankings:
            cands.update(c for c in ranking if c.bit_count() >= 2)
        ks = []
        for c in cands:
            if all(self._key(i, c) < self._key(i, singleton(i)) for i in members(c)):
                ks.append(c)
        return tuple(sorted(ks))

    def _key(self, i: int, c: int):
        # Listed coalitions sort by position; unlisted ones after all listed,
        # mutually by mask value.
        pos = self._pos[i - 1].get(c)
        return (0, pos) if pos is not None else (1, c)

    def ranking_of(self, i: int) -> tuple[int, ...]:
        if not 1 <= i <= self.n:
            raise AgentIdOutOfRange(f"agent id {i} is out of range")
        return self.rankings[i - 1]

    def expansion(self) -> Expansion:
        if self._expansion is None:
            ks = self.permissible
            bit = {c: 1 << j for j, c in enumerate(ks)}
            full = (1 << len(ks)) - 1
            holding = [0] * (self.n + 1)
            for c, b in bit.items():
                for i in members(c):
                    holding[i] |= b
            better: dict[int, int] = {}
            for i, ranking in enumerate(self.rankings, 1):
                # best-first walk: every K-coalition containing i is listed
                # above their singleton, so the walk ends there
                outside = full & ~holding[i]
                above = 0
                for c in ranking:
                    b = bit.get(c)
                    if b is None and c != singleton(i):
                        continue
                    better[c] = better.get(c, full) & (above | outside)
                    if b is None:
                        break
                    above |= b
            meets = []
            for c in ks:
                m = 0
                for i in members(c):
                    m |= holding[i]
                meets.append(m)
            self._expansion = Expansion(bit, better, tuple(meets))
        return self._expansion

    def to_dict(self) -> dict:
        return {
            "agents": self.n,
            "preferences": {
                str(i): [list(members(c)) for c in self.rankings[i - 1]]
                for i in range(1, self.n + 1)
            },
        }

    def __eq__(self, other):
        return (
            isinstance(other, Game)
            and self.n == other.n
            and self.rankings == other.rankings
        )

    def __hash__(self):
        return hash((self.n, self.rankings))

    def __repr__(self):
        return f"Game(n={self.n}, |K|={len(self.permissible)})"


def game_from_dict(obj) -> Game:
    """Build a game from the JSON object form."""
    if not isinstance(obj, Mapping):
        raise MalformedInput("game object must be a mapping")
    if "agents" not in obj:
        raise MalformedInput("game object lacks an 'agents' field")
    n = obj["agents"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise MalformedInput(f"'agents' must be an integer, got {n!r}")
    prefs = obj.get("preferences", {})
    if not isinstance(prefs, Mapping):
        raise MalformedInput("'preferences' must be a mapping")
    rankings: dict[int, list] = {}
    for key, ranking in prefs.items():
        try:
            agent = int(key)
        except (TypeError, ValueError):
            raise MalformedInput(f"preference key {key!r} is not an agent id") from None
        if not 1 <= agent <= (n if n >= 1 else 0):
            raise AgentIdOutOfRange(f"preference key {agent} is out of range 1..{n}")
        if not isinstance(ranking, Sequence) or isinstance(ranking, (str, bytes)):
            raise MalformedInput(f"agent {agent}'s ranking must be a list")
        entries = []
        for entry in ranking:
            if not isinstance(entry, Sequence) or isinstance(entry, (str, bytes)):
                raise MalformedInput(
                    f"agent {agent}'s ranking entries must be lists of agent ids"
                )
            for a in entry:
                if not isinstance(a, int) or isinstance(a, bool):
                    raise MalformedInput(f"agent id {a!r} is not an integer")
            entries.append(tuple(entry))
        rankings[agent] = entries
    return Game(n, rankings)


def parse_game_json(text: str) -> Game:
    """Parse a game from its JSON text form."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from None
    return game_from_dict(obj)


_DSL_HEADER = re.compile(r"^agents\s*:\s*(\d+)\s*$")
_DSL_LINE = re.compile(r"^(\d)\s*:(.*)$")


def parse_game_dsl(text: str) -> Game:
    """Parse the compact text form for games with at most 9 agents.

    Header line ``agents: n`` followed by one line per agent, e.g.
    ``1: 12 | 123 | 15 | 1`` with coalitions as digit strings, best first.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MalformedInput("empty game text")
    header = _DSL_HEADER.match(lines[0])
    if not header:
        raise MalformedInput("game text must start with an 'agents: n' line")
    n = int(header.group(1))
    if not 1 <= n <= 9:
        raise MalformedInput("the text form supports 1..9 agents")
    rankings: dict[int, list] = {}
    for ln in lines[1:]:
        m = _DSL_LINE.match(ln)
        if not m:
            raise MalformedInput(f"unparseable ranking line: {ln!r}")
        agent = int(m.group(1))
        if agent in rankings:
            raise MalformedInput(f"duplicate ranking line for agent {agent}")
        entries = []
        for token in m.group(2).split("|"):
            token = token.strip()
            if not token:
                raise MalformedInput(f"empty coalition in line: {ln!r}")
            if not token.isdigit():
                raise MalformedInput(f"coalition {token!r} is not a digit string")
            entries.append(tuple(int(ch) for ch in token))
        rankings[agent] = entries
    return Game(n, rankings)


def prefers(g: Game, i: int, c: int, c2: int) -> bool:
    """Whether agent ``i`` strictly prefers coalition ``c`` to ``c2``."""
    if not 1 <= i <= g.n:
        raise AgentIdOutOfRange(f"agent id {i} is out of range")
    if not contains(c, i):
        raise AgentNotMember(f"agent {i} is not in {render_coalition(c)}")
    if not contains(c2, i):
        raise AgentNotMember(f"agent {i} is not in {render_coalition(c2)}")
    return g._key(i, c) < g._key(i, c2)


def unanimously_prefers(g: Game, c: int, c2: int) -> bool:
    """Whether every agent in both coalitions strictly prefers ``c``.

    Vacuously true when the coalitions are disjoint; use :func:`intersects`
    to tell those cases apart.
    """
    return all(prefers(g, i, c, c2) for i in members(c & c2))


def transitively_prefers(g: Game, c: int, c2: int, universe: Iterable[int]) -> bool:
    """Whether a chain of unanimous improvements inside ``universe`` leads
    from ``c2`` to ``c``.

    Chains must have at least one step and consecutive coalitions must share
    an agent, so ``transitively_prefers(g, c, c, u)`` holds exactly when
    ``c`` lies on a preference cycle within ``u``.
    """
    uni = set(universe)
    frontier = [c2]
    seen = set()
    while frontier:
        nxt = []
        for d in frontier:
            for e in uni:
                if e in seen or not (d & e):
                    continue
                if unanimously_prefers(g, e, d):
                    if e == c:
                        return True
                    seen.add(e)
                    nxt.append(e)
        frontier = nxt
    return False
