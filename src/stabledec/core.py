"""Agents, coalitions, preference profiles, and game parsing.

Agents are numbered ``1..n``. A coalition is a plain ``int`` bitmask with bit
``i-1`` set when agent ``i`` belongs, so set algebra is integer arithmetic and
the canonical order of coalitions is numeric order of the masks.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence

from .errors import (
    AgentIdOutOfRange,
    AgentNotMember,
    InconsistentRanking,
    MalformedInput,
)

# Coalition masks are unbounded Python ints, so the representation needs no
# cap; this one only bounds the size of accepted input.
MAX_AGENTS = 63

# The records are plain ``__slots__`` classes on one base, ``_Record``: each
# keeps its own ``__init__``, which sets every field once through
# ``_setattr``, and names its constructor parameters in ``_fields``; the base
# derives equality, the hash, the repr and pickling from that tuple.
# Importing ``dataclasses`` would cost every command more start-up than the
# base costs to write.
_setattr = object.__setattr__


class _Record:
    """Base of the records. ``_fields`` names the constructor's parameters
    in order, and pickling passes every one of them back to it. Equality,
    the hash and the repr read the first ``_shown`` of them (all when
    ``None``); equality holds only between records of one class."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _shown: int | None = None

    def _key(self) -> tuple:
        return tuple([getattr(self, k) for k in self._fields[: self._shown]])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._fields[: self._shown])
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, k) for k in self._fields])


class _Frozen(_Record):
    """Base of the immutable records: assigning or deleting a field raises
    ``AttributeError``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def coalition(agents: Iterable[int]) -> int:
    """Build a coalition mask from agent ids, each an ``int`` and not a
    ``bool``, in ``1..MAX_AGENTS``: an id far above any game is refused
    before the mask is shifted by it."""
    mask = 0
    for a in agents:
        if not isinstance(a, int) or isinstance(a, bool):
            raise MalformedInput(f"agent id {a!r} is not an integer")
        if not 0 < a <= MAX_AGENTS:
            raise AgentIdOutOfRange(f"agent id {a} is out of range")
        mask |= 1 << (a - 1)
    return mask


def _entry_ids(entry) -> Iterator:
    """The items of a coalition entry that is not a mask, unchecked."""
    try:
        return iter(entry)
    except TypeError:
        raise MalformedInput(
            f"coalition entry {entry!r} is not a mask or a list of agent ids"
        ) from None


def _entry_mask(entry) -> int:
    """A coalition entry as its mask: an ``int`` mask that is not a
    ``bool``, or an iterable of agent ids (``coalition``)."""
    if isinstance(entry, int) and not isinstance(entry, bool):
        return entry
    return coalition(_entry_ids(entry))


def _agent_key(key) -> int | None:
    """The agent id a preference key names: an ``int`` that is not a
    ``bool``, or a string of ASCII digits; ``None`` for any other key."""
    if isinstance(key, str):
        if not (key.isascii() and key.isdigit()):
            return None
        try:
            return int(key)
        except ValueError:  # more digits than int() converts: no agent's id
            return None
    if isinstance(key, int) and not isinstance(key, bool):
        return int(key)
    return None


def members(mask: int) -> tuple[int, ...]:
    """Agent ids of a coalition, ascending."""
    if mask < 0:
        raise MalformedInput(f"coalition mask {mask} is negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def singleton(i: int) -> int:
    return 1 << (i - 1)


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


class Expansion(namedtuple("Expansion", "bit better meets")):
    """Per-game bitsets over the permissible set K that drive successor
    expansion; bit ``j`` stands for ``permissible[j]``.

    ``better[p]``, for every part ``p`` an agent can hold (their singleton
    or a K-coalition containing them), marks the coalitions that each member
    of ``p`` either ranks strictly above ``p`` or does not belong to, so the
    coalitions blocking a structure are the AND of ``better`` over its
    parts. ``meets[j]`` marks the K-coalitions sharing an agent with
    ``permissible[j]``.

    For K-coalitions ``c`` and ``m`` that share an agent, ``better[m] &
    bit[c]`` is nonzero exactly when ``unanimously_prefers(g, c, m)``. So
    the breakers of a maximal set are the AND of ``better`` over it, met
    with the OR of its ``meets`` (``structures._bron_kerbosch``), and a
    coalition ``d`` dissents from ``c`` exactly when ``bit[c]`` lies in
    ``meets[j(d)] & ~better[d]`` (``decomposition._prevention``).
    """

    __slots__ = ()
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
        self.rankings, self._pos, self.permissible = self._normalize(n, rankings)
        self._kset = frozenset(self.permissible)
        self._expansion = None

    @staticmethod
    def _normalize(n, rankings):
        """The rankings as mask tuples, their position tables and the
        permissible set, from one pass that checks each entry once. An entry
        is a mask or an iterable of agent ids (``_entry_mask``)."""
        if isinstance(rankings, Mapping):
            items = dict(rankings)
        else:
            items = {i + 1: rankings[i] for i in range(len(rankings))}
        for agent in items:
            if isinstance(agent, bool) or not (isinstance(agent, int) and 1 <= agent <= n):
                raise AgentIdOutOfRange(f"ranking row for agent {agent!r} is out of range 1..{n}")
        outside = ~((1 << n) - 1)
        out = []
        positions = []
        # how many members list each coalition above their singleton
        count: dict[int, int] = {}
        for i in range(1, n + 1):
            own = 1 << (i - 1)
            raw = items.get(i, ())
            if not raw:
                # absent or empty row: the agent accepts only their singleton
                out.append((own,))
                positions.append({own: 0})
                continue
            # the position table doubles as the duplicate check
            pos: dict[int, int] = {}
            above = True
            for entry in raw:
                if type(entry) is not int:
                    ids = list(_entry_ids(entry))
                    entry = coalition(a for a in ids if type(a) is not int or a <= n)
                    if any(type(a) is int and a > n for a in ids):
                        # shown from the ids: one may be above the cap of coalition
                        shown = ",".join(map(str, sorted({int(a) for a in ids})))
                        raise AgentIdOutOfRange(
                            f"agent {i} ranked coalition {{{shown}}} with ids above {n}"
                        )
                if entry <= 0:
                    if entry:
                        raise MalformedInput(f"agent {i} ranked negative mask {entry}")
                    raise InconsistentRanking(f"agent {i} ranked an empty coalition")
                if entry & outside:
                    raise AgentIdOutOfRange(
                        f"agent {i} ranked coalition {render_coalition(entry)} with ids above {n}"
                    )
                if not entry & own:
                    raise InconsistentRanking(
                        f"agent {i} ranked coalition {render_coalition(entry)} not containing them"
                    )
                if entry in pos:
                    raise InconsistentRanking(
                        f"agent {i} ranked coalition {render_coalition(entry)} twice"
                    )
                pos[entry] = len(pos)
                if above:
                    if entry == own:
                        above = False
                    else:
                        count[entry] = count.get(entry, 0) + 1
            if above:
                raise InconsistentRanking(f"agent {i}'s ranking omits their singleton")
            out.append(tuple(pos))
            positions.append(pos)
        # a coalition is permissible when each of its members lists it above
        # their singleton: rankings hold each own coalition at most once
        permissible = tuple(sorted(c for c, k in count.items() if k == c.bit_count()))
        return tuple(out), tuple(positions), permissible

    @classmethod
    def _trusted(cls, positions: tuple, permissible: tuple[int, ...]) -> Game:
        """The game of checked position tables, one per agent, and of their
        permissible set, ascending: what ``_normalize`` would return for
        them, taken with no second validation. Each table maps the agent's
        own coalitions, best first, to their positions and ends at the
        agent's singleton; an entry above the singleton need not be
        permissible (a pair only one partner lists), as the readers of the
        rankings skip every entry outside K."""
        g = cls.__new__(cls)
        g.n = len(positions)
        g.rankings = tuple([tuple(pos) for pos in positions])
        g._pos = positions
        g.permissible = permissible
        g._kset = frozenset(permissible)
        g._expansion = None
        return g

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
            # holding[i]: the K-bits of the coalitions containing agent i + 1
            holding = []
            better: dict[int, int] = {}
            for i, ranking in enumerate(self.rankings):
                own = 1 << i
                # every K-coalition of the agent is listed above their
                # singleton, so one worst-first walk of that prefix finds
                # them all; ``held`` gathers those ranked at or below ``c``,
                # the ones the agent does not rank strictly above it
                held = 0
                for c in reversed(ranking[: self._pos[i][own]]):
                    b = bit.get(c)
                    if b is not None:
                        held |= b
                        better[c] = better.get(c, full) & ~held
                holding.append(held)
                # alone, the agent ranks every K-coalition of theirs higher
                better[own] = full
            meets = []
            for c in ks:
                m = 0
                while c:
                    low = c & -c
                    m |= holding[low.bit_length() - 1]
                    c ^= low
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
    # Every type fault is reported before any ranking fault, which Game
    # reports in agent order. So an entry is passed on as its mask only when
    # each id is a plain int in 1..MAX_AGENTS; any other entry goes on as its
    # id tuple, for Game to convert or reject in turn. Exact-type tests come
    # first; the Sequence and isinstance tests decide what they do not pass.
    rankings: dict[int, list] = {}
    for key, ranking in prefs.items():
        agent = _agent_key(key)
        if agent is None:
            raise MalformedInput(f"preference key {key!r} is not an agent id")
        if not 1 <= agent <= (n if n >= 1 else 0):
            raise AgentIdOutOfRange(f"preference key {agent} is out of range 1..{n}")
        if agent in rankings:
            raise MalformedInput(f"agent {agent} listed twice")
        if type(ranking) is not list and not _is_list_like(ranking):
            raise MalformedInput(f"agent {agent}'s ranking must be a list")
        entries = []
        for entry in ranking:
            if type(entry) is not list and not _is_list_like(entry):
                raise MalformedInput(
                    f"agent {agent}'s ranking entries must be lists of agent ids"
                )
            mask = 0
            as_ids = False
            for a in entry:
                if type(a) is not int or not 0 < a <= MAX_AGENTS:
                    if not isinstance(a, int) or isinstance(a, bool):
                        raise MalformedInput(f"agent id {a!r} is not an integer")
                    as_ids = True
                    continue
                mask |= 1 << (a - 1)
            entries.append(tuple(entry) if as_ids else mask)
        rankings[agent] = entries
    return Game(n, rankings)


def _is_list_like(obj) -> bool:
    return isinstance(obj, Sequence) and not isinstance(obj, (str, bytes))


_DSL_HEADER = re.compile(r"^agents\s*:\s*(\d+)\s*$", re.ASCII)
_DSL_LINE = re.compile(r"^(\d)\s*:(.*)$", re.ASCII)


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
    # one significant digit: int() refuses a count of more than
    # sys.get_int_max_str_digits() digits with a plain ValueError
    digits = header.group(1).lstrip("0")
    if len(digits) != 1:
        raise MalformedInput("the text form supports 1..9 agents")
    n = int(digits)
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
            if not (token.isascii() and token.isdigit()):
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
