"""The game sets of the test suite and the sweeps, and one build per game.

Every test module and sweep takes its games from here and its references
from ``oracle.py``, never from another ``test_*`` module. A game set maps a
label to a ``make()`` that builds the game; labels are unique within a set
only. ``build(g)`` holds a game's full domination graph, its ``Analysis``
and the graphs grown from parts of its structures, each worked out once
per session, so that every layer's check over the same game reads the same
build. Checks only read a build: a test that patches the library reads
what it needs of a build before patching, and a test that mutates a graph
builds its own.

The worked examples have single-digit agent ids (the ten-agent roommate
instance calls its last agent 10, which only shows up in rendered output),
so tests spell coalitions as digit strings and structures as
space-separated digit strings.
"""

from __future__ import annotations

import functools
import random

from stabledec import (
    Analysis,
    Game,
    RoommateSpec,
    coalition,
    enumerate_structures,
    factored_decompositions,
    full_domination_graph,
    grow_graph,
    is_stable,
    marriage_to_game,
    members,
    random_game,
    random_marriage_spec,
    random_roommate_spec,
    roommate_to_game,
    structure_from_parts,
)


def C(token: str) -> int:
    """Coalition mask from a digit string, '467' -> {4,6,7}; 'a' is 10."""
    return coalition(int(ch, 16) for ch in token)


def parts(text: str) -> list[tuple[int, ...]]:
    return [tuple(int(ch) for ch in tok) for tok in text.split()]


def make_structure(g: Game, text: str) -> tuple[int, ...]:
    """Canonical structure from a digit-string spelling, '12 34 5 67'."""
    return structure_from_parts(g, parts(text))


# --- builders ---------------------------------------------------------------


def rnd(n: int, density: float, seed: int) -> Game:
    return random_game(n, density, seed)


def room(n: int, density: float, seed: int) -> Game:
    return roommate_to_game(random_roommate_spec(n, density, seed))


def mar(men: int, women: int, density: float, seed: int) -> Game:
    return marriage_to_game(random_marriage_spec(men, women, density, seed))


def union(*games: Game, isolated: int = 0) -> Game:
    """The games side by side on consecutive agent ids, followed by
    ``isolated`` agents that rank only their singleton."""
    rows = {}
    offset = 0
    for game in games:
        for i, ranking in enumerate(game.rankings, 1):
            rows[i + offset] = [c << offset for c in ranking]
        offset += game.n
    return Game(offset + isolated, rows)


def relabel(g: Game, seed: int) -> Game:
    """The game with its agents renumbered by a seeded permutation, so that
    components interleave in agent order."""
    perm = list(range(1, g.n + 1))
    random.Random(seed).shuffle(perm)

    def move(c):
        return coalition(perm[i - 1] for i in members(c))

    rows = {perm[i - 1]: [move(c) for c in g.rankings[i - 1]] for i in range(1, g.n + 1)}
    return Game(g.n, rows)


def split_market(seed: int) -> Game:
    """A split-markets benchmark game: random, roommate and 3x3 marriage
    games of six agents each, side by side."""
    return union(rnd(6, 0.6, seed), room(6, 0.6, seed), mar(3, 3, 0.6, seed))


def pair_game(n: int, seed: int) -> Game:
    """A pair-only game whose rankings list unacceptable coalitions: each
    agent ranks a random set of their pairs with the singleton inserted at
    a random place, so some listed pairs fall below it, and then every
    triple they belong to, all below the singleton."""
    rng = random.Random(seed)
    rows = {}
    for i in range(1, n + 1):
        pairs = [coalition((i, j)) for j in range(1, n + 1) if j != i and rng.random() < 0.8]
        rng.shuffle(pairs)
        pairs.insert(rng.randint(0, len(pairs)), coalition((i,)))
        triples = [
            coalition((i, j, k))
            for j in range(1, n + 1)
            for k in range(j + 1, n + 1)
            if i not in (j, k)
        ]
        rows[i] = pairs + triples
    return Game(n, rows)


_NO_STABLE: dict[int, list[int]] = {}


def no_stable_roommates(n: int, count: int) -> list[int]:
    """The first ``count`` seeds of ``random_roommate_spec(n, 0.7)`` with no
    stable matching, by enumeration and ``is_stable``."""
    seeds = _NO_STABLE.setdefault(n, [])
    seed = seeds[-1] + 1 if seeds else 0
    while len(seeds) < count:
        g = room(n, 0.7, seed)
        if not any(is_stable(g, pi) for pi in enumerate_structures(g)):
            seeds.append(seed)
        seed += 1
    return seeds[:count]


# --- one build per game -----------------------------------------------------


class Build:
    """A game with the objects its checks read, each worked out on first
    use: the full domination graph, the ``Analysis``, its stable
    decompositions, and the graphs grown from strict subsets of its
    structures."""

    def __init__(self, game: Game) -> None:
        self.game = game
        self._partial: dict[int, object] = {}

    @functools.cached_property
    def graph(self):
        return full_domination_graph(self.game)

    @functools.cached_property
    def analysis(self) -> Analysis:
        return Analysis(self.game)

    @functools.cached_property
    def decompositions(self):
        return factored_decompositions(self.analysis)

    def partial_graph(self, k: int):
        """Graph ``k`` of the graphs grown from strict subsets of the
        structures: 0 from the upper half in key order, 1 from the greatest
        structure alone, 2 from the least alone."""
        if k not in self._partial:
            structs = list(enumerate_structures(self.game))
            seeds = (structs[len(structs) // 2 :], structs[-1:], structs[:1])[k]
            self._partial[k] = grow_graph(self.game, seeds)
        return self._partial[k]

    @property
    def partial_graphs(self):
        return [self.partial_graph(k) for k in range(3)]


@functools.cache
def build(g: Game) -> Build:
    """The session's one build of the game (games are equal by rankings)."""
    return Build(g)


# --- the worked examples ----------------------------------------------------

# seven agents, one simple five-coalition ring component; the README's
# command line example
SEVEN = Game(
    7,
    {i: [C(t) for t in row.split()] for i, row in enumerate(
        ["12 123 15 1", "23 123 12 2", "34 123 23 3", "467 45 34 4", "15 45 5", "67 467 6",
         "467 67 7"], 1)},
)

# eight agents, one ring component that is not simple
EIGHT = Game(
    8,
    {
        1: parts("12 145 1"),
        2: parts("23 12 2"),
        3: parts("356 23 3"),
        4: parts("145 46 4"),
        5: parts("356 145 5"),
        6: parts("678 46 356 6"),
        7: parts("78 678 7"),
        8: parts("678 78 8"),
    },
)

# six agents, two ring components, no stable structure
SIX = Game(
    6,
    {
        1: parts("12 13 1"),
        2: parts("23 12 2"),
        3: parts("34 13 23 3"),
        4: parts("45 46 34 4"),
        5: parts("56 45 5"),
        6: parts("46 56 6"),
    },
)

# ten-agent roommate instance; agent 10 finds nobody acceptable
ROOMMATE10 = {
    1: [2, 3, 4, 5, 6, 7, 8, 9],
    2: [3, 1, 4, 5, 6, 7, 8, 9],
    3: [1, 2, 4, 5, 6, 7, 8, 9],
    4: [7, 8, 9, 5, 6, 1, 2, 3],
    5: [8, 9, 7, 4, 6],
    6: [9, 7, 8, 4],
    7: [5, 6, 1, 4, 9, 8],
    8: [6, 4, 5, 7, 9],
    9: [4, 5, 6, 7, 8],
    10: [],
}

# three-by-three marriage market with two even rings
MARRIAGE33 = {
    1: [4, 6],
    2: [4, 5],
    3: [6, 5, 4],
    4: [3, 1, 2],
    5: [2, 3],
    6: [1, 3],
}

# agents 1-3 chase each other through pairs: four structures, one
# non-trivial absorbing set of three
TRIANGLE = roommate_to_game(RoommateSpec(3, {1: [2, 3], 2: [3, 1], 3: [1, 2]}))

# the five-structure domination cycle of the seven-agent game, in cycle order
CYCLE7 = ["12 34 5 67", "12 3 45 67", "1 23 45 67", "15 23 4 67", "15 2 34 67"]

# the ring components of the seven- and eight-agent games
RC7 = ("12", "23", "34", "45", "15")
RC8 = ("145", "12", "23", "356", "46")


# --- seeded games of every front end ----------------------------------------

# label -> make; the fuzz games of random (n = 7), roommate (n = 8, 9) and
# marriage (3x3 to 5x5) front ends
FUZZ_GAMES = {
    **{f"random7-{s}": (lambda s=s: rnd(7, 0.5, s)) for s in range(1, 201)},
    **{f"roommate8-{s}": (lambda s=s: room(8, 0.7, s)) for s in range(1, 61)},
    **{f"roommate9-{s}": (lambda s=s: room(9, 0.7, s)) for s in [*range(1, 13), 42]},
    **{
        f"marriage{m}x{w}-{s}": (lambda s=s, m=m, w=w: mar(m, w, 0.7, s))
        for m, w in ((3, 3), (3, 4), (4, 4), (4, 5), (5, 5))
        for s in range(1, 31)
    },
}

# seeded games of every front end (n <= 8), as (front, seed, make) for
# parametrize; make(seed) builds the game
GENERATED_GAMES = (
    [("random", s, lambda s: random_game(7, density=0.4, seed=s + 500)) for s in range(5)]
    + [("roommate", s, lambda s: room(8, 0.6, s)) for s in range(4)]
    + [("marriage", s, lambda s: mar(4, 4, 0.7, s)) for s in range(4)]
)
GENERATED_IDS = [f"{front}-{seed}" for front, seed, _ in GENERATED_GAMES]

# the games whose expansion is checked against successors(), as
# (front, seed, make) like GENERATED_GAMES
EQUIVALENCE_GAMES = (
    [("random", s, lambda s: random_game(6, density=0.45, seed=s + 60)) for s in range(4)]
    + [("roommate", s, lambda s: room(8, 0.6, s)) for s in range(3)]
    + [("marriage", s, lambda s: mar(4, 4, 0.7, s)) for s in range(3)]
)


# --- pair-only games --------------------------------------------------------

# label -> make: marriage games, roommate games with and without a stable
# matching, pair-only games listing unacceptable pairs and triples, and
# unions of a marriage game with a roommate game without a stable matching;
# about 4 s in all on a 2-core x86-64 machine
PAIR_GAMES = {}
for (m, w), count in {(3, 3): 40, (4, 4): 30, (5, 5): 25, (6, 6): 15, (3, 5): 10}.items():
    for s in range(1, count + 1):
        PAIR_GAMES[f"marriage{m}x{w}-{s}"] = (
            lambda m=m, w=w, s=s: mar(m, w, 0.6 if m == 6 else 0.7, s))
for n, count in {5: 20, 6: 20, 7: 15, 8: 10, 9: 5}.items():
    for s in range(1, count + 1):
        PAIR_GAMES[f"roommate{n}-{s}"] = lambda n=n, s=s: room(n, 0.7, s)
# roommate games with no stable matching, which grow the closure of their
# P-stable matchings
for n in (5, 6, 7):
    for s in no_stable_roommates(n, 5):
        PAIR_GAMES[f"roommate{n}-{s}-unstable"] = lambda n=n, s=s: room(n, 0.7, s)
for n in (4, 5, 6, 7):
    for s in range(1, 11):
        PAIR_GAMES[f"pairs{n}-{s}"] = lambda n=n, s=s: pair_game(n, s)
for k, s in enumerate(no_stable_roommates(5, 4) + no_stable_roommates(6, 2)):
    n = 5 if k < 4 else 6
    PAIR_GAMES[f"marriage3x3-{k}+roommate{n}-{s}"] = (
        lambda k=k, n=n, s=s: union(mar(3, 3, 0.7, k), room(n, 0.7, s)))
    PAIR_GAMES[f"roommate{n}-{s}+marriage3x4-{k}"] = (
        lambda k=k, n=n, s=s: union(room(n, 0.7, s), mar(3, 4, 0.7, k)))

# the roommate games of PAIR_GAMES with no stable matching
NO_STABLE = {label: make for label, make in PAIR_GAMES.items() if label.endswith("-unstable")}

# label -> make: games, most with stable matchings and agents the phase-1
# table leaves unmatched
TABLE_GAMES = {}
for (m, w) in ((2, 5), (3, 5), (5, 3), (4, 6), (6, 4)):
    for d in (0.7, 0.9):
        for s in range(1, 7):
            TABLE_GAMES[f"marriage{m}x{w}-{d}-{s}"] = lambda m=m, w=w, d=d, s=s: mar(m, w, d, s)
for n in range(4, 11):
    for s in range(1, 9 if n < 10 else 5):
        TABLE_GAMES[f"roommate{n}-{s}"] = lambda n=n, s=s: room(n, 0.7, s)
for n in (4, 5, 6, 7):
    for s in range(1, 9):
        TABLE_GAMES[f"pairs{n}-{s}"] = lambda n=n, s=s: pair_game(n, s)

# label -> make: games of at most 7 agents, with and without stable
# matchings, some listing unacceptable pairs and triples
SMALL_GAMES = {
    "triangle": lambda: TRIANGLE,
    **{
        f"roommate{n}-{d}-{s}": (lambda n=n, d=d, s=s: room(n, d, s))
        for n in (4, 5, 6)
        for d in (0.7, 1.0)
        for s in range(1, 11)
    },
    **{f"roommate7-{s}": (lambda s=s: room(7, 0.8, s)) for s in range(1, 6)},
    **{
        f"roommate{n}-{s}-unstable": (lambda n=n, s=s: room(n, 0.7, s))
        for n in (5, 6, 7)
        for s in no_stable_roommates(n, 3)
    },
    **{f"pairs{n}-{s}": (lambda n=n, s=s: pair_game(n, s)) for n in (4, 5, 6) for s in (1, 2)},
}


# --- graphs grown from parts of the structures ------------------------------

# stable structures and a non-trivial sink: grown from the least structure,
# the least straggler by key is not the least straggler id
PARTIAL_GAMES = {
    **{f"{front}-{seed}": (lambda make=make, seed=seed: make(seed))
       for front, seed, make in GENERATED_GAMES},
    **NO_STABLE,
    "random6-114-mixed": lambda: rnd(6, 0.5, 114),
}


# --- disjoint unions --------------------------------------------------------

UNIONS = {
    "roommate-marriage-random+1": union(
        room(6, 0.6, 3), mar(3, 3, 0.7, 7), rnd(5, 0.5, 13), isolated=1),
    "two-rings": union(room(5, 0.7, 6), room(5, 0.7, 13)),
    "random-roommate-marriage+2": union(
        rnd(4, 0.6, 0), room(6, 0.6, 12), mar(3, 3, 0.7, 16), isolated=2),
    "three-triangles+1": union(TRIANGLE, TRIANGLE, TRIANGLE, isolated=1),
    "triangle-random-roommate": union(TRIANGLE, rnd(5, 0.5, 19), room(5, 0.7, 21)),
    "marriage-marriage": union(mar(3, 3, 0.7, 18), mar(3, 3, 0.7, 31)),
    "random-random+1": union(rnd(5, 0.5, 22), rnd(4, 0.6, 33), isolated=1),
    "roommate-triangle-marriage": union(room(6, 0.6, 16), TRIANGLE, mar(3, 3, 0.7, 7)),
    # an absorbing set whose members sort differently by raw masks
    "triangle-random": union(TRIANGLE, rnd(5, 0.5, 111)),
    # an earlier factor that fails to converge with a witness that is not
    # all singletons, a later one whose witness is
    "seven-triangle": union(SEVEN, TRIANGLE),
}
# the same unions with interleaved components
for name in list(UNIONS):
    UNIONS[f"{name}-relabelled"] = relabel(UNIONS[name], len(name))
# interleaved so that the absorbing sets' order is not the order of their
# factor sets
UNIONS["marriage-marriage-interleaved"] = relabel(UNIONS["marriage-marriage"], 4)
# seeded unions of two or three random (n <= 5), roommate (n <= 6) and
# marriage 3x3 games, sometimes with isolated agents
for s in range(12):
    pieces = [rnd(4 + s % 2, 0.6, 100 + s), room(4 + s % 3, 0.6, 100 + s)]
    if s % 3:
        pieces.append(mar(3, 3, 0.6, 100 + s))
    UNIONS[f"seeded-{s}"] = union(*pieces, isolated=s % 2)

# the unions that have a ring party, whose factor games number K
# differently from the whole game
RING_UNIONS = [
    "roommate-marriage-random+1",
    "seven-triangle",
    "triangle-random-roommate-relabelled",
]

# roommate (9, 0.7) seeds 13-60 (1-12 are fuzz games)
ROOMMATE9 = {f"roommate9-{s}": (lambda s=s: room(9, 0.7, s)) for s in range(13, 61)}


# --- ring games -------------------------------------------------------------

# Games with a non-trivial absorbing set. Marriage games are absent: a path
# to stability starts at every matching (Roth and Vande Vate), so all their
# absorbing sets are trivial; none turned up in 140 seeded 3x3 to 5x5 games.
EXTRACTION_GAMES = {
    **{
        f"roommate9-{s}": (lambda s=s: room(9, 0.7, s))
        for s in (2, 6, 21, 25, 26, 32, 33, 35, 42, 46, 48, 49, 57)
    },
    **{
        f"random{n}-{d}-{s}": (lambda n=n, d=d, s=s: rnd(n, d, s))
        for n, d, s in ((6, 0.5, 45), (6, 0.5, 60), (7, 0.3, 4), (7, 0.4, 36), (8, 0.2, 26))
    },
}

# the extraction games checked against the definition-level ring loops
REFERENCE_GAMES = {
    name: EXTRACTION_GAMES[name]
    for name in ("roommate9-2", "roommate9-6", "roommate9-42", "random6-0.5-45",
                 "random6-0.5-60", "random7-0.3-4", "random8-0.2-26")
}

# Games where the strongly connected components of the unanimous-improvement
# digraph over the coalitions held in a non-trivial absorbing set differ from
# its ring families, found by a sweep over random_game(n, p, seed) and
# random_roommate_spec(8, 0.9, seed): an extra component no ring reaches, or a
# component that swallows a coalition no ring holds and then fails the test.
COALITION_SCC_COUNTEREXAMPLES = (
    (6, 0.5, 8909), (6, 0.7, 8149), (6, 0.9, 942), (7, 0.5, 4100), (7, 0.5, 14642),
    (7, 0.5, 17190), (7, 0.65, 14454), (7, 0.8, 6594), (7, 0.8, 7726), (7, 0.8, 15053),
    (8, 0.4, 710),
)
ROOMMATE_SCC_COUNTEREXAMPLES = (59, 1423, 1661, 1876)

# label -> make: every fuzz game, roommate games (n = 9) of the benchmark's
# first two populations and seed 42, a slice of random seven-agent games, and
# the counterexamples above; about 10 s in all on a 2-core x86-64 machine
ROUTE_GAMES = {
    **FUZZ_GAMES,
    **{f"roommate9-{s}": (lambda s=s: room(9, 0.7, s)) for s in [*range(1, 61), 42]},
    **{
        f"random7-{p}-{s}": (lambda p=p, s=s: rnd(7, p, s))
        for p in (0.35, 0.5, 0.65, 0.8)
        for s in range(2001, 2101)
    },
    **{
        f"random{n}-{p}-{s}": (lambda n=n, p=p, s=s: rnd(n, p, s))
        for n, p, s in COALITION_SCC_COUNTEREXAMPLES
    },
    **{
        f"roommate8-0.9-{s}": (lambda s=s: room(8, 0.9, s))
        for s in ROOMMATE_SCC_COUNTEREXAMPLES + (882,)
    },
}

# label -> make: the fuzz games, roommate games (n = 9) seeds 1-60 and 42,
# roommate (8, 0.9) seed 882, and the 15 sets where the coalition-digraph
# route was refuted; about 3 s in all on a 2-core x86-64 machine
STEP_GAMES = {
    **FUZZ_GAMES,
    **{label: make for label, make in ROUTE_GAMES.items() if label.startswith("roommate")},
    **{
        f"random{n}-{p}-{s}": (lambda n=n, p=p, s=s: rnd(n, p, s))
        for n, p, s in COALITION_SCC_COUNTEREXAMPLES
    },
}


# --- verdicts ---------------------------------------------------------------

# label -> (make, candidate): a candidate that ``analyze`` does not list but
# ``check_stable_decomposition`` accepts (ROADMAP item 1: a ring party with a
# pool that holds no permissible coalition, or with no pool at all). The
# numbered labels are seeds of random_game(5, 0.5).
UNLISTED_BUT_ACCEPTED = {
    "89": (lambda: rnd(5, 0.5, 89), "{{12,25,135},{4}}"),
    "105": (lambda: rnd(5, 0.5, 105), "{{13,35,145},{2}}"),
    "125": (lambda: rnd(5, 0.5, 125), "{{1234,135,45}}"),
    "166": (lambda: rnd(5, 0.5, 166), "{{23,14,34,15,25,35}}"),
    "196": (lambda: rnd(5, 0.5, 196), "{{1234,25,135}}"),
    # a proper sub-collection of the one listed party
    # {12,23,14,24,34,25,16,36,56}, with no pool
    "roommate6-41": (lambda: room(6, 0.7, 41), "{{12,23,14,24,34,25,16,36}}"),
}
