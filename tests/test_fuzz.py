"""Seeded differential fuzz over every front end.

Each game's absorbing sets come from ``Analysis``, worked out per factor. The
decomposition built for each set is re-checked as it is built (partition,
protection, and its first D-structure a member of the set;
``VerificationFailed`` on failure), and the set that this D-structure
generates on its own must be the very absorbing set it came from.

The verdict gate runs ``check_stable_decomposition`` on candidates around the
listing: each listed decomposition, the all-singletons pool, and each listed
decomposition with one coalition party dissolved into the pool. It must say
stable exactly for the listed ones. The pool search that the library once
used for the pool condition is kept here as a reference on small pools.
"""

import functools
import itertools

import pytest

from stabledec import (
    POOL,
    RING,
    SINGLE,
    Analysis,
    Party,
    check_stable_decomposition,
    d_structures,
    decomposition,
    factored_decompositions,
    generated_set,
    is_protected,
    marriage_to_game,
    random_game,
    random_marriage_spec,
    random_roommate_spec,
    roommate_to_game,
)
from stabledec import rings
from stabledec.cli import parse_decomposition

# label -> make; both tests together take about 3 s on a 2-core x86-64 machine
FUZZ_GAMES = dict(
    [(f"random7-{s}", lambda s=s: random_game(7, 0.5, s)) for s in range(1, 201)]
    + [
        (f"roommate8-{s}", lambda s=s: roommate_to_game(random_roommate_spec(8, 0.7, s)))
        for s in range(1, 61)
    ]
    + [
        (f"roommate9-{s}", lambda s=s: roommate_to_game(random_roommate_spec(9, 0.7, s)))
        for s in list(range(1, 13)) + [42]
    ]
    + [
        (
            f"marriage{m}x{w}-{s}",
            lambda s=s, m=m, w=w: marriage_to_game(random_marriage_spec(m, w, 0.7, s)),
        )
        for m, w in ((3, 3), (3, 4), (4, 4), (4, 5), (5, 5))
        for s in range(1, 31)
    ]
)

# the reference search runs on pools of at most this many agents, and
# gives up after this many ring candidates
REFERENCE_POOL_AGENTS = 6
REFERENCE_CANDIDATES = 2000


@functools.cache
def _analyzed(label):
    g = FUZZ_GAMES[label]()
    an = Analysis(g)
    return g, an.absorbing_sets(), factored_decompositions(an)


def _with_pool(g, parties):
    """The decomposition of the coalition ``parties`` and a pool of the
    agents they leave out."""
    rest = (1 << g.n) - 1
    for p in parties:
        rest &= ~p.agents
    pool = [Party(POOL, tuple(1 << b for b in range(g.n) if rest >> b & 1))] if rest else []
    return decomposition(list(parties) + pool)


def _candidates(g, decs):
    """(decomposition, listed) for the listed decompositions, the
    all-singletons pool and each listed one with a coalition party
    dissolved into its pool, first occurrences only."""
    out = {}
    for d in decs:
        out[d.render(g.n)] = (d, True)
    singletons = _with_pool(g, [])
    out.setdefault(singletons.render(g.n), (singletons, False))
    for d in decs:
        own = [p for p in d.parties if p.kind != POOL]
        for p in own:
            dissolved = _with_pool(g, [q for q in own if q is not p])
            out.setdefault(dissolved.render(g.n), (dissolved, False))
    return list(out.values())


def _reference_pool_party(g, D, pool_mask):
    """A protected party over the pool's agents, found by a capped subset
    search: single permissible coalitions inside the pool, then ring
    components assembled within the strongly connected pieces of their
    improvement digraph. ``None`` when it finds none within
    ``REFERENCE_CANDIDATES`` ring candidates. It can miss a party, as on
    ``random_marriage_spec(6, 6, 0.6, seed=6)``, where no single pair of
    the game's only stable matching is protected by the singletons alone."""
    ks = [c for c in g.permissible if not c & ~pool_mask]
    for c in ks:
        party = Party(SINGLE, (c,))
        if is_protected(g, party, D):
            return party
    candidates = (
        sub
        for comp in rings._pref_digraph_sccs(g, ks)
        for r in range(3, len(comp) + 1)
        for sub in itertools.combinations(sorted(ks[i] for i in comp), r)
    )
    for sub in itertools.islice(candidates, REFERENCE_CANDIDATES):
        rc = rings._ring_component(g, sub)
        if rc is not None:
            party = Party(RING, rc.coalitions, rc.compact)
            if is_protected(g, party, D):
                return party
    return None


@pytest.mark.parametrize("label", list(FUZZ_GAMES))
def test_decompositions_round_trip(label):
    g, sets_, decs = _analyzed(label)
    assert len(decs) == len(sets_)
    for d, a in zip(decs, sets_):
        assert generated_set(g, d_structures(g, d)[0]).members == a.members, d.render(g.n)


@pytest.mark.parametrize("label", list(FUZZ_GAMES))
def test_verdicts_match_the_listing(label):
    g, _, decs = _analyzed(label)
    for d, listed in _candidates(g, decs):
        violations = check_stable_decomposition(g, d)
        assert (not violations) == listed, (d.render(g.n), violations)
        pool = d.pool()
        if pool is not None and pool.agents.bit_count() <= REFERENCE_POOL_AGENTS:
            found = _reference_pool_party(g, d, pool.agents)
            assert found is None or violations, (d.render(g.n), found.render(g.n))


# random_game(5, 0.5, seed) -> a candidate that ``analyze`` does not list but
# ``check_stable_decomposition`` accepts (ROADMAP item 1: a ring party with a
# pool that holds no permissible coalition, or with no pool at all)
UNLISTED_BUT_ACCEPTED = {
    89: "{{12,25,135},{4}}",
    105: "{{13,35,145},{2}}",
    125: "{{1234,135,45}}",
    166: "{{23,14,34,15,25,35}}",
    196: "{{1234,25,135}}",
}


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: verify accepts decompositions that match no absorbing set",
)
@pytest.mark.parametrize("seed", list(UNLISTED_BUT_ACCEPTED))
def test_unlisted_candidates_are_rejected(seed):
    g = random_game(5, 0.5, seed)
    d = parse_decomposition(g, UNLISTED_BUT_ACCEPTED[seed])
    assert d not in factored_decompositions(Analysis(g))
    assert check_stable_decomposition(g, d)
