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
used for the pool condition is the reference on small pools
(``oracle._reference_pool_party``).
"""

import pytest

from stabledec import (
    Analysis,
    check_stable_decomposition,
    d_structures,
    factored_decompositions,
    generated_set,
)
from stabledec.cli import parse_decomposition
from games import FUZZ_GAMES, UNLISTED_BUT_ACCEPTED, build
from oracle import REFERENCE_POOL_AGENTS, _reference_pool_party, candidates


@pytest.mark.parametrize("label", list(FUZZ_GAMES))
def test_decompositions_round_trip(label):
    b = build(FUZZ_GAMES[label]())
    g, sets_, decs = b.game, b.analysis.absorbing_sets(), b.decompositions
    assert len(decs) == len(sets_)
    for d, a in zip(decs, sets_):
        assert generated_set(g, d_structures(g, d)[0]).members == a.members, d.render(g.n)


@pytest.mark.parametrize("label", list(FUZZ_GAMES))
def test_verdicts_match_the_listing(label):
    b = build(FUZZ_GAMES[label]())
    g = b.game
    for d, listed in candidates(g, b.decompositions):
        violations = check_stable_decomposition(g, d)
        assert (not violations) == listed, (d.render(g.n), violations)
        pool = d.pool()
        if pool is not None and pool.agents.bit_count() <= REFERENCE_POOL_AGENTS:
            found = _reference_pool_party(g, d, pool.agents)
            assert found is None or violations, (d.render(g.n), found.render(g.n))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: verify accepts decompositions that match no absorbing set",
)
@pytest.mark.parametrize("label", list(UNLISTED_BUT_ACCEPTED))
def test_unlisted_candidates_are_rejected(label):
    make, candidate = UNLISTED_BUT_ACCEPTED[label]
    g = make()
    d = parse_decomposition(g, candidate)
    assert d not in factored_decompositions(Analysis(g))
    assert check_stable_decomposition(g, d)
