"""Seeded differential fuzz over every front end.

Each game's absorbing sets come from ``Analysis``, worked out per factor. The
decomposition built for each set is re-verified against the definitions
(``VerificationFailed`` on failure), and the set that its first D-structure
generates on its own must be the very absorbing set it came from.
"""

import pytest

from stabledec import (
    Analysis,
    d_structures,
    factored_decompositions,
    generated_set,
    marriage_to_game,
    random_game,
    random_marriage_spec,
    random_roommate_spec,
    roommate_to_game,
)

# label -> make; about 3 s in all on a 2-core x86-64 machine
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


@pytest.mark.parametrize("label", list(FUZZ_GAMES))
def test_decompositions_round_trip(label):
    g = FUZZ_GAMES[label]()
    an = Analysis(g)
    sets_ = an.absorbing_sets()
    decs = factored_decompositions(an)
    assert len(decs) == len(sets_)
    for d, a in zip(decs, sets_):
        assert generated_set(g, d_structures(g, d)[0]).members == a.members, d.render(g.n)
