"""Acceptance gate: nine end-to-end criteria over the bundled examples.

Each test prints a single ``criterion N: PASS/FAIL`` line (run with ``-s``
to see them all) and then asserts. Criteria 1, 2 and 6 encode reference
values for the bundled examples that disagree with what exhaustive search
finds; they are kept as written and fail with a message naming the
discrepancy. The module tests freeze the machine-verified values.
"""

import time

import pytest

from stabledec import (
    RING,
    absorbing_sets,
    all_stable_decompositions,
    breaks_maximal_set,
    check_stable_decomposition,
    classify_simple,
    converges_to_stability,
    cyclically_equal,
    d_structures,
    decomposition,
    enumerate_structures,
    extract_ring,
    from_absorbing_set,
    full_domination_graph,
    generated_set,
    grow_graph,
    has_proper_ring,
    is_ring_component,
    is_stable,
    make_party,
    maximal_sets,
    random_game,
    reaches_absorbing,
    render_coalition,
    render_structure,
    sink_components,
    successors,
)
from conftest import C, make_structure
from oracle import _brute_force_decompositions


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def structure_set(g, texts):
    return {make_structure(g, t) for t in texts}


@pytest.fixture(scope="module", autouse=True)
def warmup():
    # import and first-call costs are paid before anything is timed
    absorbing_sets(random_game(4, density=0.5, seed=0))


def test_criterion_1_absorbing_sets(g7, cycle7):
    started = time.perf_counter()
    sets_ = absorbing_sets(g7)
    elapsed = time.perf_counter() - started
    got = {frozenset(a.members) for a in sets_}
    want = {
        frozenset({make_structure(g7, "123 45 67")}),
        frozenset({make_structure(g7, "15 23 467")}),
        frozenset(cycle7),
    }
    extra = got - want
    missing = want - got
    ok = got == want and elapsed < 1.0
    detail = f"{len(got)} absorbing sets in {elapsed:.3f}s"
    if missing:
        detail += ", missing expected sets"
    if extra:
        names = "; ".join(
            "{" + " ".join(render_structure(pi) for pi in sorted(s)) + "}"
            for s in extra
        )
        detail += (
            f"; exhaustive search also finds {names}"
            " (a fourth absorbing set beyond the three expected)"
        )
    report(1, ok, detail)


def test_criterion_2_decompositions(g7):
    decs = all_stable_decompositions(g7)
    got = {d.render(7) for d in decs}
    want = {
        "{{123},{45},{67}}",
        "{{15},{23},{467}}",
        "{{12,23,34,15,45},{67}}",
    }
    rc_coals = [C(t) for t in ("12", "23", "34", "45", "15")]
    rc = make_party(g7, rc_coals)
    rc_simple = classify_simple(g7, rc_coals)
    rc_ok = (
        rc_simple
        and list(rc.compact) == maximal_sets(rc_coals)
        and len(rc.compact) == 5
    )
    ok = got == want and rc_ok
    detail = f"{len(decs)} decompositions, ring component simple={rc_simple}"
    extra = got - want
    if extra:
        detail += (
            f"; expected exactly 3 but verification also admits {sorted(extra)}"
        )
    report(2, ok, detail)


def test_criterion_3_eight_agent_game(g8):
    decs = all_stable_decompositions(g8)
    rc_not_simple = not classify_simple(
        g8, [C(t) for t in ("145", "12", "23", "356", "46")]
    )
    sets_ = absorbing_sets(g8)
    trivial = {frozenset(a.members) for a in sets_ if a.trivial}
    nontrivial = {frozenset(a.members) for a in sets_ if not a.trivial}
    want_nontrivial = frozenset(
        structure_set(
            g8,
            (
                "12 3 46 5 78",
                "1 23 46 5 78",
                "145 23 6 78",
                "1 2 356 4 78",
                "12 356 4 78",
                "1 2 3 46 5 78",
                "145 2 3 6 78",
                "12 3 4 5 6 78",
                "1 23 4 5 6 78",
            ),
        )
    )
    ok = (
        len(decs) == 2
        and rc_not_simple
        and trivial == {frozenset({make_structure(g8, "145 23 678")})}
        and nontrivial == {want_nontrivial}
    )
    report(
        3,
        ok,
        f"{len(decs)} decompositions, component not simple, "
        f"absorbing sets sizes {sorted(len(a) for a in sets_)}",
    )


def test_criterion_4_six_agent_game(g6):
    stable = [pi for pi in enumerate_structures(g6) if is_stable(g6, pi)]
    decs = all_stable_decompositions(g6)
    sets_ = absorbing_sets(g6)
    want_members = structure_set(
        g6,
        (
            "1 2 3 4 56",
            "1 2 3 45 6",
            "1 2 3 46 5",
            "1 2 34 56",
            "1 23 4 56",
            "1 23 45 6",
            "1 23 46 5",
            "12 3 4 56",
            "12 3 45 6",
            "12 3 46 5",
            "12 34 56",
            "13 2 4 56",
            "13 2 45 6",
            "13 2 46 5",
        ),
    )
    ok = (
        not stable
        and len(decs) == 1
        and decs[0].render(6) == "{{1,2,3},{45,46,56}}"
        and len(sets_) == 1
        and set(sets_[0].members) == want_members
    )
    want_ds = structure_set(g6, ("1 2 3 45 6", "1 2 3 46 5", "1 2 3 4 56"))
    if ok:
        induced = d_structures(g6, decs[0])
        ok = {ds.structure for ds in induced} == want_ds and all(
            set(generated_set(g6, ds.structure).members) == want_members
            for ds in induced
        )
    report(
        4,
        ok,
        f"no stable structure, unique decomposition, absorbing set of "
        f"{len(sets_[0])}, 3 generating structures",
    )


def test_criterion_5_roommate_verifier(rm10):
    ring = ("12", "23", "13")
    def cand(*groups):
        return decomposition(
            make_party(rm10, [C(t) for t in grp]) for grp in groups
        )

    first = cand(ring, ("48",), ("59",), ("67",), ("a",))
    second = cand(ring, ("49",), ("57",), ("68",), ("a",))
    third = cand(ring, ("47",), ("58",), ("69",), ("a",))
    v1 = check_stable_decomposition(rm10, first)
    v2 = check_stable_decomposition(rm10, second)
    v3 = check_stable_decomposition(rm10, third)
    named = (
        len(v3) >= 1
        and v3[0].code == "unprotected"
        and v3[0].party.coalitions == (C("47"),)
        and v3[0].coalition == C("17")
    )
    ok = not v1 and not v2 and named
    report(
        5,
        ok,
        "first two candidates verify; third rejected with breaker "
        f"{render_coalition(C('17'))} against party {{4,7}}",
    )


def test_criterion_6_marriage_rings(mar33):
    union = [C(t) for t in ("14", "34", "36", "16", "35", "25", "24")]
    not_component = not is_ring_component(mar33, union)
    listed = (
        ("16", "34", "25"),
        ("16", "24", "35"),
        ("14", "25", "36"),
    )
    broken = {}
    for texts in listed:
        mset = tuple(sorted(C(t) for t in texts))
        broken[texts] = sorted(
            r for r in union if r not in mset and breaks_maximal_set(mar33, r, mset)
        )
    all_unbroken = all(not b for b in broken.values())
    no_ring_decs = all(
        p.kind != RING
        for d in all_stable_decompositions(mar33)
        for p in d.parties
    )
    ok = not_component and all_unbroken and no_ring_decs
    detail = (
        f"union is_ring_component={not not_component}, "
        f"ring-free decompositions={no_ring_decs}"
    )
    offenders = {t: b for t, b in broken.items() if b}
    if offenders:
        parts = "; ".join(
            "{%s} broken by %s"
            % (",".join(t), ",".join(render_coalition(c) for c in b))
            for t, b in offenders.items()
        )
        detail += (
            f"; expected all three maximal sets unbroken, but {parts}"
        )
    report(6, ok, detail)


def test_criterion_7_ring_extraction(g7, cycle7):
    vias = set()
    for j in range(5):
        prev, here = cycle7[j - 1], cycle7[j]
        vias.update(e.via for e in successors(g7, prev) if e.target == here)
    via_ok = vias == {C(t) for t in ("45", "23", "15", "34", "12")}
    ring = extract_ring(g7, cycle7, C("45"))
    want = (C("45"), C("15"), C("12"), C("23"), C("34"))
    ok = via_ok and cyclically_equal(ring, want)
    report(
        7,
        ok,
        "start 45 extracts "
        + "(" + ",".join(render_coalition(c) for c in ring) + ")",
    )


def test_criterion_8_property_suite():
    started = time.perf_counter()
    checked = 0
    for i in range(200):
        n = 3 + i % 4
        density = (0.25, 0.4, 0.55, 0.7)[(i // 4) % 4]
        g = random_game(n, density=density, seed=1000 + i)
        graph = full_domination_graph(g)
        sets_ = sink_components(graph)

        # (a) at least one absorbing set
        assert sets_, f"game {i}: no absorbing set"
        for a in sets_:
            # (b) never exactly two structures
            assert len(a) != 2, f"game {i}: absorbing set of size 2"
            # (c) trivial exactly when the single member is stable
            assert a.trivial == (len(a) == 1)
            if a.trivial:
                assert is_stable(g, a.members[0]), f"game {i}"
            else:
                assert not any(is_stable(g, pi) for pi in a.members)

        # (d) every structure reaches an absorbing set
        for pi in graph.nodes:
            target, path = reaches_absorbing(g, pi)
            assert (pi in target) == (not path)

        # (e) one decomposition per absorbing set
        decs = all_stable_decompositions(g, graph=graph)
        assert len(decs) == len(sets_), f"game {i}"

        # (f) absorbing set -> decomposition -> generated set round trip
        for a, d in zip(sets_, decs):
            for ds in d_structures(g, d):
                assert generated_set(g, ds.structure).members == a.members

        # (g) proper rings exactly when the graph has a cycle
        has_cycle = any(len(c) > 1 for c in graph.sccs())
        assert has_proper_ring(g) == has_cycle, f"game {i}"

        # (h) on games with a stable structure, the convergence verdict
        # matches the decomposition shape: converging games are exactly
        # those whose decompositions are all ring-free
        if any(a.trivial for a in sets_):
            direct, _ = converges_to_stability(g, graph=graph)
            ring_free = all(p.kind != RING for d in decs for p in d.parties)
            assert direct == ring_free, f"game {i}"
        checked += 1
    elapsed = time.perf_counter() - started
    ok = checked == 200 and elapsed < 60.0
    report(8, ok, f"{checked} games checked in {elapsed:.1f}s")


def test_criterion_9_brute_force_oracle():
    games = [random_game(3 + s % 3, density=(0.3, 0.5, 0.7)[s % 3], seed=2000 + s) for s in range(18)]
    total = 0
    for idx, g in enumerate(games):
        want = _brute_force_decompositions(g)
        got = {frozenset(d.parties) for d in all_stable_decompositions(g)}
        assert got == want, f"game {idx}: {len(got)} found vs {len(want)} enumerated"
        total += len(want)
    report(9, True, f"{len(games)} games, {total} decompositions matched")
