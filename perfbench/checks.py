"""Output checks on the reports of ``analyze --all --json`` and on
``verify`` verdicts. They run outside every timed span.

A check returns ``None`` when the output holds and a short reason when not.
"""

from __future__ import annotations

import random
import re

from stabledec import (
    StabledecError,
    coalition,
    generated_set,
    render_structure,
    successors,
)

_PART = re.compile(r"\{([^{}]*)\}")

# Steps of one reference walk from a sampled structure towards a reported
# absorbing set; a walk that has not arrived by then is followed up by a
# search of its successors() closure (see check_closure).
WALK_STEPS = 64


def parse_structure(text: str) -> tuple[int, ...]:
    """A structure from ``render_structure`` output (parts in canonical order)."""
    return tuple(coalition(int(a) for a in body.split(",")) for body in _PART.findall(text))


def parse_coalition(text: str) -> list[int]:
    return [int(a) for a in text.strip("{}").split(",")]


def random_structure(g, rng: random.Random) -> tuple[int, ...]:
    """A seeded coalition structure of ``g``: the least unplaced agent joins
    its singleton or a disjoint permissible coalition, chosen uniformly."""
    full = (1 << g.n) - 1
    used = 0
    parts = []
    while used != full:
        low = ~used & full & -(~used & full)
        options = [low] + [c for c in g.permissible if c & low and not c & used]
        part = rng.choice(options)
        parts.append(part)
        used |= part
    return tuple(parts)


def check_report_shape(report: dict) -> str | None:
    sets = report.get("absorbing_sets")
    decs = report.get("decompositions")
    if not isinstance(sets, list) or not isinstance(decs, list) or not sets:
        return "report lacks absorbing sets or decompositions"
    if len(sets) != len(decs):
        return "absorbing sets and decompositions differ in number"
    stable = sorted(a["structures"][0] for a in sets if a["trivial"])
    if stable != sorted(report["stable"]):
        return "stable structures differ from the trivial absorbing sets"
    return None


def check_sampled_nodes(g, report: dict, rng: random.Random, samples: int) -> str | None:
    """Seeded structures of the game, checked against the ``successors()``
    reference: a structure without successors must be reported stable, a
    member of a reported absorbing set must have all its successors in that
    set, and a walk along reference successors that reaches a reported set
    must stay closed there. A walk that reaches no reported set within
    WALK_STEPS must have one in its closure."""
    sink_of = {}
    for idx, a in enumerate(report["absorbing_sets"]):
        for s in a["structures"]:
            sink_of[parse_structure(s)] = idx
    for _ in range(samples):
        pi = random_structure(g, rng)
        for _ in range(WALK_STEPS):
            targets = [e.target for e in successors(g, pi)]
            idx = sink_of.get(pi)
            if idx is not None:
                if any(sink_of.get(t) != idx for t in targets):
                    return "a reported absorbing set is not closed under successors()"
                break
            if not targets:
                return "a structure without successors is not reported absorbing"
            pi = rng.choice(targets)
        else:
            reason = check_closure(g, pi, sink_of, report["structures"])
            if reason:
                return reason
    return None


def check_closure(g, start: tuple[int, ...], sink_of: dict, cap: int) -> str | None:
    """Breadth-first search of the ``successors()`` closure of ``start``,
    until it meets a reported absorbing structure. Every closure holds a
    sink, so a closure without a reported structure holds one the report
    left out. The closure can hold no more than the report's ``cap``
    structures."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for pi in frontier:
            if pi in sink_of:
                return None
            for e in successors(g, pi):
                if e.target not in seen:
                    seen.add(e.target)
                    nxt.append(e.target)
        if len(seen) > cap:
            return "successors() reaches more structures than the report holds"
        frontier = nxt
    return "a sink reached by successors() is not reported"


def check_generated_sets(g, report: dict) -> str | None:
    """The first D-structure of each decomposition generates its absorbing
    set (the one-to-one correspondence)."""
    for a, d in zip(report["absorbing_sets"], report["decompositions"]):
        try:
            gen = generated_set(g, parse_structure(d["d_structures"][0]))
        except StabledecError as exc:
            return f"generated_set raised {type(exc).__name__}"
        if [render_structure(pi) for pi in gen.members] != a["structures"]:
            return "generated set of the first D-structure differs from its absorbing set"
        if d["generated_size"] != len(a["structures"]):
            return "generated_size differs from the absorbing set size"
    return None


def verify_candidates(report: dict) -> list[tuple[str, list, bool]]:
    """``(label, decomposition as JSON party lists, expected verdict)``: every
    decomposition the report lists, which must verify as stable, then the
    all-singletons pool decomposition unless the report lists it, which then
    must not (absorbing sets and stable decompositions correspond one to one)."""
    listed = [
        [[parse_coalition(c) for c in p["coalitions"]] for p in d["parties"]]
        for d in report["decompositions"]
    ]
    out = [("reported", dec, True) for dec in listed]
    singletons = [[[i] for i in range(1, report["agents"] + 1)]]
    if singletons not in listed:
        out.append(("all-singletons", singletons, False))
    return out
