"""The test suite's one copy of each definition-level reference.

Each reference is built on ``successors()``, the public definition
functions (``prefers``, ``unanimously_prefers``, ``breaks``,
``breaks_maximal_set``, ``maximal_sets``) or plain loops over a graph's
nodes and edges. Where one borrows a library helper
(``rings._ring_from_vias``, ``rings._ring_component``), that helper is not
the routine it checks. The test modules and sweeps import their references
and harness from here and their games from ``games.py``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from collections import deque
from collections.abc import Mapping, Sequence

import stabledec.absorbing as absorbing_module
from stabledec import (
    POOL,
    RING,
    SINGLE,
    AbsorbingSet,
    AgentIdOutOfRange,
    Analysis,
    Game,
    InconsistentRanking,
    MalformedInput,
    Party,
    StabledecError,
    VerificationFailed,
    breaks,
    breaks_maximal_set,
    canonical_rotation,
    coalition,
    contains,
    converges_to_stability,
    decomposition,
    enumerate_structures,
    factored_convergence,
    full_domination_graph,
    is_protected,
    maximal_sets,
    members,
    prefers,
    render_coalition,
    singleton,
    sink_components,
    structure_from_parts,
    structure_key,
    successors,
    unanimously_prefers,
)
from stabledec import rings
from stabledec.absorbing import Factor
from stabledec.cli import main


def outcome(fn):
    """The result of ``fn()``, or the library error it raises."""
    try:
        return fn()
    except StabledecError as exc:
        return type(exc).__name__, str(exc)


def spy(monkeypatch, calls, module, name, record=None):
    """Replace ``module.name`` by a wrapper that appends ``record(*args)``,
    or ``name``, to ``calls`` and then calls the real function; returns
    ``calls``."""
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name if record is None else record(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


# --- the closure graph ------------------------------------------------------


def reference_graph(g, seeds):
    """Breadth-first closure of ``seeds`` through ``successors()``, which
    tests blocking with ``blocks`` and forms successors with
    ``dominate_via``, independently of the bitset expansion."""
    nodes = sorted({structure_from_parts(g, pi) for pi in seeds}, key=structure_key)
    index = {pi: v for v, pi in enumerate(nodes)}
    adj = []
    for pi in nodes:  # grows while iterated: breadth-first order
        out = []
        for e in successors(g, pi):
            if e.target not in index:
                index[e.target] = len(nodes)
                nodes.append(e.target)
            out.append((index[e.target], e.via))
        adj.append(out)
    return nodes, adj


# --- SCCs and reachability --------------------------------------------------


def reference_tarjan(adj):
    """Iterative Tarjan lowlink that re-pushes ``(node, edge pointer)`` on
    every descent and rescans ``adj[v]`` from that pointer on resume."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ptr = work[-1]
            if ptr == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on[v] = True
            descended = False
            out = adj[v]
            for k in range(ptr, len(out)):
                w = out[k][0]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
    return comps


def reference_reach(adj, b):
    """Nodes at the end of a path of length >= 1 from ``b``, by repeated
    one-step expansion of the nodes added last, until nothing new is
    added."""
    reached = new = {w for w, _ in adj[b]}
    while new:
        new = {w for v in new for w, _ in adj[v]} - reached
        reached = reached | new
    return reached


# --- sinks and convergence --------------------------------------------------


def reference_sinks(G):
    """The sink components sorted by ``structure_key``, whatever the node order."""
    sinks = []
    for comp in G.sccs():
        inside = set(comp)
        if all(w in inside for v in comp for w, _ in G.adj[v]):
            members = sorted((G.nodes[v] for v in comp), key=structure_key)
            sinks.append(AbsorbingSet(tuple(members)))
    return sorted(sinks, key=lambda a: structure_key(a.members[0]))


def reference_stragglers(G):
    """Ids of the nodes that reach no stable node, by a reverse search from
    the stable nodes over incoming-edge lists."""
    incoming = [[] for _ in range(len(G))]
    for u in range(len(G)):
        for v, _ in G.adj[u]:
            incoming[v].append(u)
    reached = [not out for out in G.adj]
    frontier = [v for v in range(len(G)) if reached[v]]
    while frontier:
        v = frontier.pop()
        for u in incoming[v]:
            if not reached[u]:
                reached[u] = True
                frontier.append(u)
    return [v for v in range(len(G)) if not reached[v]]


def reference_convergence(G):
    """The verdict, and the least straggler by ``structure_key`` as witness."""
    stragglers = reference_stragglers(G)
    if not stragglers:
        return True, None
    return False, min((G.nodes[v] for v in stragglers), key=structure_key)


# --- the pair routes --------------------------------------------------------


def reference_stable(g: Game) -> list[tuple[int, ...]]:
    """Every structure, enumerated, whose AND of ``better`` over its parts
    is 0: the enumerate-and-filter that ``_stable_matchings`` replaced."""
    better = g.expansion().better
    stable = []
    for pi in enumerate_structures(g):
        blocking = -1
        for p in pi:
            blocking &= better[p]
        if not blocking:
            stable.append(pi)
    return stable


def dropped_pairs(g: Game) -> set[int]:
    """The permissible pairs that the phase-1 table drops."""
    table = absorbing_module._pair_rows(g).table
    return {c for c in g.permissible if c.bit_length() not in table[(c & -c).bit_length()]}


def brute_partitions(g: Game) -> list[tuple[tuple[int, ...], ...]]:
    """Every permutation whose steps are permissible pairs and which
    satisfies T1 and T2, tested by ``prefers`` on the rankings, in the
    cycle form of ``_stable_partitions``."""
    n = g.n
    kset = set(g.permissible)

    def held(i, j):
        # the coalition agent i forms with j, their singleton when j == i
        return coalition((i, j)) if i != j else coalition((i,))

    found = set()
    for perm in itertools.permutations(range(1, n + 1)):
        succ = dict(zip(range(1, n + 1), perm))
        if any(j != i and held(i, j) not in kset for i, j in succ.items()):
            continue
        pred = {j: i for i, j in succ.items()}
        if not all(
            succ[i] == pred[i] or prefers(g, i, held(i, succ[i]), held(i, pred[i]))
            for i in succ
        ):
            continue
        if any(
            prefers(g, i, c, held(i, pred[i])) and prefers(g, j, c, held(j, pred[j]))
            for c in kset
            for i, j in [members(c)]
        ):
            continue
        cycles = []
        seen = set()
        for i in range(1, n + 1):
            if i not in seen:
                cyc = [i]
                while succ[cyc[-1]] != i:
                    cyc.append(succ[cyc[-1]])
                seen.update(cyc)
                cycles.append(tuple(cyc))
        found.add(tuple(cycles))
    return sorted(found)


def is_closure_factor(g: Game) -> bool:
    """Whether the game is pair-only without a stable matching."""
    rows = absorbing_module._pair_rows(g)
    return rows is not None and absorbing_module._stable_matchings(g, rows) == []


def _full_route_factor(g: Game, limit: int) -> Factor:
    """``absorbing._factor`` as it was before the closure route: a pair-only
    factor without a stable matching grows its full graph."""
    rows = absorbing_module._pair_rows(g)
    stable = rows is not None and absorbing_module._stable_matchings(g, rows)
    if stable:
        return Factor(g, tuple(AbsorbingSet((pi,)) for pi in stable), None)
    graph = full_domination_graph(g, limit)
    return Factor(g, tuple(sink_components(graph)), graph)


@contextlib.contextmanager
def full_route():
    """``Analysis`` on the full-graph route for pair-only factors without a
    stable matching, while the context lasts."""
    real = absorbing_module._factor
    absorbing_module._factor = _full_route_factor
    try:
        yield
    finally:
        absorbing_module._factor = real


def analyze_json(g: Game) -> str:
    """The stdout of ``stabledec analyze - --all --json`` on the game."""
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(g.to_dict()))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(["analyze", "-", "--all", "--json"]) == 0
    finally:
        sys.stdin = stdin
    return out.getvalue()


def assert_routes_agree(g: Game, an: Analysis) -> None:
    """The closure route and the full-graph route give the same analysis of
    a pair-only game without a stable matching, whose ``Analysis`` is
    ``an``."""
    assert is_closure_factor(g)
    (f,) = an.factors
    with full_route():
        (ref,) = Analysis(g).factors
        want = analyze_json(g)
    assert len(f.graph) <= len(ref.graph)
    # the same sets, members in the same order
    assert f.sets == ref.sets
    assert not any(a.trivial for a in f.sets)
    assert factored_convergence(an) == converges_to_stability(g, graph=ref.graph)
    assert analyze_json(g) == want


# --- rings ------------------------------------------------------------------


def _cycle_vias_through(G, u, v, via, inside):
    """Vias of a cycle through edge ``u -> v``: the edge itself plus a
    shortest path ``v -> u`` found by BFS inside the component."""
    parent = {v: None}
    order = deque([v])
    while order and u not in parent:
        x = order.popleft()
        for w, wv in G.adj[x]:
            if w in inside and w not in parent:
                parent[w] = (x, wv)
                order.append(w)
    if u not in parent:
        raise VerificationFailed("absorbing set is not strongly connected")
    rev = []
    cur = u
    while parent[cur] is not None:
        prev, wv = parent[cur]
        rev.append(wv)
        cur = prev
    return [via] + rev[::-1]


def _per_edge_rings(G, absorbing):
    """Reference extraction: one breadth-first search for every edge inside
    the absorbing set, stopped at the edge's source."""
    ids = [G.node_id(pi) for pi in absorbing.members]
    inside = set(ids)
    found = set()
    for u in ids:
        for v, via in G.adj[u]:
            if v not in inside:
                raise VerificationFailed("absorbing set has an outgoing edge")
            vias = _cycle_vias_through(G, u, v, via, inside)
            for s in range(len(vias)):
                found.add(canonical_rotation(rings._ring_from_vias(vias, s)))
    return found


def _in_edges(G, absorbing):
    """Each member's in-edges, as ``(source, via)`` lists; raises when an
    edge leaves the set."""
    into = {G.node_id(pi): [] for pi in absorbing.members}
    for u in into:
        for v, via in G.adj[u]:
            if v not in into:
                raise VerificationFailed("absorbing set has an outgoing edge")
            into[v].append((u, via))
    return into


def _root_cycles(G, into, roots):
    """For each root in turn, one breadth-first search run until it has
    discovered every in-neighbour of the root, and the vias of the cycle
    that each in-edge closes, each cycle once over all roots: yields
    ``(root, new cycles)``."""
    adj = G.adj
    # per node: the root whose search reached it and the one that wants it
    # as an in-neighbour, and its parent and the via from it
    seen_by = [-1] * len(G)
    want = [-1] * len(G)
    prev = [0] * len(G)
    pvia = [0] * len(G)
    tried = set()
    for v in roots:
        left = 0
        for u, _ in into[v]:
            if want[u] != v:
                want[u] = v
                left += 1
        seen_by[v] = v
        queue = [v]
        head = 0
        while left:
            if head == len(queue):
                raise VerificationFailed("absorbing set is not strongly connected")
            x = queue[head]
            head += 1
            for w, wv in adj[x]:
                if seen_by[w] != v:
                    seen_by[w] = v
                    prev[w] = x
                    pvia[w] = wv
                    queue.append(w)
                    if want[w] == v:
                        left -= 1
        new = []
        for u, via in into[v]:
            path = []
            x = u
            while x != v:
                path.append(pvia[x])
                x = prev[x]
            path.append(via)
            vias = tuple(reversed(path))
            if vias not in tried:
                tried.add(vias)
                new.append(vias)
        yield v, new


def _extract_rings(G, absorbing):
    """Reference extraction, run to the end: the canonical rotations of the
    rings read off a cycle through every edge inside the absorbing set, one
    breadth-first search per member (``_root_cycles``)."""
    into = _in_edges(G, absorbing)
    return {
        canonical_rotation(rings._ring_from_vias(vias, s))
        for _, cycles in _root_cycles(G, into, list(into))
        for vias in cycles
        for s in range(len(vias))
    }


def _merged_families(found):
    """Rings merged on shared coalitions, one set at a time."""
    fams: list[set] = []
    for ring in found:
        merged = set(ring)
        rest = []
        for f in fams:
            if f & merged:
                merged |= f
            else:
                rest.append(f)
        fams = rest + [merged]
    return sorted(frozenset(f) for f in fams)


def _family_list(found):
    """The merged families of the rings ``found`` in the order of their
    sorted coalitions, as ``_ring_families`` lists them."""
    return sorted((set(f) for f in _merged_families(found)), key=lambda f: tuple(sorted(f)))


def _merged_components(g, found, absorbing):
    """Reference merge: the families of the rings ``found``
    (``_family_list``), each kept when it is a ring component; a family
    that covers every member of the set and is none raises."""
    comps = []
    for fam in _family_list(found):
        rc = rings._ring_component(g, fam)
        if rc is not None:
            comps.append(rc)
        elif all(fam.intersection(pi) for pi in absorbing.members):
            raise VerificationFailed("merged ring family fails the ring component test")
    return comps


def _reference_steps(G, absorbing):
    """The step digraph by the parts loop that the key read replaced: on
    every edge ``u -> v`` inside the set, each non-single part of ``u`` that
    meets the via steps to it. Each via with its sources."""
    steps = {}
    for pi in absorbing.members:
        u = G.node_id(pi)
        held = [x for x in G.nodes[u] if x & (x - 1)]
        for v, via in G.adj[u]:
            for x in held:
                if x & via:
                    steps.setdefault(via, set()).add(x)
    return steps


def _inlist_family_search(G, absorbing, roots=None):
    """Reference for ``_family_search``: in-lists for every member, the
    searches of ``_root_cycles``, every ring walk of every new cycle taken,
    and the stop checked only between searches, once every component of
    two or more coalitions of the step digraph (``_reference_step_sccs``)
    is one family. The families and the members searched from, in order."""
    into = _in_edges(G, absorbing)
    unmerged = [set(comp) for comp in _reference_step_sccs(G, absorbing)]
    if roots is None:
        roots = sorted(into, key=lambda v: (-len(into[v]), v))
    family = {}
    searched = []
    for v, cycles in (_root_cycles(G, into, roots) if unmerged else ()):
        searched.append(v)
        for vias in cycles:
            for s in range(len(vias)):
                ring = rings._ring_from_vias(vias, s)
                merged = set(ring).union(*(family.get(c, ()) for c in ring))
                for c in merged:
                    family[c] = merged
        unmerged = [comp for comp in unmerged if family.get(min(comp)) != comp]
        if not unmerged:
            break
    groups = {id(f): f for f in family.values()}
    return sorted(groups.values(), key=lambda f: tuple(sorted(f))), searched


def _reference_step_sccs(G, absorbing):
    """The strongly connected components of two or more coalitions of the
    set's step digraph (``_reference_steps``), by reachability, each sorted,
    in sorted order."""
    succ = {}
    for via, xs in _reference_steps(G, absorbing).items():
        for x in xs:
            succ.setdefault(x, set()).add(via)

    def reach(x):
        seen, todo = set(), [x]
        while todo:
            for y in succ.get(todo.pop(), ()):
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return seen

    reached = {x: reach(x) for x in succ}
    comps = {
        tuple(sorted(y for y in reached[x] if x in reached.get(y, ())))
        for x in succ
        if x in reached[x]
    }
    return sorted(c for c in comps if len(c) > 1)


def _reference_is_ring_component(g, coalitions):
    """Condition (i) as mutual reachability in the in-collection improvement
    digraph, condition (ii) over every maximal set; no shared code with
    the library's SCC routine."""
    B = sorted(set(coalitions))
    if len(B) < 3 or any(c not in g.permissible for c in B):
        return False

    def reach(forward):
        seen, todo = {B[0]}, [B[0]]
        while todo:
            d = todo.pop()
            for e in B:
                a, b = (d, e) if forward else (e, d)
                if e not in seen and a & b and unanimously_prefers(g, b, a):
                    seen.add(e)
                    todo.append(e)
        return len(seen) == len(B)

    if not (reach(True) and reach(False)):
        return False
    for mset in maximal_sets(B):
        inside = set(mset)
        if not any(breaks_maximal_set(g, r, mset) for r in B if r not in inside):
            return False
    return True


def _reference_simple(g, coalitions):
    B = sorted(set(coalitions))
    for mset in maximal_sets(B):
        inside = set(mset)
        for r in B:
            if r in inside or not breaks_maximal_set(g, r, mset):
                continue
            if sum(1 for m in mset if m & r) != 1:
                return False
    return True


def _reference_compact(g, coalitions):
    B = sorted(set(coalitions))
    if _reference_simple(g, B):
        return maximal_sets(B)
    return [(r,) for r in B]


# --- protection -------------------------------------------------------------

# the reference pool search runs on pools of at most this many agents, and
# gives up after this many ring candidates
REFERENCE_POOL_AGENTS = 6
REFERENCE_CANDIDATES = 2000


def _reference_prevents(g, party, c):
    if c in party.coalitions:
        return False

    def dissents(cp):
        return any(prefers(g, i, cp, c) for i in members(cp & c))

    if party.kind == SINGLE:
        return dissents(party.coalitions[0])
    return all(any(cp & c and dissents(cp) for cp in E) for E in party.compact)


def _reference_witnesses(g, by, c):
    witnesses = []
    for E in [by.coalitions] if by.kind == SINGLE else by.compact:
        for cp in E:
            hit = next((i for i in members(cp & c) if prefers(g, i, cp, c)), None)
            if hit is not None:
                witnesses.append((cp, hit))
                break
    return witnesses


def _reference_certificates(g, D):
    """The breaker walk from the definitions: ``breaks`` for every
    candidate, ``prevents`` for every party, then a second search for the
    witnesses of the preventing party."""
    out = []
    for party in D.parties:
        if party.kind == POOL:
            continue
        breakers = []
        for c in g.permissible:
            if c in party.coalitions or not breaks(g, c, party.coalitions):
                continue
            by = next(
                (
                    p
                    for p in D.parties
                    if p.kind != POOL and c not in p.coalitions and p.agents & c
                    and _reference_prevents(g, p, c)
                ),
                None,
            )
            witnesses = [] if by is None else _reference_witnesses(g, by, c)
            breakers.append({"coalition": c, "prevented_by": by, "witnesses": witnesses})
        out.append({"party": party, "breakers": breakers})
    return out


def _defined_breakers(g, coalitions):
    """The definition: the coalitions breaking some maximal set, less the
    collection's own."""
    return [
        c
        for c in g.permissible
        if c not in coalitions
        and any(breaks_maximal_set(g, c, mset) for mset in maximal_sets(coalitions))
    ]


def _reference_parties(g, absorbing, comps):
    """The parties of a non-trivial set read with one set per member: a
    ring component covering every member, then each coalition held in all,
    then a pool of the agents left."""
    parties = []
    part_sets = [set(pi) for pi in absorbing.members]
    covered = 0
    for rc in comps:
        if all(any(r in ps for r in rc.coalitions) for ps in part_sets):
            parties.append(Party(RING, rc.coalitions, rc.compact))
            for c in rc.coalitions:
                covered |= c
    for c in g.permissible:
        if all(c in ps for ps in part_sets):
            parties.append(Party(SINGLE, (c,)))
            covered |= c
    rest = (1 << g.n) - 1 & ~covered
    if rest:
        parties.append(Party(POOL, tuple(1 << b for b in range(g.n) if rest >> b & 1)))
    return parties


def _with_pool(g, parties):
    """The decomposition of the coalition ``parties`` and a pool of the
    agents they leave out."""
    rest = (1 << g.n) - 1
    for p in parties:
        rest &= ~p.agents
    pool = [Party(POOL, tuple(1 << b for b in range(g.n) if rest >> b & 1))] if rest else []
    return decomposition(list(parties) + pool)


def candidates(g, decs):
    """(decomposition, listed) for the listed decompositions ``decs``, the
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
    subsets = (
        sub
        for comp in rings._pref_digraph_sccs(g, ks)
        for r in range(3, len(comp) + 1)
        for sub in itertools.combinations(sorted(ks[i] for i in comp), r)
    )
    for sub in itertools.islice(subsets, REFERENCE_CANDIDATES):
        rc = rings._ring_component(g, sub)
        if rc is not None:
            party = Party(RING, rc.coalitions, rc.compact)
            if is_protected(g, party, D):
                return party
    return None


# --- the game tables --------------------------------------------------------


def _reference_permissible(g):
    """K as computed before counting: coalitions every member keys below
    their singleton."""
    cands = set()
    for ranking in g.rankings:
        cands.update(c for c in ranking if c.bit_count() >= 2)
    return tuple(sorted(
        c for c in cands if all(g._key(i, c) < g._key(i, singleton(i)) for i in members(c))
    ))


def _reference_tables(n, rankings):
    """``(rankings, permissible, pos)`` as ``Game`` built them: the rows
    converted and checked entry by entry, then the position tables, then
    the permissible set counted from the rankings."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MalformedInput(f"agent count must be a positive integer, got {n!r}")
    if n > 63:
        raise MalformedInput(f"at most 63 agents are supported, got {n}")
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
    pos = tuple({c: p for p, c in enumerate(ranking)} for ranking in out)
    count = {}
    for i, ranking in enumerate(out):
        for c in ranking:
            if c == 1 << i:
                break
            count[c] = count.get(c, 0) + 1
    permissible = tuple(sorted(c for c, k in count.items() if k == c.bit_count()))
    return tuple(out), permissible, pos


def _reference_from_dict(obj):
    """``game_from_dict``'s type checks over every row, then
    ``_reference_tables``."""
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
    rankings = {}
    for key, ranking in prefs.items():
        try:
            agent = int(key)
        except (TypeError, ValueError):
            raise MalformedInput(f"preference key {key!r} is not an agent id") from None
        if not 1 <= agent <= (n if n >= 1 else 0):
            raise AgentIdOutOfRange(f"preference key {agent} is out of range 1..{n}")
        if agent in rankings:
            raise MalformedInput(f"agent {agent} listed twice")
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
    return _reference_tables(n, rankings)


def _reference_pair_tables(spec):
    """The pair front ends' rankings, each pair converted by ``coalition``."""
    rankings = {
        i: [coalition((i, p)) for p in spec.preferences[i]] + [coalition((i,))]
        for i in range(1, spec.n + 1)
    }
    return _reference_tables(spec.n, rankings)
