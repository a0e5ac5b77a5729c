"""The test suite's one copy of each definition-level reference.

Each reference is built on ``successors()``, the public definition
functions (``prefers``, ``unanimously_prefers``, ``breaks``,
``breaks_maximal_set``), ``reference_maximal_sets`` or plain loops over a
graph's nodes and edges. Where one borrows a library helper
(``rings._ring_component``, ``decomposition._certificates``, the brute
force's ``is_stable_decomposition``), that helper is not the routine it
checks. The test modules and sweeps import their references
and harness from here and their games from ``games.py``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import re
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
    EmptyCollection,
    Game,
    InconsistentRanking,
    MalformedInput,
    MalformedParty,
    NotACycle,
    Party,
    StabledecError,
    VerificationFailed,
    absorbing_sets,
    all_stable_decompositions,
    breaks,
    breaks_maximal_set,
    canonical_rotation,
    coalition,
    contains,
    converges_to_stability,
    d_structures,
    decomposition,
    make_party,
    enumerate_structures,
    factored_convergence,
    full_domination_graph,
    generated_set,
    is_protected,
    is_ring_component,
    is_stable_decomposition,
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
from stabledec.cli import SCHEMA_VERSION, main
from stabledec.decomposition import _certificates


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
    every descent and rescans ``adj[v]``, a list of target ids, from that
    pointer on resume."""
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
                w = out[k]
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


def reference_in_degrees(adj):
    """Each node's in-degree from its own component: the edges of ``adj``
    (lists of target ids) into it whose source lies in its component, the
    components taken from ``reference_tarjan``."""
    comp = {v: ci for ci, members in enumerate(reference_tarjan(adj)) for v in members}
    degree = [0] * len(adj)
    for v, out in enumerate(adj):
        for w in out:
            if comp[v] == comp[w]:
                degree[w] += 1
    return degree


def reference_reach(adj, b):
    """Nodes at the end of a path of length >= 1 from ``b`` in ``adj``
    (lists of target ids), by repeated one-step expansion of the nodes
    added last, until nothing new is added."""
    reached = new = set(adj[b])
    while new:
        new = {w for v in new for w in adj[v]} - reached
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
    is 0: the enumerate-and-filter that the pair route's search replaced."""
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
    cycle form of ``absorbing._stable_partitions``."""
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


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for j in range(len(part)):
            yield part[:j] + [[first] + part[j]] + part[j + 1 :]
        yield [[first]] + part


def _parties_for_block(g, block):
    """Every party whose agent set is exactly the block."""
    mask = 0
    for a in block:
        mask |= 1 << (a - 1)
    out = [Party(POOL, tuple(sorted(1 << (a - 1) for a in block)))]
    inside = [c for c in g.permissible if not c & ~mask]
    if mask in inside:
        out.append(Party(SINGLE, (mask,)))
    for r in range(3, len(inside) + 1):
        for combo in itertools.combinations(inside, r):
            union = 0
            for c in combo:
                union |= c
            if union == mask and is_ring_component(g, combo):
                out.append(make_party(g, combo))
    return out


def _brute_force_decompositions(g):
    """Every stable decomposition, as a frozenset of its parties: each
    partition of the agents into blocks, each block a pool, a single
    coalition or a ring component, kept when ``is_stable_decomposition``
    accepts it."""
    found = set()
    for blocks in _set_partitions(list(range(1, g.n + 1))):
        for choice in itertools.product(
            *(_parties_for_block(g, b) for b in blocks)
        ):
            d = decomposition(choice)
            if is_stable_decomposition(g, d):
                found.add(frozenset(d.parties))
    return found


def reference_decompositions(g):
    """The decomposition of each sink of the full domination graph, in
    ``sink_components`` order, read with one set per member
    (``_reference_parties``) from the ring components of the reference
    extraction and merge (``_extract_rings``, ``_merged_components``); a
    trivial sink has none. No factor, lift or member key is read."""
    G = full_domination_graph(g)
    out = []
    for a in sink_components(G):
        comps = [] if a.trivial else _merged_components(g, _extract_rings(G, a), a)
        out.append(decomposition(_reference_parties(g, a, comps)))
    return out


def census_failure(g) -> str | None:
    """What the census finds wrong with the game's decompositions, ``None``
    when nothing. They must be the brute force's, so
    ``check_stable_decomposition`` accepts exactly the listed ones, and
    those of ``reference_decompositions``, in order; one decomposition must
    generate each absorbing set, in order; ring parties must come exactly
    for the non-trivial sets; and the game must converge exactly when every
    set is trivial."""
    decs = all_stable_decompositions(g)
    sets_ = absorbing_sets(g)
    if {frozenset(d.parties) for d in decs} != _brute_force_decompositions(g):
        return "not the brute force"
    if decs != reference_decompositions(g):
        return "not the reference read off the full graph's sinks"
    if not sets_ or [generated_set(g, d_structures(g, d)[0]) for d in decs] != sets_:
        return "not one decomposition per absorbing set"
    if [not any(p.kind == RING for p in d) for d in decs] != [a.trivial for a in sets_]:
        return "ring parties not exactly for non-trivial sets"
    if converges_to_stability(g)[0] != all(a.trivial for a in sets_):
        return "convergence verdict"
    return None


def is_closure_factor(g: Game) -> bool:
    """Whether the game is pair-only without a stable matching: the
    partition search closing every cycle at length 2 finds none."""
    rows = absorbing_module._pair_rows(g)
    return rows is not None and not absorbing_module._stable_partitions(g, rows, matchings=True)


def _full_route_factor(factor, g: Game, limit: int) -> Factor:
    """``absorbing._factor``, which is ``factor``, as it was before the
    closure route: a pair-only factor without a stable matching grows its
    full graph."""
    if not is_closure_factor(g):
        return factor(g, limit)
    graph = full_domination_graph(g, limit)
    return Factor(g, tuple(sink_components(graph)), graph)


@contextlib.contextmanager
def full_route():
    """``Analysis`` on the full-graph route for pair-only factors without a
    stable matching, while the context lasts."""
    real = absorbing_module._factor
    absorbing_module._factor = functools.partial(_full_route_factor, real)
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


def _reference_ring_from_vias(vias, start_idx):
    """Reference for ``rings._ring_from_vias`` on its ``_walk_table``: the
    walk that scans forward for the next via meeting the current one at
    every jump, with no table."""
    J = len(vias)
    sel = [vias[start_idx]]
    j = start_idx
    while True:
        cur = vias[j]
        nxt = None
        for r in range(1, J):
            t = (j + r) % J
            if vias[t] & cur:
                nxt = t
                break
        if nxt is None:
            raise NotACycle("a formed coalition is never met again along the cycle")
        val = vias[nxt]
        if val in sel:
            s = sel.index(val)
            return tuple(sel[s + 1 :] + [val])
        sel.append(val)
        j = nxt
        if len(sel) > J:
            raise NotACycle("ring extraction failed to close")


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
                found.add(canonical_rotation(_reference_ring_from_vias(vias, s)))
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
        canonical_rotation(_reference_ring_from_vias(vias, s))
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


def _folded_steps(g, G, absorbing):
    """The steps that ``rings._in_degrees_and_steps`` folds per member, in
    the shape of ``_reference_steps``: each via with the coalitions that
    step to it, ``x`` stepping to ``c`` when ``c`` is in
    ``fold[x] & meets[j(x)]``."""
    ks = g.permissible
    bit, _, meets = g.expansion()
    ids = [G.node_id(pi) for pi in absorbing.members]
    _, formed, fold = rings._in_degrees_and_steps(G, ids)
    steps = {}
    for j, c in enumerate(ks):
        if formed >> j & 1:
            xs = {x for i, x in enumerate(ks) if bit[c] & fold.get(bit[x], 0) & meets[i]}
            if xs:
                steps[c] = xs
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
                ring = _reference_ring_from_vias(vias, s)
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


def reference_maximal_sets(collection):
    """``structures.maximal_sets`` as Bron-Kerbosch with Tomita's pivot
    (Tomita, Tanaka and Takahashi 2006): each call scans the candidate and
    excluded coalitions for the one with the most candidates disjoint from
    it and branches only on the candidates that share an agent with it."""
    ks = sorted({c for c in collection if c.bit_count() >= 2})
    if not ks:
        raise EmptyCollection("collection has no non-single coalition")
    # apart[i]: the indices of the coalitions disjoint from ks[i]
    full = (1 << len(ks)) - 1
    apart = [sum(1 << j for j, d in enumerate(ks) if not c & d) for c in ks]
    out = []

    def expand(chosen, cand, excl):
        if not cand:
            if not excl:
                out.append(tuple(ks[j] for j in range(len(ks)) if chosen >> j & 1))
            return
        most, skip = -1, 0
        rest = cand | excl
        while rest:
            low = rest & -rest
            rest ^= low
            left = apart[low.bit_length() - 1]
            k = (cand & left).bit_count()
            if k > most:
                most, skip = k, left
        todo = cand & ~skip
        while todo:
            low = todo & -todo
            todo ^= low
            left = apart[low.bit_length() - 1]
            expand(chosen | low, cand & left, excl & left)
            cand ^= low
            excl |= low

    expand(0, full, 0)
    return sorted(out)


def reference_breaking(g, mset):
    """The K-bits (``Game.expansion``) of the coalitions breaking the
    maximal set of K-coalitions, set by set: the AND of ``better`` over
    its members met with the OR of their ``meets``."""
    bit, better, meets = g.expansion()
    beats, hit = -1, 0
    for m in mset:
        beats &= better[m]
        hit |= meets[bit[m].bit_length() - 1]
    return beats & hit


def reference_ring_component(g, coalitions):
    """``rings._ring_component`` in three passes: condition (i) as mutual
    reachability (``_reference_condition_i``), the maximal sets
    (``reference_maximal_sets``), then ``reference_breaking`` on each set,
    which condition (ii), simpleness and the breakers read."""
    B = tuple(sorted(set(coalitions)))
    if len(B) < 3 or any(c not in g._kset for c in B):
        return None
    if not _reference_condition_i(g, B):
        return None
    bit, _, meets = g.expansion()
    inside = 0
    for c in B:
        inside |= bit[c]
    maximal = tuple(reference_maximal_sets(B))
    simple = True
    outside = 0
    for mset in maximal:
        found = reference_breaking(g, mset)
        outside |= found
        found &= inside
        if not found:
            return None
        once = twice = 0
        for m in mset:
            hit = meets[bit[m].bit_length() - 1]
            twice |= once & hit
            once |= hit
        simple = simple and not found & twice
    breakers = tuple(c for c in g.permissible if bit[c] & outside & ~inside)
    compact = maximal if simple else tuple((r,) for r in B)
    return rings.RingComponent(B, simple, maximal, compact, breakers)


def _reference_condition_i(g, B):
    """Condition (i) on the distinct permissible coalitions ``B``: mutual
    reachability in their improvement digraph, where ``a`` steps to ``b``
    when they share an agent and ``unanimously_prefers(g, b, a)``, searched
    forward and backward from ``B[0]``; no shared code with the library's
    digraph builder or SCC routine."""

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

    return reach(True) and reach(False)


def _reference_is_ring_component(g, coalitions):
    """Condition (i) as mutual reachability (``_reference_condition_i``),
    condition (ii) over every maximal set."""
    B = sorted(set(coalitions))
    if len(B) < 3 or any(c not in g.permissible for c in B):
        return False
    if not _reference_condition_i(g, B):
        return False
    for mset in reference_maximal_sets(B):
        inside = set(mset)
        if not any(breaks_maximal_set(g, r, mset) for r in B if r not in inside):
            return False
    return True


def _reference_simple(g, coalitions):
    B = sorted(set(coalitions))
    for mset in reference_maximal_sets(B):
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
        return reference_maximal_sets(B)
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
        and any(breaks_maximal_set(g, c, mset) for mset in reference_maximal_sets(coalitions))
    ]


def _reference_parties(g, absorbing, comps):
    """The parties of an absorbing set read with one set per member: a
    ring component covering every member, then each coalition held in all,
    then a pool of the agents left. A trivial set has no ring component."""
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
        if type(agent) is bool or not (isinstance(agent, int) and 1 <= agent <= n):
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
            # an int mask that is not a bool, or an iterable of agent ids
            iterable = hasattr(entry, "__iter__")
            if type(entry) is bool or not (isinstance(entry, int) or iterable):
                raise MalformedInput(
                    f"coalition entry {entry!r} is not a mask or a list of agent ids"
                )
            if isinstance(entry, int):
                mask = entry
            else:
                # an id above n is shown from the ids: it may be far above
                # the cap that coalition holds every id to
                ids = tuple(entry)
                mask = coalition(a for a in ids if type(a) is not int or a <= n)
                if any(type(a) is int and a > n for a in ids):
                    shown = ",".join(map(str, sorted({int(a) for a in ids})))
                    raise AgentIdOutOfRange(
                        f"agent {i} ranked coalition {{{shown}}} with ids above {n}"
                    )
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
        # a key is an int that is not a bool, or a string of ASCII digits
        if isinstance(key, str) and re.fullmatch("[0-9]+", key):
            agent = int(key)
        elif isinstance(key, int) and type(key) is not bool:
            agent = key
        else:
            raise MalformedInput(f"preference key {key!r} is not an agent id")
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


# --- the decomposition reader ----------------------------------------------


def reference_parse_decomposition(g, text):
    """``cli.parse_decomposition`` with every coalition kept as the tuple
    of its ids, so that ``make_party`` reads each one through
    ``coalition``."""
    s = "".join(text.split())
    if s.startswith("["):
        try:
            obj = json.loads(s)
        except (ValueError, RecursionError) as exc:
            if type(exc) is ValueError:
                exc = f"an integer has more than {sys.get_int_max_str_digits()} digits"
            raise MalformedParty(f"invalid JSON decomposition: {exc}") from None
        if not isinstance(obj, list) or not all(isinstance(p, list) for p in obj):
            raise MalformedParty("JSON decomposition must be a list of parties")
        for party in obj:
            for c in party:
                if not isinstance(c, list) or not all(
                    isinstance(a, int) and not isinstance(a, bool) for a in c
                ):
                    raise MalformedParty("coalitions must be lists of agent ids")
        return decomposition([make_party(g, [tuple(c) for c in party]) for party in obj])
    if not (s.startswith("{") and s.endswith("}")):
        raise MalformedParty(f"unparseable decomposition: {text!r}")
    if g.n > 9:
        raise MalformedParty("the text form supports 1..9 agents; use the JSON form")
    body = s[1:-1]
    parties = re.findall(r"\{([^{}]*)\}", body)
    if ",".join("{" + p + "}" for p in parties) != body:
        raise MalformedParty(f"unparseable decomposition: {text!r}")
    collections = []
    for p in parties:
        tokens = p.split(",") if p else []
        if any(not (t.isascii() and t.isdigit()) for t in tokens):
            raise MalformedParty(f"unparseable party: {{{p}}}")
        collections.append([tuple(int(ch) for ch in t) for t in tokens])
    return decomposition([make_party(g, c) for c in collections])


# --- the JSON report --------------------------------------------------------


def reference_report_doc(report, args) -> dict:
    """The document of ``stabledec analyze --json`` for a ``cli.Report`` and
    the parsed arguments, built as a tree of dicts and lists: the command
    prints ``json.dumps(doc, indent=2)`` of it, and the limit-exceeded
    document with compact ``json.dumps``."""
    if report.limit_exceeded is not None:
        return {"schema_version": SCHEMA_VERSION, "limit_exceeded": report.limit_exceeded}
    g = report.game
    sinks = report.absorbing_sets

    def structure_name(pi) -> str:
        return " ".join(render_coalition(p) for p in pi)

    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "agents": g.n,
        "permissible": [render_coalition(c) for c in g.permissible],
        "structures": report.structures,
        "stable": [structure_name(a.members[0]) for a in sinks if a.trivial],
    }
    if args.absorbing:
        doc["absorbing_sets"] = [
            {
                "trivial": a.trivial,
                "size": len(a),
                "structures": [structure_name(pi) for pi in a.members],
            }
            for a in sinks
        ]
    if report.rings is not None:
        doc["ring_components"] = [
            {
                "absorbing_set": idx,
                "coalitions": [render_coalition(c) for c in rc.coalitions],
                "simple": rc.simple,
                "maximal": [[render_coalition(c) for c in E] for E in rc.maximal],
                "compact": [[render_coalition(c) for c in E] for E in rc.compact],
            }
            for idx, rc in report.rings
        ]
    if report.decompositions is not None:
        doc["decompositions"] = [
            {
                "parties": [
                    {"kind": p.kind, "coalitions": [render_coalition(c) for c in p.coalitions]}
                    for p in d.parties
                ],
                "certificates": [
                    {
                        "party": [render_coalition(c) for c in entry["party"].coalitions],
                        "breakers": [
                            {
                                "breaker": render_coalition(b["coalition"]),
                                "prevented_by": None
                                if b["prevented_by"] is None
                                else [render_coalition(c) for c in b["prevented_by"].coalitions],
                                "witnesses": [
                                    [render_coalition(cp), agent] for cp, agent in b["witnesses"]
                                ],
                            }
                            for b in entry["breakers"]
                        ],
                    }
                    for entry in _certificates(g, walk)
                ],
                "d_structures": [structure_name(ds.structure) for ds in induced],
                "generated_size": len(a),
            }
            for (d, walk, induced), a in zip(report.decompositions, sinks)
        ]
    if report.converges is not None:
        ok, witness = report.converges
        doc["converges"] = ok
        doc["witness"] = None if ok else structure_name(witness)
    return doc
