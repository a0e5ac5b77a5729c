"""Command line interface.

Three subcommands: ``analyze`` reports structures, absorbing sets, ring
components, stable decompositions and the convergence verdict for a game;
``generate`` emits random game or matching-spec JSON; ``verify`` checks a
proposed decomposition. Reports are deterministic; timing goes to stderr.

Exit codes: 0 on success (the verify verdict, positive or negative, is
printed), 1 on exploration limit exceeded, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from pathlib import Path

from .core import Game, compact_coalition, game_from_dict, parse_game_dsl, render_coalition
from .errors import LimitExceeded, MalformedInput, MalformedParty, StabledecError
from .structures import DEFAULT_LIMIT, render_structure
from .dynamics import to_dot
from .absorbing import Analysis, full_domination_graph
from .decomposition import (
    check_stable_decomposition,
    d_structures,
    decomposition_from_collections,
    factored_decompositions,
    protection_certificates,
)
from .applications import (
    MarriageSpec,
    RoommateSpec,
    factored_convergence,
    marriage_to_game,
    random_game,
    random_marriage_spec,
    random_roommate_spec,
    roommate_to_game,
)

SCHEMA_VERSION = 1


def _read_input(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    try:
        return Path(source).read_text()
    except OSError as exc:
        raise MalformedInput(f"cannot read {source}: {exc.strerror or exc}") from None


def load_game(text: str) -> Game:
    """Game from JSON (game, roommate or marriage schema) or the text form."""
    stripped = text.lstrip()
    if not stripped:
        raise MalformedInput("empty input")
    if not stripped.startswith("{"):
        return parse_game_dsl(text)
    try:
        obj = json.loads(stripped)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise MalformedInput("JSON input must be an object")
    if "men" in obj:
        spec = MarriageSpec(obj.get("men"), obj.get("women"), obj.get("preferences", {}))
        return marriage_to_game(spec)
    if "agents" in obj:
        return game_from_dict(obj)
    if "n" in obj:
        return roommate_to_game(RoommateSpec(obj.get("n"), obj.get("preferences", {})))
    raise MalformedInput("JSON object is not a game, roommate or marriage spec")


def _fmt_structure(pi, n: int) -> str:
    return "{" + ",".join(compact_coalition(p, n) for p in pi) + "}"


_PARTY_BODY = re.compile(r"\{([^{}]*)\}")


def parse_decomposition(g: Game, text: str):
    """A decomposition from ``{{12,23,13},{45,46,56}}`` or the JSON form
    (list of parties, each a list of coalitions as agent lists)."""
    s = "".join(text.split())
    if s.startswith("["):
        try:
            obj = json.loads(s)
        except json.JSONDecodeError as exc:
            raise MalformedParty(f"invalid JSON decomposition: {exc}") from None
        if not isinstance(obj, list) or not all(isinstance(p, list) for p in obj):
            raise MalformedParty("JSON decomposition must be a list of parties")
        collections = []
        for party in obj:
            coals = []
            for c in party:
                if not isinstance(c, list) or not all(isinstance(a, int) for a in c):
                    raise MalformedParty("coalitions must be lists of agent ids")
                coals.append(tuple(c))
            collections.append(coals)
        return decomposition_from_collections(g, collections)
    if not (s.startswith("{") and s.endswith("}")):
        raise MalformedParty(f"unparseable decomposition: {text!r}")
    if g.n > 9:
        raise MalformedParty("the text form supports 1..9 agents; use the JSON form")
    body = s[1:-1]
    parties = _PARTY_BODY.findall(body)
    if ",".join("{" + p + "}" for p in parties) != body:
        raise MalformedParty(f"unparseable decomposition: {text!r}")
    collections = []
    for p in parties:
        tokens = p.split(",") if p else []
        if any(not t.isdigit() for t in tokens):
            raise MalformedParty(f"unparseable party: {{{p}}}")
        collections.append([tuple(int(ch) for ch in t) for t in tokens])
    return decomposition_from_collections(g, collections)


def _write_dot(g: Game, args, sinks) -> None:
    # the one section that needs the whole product graph
    graph = full_domination_graph(g, limit=args.limit)
    marked = [graph.node_id(pi) for a in sinks for pi in a.members]
    Path(args.dot).write_text(to_dot(graph, marked))
    print(f"wrote {args.dot}", file=sys.stderr)


def _analyze_text(g: Game, args, out: list[str]) -> None:
    n = g.n
    an = Analysis(g, limit=args.limit)
    sinks = an.absorbing_sets()
    stable = [a.members[0] for a in sinks if a.trivial]
    kk = ", ".join(compact_coalition(c, n) for c in g.permissible)
    out.append(f"agents: {n}")
    out.append(f"permissible coalitions ({len(g.permissible)}): {kk}")
    out.append(f"structures: {an.structure_count}")
    out.append(f"stable structures: {len(stable)}")
    for pi in stable:
        out.append(f"  {_fmt_structure(pi, n)}")
    if args.absorbing:
        out.append(f"absorbing sets: {len(sinks)}")
        for idx, a in enumerate(sinks, 1):
            if a.trivial:
                out.append(f"  #{idx} trivial: {_fmt_structure(a.members[0], n)}")
            else:
                out.append(f"  #{idx} size {len(a)}:")
                for pi in a.members:
                    out.append(f"    {_fmt_structure(pi, n)}")
    if args.rings:
        lines = []
        for idx, a in enumerate(sinks, 1):
            if a.trivial:
                continue
            for rc in an.ring_components(idx - 1):
                mark = "simple" if rc.simple else "not simple"
                coals = ",".join(compact_coalition(c, n) for c in rc.coalitions)
                lines.append(f"  absorbing set #{idx}: {{{coals}}} ({mark})")
                compact = " ".join(
                    "{" + ",".join(compact_coalition(c, n) for c in E) + "}"
                    for E in rc.compact
                )
                lines.append(f"    compact collection: {compact}")
        if lines:
            out.append("ring components:")
            out.extend(lines)
        else:
            out.append("ring components: none")
    if args.decompositions:
        decs = factored_decompositions(an)
        out.append(f"stable decompositions: {len(decs)}")
        for d in decs:
            out.append(f"  {d.render(n)}")
    if args.converge:
        ok, witness = factored_convergence(an)
        if ok:
            out.append("converges to stability: yes")
        else:
            out.append(
                f"converges to stability: no (witness {_fmt_structure(witness, n)})"
            )
    if args.dot:
        _write_dot(g, args, sinks)


def _analyze_json(g: Game, args) -> dict:
    an = Analysis(g, limit=args.limit)
    sinks = an.absorbing_sets()
    stable = [a.members[0] for a in sinks if a.trivial]
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "agents": g.n,
        "permissible": [render_coalition(c) for c in g.permissible],
        "structures": an.structure_count,
        "stable": [render_structure(pi) for pi in stable],
    }
    if args.absorbing:
        report["absorbing_sets"] = [
            {
                "trivial": a.trivial,
                "size": len(a),
                "structures": [render_structure(pi) for pi in a.members],
            }
            for a in sinks
        ]
    if args.rings:
        entries = []
        for idx, a in enumerate(sinks):
            if a.trivial:
                continue
            for rc in an.ring_components(idx):
                entries.append(
                    {
                        "absorbing_set": idx,
                        "coalitions": [render_coalition(c) for c in rc.coalitions],
                        "simple": rc.simple,
                        "maximal": [
                            [render_coalition(c) for c in E] for E in rc.maximal
                        ],
                        "compact": [
                            [render_coalition(c) for c in E] for E in rc.compact
                        ],
                    }
                )
        report["ring_components"] = entries
    if args.decompositions:
        decs = factored_decompositions(an)
        entries = []
        for d, a in zip(decs, sinks):
            entry = {
                "parties": [
                    {
                        "kind": p.kind,
                        "coalitions": [render_coalition(c) for c in p.coalitions],
                    }
                    for p in d.parties
                ],
                "certificates": _certificates_json(g, d),
                "d_structures": [
                    render_structure(ds.structure) for ds in d_structures(g, d)
                ],
                "generated_size": len(a),
            }
            entries.append(entry)
        report["decompositions"] = entries
    if args.converge:
        ok, witness = factored_convergence(an)
        report["converges"] = ok
        report["witness"] = None if ok else render_structure(witness)
    if args.dot:
        _write_dot(g, args, sinks)
    return report


def _certificates_json(g: Game, d) -> list[dict]:
    out = []
    for entry in protection_certificates(g, d):
        breakers = []
        for b in entry["breakers"]:
            by = b["prevented_by"]
            breakers.append(
                {
                    "breaker": render_coalition(b["coalition"]),
                    "prevented_by": None
                    if by is None
                    else [render_coalition(c) for c in by.coalitions],
                    "witnesses": [
                        [render_coalition(cp), agent] for cp, agent in b["witnesses"]
                    ],
                }
            )
        out.append(
            {
                "party": [render_coalition(c) for c in entry["party"].coalitions],
                "breakers": breakers,
            }
        )
    return out


def _cmd_analyze(args) -> int:
    g = load_game(_read_input(args.input))
    if args.all:
        args.absorbing = args.rings = args.decompositions = args.converge = True
    started = time.perf_counter()
    if args.json:
        try:
            report = _analyze_json(g, args)
        except LimitExceeded as exc:
            print(json.dumps({"schema_version": SCHEMA_VERSION, "limit_exceeded": str(exc)}))
            return 1
        finally:
            print(f"analysis time: {time.perf_counter() - started:.3f}s", file=sys.stderr)
        print(json.dumps(report, indent=2))
        return 0
    out: list[str] = []
    try:
        _analyze_text(g, args, out)
    except LimitExceeded as exc:
        out.append(f"partial report: limit exceeded ({exc})")
        print("\n".join(out))
        return 1
    finally:
        print(f"analysis time: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    print("\n".join(out))
    return 0


def _cmd_generate(args) -> int:
    density = args.density
    if args.kind == "random":
        density = 0.35 if density is None else density
        obj = random_game(args.agents, density, args.seed).to_dict()
    elif args.kind == "roommate":
        density = 0.5 if density is None else density
        obj = random_roommate_spec(args.agents, density, args.seed).to_dict()
    else:
        density = 0.7 if density is None else density
        obj = random_marriage_spec(args.men, args.women, density, args.seed).to_dict()
    print(json.dumps(obj, indent=2))
    return 0


def _cmd_verify(args) -> int:
    g = load_game(_read_input(args.input))
    D = parse_decomposition(g, args.decomposition)
    violations = check_stable_decomposition(g, D, limit=args.limit)
    if not violations:
        print("stable decomposition")
    else:
        print(f"not a stable decomposition: {violations[0].describe(g.n)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabledec",
        description="Coalition formation: absorbing sets, rings and stable decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a game")
    analyze.add_argument("input", help="game file (JSON or text form), '-' for stdin")
    analyze.add_argument("--absorbing", action="store_true", help="list absorbing sets")
    analyze.add_argument("--rings", action="store_true", help="list ring components")
    analyze.add_argument(
        "--decompositions", action="store_true", help="list stable decompositions"
    )
    analyze.add_argument(
        "--converge", action="store_true", help="decide convergence to stability"
    )
    analyze.add_argument("--all", action="store_true", help="enable every section")
    analyze.add_argument("--json", action="store_true", help="emit a JSON report")
    analyze.add_argument("--dot", metavar="PATH", help="write the domination graph as DOT")
    analyze.add_argument(
        "--limit", type=int, default=DEFAULT_LIMIT, help="exploration cap (default %(default)s)"
    )
    analyze.set_defaults(run=_cmd_analyze)

    gen = sub.add_parser("generate", help="emit a random game or matching spec as JSON")
    gen.add_argument("kind", choices=["random", "roommate", "marriage"])
    gen.add_argument("--agents", type=int, default=6, help="agent count (random, roommate)")
    gen.add_argument("--men", type=int, default=3, help="left side size (marriage)")
    gen.add_argument("--women", type=int, default=3, help="right side size (marriage)")
    gen.add_argument("--density", type=float, default=None, help="inclusion probability")
    gen.add_argument("--seed", type=int, default=None, help="RNG seed")
    gen.set_defaults(run=_cmd_generate)

    verify = sub.add_parser("verify", help="check a proposed stable decomposition")
    verify.add_argument("input", help="game file (JSON or text form), '-' for stdin")
    verify.add_argument(
        "--decomposition",
        required=True,
        help="candidate, e.g. '{{12,23,13},{45,46,56}}' or JSON party lists",
    )
    verify.add_argument(
        "--limit", type=int, default=DEFAULT_LIMIT, help="exploration cap (default %(default)s)"
    )
    verify.set_defaults(run=_cmd_verify)
    return parser


# one parser per process: building it costs about ten times a parse
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StabledecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
