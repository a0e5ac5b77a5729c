"""Command line interface.

Three subcommands: ``analyze`` reports structures, absorbing sets, ring
components, stable decompositions and the convergence verdict for a game;
``generate`` emits random game or matching-spec JSON; ``verify`` checks a
proposed decomposition. Reports are deterministic; timing goes to stderr.
``analyze`` works each section out once into a ``Report``, which the text
and the JSON form only render.

Exit codes: 0 on success (the verify verdict, positive or negative, is
printed); 1 when the exploration limit is exceeded (``analyze`` prints a
partial report); 2 on malformed input, an unreadable input file, a
``--dot`` path that cannot be written, or a ``--limit`` that is not a
positive integer.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .core import Game, compact_coalition, game_from_dict, parse_game_dsl, render_coalition
from .errors import LimitExceeded, MalformedInput, MalformedParty, StabledecError
from .structures import DEFAULT_LIMIT, render_structure
from .dynamics import to_dot
from .rings import RingComponent
from .absorbing import AbsorbingSet, Analysis, full_domination_graph
from .decomposition import (
    StableDecomposition,
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
    try:
        Path(args.dot).write_text(to_dot(graph, marked))
    except OSError as exc:
        raise MalformedInput(f"cannot write {args.dot}: {exc.strerror or exc}") from None
    print(f"wrote {args.dot}", file=sys.stderr)


@dataclass
class Report:
    """The sections of one analysis. A section is ``None`` when it was not
    asked for or the exploration limit ended the analysis before it."""

    game: Game
    structures: int | None = None
    absorbing_sets: list[AbsorbingSet] | None = None
    # (absorbing set index, ring component) pairs
    rings: list[tuple[int, RingComponent]] | None = None
    decompositions: list[StableDecomposition] | None = None
    converges: tuple[bool, tuple[int, ...] | None] | None = None
    limit_exceeded: str | None = None


def analyze(g: Game, rings: bool, decompositions: bool, converge: bool, limit: int) -> Report:
    """Work out each asked-for section once, in report order. A
    ``LimitExceeded`` ends the analysis; the sections finished stay."""
    report = Report(g)
    try:
        an = Analysis(g, limit=limit)
        report.structures = an.structure_count
        report.absorbing_sets = sinks = an.absorbing_sets()
        if rings:
            report.rings = [
                (idx, rc)
                for idx, a in enumerate(sinks)
                if not a.trivial
                for rc in an.ring_components(idx)
            ]
        if decompositions:
            report.decompositions = factored_decompositions(an)
        if converge:
            report.converges = factored_convergence(an)
    except LimitExceeded as exc:
        report.limit_exceeded = str(exc)
    return report


def _render_text(report: Report, args) -> None:
    n = report.game.n
    out: list[str] = []
    if report.absorbing_sets is not None:
        sinks = report.absorbing_sets
        stable = [a.members[0] for a in sinks if a.trivial]
        permissible = report.game.permissible
        kk = ", ".join(compact_coalition(c, n) for c in permissible)
        out.append(f"agents: {n}")
        out.append(f"permissible coalitions ({len(permissible)}): {kk}")
        out.append(f"structures: {report.structures}")
        out.append(f"stable structures: {len(stable)}")
        out.extend(f"  {_fmt_structure(pi, n)}" for pi in stable)
        if args.absorbing:
            out.append(f"absorbing sets: {len(sinks)}")
            for idx, a in enumerate(sinks, 1):
                if a.trivial:
                    out.append(f"  #{idx} trivial: {_fmt_structure(a.members[0], n)}")
                else:
                    out.append(f"  #{idx} size {len(a)}:")
                    out.extend(f"    {_fmt_structure(pi, n)}" for pi in a.members)
    if report.rings is not None:
        out.append("ring components:" if report.rings else "ring components: none")
        for idx, rc in report.rings:
            mark = "simple" if rc.simple else "not simple"
            coals = ",".join(compact_coalition(c, n) for c in rc.coalitions)
            out.append(f"  absorbing set #{idx + 1}: {{{coals}}} ({mark})")
            compact = " ".join(
                "{" + ",".join(compact_coalition(c, n) for c in E) + "}" for E in rc.compact
            )
            out.append(f"    compact collection: {compact}")
    if report.decompositions is not None:
        out.append(f"stable decompositions: {len(report.decompositions)}")
        out.extend(f"  {d.render(n)}" for d in report.decompositions)
    if report.converges is not None:
        ok, witness = report.converges
        if ok:
            out.append("converges to stability: yes")
        else:
            out.append(f"converges to stability: no (witness {_fmt_structure(witness, n)})")
    if report.limit_exceeded is not None:
        out.append(f"partial report: limit exceeded ({report.limit_exceeded})")
    print("\n".join(out))


def _render_json(report: Report, args) -> None:
    if report.limit_exceeded is not None:
        partial = {"schema_version": SCHEMA_VERSION, "limit_exceeded": report.limit_exceeded}
        print(json.dumps(partial))
        return
    g = report.game
    sinks = report.absorbing_sets
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "agents": g.n,
        "permissible": [render_coalition(c) for c in g.permissible],
        "structures": report.structures,
        "stable": [render_structure(a.members[0]) for a in sinks if a.trivial],
    }
    if args.absorbing:
        doc["absorbing_sets"] = [
            {
                "trivial": a.trivial,
                "size": len(a),
                "structures": [render_structure(pi) for pi in a.members],
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
                "certificates": _certificates_json(g, d),
                "d_structures": [render_structure(ds.structure) for ds in d_structures(g, d)],
                "generated_size": len(a),
            }
            for d, a in zip(report.decompositions, sinks)
        ]
    if report.converges is not None:
        ok, witness = report.converges
        doc["converges"] = ok
        doc["witness"] = None if ok else render_structure(witness)
    print(json.dumps(doc, indent=2))


def _certificates_json(g: Game, d) -> list[dict]:
    return [
        {
            "party": [render_coalition(c) for c in entry["party"].coalitions],
            "breakers": [
                {
                    "breaker": render_coalition(b["coalition"]),
                    "prevented_by": None
                    if b["prevented_by"] is None
                    else [render_coalition(c) for c in b["prevented_by"].coalitions],
                    "witnesses": [[render_coalition(cp), agent] for cp, agent in b["witnesses"]],
                }
                for b in entry["breakers"]
            ],
        }
        for entry in protection_certificates(g, d)
    ]


def _cmd_analyze(args) -> int:
    g = load_game(_read_input(args.input))
    if args.all:
        args.absorbing = args.rings = args.decompositions = args.converge = True
    started = time.perf_counter()
    try:
        report = analyze(g, args.rings, args.decompositions, args.converge, args.limit)
        if args.dot and report.limit_exceeded is None:
            _write_dot(g, args, report.absorbing_sets)
    finally:
        print(f"analysis time: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    (_render_json if args.json else _render_text)(report, args)
    return 1 if report.limit_exceeded is not None else 0


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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}")
    return value


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
        "--limit",
        type=_positive_int,
        default=DEFAULT_LIMIT,
        help="exploration cap, a positive integer (default %(default)s)",
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
        "--limit",
        type=_positive_int,
        default=DEFAULT_LIMIT,
        help="exploration cap, a positive integer (default %(default)s)",
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
