"""Command line interface.

Three subcommands: ``analyze`` reports structures, absorbing sets, ring
components, stable decompositions and the convergence verdict for a game;
``generate`` emits random game or matching-spec JSON; ``verify`` checks a
proposed decomposition. Reports are deterministic; timing goes to stderr.
``analyze`` works each section out once into a ``Report``, which the text
and the JSON form only render: each decomposition comes with the protection
walk and the D-structures its re-check built, and the JSON certificates add
only the witnesses of prevented breakers.

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
from gettext import gettext
from json.encoder import encode_basestring_ascii as _json_str

from .core import Game, compact_coalition, game_from_dict, parse_game_dsl, render_coalition
from .errors import LimitExceeded, MalformedInput, MalformedParty, StabledecError
from .structures import DEFAULT_LIMIT
from .dynamics import to_dot
from .rings import RingComponent
from .absorbing import AbsorbingSet, Analysis, full_domination_graph
from .decomposition import (
    StableDecomposition,
    _certificates,
    _checked_decompositions,
    check_stable_decomposition,
    decomposition_from_collections,
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
        with open(source) as f:
            return f.read()
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
                if not isinstance(c, list) or not all(
                    isinstance(a, int) and not isinstance(a, bool) for a in c
                ):
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
        with open(args.dot, "w") as f:
            f.write(to_dot(graph, marked))
    except OSError as exc:
        raise MalformedInput(f"cannot write {args.dot}: {exc.strerror or exc}") from None
    print(f"wrote {args.dot}", file=sys.stderr)


class Report:
    """The sections of one analysis, filled in by ``analyze``. A section is
    ``None`` when it was not asked for or the exploration limit ended the
    analysis before it.

    - ``rings``: (absorbing set index, ring component) pairs;
    - ``decompositions``: (decomposition, protection walk, D-structures)
      triples, as the re-check built them.
    """

    __slots__ = (
        "game", "structures", "absorbing_sets", "rings", "decompositions", "converges",
        "limit_exceeded",
    )

    def __init__(
        self,
        game: Game,
        structures: int | None = None,
        absorbing_sets: list[AbsorbingSet] | None = None,
        rings: list[tuple[int, RingComponent]] | None = None,
        decompositions: list[tuple[StableDecomposition, list, list]] | None = None,
        converges: tuple[bool, tuple[int, ...] | None] | None = None,
        limit_exceeded: str | None = None,
    ) -> None:
        self.game = game
        self.structures = structures
        self.absorbing_sets = absorbing_sets
        self.rings = rings
        self.decompositions = decompositions
        self.converges = converges
        self.limit_exceeded = limit_exceeded

    def _fields(self) -> tuple:
        return (
            self.game, self.structures, self.absorbing_sets, self.rings, self.decompositions,
            self.converges, self.limit_exceeded,
        )

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    # mutable, so unhashable
    __hash__ = None

    def __repr__(self) -> str:
        names = self.__slots__
        body = ", ".join(f"{k}={v!r}" for k, v in zip(names, self._fields()))
        return f"{self.__class__.__qualname__}({body})"


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
            report.decompositions = _checked_decompositions(an)
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
        out.extend(f"  {d.render(n)}" for d, _, _ in report.decompositions)
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
    # every part of a structure is a singleton or a permissible coalition:
    # render each once, not once per structure holding it
    names = {c: render_coalition(c) for c in g.permissible}
    names.update((1 << b, f"{{{b + 1}}}") for b in range(g.n))

    def structure_name(pi) -> str:
        return " ".join([names[p] for p in pi])

    def name(c: int) -> str:
        # any other coalition, such as a witness's, is rendered on demand
        found = names.get(c)
        return render_coalition(c) if found is None else found

    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "agents": g.n,
        "permissible": [names[c] for c in g.permissible],
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
                "coalitions": [name(c) for c in rc.coalitions],
                "simple": rc.simple,
                "maximal": [[name(c) for c in E] for E in rc.maximal],
                "compact": [[name(c) for c in E] for E in rc.compact],
            }
            for idx, rc in report.rings
        ]
    if report.decompositions is not None:
        doc["decompositions"] = [
            {
                "parties": [
                    {"kind": p.kind, "coalitions": [name(c) for c in p.coalitions]}
                    for p in d.parties
                ],
                "certificates": _certificates_json(g, walk, name),
                "d_structures": [structure_name(ds.structure) for ds in induced],
                "generated_size": len(a),
            }
            for (d, walk, induced), a in zip(report.decompositions, sinks)
        ]
    if report.converges is not None:
        ok, witness = report.converges
        doc["converges"] = ok
        doc["witness"] = None if ok else structure_name(witness)
    print(_indented_json(doc))


def _indented_json(obj) -> str:
    """``json.dumps(obj, indent=2)`` for the types reports hold: dicts with
    str keys, lists, str, int, bool and None. With any indent the stdlib
    encodes in Python, not C; this writer quotes strings with its C string
    encoder and joins a list of strings in one call."""
    out: list[str] = []
    _write_json(obj, "\n", out)
    return "".join(out)


def _write_json(obj, newline: str, out: list[str]) -> None:
    # ``newline`` breaks the line and indents to the level holding ``obj``
    kind = type(obj)
    if kind is str:
        out.append(_json_str(obj))
    elif kind is list:
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "," + inner
        if type(obj[0]) is str and type(obj[-1]) is str:
            try:
                out.append("[" + inner + sep.join(map(_json_str, obj)) + newline + "]")
                return
            except TypeError:
                pass  # a non-string inside: write item by item
        out.append("[")
        for k, item in enumerate(obj):
            out.append(sep if k else inner)
            _write_json(item, inner, out)
        out.append(newline + "]")
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "," + inner
        out.append("{")
        for k, (key, value) in enumerate(obj.items()):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append((sep if k else inner) + _json_str(key) + ": ")
            _write_json(value, inner, out)
        out.append(newline + "}")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif kind is int:
        out.append(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _certificates_json(g: Game, walk, name) -> list[dict]:
    # ``name`` renders a coalition mask
    return [
        {
            "party": [name(c) for c in entry["party"].coalitions],
            "breakers": [
                {
                    "breaker": name(b["coalition"]),
                    "prevented_by": None
                    if b["prevented_by"] is None
                    else [name(c) for c in b["prevented_by"].coalitions],
                    "witnesses": [[name(cp), agent] for cp, agent in b["witnesses"]],
                }
                for b in entry["breakers"]
            ],
        }
        for entry in _certificates(g, walk)
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
    # the generators hold the default densities
    given = {} if args.density is None else {"density": args.density}
    if args.kind == "random":
        obj = random_game(args.agents, seed=args.seed, **given).to_dict()
    elif args.kind == "roommate":
        obj = random_roommate_spec(args.agents, seed=args.seed, **given).to_dict()
    else:
        obj = random_marriage_spec(args.men, args.women, seed=args.seed, **given).to_dict()
    print(_indented_json(obj))
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


def _parse(argv) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, with one parser pass when ``argv``
    starts with a subcommand: the top-level parser would hand the rest to
    that subcommand's parser and report what it leaves over, so this does
    both directly. Any other ``argv`` goes through the top-level parser."""
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(gettext("unrecognized arguments: %s") % " ".join(extra))
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse(argv)
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
