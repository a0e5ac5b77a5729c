"""Command line interface.

Three subcommands: ``analyze`` reports structures, absorbing sets, ring
components, stable decompositions and the convergence verdict for a game;
``generate`` emits random game or matching-spec JSON; ``verify`` checks a
proposed decomposition. Reports are deterministic; timing goes to stderr.
``analyze`` works each section out once into a ``Report``, which the text
and the JSON form only render: each decomposition comes with the protection
walk and the D-structures its re-check built, and the JSON certificates add
only the witnesses of prevented breakers. The JSON report is written in one
pass, byte for byte what ``json.dumps(doc, indent=2)`` prints for the
document it describes.

The command line is declared once, in ``_COMMANDS``. A command line that
names a subcommand, then its positional, then exact long options with
values not starting with ``-`` is read from that table without importing
argparse; argparse, built from the same table, parses every other one and
writes every usage message, error and help text.

Exit codes: 0 on success (the verify verdict, positive or negative, is
printed); 1 when the exploration limit is exceeded (``analyze`` prints a
partial report); 2 on malformed input, an input file that cannot be read or
is not text in the locale's encoding, a ``--dot`` path that cannot be
written, or a ``--limit`` that is not a positive integer; 141
(``EXIT_PIPE_CLOSED``) when the reader of standard output closes it before
the output is written, with nothing more printed.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
import time
import types
from json.encoder import encode_basestring_ascii as _json_str

from .core import (
    Game, _Record, compact_coalition, game_from_dict, parse_game_dsl, render_coalition,
)
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
    try:
        if source == "-":
            return sys.stdin.read()
        with open(source) as f:
            return f.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read {source}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"cannot read {source}: {exc}") from None


def _loads(text: str, error: type[StabledecError], what: str):
    """``json.loads(text)``, raising ``error`` with one line for input it
    refuses. ``int()`` refuses a literal past the interpreter's digit limit
    with a plain ``ValueError`` whose message asks for a Python call."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        if type(exc) is ValueError:
            exc = f"an integer has more than {sys.get_int_max_str_digits()} digits"
        raise error(f"{what}: {exc}") from None


def load_game(text: str) -> Game:
    """Game from JSON (game, roommate or marriage schema) or the text form,
    which never starts with ``{`` or ``[``."""
    stripped = text.lstrip()
    if not stripped:
        raise MalformedInput("empty input")
    if not stripped.startswith(("{", "[")):
        return parse_game_dsl(text)
    obj = _loads(stripped, MalformedInput, "invalid JSON")
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
    (list of parties, each a list of coalitions as agent lists).

    The text form is read into the JSON form's lists, one id per digit, so
    ``{{12,3}}`` is ``[[[1,2],[3]]]``. A coalition whose ids all lie in
    ``1..n`` is read straight to its mask, repeated ids ORed together as
    ``coalition`` does. Any other one stays a tuple of its ids, so that
    ``make_party`` refuses it in its own words."""
    s = "".join(text.split())
    n = g.n
    if s.startswith("["):
        obj = _loads(s, MalformedParty, "invalid JSON decomposition")
        if not isinstance(obj, list) or not all(isinstance(p, list) for p in obj):
            raise MalformedParty("JSON decomposition must be a list of parties")
    else:
        if not (s.startswith("{") and s.endswith("}")):
            raise MalformedParty(f"unparseable decomposition: {text!r}")
        if n > 9:
            raise MalformedParty("the text form supports 1..9 agents; use the JSON form")
        body = s[1:-1]
        parties = _PARTY_BODY.findall(body)
        if ",".join("{" + p + "}" for p in parties) != body:
            raise MalformedParty(f"unparseable decomposition: {text!r}")
        obj = []
        for p in parties:
            tokens = p.split(",") if p else []
            if any(not (t.isascii() and t.isdigit()) for t in tokens):
                raise MalformedParty(f"unparseable party: {{{p}}}")
            obj.append([list(map(int, t)) for t in tokens])
    collections = []
    for party in obj:
        coals = []
        for c in party:
            if not isinstance(c, list):
                raise MalformedParty("coalitions must be lists of agent ids")
            mask, agents = 0, True
            for a in c:
                # JSON numbers load as int, bool or float
                if type(a) is not int:
                    raise MalformedParty("coalitions must be lists of agent ids")
                if 0 < a <= n:
                    mask |= 1 << a - 1
                else:
                    agents = False
            coals.append(mask if agents else tuple(c))
        collections.append(coals)
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


class Report(_Record):
    """The sections of one analysis, filled in by ``analyze``. A section is
    ``None`` when it was not asked for or the exploration limit ended the
    analysis before it.

    - ``rings``: (absorbing set index, ring component) pairs;
    - ``decompositions``: (decomposition, protection walk, D-structures)
      triples, as the re-check built them.
    """

    __slots__ = _fields = (
        "game", "structures", "absorbing_sets", "rings", "decompositions", "converges",
        "limit_exceeded",
    )
    # mutable, so unhashable
    __hash__ = None

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


# ``json.dumps(indent=2)`` starts each line at depth d with ``_NL[d]`` and
# separates the items of a list or object at depth d with ``_SEP[d]``
_NL = tuple("\n" + "  " * d for d in range(10))
_SEP = tuple("," + nl for nl in _NL)
_BOOL = {True: "true", False: "false"}


def _array(depth: int, items: list[str]) -> str:
    # a JSON list as json.dumps(indent=2) writes it, its items already
    # written for ``depth``
    if not items:
        return "[]"
    return "[" + _NL[depth] + _SEP[depth].join(items) + _NL[depth - 1] + "]"


def _object(depth: int, *fields: str) -> str:
    # a JSON object as json.dumps(indent=2) writes it, its fields already
    # written as '"key": value' for ``depth``
    return "{" + _NL[depth] + _SEP[depth].join(fields) + _NL[depth - 1] + "}"


def _render_json(report: Report, args) -> None:
    """Print the report as ``json.dumps(doc, indent=2)`` prints the document
    that ``tests/oracle.py::reference_report_doc`` builds, written in one
    pass: each coalition and singleton name is quoted once per game, each
    structure name once where it is written."""
    if report.limit_exceeded is not None:
        partial = {"schema_version": SCHEMA_VERSION, "limit_exceeded": report.limit_exceeded}
        print(json.dumps(partial))
        return
    g = report.game
    sinks = report.absorbing_sets
    # every coalition a report names is permissible or a singleton, and so
    # is every part of a structure
    names = {c: render_coalition(c) for c in g.permissible}
    names.update((1 << b, f"{{{b + 1}}}") for b in range(g.n))
    quoted = {c: _json_str(s) for c, s in names.items()}.__getitem__

    def structure(pi) -> str:
        return _json_str(" ".join([names[p] for p in pi]))

    def coalitions(depth: int, cs) -> str:
        return _array(depth, list(map(quoted, cs)))

    def breaker(b: dict) -> str:
        by = b["prevented_by"]
        witnesses = [_array(9, [quoted(cp), str(agent)]) for cp, agent in b["witnesses"]]
        return _object(
            7,
            '"breaker": ' + quoted(b["coalition"]),
            '"prevented_by": ' + ("null" if by is None else coalitions(8, by.coalitions)),
            '"witnesses": ' + _array(8, witnesses),
        )

    fields = [
        f'"schema_version": {SCHEMA_VERSION}',
        f'"agents": {g.n}',
        '"permissible": ' + coalitions(2, g.permissible),
        f'"structures": {report.structures}',
        '"stable": ' + _array(2, [structure(a.members[0]) for a in sinks if a.trivial]),
    ]
    if args.absorbing:
        sets = [
            _object(
                3,
                '"trivial": ' + _BOOL[a.trivial],
                f'"size": {len(a)}',
                '"structures": ' + _array(4, list(map(structure, a.members))),
            )
            for a in sinks
        ]
        fields.append('"absorbing_sets": ' + _array(2, sets))
    if report.rings is not None:
        rings = [
            _object(
                3,
                f'"absorbing_set": {idx}',
                '"coalitions": ' + coalitions(4, rc.coalitions),
                '"simple": ' + _BOOL[rc.simple],
                '"maximal": ' + _array(4, [coalitions(5, E) for E in rc.maximal]),
                '"compact": ' + _array(4, [coalitions(5, E) for E in rc.compact]),
            )
            for idx, rc in report.rings
        ]
        fields.append('"ring_components": ' + _array(2, rings))
    if report.decompositions is not None:
        decompositions = []
        for (d, walk, induced), a in zip(report.decompositions, sinks):
            parties = [
                _object(
                    5,
                    '"kind": ' + _json_str(p.kind),
                    '"coalitions": ' + coalitions(6, p.coalitions),
                )
                for p in d.parties
            ]
            certificates = [
                _object(
                    5,
                    '"party": ' + coalitions(6, entry["party"].coalitions),
                    '"breakers": ' + _array(6, list(map(breaker, entry["breakers"]))),
                )
                for entry in _certificates(g, walk)
            ]
            decompositions.append(
                _object(
                    3,
                    '"parties": ' + _array(4, parties),
                    '"certificates": ' + _array(4, certificates),
                    '"d_structures": ' + _array(4, [structure(ds.structure) for ds in induced]),
                    f'"generated_size": {len(a)}',
                )
            )
        fields.append('"decompositions": ' + _array(2, decompositions))
    if report.converges is not None:
        ok, witness = report.converges
        fields.append('"converges": ' + _BOOL[ok])
        fields.append('"witness": ' + ("null" if ok else structure(witness)))
    print(_object(1, *fields))


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
        import argparse

        raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}")
    return value


_INPUT = {"help": "game file (JSON or text form), '-' for stdin"}
_LIMIT = {
    "type": _positive_int,
    "default": DEFAULT_LIMIT,
    "help": "exploration cap, a positive integer (default %(default)s)",
}

# The command line, declared once. Per subcommand: its help line, the
# function that runs it, and its arguments as name -> ``add_argument``
# keywords: first the positional, then the long options, each a flag
# (``store_true``) or an option taking one value. ``_quick_parse`` reads the
# command lines it accepts from this table, and ``_parser`` builds argparse
# from it for every other one.
_COMMANDS = {
    "analyze": ("analyze a game", _cmd_analyze, {
        "input": _INPUT,
        "--absorbing": {"action": "store_true", "help": "list absorbing sets"},
        "--rings": {"action": "store_true", "help": "list ring components"},
        "--decompositions": {"action": "store_true", "help": "list stable decompositions"},
        "--converge": {"action": "store_true", "help": "decide convergence to stability"},
        "--all": {"action": "store_true", "help": "enable every section"},
        "--json": {"action": "store_true", "help": "emit a JSON report"},
        "--dot": {"metavar": "PATH", "help": "write the domination graph as DOT"},
        "--limit": _LIMIT,
    }),
    "generate": ("emit a random game or matching spec as JSON", _cmd_generate, {
        "kind": {"choices": ["random", "roommate", "marriage"]},
        "--agents": {"type": int, "default": 6, "help": "agent count (random, roommate)"},
        "--men": {"type": int, "default": 3, "help": "left side size (marriage)"},
        "--women": {"type": int, "default": 3, "help": "right side size (marriage)"},
        "--density": {"type": float, "default": None, "help": "inclusion probability"},
        "--seed": {"type": int, "default": None, "help": "RNG seed"},
    }),
    "verify": ("check a proposed stable decomposition", _cmd_verify, {
        "input": _INPUT,
        "--decomposition": {
            "required": True,
            "help": "candidate, e.g. '{{12,23,13},{45,46,56}}' or JSON party lists",
        },
        "--limit": _LIMIT,
    }),
}


@functools.cache
def _parser():
    """The argparse parser, built from ``_COMMANDS`` once per process, for
    the command lines ``_quick_parse`` declines: building it costs about ten
    times a parse."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="stabledec",
        description="Coalition formation: absorbing sets, rings and stable decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, run, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for argument, kw in arguments.items():
            command.add_argument(argument, **kw)
        command.set_defaults(run=run)
    return parser


def _quick_parse(name: str, argv: list[str]):
    """The namespace that subcommand ``name``'s parser returns for ``argv``,
    with no argument left over, when ``argv`` is the positional (``-`` or a
    value not starting with ``-``) followed by exact long option names, each
    given once, with a value not starting with ``-`` where the option takes
    one, and every required option given. ``None`` for any other ``argv``,
    and when a value fails its ``type`` or ``choices``, so that argparse
    parses it and reports what it reports."""
    _, run, arguments = _COMMANDS[name]
    if not argv or (argv[0][:1] == "-" and argv[0] != "-"):
        return None
    # argument name -> its text, None for a flag; the positional is given,
    # so its bare name is refused as an option
    given = {next(iter(arguments)): argv[0]}
    k, end = 1, len(argv)
    while k < end:
        option = argv[k]
        kw = arguments.get(option)
        if kw is None or option in given:
            return None
        if kw.get("action") == "store_true":
            given[option] = None
            k += 1
        elif k + 1 < end and argv[k + 1][:1] != "-":
            given[option] = argv[k + 1]
            k += 2
        else:
            return None
    # argparse starts from every default in declaration order, then ``run``
    values = {}
    for argument, kw in arguments.items():
        if kw.get("required") and argument not in given:
            return None
        flag = kw.get("action") == "store_true"
        values[argument.lstrip("-")] = kw.get("default", False if flag else None)
    values["run"] = run
    for argument, text in given.items():
        kw = arguments[argument]
        if text is None:
            value = True
        else:
            try:
                value = kw.get("type", str)(text)
            except Exception:
                # argparse converts it again and reports the failure;
                # ``_positive_int`` raises argparse's ArgumentTypeError
                return None
            choices = kw.get("choices")
            if choices is not None and value not in choices:
                return None
        values[argument.lstrip("-")] = value
    return types.SimpleNamespace(**values)


def _parse(argv):
    """``_parser().parse_args(argv)``. When ``argv`` starts with a subcommand
    and ``_quick_parse`` accepts the rest, that namespace, read without
    argparse; argparse parses every other ``argv``."""
    if argv is None:
        argv = sys.argv[1:]
    name = argv[0] if argv else None
    args = _quick_parse(name, argv[1:]) if name in _COMMANDS else None
    if args is None:
        return _parser().parse_args(argv)
    args.command = name
    return args


# the exit code when the reader of standard output closes it early, as a
# shell reports a program that SIGPIPE ends (128 + 13)
EXIT_PIPE_CLOSED = 141


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        code = args.run(args)
        # output still buffered fails here, not in the interpreter's exit;
        # print, unlike a bare flush, also takes a missing standard output
        print(end="", flush=True)
        return code
    except BrokenPipeError:
        # nothing more can be written: point standard output at the null
        # device, so that the interpreter's final flush prints nothing
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return EXIT_PIPE_CLOSED
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StabledecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
