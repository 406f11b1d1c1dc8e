"""The hkdiag command line tool.

Subcommands mirror the library layers: enumerate and classify work on
characteristic diagrams, symmetry reads the bound table, loop and family
build spatial graph codes, linking and analyze interrogate them. Exit codes
are 0 for success, 1 for rule violations or contradicted assertions, 2 for
malformed input, and 3 for an internal error, which prints its traceback.
A reader that closes stdout early (`| head`) gives 141, 128 + SIGPIPE, and
nothing on stderr.
A graph code with a structural defect is malformed input: every command exits
2 with its line; analyze's JSON keeps an always-empty "violations" key.

Every reply that reports facts (enumerate and the file commands) is one
_Report per input, and each fact goes into it by one call, put(key, value,
*lines): it sets the JSON member key and appends the text lines that show
it, so the two formats report the same facts in the same order. Text-only
words (edge and crossing counts, class descriptions, notes, yes/no/unknown)
stay in the lines of their fact's put. The one exception is analyze's facts:
text lists them before the class, JSON after "bridge".

Two functions own the mapping from errors to exit codes. _run_per_file runs
the file commands (validate, classify, symmetry, linking, analyze) and
reports a malformed file as "path: message" and a contradiction as
"contradiction: message" on stdout. main runs the rest (enumerate, loop,
family) and prints "error: message" (exit 2) or "rejected: message"
(exit 1) on stderr.

main(argv) may be called repeatedly in one process: it builds its argument
parser on the first call and reuses it for every later one.

Importing this module loads no layer, only the shared errors. An indented
JSON reply (enumerate and the file commands) is written by _json_text, byte
for byte what json.dumps(reply, indent=2) gives; loop and family print their
one-line {"code": ...} through json.dumps. json is imported only where JSON
is written. Each command imports the layers it calls when it runs, so a
one-shot command pays start-up only for those: enumerate imports diagram;
enumerate --labels, validate, classify and symmetry import labeling (which
loads diagram); loop, family and linking import spatial (which loads
diagram); analyze imports spatial and wirtinger (which loads homology), and
spatial loads labeling only for the ring annulus prediction of a looped code.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .errors import ContradictionError, StructureError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_STRUCTURE = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by it

_BOOL_FACTS = ("atoroidal", "planar", "split")
_EDGE_FACTS = ("tunnel", "knotting-arc")
_YES_NO = {True: "yes", False: "no", None: "unknown"}


class _Report:
    """One reply: its JSON members in data, its text lines in lines.

    A per-file reply starts with the member "file"; enumerate's has none."""

    def __init__(self, path: str | None = None):
        self.path = path
        self.lines: list[str] = []
        self.data: dict = {} if path is None else {"file": path}
        self.code = EXIT_OK

    def put(self, key: str | None, value, *lines: str) -> None:
        """Set the JSON member key to value and append the text lines that
        show it; a key of None appends the lines only."""
        if key is not None:
            self.data[key] = value
        self.lines.extend(lines)

    def fail(self, code: int, message: str) -> None:
        self.code = max(self.code, code)
        self.lines.append(message)
        self.data.setdefault("errors", []).append(message)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise StructureError(f"cannot read {path}: {err.strerror}")
    except UnicodeDecodeError:
        raise StructureError(f"cannot read {path}: not UTF-8 text") from None


def _json_text(obj) -> str:
    """obj written exactly as json.dumps(obj, indent=2) writes it.

    On Python 3.11 any indent sends json.dumps to its generator-based
    pure-Python encoder; this one recursive walk appends a piece per member
    and lets the C routine quote the strings. It takes dicts with str keys,
    lists, tuples, str, int, bool and None, picked by exact type so that True
    is never written as 1; anything else raises TypeError naming the type.
    """
    from json.encoder import encode_basestring_ascii as quote

    scalars = {str: quote, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__,
               type(None): {None: "null"}.__getitem__}
    scalar = scalars.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    pieces: list[str] = []
    _json_container(obj, "", "\n", pieces, scalars)
    return "".join(pieces)


def _json_container(o, head: str, indent: str, pieces: list[str], scalars: dict) -> None:
    """Append head and the container o, which starts on head's line, to pieces.

    A module function, not a closure over pieces: a closure that calls itself
    is a reference cycle, which would keep the pieces alive until the next
    garbage collection."""
    t = type(o)
    if t is dict:
        if not o:
            pieces.append(head + "{}")
            return
        quote = scalars[str]
        inner = indent + "  "
        head += "{" + inner
        for k, v in o.items():
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            scalar = scalars.get(type(v))
            if scalar is None:
                _json_container(v, head + quote(k) + ": ", inner, pieces, scalars)
            else:
                pieces.append(head + quote(k) + ": " + scalar(v))
            head = "," + inner
        pieces.append(indent + "}")
    elif t is list or t is tuple:
        if not o:
            pieces.append(head + "[]")
            return
        inner = indent + "  "
        head += "[" + inner
        for v in o:
            scalar = scalars.get(type(v))
            if scalar is None:
                _json_container(v, head, inner, pieces, scalars)
            else:
                pieces.append(head + scalar(v))
            head = "," + inner
        pieces.append(indent + "]")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _emit(reports: list[_Report], fmt: str) -> int:
    if fmt == "json":
        payload = [r.data for r in reports]
        print(_json_text(payload[0] if len(payload) == 1 else payload))
    else:
        chunks = []
        for r in reports:
            chunks.append("\n".join(r.lines))
        print("\n\n".join(chunks))
    return max((r.code for r in reports), default=EXIT_OK)


def _run_per_file(paths, work, fmt: str) -> int:
    """Fill one report per file with work(report) and print them all."""
    reports = []
    for path in paths:
        report = _Report(path)
        try:
            work(report)
        except StructureError as err:
            report.fail(EXIT_STRUCTURE, f"{path}: {err}")
        except ContradictionError as err:
            report.fail(EXIT_VIOLATION, f"contradiction: {err}")
        reports.append(report)
    return _emit(reports, fmt)


# --- enumerate -------------------------------------------------------------------


def _cmd_enumerate(args) -> int:
    report = _Report()
    rows, lines = [], []
    if args.labels:
        if args.drop_bigon_rule:
            raise StructureError("--drop-bigon-rule applies to the diagram classes, not to --labels")
        from . import labeling

        entries = labeling.label_catalog()
        report.put("count", len(entries), f"{len(entries)} labeled diagrams")
        for entry in entries:
            dtype = str(entry.dtype)
            rows.append({
                "type": dtype,
                "labels": list(entry.kinds),
                "realization": entry.realization,
                "constrained": entry.constrained,
                "diagram": labeling.annulus_to_json_dict(entry.diagram),
            })
            marker = " *" if entry.constrained else ""
            lines.append(f"  {dtype} {{{', '.join(entry.kinds)}}}{marker}")
        report.put("entries", rows, *lines, "entries marked * carry a symmetry bound")
    else:
        from . import diagram

        diagrams = diagram.enumerate_valid(single_bigon_rule=not args.drop_bigon_rule)
        report.put("count", len(diagrams), f"{len(diagrams)} diagram classes")
        for d in diagrams:
            t = diagram.classify_type(d)
            status = diagram.realization_status(t)
            rows.append({"type": str(t), "realization": status,
                         "diagram": diagram.diagram_to_json_dict(d)})
            lines.append(f"  {t} realization={status}")
        report.put("diagrams", rows, *lines)
    return _emit([report], args.format)


# --- validate / classify / symmetry ----------------------------------------------


def _checked(report: _Report, ad):
    """ad, or None after reporting its rule violations."""
    problems = ad.violations
    report.put("violations", [{"code": v.code, "message": v.message} for v in problems],
               *(f"{report.path}: violation [{v.code}] {v.message}" for v in problems))
    if problems:
        report.code = max(report.code, EXIT_VIOLATION)
        return None
    return ad


def _validate_worker(report: _Report) -> None:
    from . import diagram, labeling

    ad = _checked(report, labeling.parse_annulus(_read(report.path)))
    if ad is not None:
        t = diagram.classify_type(ad.base)
        report.put("type", str(t), f"{report.path}: ok, type {t}")


def _classify_worker(report: _Report) -> None:
    from . import diagram, labeling

    ad = _checked(report, labeling.parse_annulus(_read(report.path)))
    if ad is None:
        return
    t = diagram.classify_type(ad.base)
    status = diagram.realization_status(t)
    report.put("type", str(t), f"{report.path}: type {t}")
    report.put("realization", status, f"realization: {status}")
    facts = labeling.derived_facts(ad)
    report.put("facts",
               [{"code": f.code, "text": f.text, "provenance": f.provenance} for f in facts],
               *(f"  [{f.provenance}] {f.text}" for f in facts))


def _symmetry_worker(report: _Report) -> None:
    from . import labeling

    ad = _checked(report, labeling.parse_annulus(_read(report.path)))
    if ad is None:
        return
    bounds = labeling.symmetry_bounds(ad)
    if bounds is None:
        report.put("bounds", None, f"{report.path}: no bound derived")
        return
    plus, full = bounds.sym_plus.value, bounds.sym.value
    report.put("bounds", {"sym_plus": plus, "sym": full, "exact": bounds.exact},
               f"{report.path}:", f"  sym+ {plus}", f"  sym  {full}",
               f"  exact: {_YES_NO[bounds.exact]}")


# --- loop / family ----------------------------------------------------------------


def _write_code(text: str, out: str | None, fmt: str) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as err:
            raise StructureError(f"cannot write {out}: {err.strerror}") from None
        print(f"wrote {out}")
    elif fmt == "json":
        import json

        print(json.dumps({"code": text}))
    else:
        sys.stdout.write(text)


def _cmd_loop(args) -> int:
    from . import spatial

    g = spatial.parse_code(_read(args.file))
    tokens = args.pair.split(",")
    if len(tokens) != 2:
        raise StructureError("--pair needs two comma-separated edge ends")
    pair = (
        spatial.resolve_end(g, args.vertex, tokens[0].strip()),
        spatial.resolve_end(g, args.vertex, tokens[1].strip()),
    )
    result = spatial.loop_at(g, args.vertex, pair, args.tunnel, mirror=args.mirror)
    _write_code(spatial.format_code(result), args.out, args.format)
    return EXIT_OK


def _cmd_family(args) -> int:
    from . import spatial

    if args.name == "torus-link":
        if args.n is None:
            raise StructureError("torus-link needs --n")
        g = spatial.family_torus_link(args.n, tunnel=args.tunnel, mirror=args.mirror)
    elif args.name == "odd-ringed":
        if args.n is None:
            raise StructureError("odd-ringed needs --n")
        g = spatial.family_odd_ringed(args.n, ring=args.ring, mirror=args.mirror)
    else:
        from importlib import resources

        g = spatial.parse_code(
            resources.files("hkdiag").joinpath("data", "spine_5_2.txt").read_text(encoding="utf-8"))
        if args.mirror:
            g = spatial.mirror_code(g)
    _write_code(spatial.format_code(g), args.out, args.format)
    return EXIT_OK


# --- linking ----------------------------------------------------------------------


def _linking(report: _Report, components: str) -> None:
    from . import spatial

    g = spatial.parse_code(_read(report.path))
    names = [t.strip() for t in components.split(",")]
    if len(names) != 2:
        raise StructureError("--components needs two comma-separated names")
    if g.kind == "theta":
        report.fail(EXIT_VIOLATION,
                    f"{report.path}: a theta-curve has knot constituents, no linking number")
        return
    (link,) = spatial.constituent_links(g)  # a link code is its own constituent
    lk = spatial.linking_number(link, names[0], names[1])
    report.put("linking_number", lk, f"lk({names[0]}, {names[1]}) = {lk}")
    ok = spatial.type_three_two_linking_test(lk)
    report.put("mixed_type_annulus_possible", ok, "mixed-type annulus obstruction: "
               + ("satisfied" if ok else "violated (linking number is a unit)"))


# --- analyze ----------------------------------------------------------------------


def _parse_assertion(token: str, facts) -> None:
    key, eq, value = token.partition("=")
    if not eq:
        raise StructureError(f"assertion {token!r} needs key=value")
    if key in _BOOL_FACTS:
        if value not in ("true", "false"):
            raise StructureError(f"assertion {key} needs true or false")
        facts.set(key, value == "true")
    elif key not in (*_EDGE_FACTS, "trivial-knot", "nontrivial-knot"):
        raise StructureError(f"unknown assertion key {key!r}")
    elif not value:
        raise StructureError(f"assertion {key} needs a value")
    elif key in _EDGE_FACTS:
        facts.set(key, value)
    else:
        facts.set(f"knot-trivial:{value}", key == "trivial-knot")


def _analyze(report: _Report, assertions: list[str]) -> None:
    from . import diagram, spatial, wirtinger

    g = spatial.parse_code(_read(report.path))
    report.put(None, None, f"file: {report.path}")  # the text of the report's first member
    report.put("kind", g.kind,
               f"kind: {g.kind}, {len(g.edges)} edges, {len(g.crossings)} crossings")
    if g.provenance is not None:
        items = g.provenance.meta_items()
        report.put("provenance", dict(items),
                   "provenance: " + " ".join(f"{k}={v}" for k, v in items))

    report.put("violations", [])  # parse_code refuses violations; kept for scripts

    facts = spatial.FactSet()
    for token in assertions:
        _parse_assertion(token, facts)

    # a failed certificate is reported before the header
    invariants = wirtinger.constituent_invariants(g)
    wirtinger.attach_evidence(g, facts, invariants)
    # a constituent link lists its linking numbers, not its components' knots
    knots, links = invariants
    constituents, lines = [], ["constituents:"]
    if links:
        for (a, b), lk in links.items():
            constituents.append({"components": [a, b], "linking_number": lk})
            lines.append(f"  link {{{a}, {b}}}: lk = {lk}")
    else:
        for name, delta in knots.items():
            constituents.append({"component": name, "alexander": str(delta)})
            lines.append(f"  knot {name}: alexander {delta}")
    report.put("constituents", constituents, *lines)

    group, meridians = wirtinger.h1_complement(g)
    report.put("homology",
               {"group": str(group), "meridians": {eid: list(c) for eid, c in meridians.items()}},
               f"homology of the complement: {group}",
               *(f"  meridian {eid} -> {coords}" for eid, coords in meridians.items()))

    # The facts are the one member written twice: text lists them here,
    # before the class, and JSON after "bridge", where the class has been
    # decided; the two outputs keep their own order.
    if facts.entries():
        report.put(None, None, "facts:", *(f"  [{e.provenance}] {e.key} = {e.value}"
                                           for e in facts.entries()))

    if g.kind in ("theta", "handcuff"):
        classification = spatial.classify_atoroidal(g, facts)
        if isinstance(classification, spatial.GraphClass):
            report.put("class", classification.code,
                       f"class: {classification.code} ({classification.description})")
            transition = spatial.looping_transition(classification)
            targets = [t.code for t in transition.targets]
            report.put("looping_targets", targets, f"looping lands in: {' or '.join(targets)}",
                       *([f"  note: {transition.note}"] if transition.note else []))
        else:
            assert isinstance(classification, spatial.Unclassified)
            report.put("class", None)
            report.put("unclassified", {
                "reason": classification.reason,
                "needed": list(classification.needed),
            }, f"unclassified: {classification.reason}")
        if g.kind == "handcuff":
            report.put("bridge", spatial.bridge_of(g).id)

    report.put("facts", [{"key": e.key, "value": e.value, "provenance": e.provenance}
                         for e in facts.entries()])

    if g.provenance is not None and g.provenance.origin == "looping":
        prediction = spatial.predicted_annulus(g, facts)
        summary = None
        if prediction.diagram is not None:
            ad = prediction.diagram
            kinds = ", ".join(str(lab) for lab in ad.labels)
            summary = f"{diagram.classify_type(ad.base)} labels {{{kinds}}}"
        pdata = {
            "annulus_type": prediction.annulus_type,
            "annulus_count": prediction.annulus_count,
            "unknotting": prediction.unknotting,
            "exterior_irreducible_atoroidal": prediction.exterior_irreducible_atoroidal,
            "unique": prediction.unique,
            "diagram": summary,
            "notes": list(prediction.notes),
        }
        report.put("prediction", pdata, "ring annulus prediction:",
                   f"  type: {prediction.annulus_type}, count: {prediction.annulus_count}",
                   f"  unknotting: {_YES_NO[prediction.unknotting]}",
                   "  exterior irreducible and atoroidal: "
                   f"{_YES_NO[prediction.exterior_irreducible_atoroidal]}",
                   f"  unique of its type: {_YES_NO[prediction.unique]}",
                   *([f"  diagram: {summary}"] if summary is not None else []),
                   *(f"  note: {note}" for note in prediction.notes))


# --- parser -----------------------------------------------------------------------


@functools.cache  # built on the first main call, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hkdiag",
        description="annulus diagrams, loopings and homology bounds "
                    "for genus-2 handlebody-knots",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common],
                       help="list the valid diagram classes")
    p.add_argument("--labels", action="store_true",
                   help="list the labeled catalog instead of the bare classes")
    p.add_argument("--drop-bigon-rule", action="store_true",
                   help="skip the single-bigon exclusion to see what it removes")
    p.set_defaults(func=_cmd_enumerate)

    for name, text in (("validate", "check diagram files against the constraints"),
                       ("classify", "type, realization and derived facts of diagrams"),
                       ("symmetry", "symmetry-group bounds from the label table")):
        p = sub.add_parser(name, parents=[common], help=text)
        p.add_argument("files", nargs="+")
        # the worker is looked up when the command runs, so that it can be patched
        p.set_defaults(func=lambda args: _run_per_file(
            args.files, globals()[f"_{args.command}_worker"], args.format))

    p = sub.add_parser("loop", parents=[common],
                       help="loop a graph code at a vertex")
    p.add_argument("file")
    p.add_argument("--vertex", required=True)
    p.add_argument("--pair", required=True,
                   help="two edge ends to splice, e.g. a,b or k.0,t")
    p.add_argument("--tunnel", default=None,
                   help="designated tunnel edge, to name the looping kind")
    p.add_argument("--mirror", action="store_true",
                   help="reverse the handedness of the new ring")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_loop)

    p = sub.add_parser("family", parents=[common],
                       help="emit a member of a built-in family")
    p.add_argument("name", choices=("torus-link", "odd-ringed", "spine-5-2"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--tunnel", action="store_true",
                   help="torus-link: join the components with a tunnel")
    p.add_argument("--ring", choices=("one", "both"), default="one",
                   help="odd-ringed: how many strands the ring encircles")
    p.add_argument("--mirror", action="store_true")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("linking", parents=[common],
                       help="linking number of two components")
    p.add_argument("file")
    p.add_argument("--components", required=True, help="two names, e.g. a,b")
    p.set_defaults(func=lambda args: _run_per_file(
        [args.file], lambda report: _linking(report, args.components), args.format))

    p = sub.add_parser("analyze", parents=[common],
                       help="full report on a graph code")
    p.add_argument("files", nargs="+")
    p.add_argument("--assert", dest="assertions", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="facts about the looping source: atoroidal, planar, "
                        "split, tunnel=<edge>, knotting-arc=<edge>, "
                        "trivial-knot=<comp>, nontrivial-knot=<comp>")
    p.set_defaults(func=lambda args: _run_per_file(
        args.files, lambda report: _analyze(report, args.assertions), args.format))

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a reader that has gone shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed the pipe, as `| head` does: not a crash. Point
        # stdout at devnull so that the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except StructureError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_STRUCTURE
    except ContradictionError as err:
        print(f"rejected: {err}", file=sys.stderr)
        return EXIT_VIOLATION
    except Exception:  # a crash must not read as a violation or bad input
        import traceback  # only a crash pays for importing it

        print("internal error", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
