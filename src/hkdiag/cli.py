"""The hkdiag command line tool.

Subcommands mirror the library layers: enumerate and classify work on
characteristic diagrams, symmetry reads the bound table, loop and family
build spatial graph codes, linking and analyze interrogate them. Exit codes
are 0 for success, 1 for rule violations or contradicted assertions, 2 for
malformed input, and 3 for an internal error, which prints its traceback.
A graph code with a structural defect is malformed input: every command exits
2 with its line; analyze's JSON keeps an always-empty "violations" key.

Two functions own the mapping from errors to exit codes. _run_per_file runs
the file commands (validate, classify, symmetry, linking, analyze) and
reports a malformed file as "path: message" and a contradiction as
"contradiction: message" on stdout. main runs the rest (enumerate, loop,
family) and prints "error: message" (exit 2) or "rejected: message"
(exit 1) on stderr.

main(argv) may be called repeatedly in one process: it builds its argument
parser on the first call and reuses it for every later one.

Importing this module loads no layer, only the shared errors. A JSON
reply is written by _json_text, byte for byte what json.dumps(reply,
indent=2) gives; json is imported only where JSON is written. Each command
imports the layers it calls when it runs, so a one-shot command pays
start-up only for those: enumerate imports diagram; enumerate --labels,
validate, classify and symmetry import labeling (which loads diagram);
loop, family and linking import spatial (which loads diagram); analyze
imports spatial and wirtinger (which loads homology), and spatial loads
labeling only for the ring annulus prediction of a looped code.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import ContradictionError, StructureError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_STRUCTURE = 2
EXIT_INTERNAL = 3

_BOOL_FACTS = ("atoroidal", "planar", "split")
_EDGE_FACTS = ("tunnel", "knotting-arc")


class _FileReport:
    """Collected output for one input file."""

    def __init__(self, path: str):
        self.path = path
        self.lines: list[str] = []
        self.data: dict = {"file": path}
        self.code = EXIT_OK

    def say(self, line: str) -> None:
        self.lines.append(line)

    def fail(self, code: int, message: str) -> None:
        self.code = max(self.code, code)
        self.say(message)
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


def _emit(reports: list[_FileReport], fmt: str) -> int:
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
        report = _FileReport(path)
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
    report = _FileReport("enumerate")
    del report.data["file"]
    if args.labels:
        if args.drop_bigon_rule:
            raise StructureError("--drop-bigon-rule applies to the diagram classes, not to --labels")
        from . import labeling

        entries = labeling.label_catalog()
        report.data["count"] = len(entries)
        rows = []
        report.say(f"{len(entries)} labeled diagrams")
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
            report.say(f"  {dtype} {{{', '.join(entry.kinds)}}}{marker}")
        report.data["entries"] = rows
        report.say("entries marked * carry a symmetry bound")
    else:
        from . import diagram

        diagrams = diagram.enumerate_valid(single_bigon_rule=not args.drop_bigon_rule)
        report.data["count"] = len(diagrams)
        report.data["diagrams"] = []
        report.say(f"{len(diagrams)} diagram classes")
        for d in diagrams:
            t = diagram.classify_type(d)
            status = diagram.realization_status(t)
            report.data["diagrams"].append(
                {"type": str(t), "realization": status, "diagram": diagram.diagram_to_json_dict(d)}
            )
            report.say(f"  {t} realization={status}")
    return _emit([report], args.format)


# --- validate / classify / symmetry ----------------------------------------------


def _checked(report: _FileReport, ad):
    """ad, or None after reporting its rule violations."""
    problems = ad.violations
    report.data["violations"] = [
        {"code": v.code, "message": v.message} for v in problems
    ]
    if problems:
        report.code = max(report.code, EXIT_VIOLATION)
        for v in problems:
            report.say(f"{report.path}: violation [{v.code}] {v.message}")
        return None
    return ad


def _validate_worker(report: _FileReport) -> None:
    from . import diagram, labeling

    ad = _checked(report, labeling.parse_annulus(_read(report.path)))
    if ad is not None:
        t = diagram.classify_type(ad.base)
        report.data["type"] = str(t)
        report.say(f"{report.path}: ok, type {t}")


def _classify_worker(report: _FileReport) -> None:
    from . import diagram, labeling

    ad = _checked(report, labeling.parse_annulus(_read(report.path)))
    if ad is None:
        return
    t = diagram.classify_type(ad.base)
    report.data["type"] = str(t)
    report.data["realization"] = diagram.realization_status(t)
    report.say(f"{report.path}: type {t}")
    report.say(f"realization: {diagram.realization_status(t)}")
    facts = labeling.derived_facts(ad)
    report.data["facts"] = [
        {"code": f.code, "text": f.text, "provenance": f.provenance} for f in facts
    ]
    for f in facts:
        report.say(f"  [{f.provenance}] {f.text}")


def _symmetry_worker(report: _FileReport) -> None:
    from . import labeling

    ad = _checked(report, labeling.parse_annulus(_read(report.path)))
    if ad is None:
        return
    bounds = labeling.symmetry_bounds(ad)
    if bounds is None:
        report.data["bounds"] = None
        report.say(f"{report.path}: no bound derived")
        return
    report.data["bounds"] = {
        "sym_plus": bounds.sym_plus.value,
        "sym": bounds.sym.value,
        "exact": bounds.exact,
    }
    report.say(f"{report.path}:")
    report.say(f"  sym+ {bounds.sym_plus.value}")
    report.say(f"  sym  {bounds.sym.value}")
    report.say(f"  exact: {'yes' if bounds.exact else 'no'}")


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


def _linking(report: _FileReport, components: str) -> None:
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
    report.data["linking_number"] = lk
    ok = spatial.type_three_two_linking_test(lk)
    report.data["mixed_type_annulus_possible"] = ok
    report.say(f"lk({names[0]}, {names[1]}) = {lk}")
    report.say("mixed-type annulus obstruction: "
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


def _analyze(report: _FileReport, assertions: list[str]) -> None:
    from . import diagram, spatial, wirtinger

    g = spatial.parse_code(_read(report.path))
    report.data["kind"] = g.kind
    report.say(f"file: {report.path}")
    report.say(f"kind: {g.kind}, {len(g.edges)} edges, {len(g.crossings)} crossings")
    if g.provenance is not None:
        items = g.provenance.meta_items()
        report.data["provenance"] = dict(items)
        report.say("provenance: " + " ".join(f"{k}={v}" for k, v in items))

    report.data["violations"] = []  # parse_code refuses violations; kept for scripts

    facts = spatial.FactSet()
    for token in assertions:
        _parse_assertion(token, facts)

    # a failed certificate is reported before the header
    invariants = wirtinger.constituent_invariants(g)
    wirtinger.attach_evidence(g, facts, invariants)
    report.say("constituents:")
    # a constituent link lists its linking numbers, not its components' knots
    knots, links = invariants
    constituents = []
    if links:
        for (a, b), lk in links.items():
            constituents.append({"components": [a, b], "linking_number": lk})
            report.say(f"  link {{{a}, {b}}}: lk = {lk}")
    else:
        for name, delta in knots.items():
            constituents.append({"component": name, "alexander": str(delta)})
            report.say(f"  knot {name}: alexander {delta}")
    report.data["constituents"] = constituents

    group, meridians = wirtinger.h1_complement(g)
    report.data["homology"] = {
        "group": str(group),
        "meridians": {eid: list(coords) for eid, coords in meridians.items()},
    }
    report.say(f"homology of the complement: {group}")
    for eid, coords in meridians.items():
        report.say(f"  meridian {eid} -> {coords}")

    if facts.entries():
        report.say("facts:")
        for entry in facts.entries():
            report.say(f"  [{entry.provenance}] {entry.key} = {entry.value}")

    if g.kind in ("theta", "handcuff"):
        classification = spatial.classify_atoroidal(g, facts)
        if isinstance(classification, spatial.GraphClass):
            report.data["class"] = classification.code
            report.say(f"class: {classification.code} ({classification.description})")
            transition = spatial.looping_transition(classification)
            targets = " or ".join(t.code for t in transition.targets)
            report.data["looping_targets"] = [t.code for t in transition.targets]
            report.say(f"looping lands in: {targets}")
            if transition.note:
                report.say(f"  note: {transition.note}")
        else:
            assert isinstance(classification, spatial.Unclassified)
            report.data["class"] = None
            report.data["unclassified"] = {
                "reason": classification.reason,
                "needed": list(classification.needed),
            }
            report.say(f"unclassified: {classification.reason}")
        if g.kind == "handcuff":
            report.data["bridge"] = spatial.bridge_of(g).id

    report.data["facts"] = [
        {"key": e.key, "value": e.value, "provenance": e.provenance}
        for e in facts.entries()
    ]

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
        report.data["prediction"] = pdata
        report.say("ring annulus prediction:")
        report.say(f"  type: {prediction.annulus_type}, count: {prediction.annulus_count}")

        def show(flag):
            return {True: "yes", False: "no", None: "unknown"}[flag]

        report.say(f"  unknotting: {show(prediction.unknotting)}")
        report.say("  exterior irreducible and atoroidal: "
                   f"{show(prediction.exterior_irreducible_atoroidal)}")
        report.say(f"  unique of its type: {show(prediction.unique)}")
        if summary is not None:
            report.say(f"  diagram: {summary}")
        for note in prediction.notes:
            report.say(f"  note: {note}")


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

    p = sub.add_parser("validate", parents=[common],
                       help="check diagram files against the constraints")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=lambda args: _run_per_file(
        args.files, _validate_worker, args.format))

    p = sub.add_parser("classify", parents=[common],
                       help="type, realization and derived facts of diagrams")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=lambda args: _run_per_file(
        args.files, _classify_worker, args.format))

    p = sub.add_parser("symmetry", parents=[common],
                       help="symmetry-group bounds from the label table")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=lambda args: _run_per_file(
        args.files, _symmetry_worker, args.format))

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
        return args.func(args)
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
