"""The straightforward spatial-code reader, kept as a test oracle.

hkdiag.spatial.parse_code strips comments only where a line holds a `#`,
checks each crossing id once and reads a pass line's sign token whole. This
module keeps the reader it replaced, which checks every token of every line
afresh, in the same order. Both must return equal codes or raise the same
StructureError at the same line. Only the code types, the validity check
and the meta reader (which did not change) come from the library.
"""

import re

from hkdiag.spatial import (
    Crossing,
    EdgeCode,
    Pass,
    SpatialGraphCode,
    StructureError,
    VertexCode,
    _prov_from_meta,
)

_ID_RE = re.compile(r"^[A-Za-z0-9_+-]+$")


def _check_id(token, lineno):
    if not _ID_RE.match(token):
        raise StructureError(f"bad identifier {token!r}", lineno)
    return token


def token_by_token_parse_code(text):
    kind = None
    graph_line = lineno = None
    vertices = []
    edge_reads = []
    passes = {}  # by edge id
    signs = {}
    meta = {}
    meta_lines = {}
    lines = {"vertex": {}, "edge": {}, "crossing": {}}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive = tokens[0]
        if directive == "graph":
            if kind is not None:
                raise StructureError("second graph line", lineno)
            if len(tokens) != 2:
                raise StructureError("graph line needs: graph <kind>", lineno)
            kind, graph_line = tokens[1], lineno
        elif directive == "vertex":
            if len(tokens) < 3 or tokens[2] != "ends":
                raise StructureError("vertex line needs: vertex <id> ends <e.side>...", lineno)
            ends = []
            for token in tokens[3:]:
                eid, _, side = token.rpartition(".")
                if side not in ("0", "1") or not eid:
                    raise StructureError(f"bad end token {token!r}", lineno)
                ends.append((_check_id(eid, lineno), int(side)))
            vertices.append(VertexCode(_check_id(tokens[1], lineno), tuple(ends)))
            lines["vertex"][tokens[1]] = lineno
        elif directive == "edge":
            if len(tokens) == 2:
                name, tail, head = _check_id(tokens[1], lineno), None, None
            else:
                rest = tokens[2:]
                if rest and rest[0] == "loop":
                    rest = rest[1:]
                if len(rest) != 4 or rest[0] != "from" or rest[2] != "to":
                    raise StructureError(
                        "edge line needs: edge <id> [loop] from <v> to <v>", lineno)
                name = _check_id(tokens[1], lineno)
                tail, head = _check_id(rest[1], lineno), _check_id(rest[3], lineno)
            lines["edge"][name] = lineno
            passes[name] = []
            edge_reads.append((name, tail, head, passes[name]))
        elif directive == "pass":
            if len(tokens) != 5 or not tokens[4].startswith("sign="):
                raise StructureError(
                    "pass line needs: pass <edge> <crossing> over|under sign=+|-", lineno)
            name, cid, position = tokens[1], _check_id(tokens[2], lineno), tokens[3]
            if name not in passes:
                raise StructureError(f"pass for undeclared edge {name!r}", lineno)
            if position not in ("over", "under"):
                raise StructureError(f"bad pass position {position!r}", lineno)
            sign_token = tokens[4][len("sign="):]
            if sign_token not in ("+", "-"):
                raise StructureError(f"bad sign {sign_token!r}", lineno)
            sign = 1 if sign_token == "+" else -1
            if signs.setdefault(cid, sign) != sign:
                raise StructureError(f"crossing {cid} has conflicting signs", lineno)
            passes[name].append(Pass(cid, position))
            lines["crossing"][cid] = lineno
        elif directive == "meta":
            for token in tokens[1:]:
                key, eq, value = token.partition("=")
                if not eq:
                    raise StructureError(f"bad meta token {token!r}", lineno)
                meta[key], meta_lines[key] = value, lineno
        else:
            raise StructureError(f"unknown directive {directive!r}", lineno)

    if kind is None:
        raise StructureError("missing graph line", lineno)
    edges = tuple(EdgeCode(name, tail, head, tuple(visits))
                  for name, tail, head, visits in edge_reads)
    crossings = tuple(Crossing(cid, s) for cid, s in sorted(signs.items()))
    g = SpatialGraphCode(kind, tuple(vertices), edges, crossings,
                         _prov_from_meta(meta, meta_lines))
    if g.violations:
        v = g.violations[0]
        raise StructureError(v.message, max((lines[k][i] for k, i in v.where), default=graph_line))
    return g
