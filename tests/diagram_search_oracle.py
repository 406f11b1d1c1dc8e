"""Every candidate diagram up to a size, kept as a test oracle.

An oracle for the bounds of `enumerate_valid`, which generates up to three
unlabeled solid nodes and three edges and leaves the narrowing to
`validate`. This search goes further: a genus-2 labeled node, hollow or
solid, up to `max_extra` unlabeled solid nodes, and every multiset of 1 to
`max_edges` edges over the node pairs, loops and pairs avoiding the labeled
node included. If the rules cut out the thirteen classes, the wider search
finds no more.
"""

import itertools

from hkdiag.diagram import CharDiagram, Node, NodeKind


def candidate_diagrams(max_extra, max_edges):
    """Each candidate once, as a CharDiagram; none is filtered out."""
    for kind in NodeKind:
        for extra in range(max_extra + 1):
            nodes = [Node("v", kind, 2), *(Node(f"s{i}", NodeKind.SOLID) for i in range(extra))]
            ids = [n.id for n in nodes]
            pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i:]]
            for count in range(1, max_edges + 1):
                for edges in itertools.combinations_with_replacement(pairs, count):
                    yield CharDiagram(nodes, edges)
