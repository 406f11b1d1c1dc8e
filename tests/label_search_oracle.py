"""Every labeling of the thirteen classes over a wider alphabet, kept as a
test oracle.

An oracle for the alphabet of `label_catalog`, which tries one
representative slope for each parameterized label: k2(2), and l(2/3,3/2)
and l(2/3,6) for the reciprocal and product shapes. This search tries three
k2 slopes and six l slope pairs of both shapes, some of them negative. If
the rules R1..R8 never tell slopes of one shape apart, the wider search
finds the catalog's labelings again, up to the slope values within a shape.
"""

import itertools

from hkdiag.diagram import enumerate_valid
from hkdiag.labeling import AnnulusDiagram, parse_label

CUT_ALPHABET = tuple(map(parse_label, ("k1", "k2(2)", "k2(5/2)", "k2(-3)", "em")))
NONCUT_ALPHABET = tuple(map(parse_label, (
    "h1", "h2", "l0", "l(2/3,3/2)", "l(3/5,5/3)", "l(2/3,6)", "l(1/2,2)", "l(-2/3,-6)",
    "l(3/4,12)",
)))


def candidate_labelings():
    """Each labeling of each class once, as an AnnulusDiagram; none is
    filtered out. A cut edge draws from CUT_ALPHABET, any other edge from
    NONCUT_ALPHABET."""
    for d in enumerate_valid():
        alphabets = [CUT_ALPHABET if d.is_cut_edge(i) else NONCUT_ALPHABET
                     for i in range(len(d.edges))]
        for labels in itertools.product(*alphabets):
            yield AnnulusDiagram(d, labels)
