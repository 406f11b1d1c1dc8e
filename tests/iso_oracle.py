"""Brute-force isomorphism of (optionally edge-labeled) diagrams.

An oracle for `canonical_form`: it searches node bijections directly and
compares edge multisets pair by pair, sharing no code with the key.
"""

import itertools


def brute_force_isomorphic(d1, d2, labels1=None, labels2=None) -> bool:
    """Whether some decoration-preserving node bijection d1 -> d2 maps the
    edges, each with its label string, onto those of d2. None labels
    compare plain diagrams."""
    if len(d1.nodes) != len(d2.nodes) or len(d1.edges) != len(d2.edges):
        return False
    if labels1 is None:
        labels1 = [None] * len(d1.edges)
    if labels2 is None:
        labels2 = [None] * len(d2.edges)

    def pair_labels(d, labels, a, b):
        key = tuple(sorted((a, b)))
        return sorted(str(lab) for e, lab in zip(d.edges, labels) if e == key)

    def signature(n):
        return (n.kind.value, n.genus)

    for perm in itertools.permutations(d2.nodes):
        if any(signature(a) != signature(b) for a, b in zip(d1.nodes, perm)):
            continue
        rename = {a.id: b.id for a, b in zip(d1.nodes, perm)}
        if all(
            pair_labels(d1, labels1, a, b) == pair_labels(d2, labels2, rename[a], rename[b])
            for a, b in set(d1.edges)
        ) and sorted(
            tuple(sorted((rename[a], rename[b]))) for a, b in d1.edges
        ) == sorted(d2.edges):
            return True
    return False
