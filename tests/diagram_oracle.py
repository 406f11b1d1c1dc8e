"""Diagram queries by direct counting and search.

An oracle for the indices `CharDiagram` keeps: degrees, loops and bigons
are counted edge by edge, and a cut edge is found by removing it and
searching the rest from scratch, as the diagram model once did on every
query.
"""


def degree(d, node_id) -> int:
    return sum((a == node_id) + (b == node_id) for a, b in d.edges)


def loop_count(d) -> int:
    return sum(1 for a, b in d.edges if a == b)


def bigon_count(d) -> int:
    count = 0
    seen = set()
    for a, b in d.edges:
        if a == b or (a, b) in seen:
            continue
        seen.add((a, b))
        m = sum(1 for e in d.edges if e == (a, b))
        count += m * (m - 1) // 2
    return count


def labeled_nodes(d) -> tuple:
    return tuple(n for n in d.nodes if n.genus is not None)


def is_connected(node_ids, edges) -> bool:
    if not node_ids:
        return True
    reached = {node_ids[0]}
    frontier = [node_ids[0]]
    while frontier:
        here = frontier.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == here and y not in reached:
                    reached.add(y)
                    frontier.append(y)
    return len(reached) == len(node_ids)


def is_cut_edge(d, index) -> bool:
    """Whether removing one copy of the edge disconnects the diagram."""
    a, b = d.edges[index]
    if a == b:
        return False
    remaining = [e for i, e in enumerate(d.edges) if i != index]
    return not is_connected([n.id for n in d.nodes], remaining)
