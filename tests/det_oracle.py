"""Dense Bareiss elimination in natural order.

An oracle for the sparse, pivoted `bareiss_det`: it eliminates every
entry below the diagonal of full rows, swapping in the first lower row with
a nonzero lead when the diagonal entry is zero, and shares no code with the
library routine.
"""


def dense_bareiss_det(rows, one=1):
    """Determinant of a square matrix over an integral domain whose entries
    support `*`, `-`, exact `//` and truthiness; `one` is the ring's unit."""
    n = len(rows)
    a = [list(row) for row in rows]
    negated = False
    prev = one
    for k in range(n - 1):
        if not a[k][k]:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return a[k][k]
            a[k], a[i] = a[i], a[k]
            negated = not negated
        pivot_row, pivot = a[k], a[k][k]
        for row in a[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                if lead and pivot_row[j]:
                    row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
                elif row[j]:
                    row[j] = row[j] * pivot // prev
        prev = pivot
    det = a[n - 1][n - 1] if n else one
    return -det if negated else det
