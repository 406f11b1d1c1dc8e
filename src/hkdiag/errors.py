"""The two errors that every layer and the command line share.

They live apart from the layers so that `hkdiag.cli` can map them to exit
codes without importing any layer. `diagram` and `spatial` re-export the
same class objects, so `from hkdiag.diagram import StructureError` and
`from hkdiag.spatial import ContradictionError` keep working.
"""

from __future__ import annotations


class StructureError(ValueError):
    """Raised for input that does not describe a diagram at all.

    Distinct from a validation violation: a violation is a well-formed
    diagram breaking a domain constraint, a StructureError is a file or
    object that cannot be interpreted.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ContradictionError(ValueError):
    """Raised when a request and the code cannot both hold: asserted facts
    against computed evidence, or a looping that would disconnect the graph."""
