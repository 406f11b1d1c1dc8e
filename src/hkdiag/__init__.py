"""Combinatorics of annulus systems in genus-2 handlebody-knot exteriors.

The package splits into five layers:

- homology: exact integer linear algebra (Smith normal form, finitely
  generated abelian groups, loop classes, slope pairs, Laurent polynomials).
- diagram: characteristic diagrams of annulus systems, their constraints,
  enumeration and isomorphism.
- labeling: annulus labels on diagram edges, the admissibility rules, the
  labeled catalog and the symmetry-bound table.
- spatial: diagram codes of theta-curves, handcuff graphs and links, the
  looping rewrite, graph classification and the example families.
- wirtinger: homology of complements read off a code, meridian coordinates
  and Alexander polynomial certificates.
"""

from . import diagram, homology, labeling, spatial, wirtinger
from .diagram import *  # noqa: F401,F403
from .homology import *  # noqa: F401,F403
from .labeling import *  # noqa: F401,F403
from .spatial import *  # noqa: F401,F403
from .wirtinger import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (diagram, homology, labeling, spatial, wirtinger)
    for name in module.__all__
)
