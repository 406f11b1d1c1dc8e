"""Combinatorics of annulus systems in genus-2 handlebody-knot exteriors.

The package splits into five layers:

- homology: exact integer linear algebra (Smith normal form, finitely
  generated abelian groups, subgroup indices, Laurent polynomials).
- diagram: characteristic diagrams of annulus systems, their constraints,
  enumeration and isomorphism.
- labeling: annulus labels on diagram edges, their slope pairs, the
  admissibility rules, the labeled catalog and the symmetry-bound table.
- spatial: diagram codes of theta-curves, handcuff graphs and links, the
  looping rewrite, graph classification and the example families.
- wirtinger: homology of complements read off a code, meridian coordinates
  and Alexander polynomial certificates.

The package namespace is lazy (PEP 562): `import hkdiag` loads no layer.
Each name in `__all__`, and each layer as `hkdiag.<layer>`, is looked up in
its module on access, importing the module on first use.
"""

import sys

__version__ = "0.1.0"

_LAYERS = ("diagram", "homology", "labeling", "spatial", "wirtinger")

# The one list of public names, by module: a new public name goes here. Each
# layer sets its __all__ from its own entry (the package is initialised before
# any layer runs, so reading this loads nothing). The two shared errors are
# read from `errors`; `diagram` and `spatial` re-export them in their __all__.
_EXPORTS = {
    "errors": ("ContradictionError", "StructureError"),
    "diagram": (
        "CharDiagram", "DiagramType", "Node", "NodeKind", "Violation", "are_isomorphic",
        "canonical_form", "classify_type", "diagram_to_json_dict", "enumerate_valid",
        "realization_status", "solid_base_annotation", "validate",
    ),
    "homology": (
        "AbelianGroup", "INFINITE", "IntMatrix", "LaurentPoly", "bareiss_det",
        "invariant_factors_of", "meridional_pair_predict", "smith_normal_form", "subgroup_index",
    ),
    "labeling": (
        "AnnulusDiagram", "CatalogEntry", "EdgeLabel", "Fact", "GroupBound",
        "SymmetryBounds", "annulus_to_json_dict", "derived_facts", "format_annulus",
        "is_fourone", "label_catalog", "labeled_isomorphic", "parse_annulus", "parse_label",
        "slope_pair_classify", "symmetry_bounds", "validate_labels",
    ),
    "spatial": (
        "AnnulusPrediction", "Crossing", "EdgeCode", "FactSet", "GraphClass", "Pass",
        "Provenance", "SpatialGraphCode", "Transition", "Unclassified", "VertexCode",
        "classify_atoroidal", "closed_braid", "constituent_links", "family_odd_ringed",
        "family_torus_link", "format_code", "linking_number", "loop_at", "looping_kind",
        "looping_transition", "mirror_code", "parse_code", "predicted_annulus", "resolve_end",
        "type_three_two_linking_test", "validate_code",
    ),
    "wirtinger": (
        "alexander_polynomial", "attach_evidence", "constituent_invariants", "h1_complement",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def _module(name: str):
    # __import__ takes the import statement's path, so -X importtime reports
    # the layer; importlib.import_module would hide it
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    # Anything outside the table fails at once: `from hkdiag import cli` asks
    # for hkdiag.cli before importing the submodule, and must not load a layer.
    if name in _LAYERS:
        return _module(name)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_module(module), name)


def __dir__():
    return sorted({*globals(), *__all__, *_LAYERS})
