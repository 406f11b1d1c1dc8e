"""The package namespace: hkdiag re-exports each module's __all__, its
source keeps to exact arithmetic and the standard library, and every name
the benchmark's tracer hooks still exists."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import hkdiag
from hkdiag import diagram, homology, labeling, spatial, wirtinger

EXPORTED = {
    "AbelianGroup", "AnnulusDiagram", "AnnulusPrediction", "CatalogEntry",
    "CharDiagram", "ContradictionError", "Crossing", "DiagramType", "EdgeCode",
    "EdgeLabel", "Fact", "FactSet", "GraphClass", "GroupBound", "INFINITE",
    "IntMatrix", "LaurentPoly", "Node", "NodeKind", "Pass",
    "Provenance",
    "SpatialGraphCode", "StructureError", "SymmetryBounds", "Transition",
    "Unclassified", "VertexCode", "Violation", "alexander_polynomial",
    "annulus_to_json_dict", "are_isomorphic",
    "attach_evidence", "bareiss_det", "canonical_form", "classify_atoroidal",
    "classify_type", "closed_braid", "constituent_invariants", "constituent_links",
    "derived_facts",
    "diagram_to_json_dict", "enumerate_valid", "family_odd_ringed", "family_torus_link",
    "format_annulus", "format_code", "h1_complement",
    "invariant_factors_of", "is_fourone", "label_catalog",
    "labeled_isomorphic", "linking_number", "loop_at",
    "looping_kind", "looping_transition", "meridional_pair_predict", "mirror_code",
    "parse_annulus", "parse_code", "parse_label", "predicted_annulus",
    "realization_status", "resolve_end", "slope_pair_classify",
    "smith_normal_form", "solid_base_annotation", "subgroup_index", "symmetry_bounds",
    "type_three_two_linking_test", "validate", "validate_code", "validate_labels",
}



def test_exported_names_are_pinned():
    assert sorted(hkdiag.__all__) == hkdiag.__all__
    assert set(hkdiag.__all__) == EXPORTED
    assert len(hkdiag.__all__) == len(EXPORTED)
    # each layer exports its own table entry; diagram and spatial also
    # re-export the shared error each of them raises
    re_exports = {diagram: {"StructureError"}, spatial: {"ContradictionError"}}
    for module in (diagram, homology, labeling, spatial, wirtinger):
        layer = module.__name__.rpartition(".")[2]
        expected = set(hkdiag._EXPORTS[layer]) | re_exports.get(module, set())
        assert set(module.__all__) == expected, layer
        assert len(module.__all__) == len(expected), layer
        for name in module.__all__:
            assert getattr(hkdiag, name) is getattr(module, name), name


SOURCES = sorted(Path(hkdiag.__file__).parent.glob("*.py"))


def test_no_floating_point():
    """No float constant, no true division and no float() call."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
                    or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "float"):
                found.append(f"{path.name}:{node.lineno}")
    assert {path.stem for path in SOURCES} >= {"cli", *hkdiag._LAYERS}
    assert found == []


def test_no_runtime_dependency():
    """Every absolute import names a standard-library module."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_benchmark_hooks_name_existing_code():
    """perfbench/spans.py wraps functions by name and methods by class, so a
    rename in the package would break the traced benchmark run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, names in spans.SPANNED.items():
        layer = importlib.import_module(f"hkdiag.{module}")
        missing += [f"{module}.{name}" for name in names if not callable(getattr(layer, name, None))]
    for module, cls_name, method, _ in spans.COUNTED:
        cls = getattr(importlib.import_module(f"hkdiag.{module}"), cls_name, None)
        if not callable(getattr(cls, method, None)):
            missing.append(f"{module}.{cls_name}.{method}")
    assert spans.SPANNED and spans.COUNTED and set(spans.SPANNED) <= set(spans.MODULES)
    assert missing == []
