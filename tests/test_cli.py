import argparse
import hashlib
import io
import json
import os
import re
import string
import subprocess
import sys
import tempfile
import unittest
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from dataclasses import replace
from importlib import resources
from itertools import combinations
from pathlib import Path
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

import hkdiag
from hkdiag import cli, diagram, homology, labeling, spatial, wirtinger
from hkdiag.cli import main
from hkdiag.spatial import (
    SpatialGraphCode,
    VertexCode,
    closed_braid,
    family_torus_link,
    format_code,
    loop_at,
    resolve_end,
)

H1_DIAGRAM = "node v hollow genus=2\nedge v v label=h1\n"
THETA_DIAGRAM = (
    "node v solid genus=2\nnode s solid\n"
    "edge v s label=h2\nedge v s label=h2\nedge v s label=l0\n"
)
BAD_LABELS = "node v hollow genus=2\nedge v v label=em\n"
NAMESPACES = (hkdiag, cli, diagram, homology, labeling, spatial, wirtinger)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class EnumerateTests(unittest.TestCase):
    def test_text_lists_thirteen_classes(self):
        code, out, _ = run(["enumerate"])
        self.assertEqual(code, 0)
        self.assertIn("13 diagram classes", out)
        self.assertIn("(1,1,0,hollow)", out)

    def test_json_count(self):
        code, out, _ = run(["enumerate", "--format", "json"])
        self.assertEqual(code, 0)
        data = json.loads(out)
        self.assertEqual(data["count"], 13)
        types = {d["type"] for d in data["diagrams"]}
        self.assertIn("(3,0,3,solid)", types)
        statuses = {d["realization"] for d in data["diagrams"]}
        self.assertEqual(statuses, {"realized", "unknown"})

    def test_dropping_the_bigon_rule_adds_one_class(self):
        code, out, _ = run(["enumerate", "--drop-bigon-rule", "--format", "json"])
        self.assertEqual(code, 0)
        self.assertEqual(json.loads(out)["count"], 14)

    def test_labels_refuse_the_bigon_flag(self):
        code, out, err = run(["enumerate", "--labels", "--drop-bigon-rule"])
        self.assertEqual((code, out), (2, ""))
        self.assertEqual(
            err, "error: --drop-bigon-rule applies to the diagram classes, not to --labels\n")

    def test_label_catalog(self):
        code, out, _ = run(["enumerate", "--labels", "--format", "json"])
        self.assertEqual(code, 0)
        data = json.loads(out)
        self.assertEqual(data["count"], 66)
        constrained = [e for e in data["entries"] if e["constrained"]]
        self.assertEqual(len(constrained), 6)

    def test_label_catalog_text_marks_bounded_entries(self):
        code, out, _ = run(["enumerate", "--labels"])
        self.assertEqual(code, 0)
        self.assertIn("66 labeled diagrams", out)
        self.assertIn("*", out)


class OncePerProcessTests(unittest.TestCase):
    """The diagram classes and the label catalog are computed once per
    process and shared; the output stays that of the uncached code."""

    # sha256 of stdout, recorded before the two results were cached; the
    # per-file commands run on the 66 catalog entries, one file each, with
    # the temporary directory written as <tmp>
    OUTPUT_SHA256 = {
        "enumerate text": "24e0445fa1f63c1a1d675b689f908bcc6215a73701c5d5c9d807ffd119e2ee6f",
        "enumerate --labels text": "12966f1c69913876e12110f1c592db7501a50ccee94bcd71a2947e3a56f24d0b",
        "enumerate --drop-bigon-rule text": "08223016647499a225ecf5621929fcfe9b45e83dd53e8fa4646e7ff6a044a50c",
        "validate text": "b77e8741bbb98fa8e100113054e0ae4deb4d93b5c067f52802b6f904485cbb4c",
        "classify text": "2d7bdb91bfb10785a6dc741044f5e1f8a77ea0ceaee5c096d136140c73592ca0",
        "symmetry text": "c2b66f713bd3b270d31e49fa82b2d7282f56ed477ca957371c9810515d59b944",
        "enumerate json": "cb90ff6684b594bff51a10b445f6f40a1ac024ec09b9555eb474e1e7373de4b6",
        "enumerate --labels json": "e7508d13777331c35110fb82a4f24f4573328533203c4510fff08f87596529ae",
        "enumerate --drop-bigon-rule json": "6b4fbb46e072ba7b4760518795bb14d6bf1977ec3239b9b5949a1e562b6472ba",
        "validate json": "38d6bc1e44d0b1f0499fa33f877998e7038980eb986406ac644f22ca1587a85e",
        "classify json": "65f2c26fe729a9dba59af2dbfb05ae166fac6bccc7a32df103cbaaaff1004841",
        "symmetry json": "d18d35735cf919eef21db7862497d804e54a18100656b8e8b5befee58e4b4cf6",
    }

    def setUp(self):
        diagram._enumerate_valid.cache_clear()
        labeling.label_catalog.cache_clear()

    def test_enumerate_validates_only_on_first_computation(self):
        counter = mock.Mock(wraps=diagram.validate)
        with ExitStack() as stack:
            for module in NAMESPACES:
                if getattr(module, "validate", None) is diagram.validate:
                    stack.enter_context(mock.patch.object(module, "validate", counter))
            self.assertEqual(run(["enumerate", "--labels"])[0], 0)
            first = counter.call_count
            self.assertGreater(first, 0)
            self.assertEqual(run(["enumerate", "--labels", "--format", "json"])[0], 0)
            self.assertEqual(run(["enumerate"])[0], 0)
        self.assertEqual(counter.call_count, first)

    def test_results_are_shared(self):
        self.assertIs(labeling.label_catalog(), labeling.label_catalog())
        classes = diagram.enumerate_valid()
        self.assertIs(classes, diagram.enumerate_valid(True))
        self.assertIs(classes, diagram.enumerate_valid(single_bigon_rule=True))
        self.assertIsNot(classes, diagram.enumerate_valid(single_bigon_rule=False))

    def test_cache_is_keyed_by_the_bigon_rule(self):
        run(["enumerate"])
        code, out, _ = run(["enumerate", "--drop-bigon-rule", "--format", "json"])
        self.assertEqual(code, 0)
        self.assertEqual(json.loads(out)["count"], 14)
        self.assertEqual(json.loads(run(["enumerate", "--format", "json"])[1])["count"], 13)

    def test_output_is_unchanged(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, entry in enumerate(labeling.label_catalog()):
                path = Path(tmp) / f"e{i:02d}.txt"
                path.write_text(labeling.format_annulus(entry.diagram))
                paths.append(str(path))
            for fmt in ("text", "json"):
                runs = {
                    f"enumerate {fmt}": ["enumerate"],
                    f"enumerate --labels {fmt}": ["enumerate", "--labels"],
                    f"enumerate --drop-bigon-rule {fmt}": ["enumerate", "--drop-bigon-rule"],
                    **{f"{cmd} {fmt}": [cmd, *paths] for cmd in ("validate", "classify", "symmetry")},
                }
                for name, argv in runs.items():
                    code, out, _ = run([*argv, "--format", fmt])
                    self.assertEqual(code, 0, name)
                    digest = hashlib.sha256(out.replace(tmp, "<tmp>").encode()).hexdigest()
                    self.assertEqual(digest, self.OUTPUT_SHA256[name], name)


class AnnulusFileTests(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def path(self, name, text):
        p = Path(self.tmp.name) / name
        p.write_text(text)
        return str(p)

    def test_validate_accepts_good_file(self):
        p = self.path("h1.txt", H1_DIAGRAM)
        code, out, _ = run(["validate", p])
        self.assertEqual(code, 0)
        self.assertIn("ok, type (1,1,0,hollow)", out)

    def test_validate_rejects_bad_labels(self):
        p = self.path("bad.txt", BAD_LABELS)
        code, out, _ = run(["validate", p])
        self.assertEqual(code, 1)
        self.assertIn("violation", out)
        self.assertIn("R1", out)

    def test_validate_rejects_garbage(self):
        p = self.path("junk.txt", "node v hollow genus=2\nedgy v v\n")
        code, out, _ = run(["validate", p])
        self.assertEqual(code, 2)

    def test_validate_missing_file(self):
        code, _, _ = run(["validate", str(Path(self.tmp.name) / "nope.txt")])
        self.assertEqual(code, 2)

    def test_validate_many_files_worst_code_wins(self):
        good = self.path("good.txt", H1_DIAGRAM)
        bad = self.path("bad.txt", BAD_LABELS)
        code, out, _ = run(["validate", good, bad, "--format", "json"])
        self.assertEqual(code, 1)
        data = json.loads(out)
        self.assertEqual(len(data), 2)
        self.assertEqual(data[0]["type"], "(1,1,0,hollow)")
        self.assertTrue(data[1]["violations"])

    def test_unreadable_nodes_and_edges_name_their_line(self):
        for text, line in (("node v hollow genus=2\nnode v solid\nedge v v\n", 2),
                           ("node v hollow genus=2\nedge v v\nedge v w\n", 3)):
            p = self.path("broken.txt", text)
            for command in ("validate", "classify", "symmetry"):
                code, out, _ = run([command, p])
                self.assertEqual(code, 2, (text, command))
                self.assertEqual(re.findall(r"line \d+:", out), [f"line {line}:"], out)

    def test_classify_reports_facts(self):
        p = self.path("h1.txt", H1_DIAGRAM)
        code, out, _ = run(["classify", p])
        self.assertEqual(code, 0)
        self.assertIn("type (1,1,0,hollow)", out)
        self.assertIn("realization: realized", out)
        self.assertIn("[rule]", out)
        self.assertIn("unique essential annulus", out)

    def test_classify_json_matches_text(self):
        p = self.path("theta.txt", THETA_DIAGRAM)
        code, out, _ = run(["classify", p, "--format", "json"])
        self.assertEqual(code, 0)
        data = json.loads(out)
        self.assertEqual(data["type"], "(3,0,3,solid)")
        texts = [f["text"] for f in data["facts"]]
        self.assertTrue(any("4_1" in t for t in texts))

    def test_symmetry_bounded_entry(self):
        p = self.path("h1.txt", H1_DIAGRAM)
        code, out, _ = run(["symmetry", p, "--format", "json"])
        self.assertEqual(code, 0)
        data = json.loads(out)
        self.assertEqual(data["bounds"]["sym_plus"], "<= Z2")
        self.assertEqual(data["bounds"]["sym"], "<= Z2 x Z2")
        self.assertFalse(data["bounds"]["exact"])

    def test_symmetry_exact_entry(self):
        p = self.path("theta.txt", THETA_DIAGRAM)
        code, out, _ = run(["symmetry", p])
        self.assertEqual(code, 0)
        self.assertIn("sym+ Z2", out)
        self.assertIn("sym  Z2 x Z2", out)
        self.assertIn("exact: yes", out)

    def test_symmetry_without_h_labels(self):
        p = self.path("plain.txt", "node v hollow genus=2\nedge v v label=l0\n")
        code, out, _ = run(["symmetry", p, "--format", "json"])
        self.assertEqual(code, 0)
        self.assertIsNone(json.loads(out)["bounds"])


class ExitCodeTests(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.good = Path(self.tmp.name) / "good.txt"
        self.good.write_text(H1_DIAGRAM)

    def test_unexpected_exception_is_an_internal_error(self):
        with mock.patch.object(cli, "_validate_worker", side_effect=RuntimeError("boom")):
            code, out, err = run(["validate", str(self.good)])
        self.assertEqual(code, 3)
        self.assertEqual(out, "")
        self.assertTrue(err.startswith("internal error\nTraceback"), err)
        self.assertIn("RuntimeError: boom", err)

    def test_structure_errors_still_exit_2(self):
        garbage = Path(self.tmp.name) / "garbage.txt"
        garbage.write_text("this is not a diagram\n")
        code, out, err = run(["validate", str(garbage)])
        self.assertEqual(code, 2)
        self.assertIn("unknown directive", out)
        self.assertEqual(err, "")
        with self.assertRaises(SystemExit) as exit_, redirect_stderr(io.StringIO()):
            main(["validate"])
        self.assertEqual(exit_.exception.code, 2)

    def test_unwritable_output_exits_2(self):
        target = Path(self.tmp.name) / "missing" / "spine.txt"
        code, out, err = run(["family", "spine-5-2", "-o", str(target)])
        self.assertEqual(code, 2)
        self.assertEqual(out, "")
        self.assertIn("error: cannot write", err)
        self.assertNotIn("Traceback", err)

    def test_file_that_is_not_utf8_exits_2(self):
        bad = Path(self.tmp.name) / "bad.txt"
        bad.write_bytes(b"\xff\xfe")
        for argv in (["validate"], ["classify"], ["symmetry"], ["analyze"],
                     ["linking", "--components", "a,b"],
                     ["loop", "--vertex", "u", "--pair", "a,b"]):
            with self.subTest(command=argv[0]):
                code, out, err = run([*argv, str(bad)])
                self.assertEqual(code, 2)
                self.assertIn(f"cannot read {bad}: not UTF-8 text", out + err)
                self.assertNotIn("Traceback", err)


class BuilderTests(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def out_path(self, name):
        return str(Path(self.tmp.name) / name)

    def test_family_writes_parseable_code(self):
        from hkdiag.spatial import family_torus_link, parse_code

        p = self.out_path("t3.txt")
        code, out, _ = run(["family", "torus-link", "--n", "3", "--tunnel", "-o", p])
        self.assertEqual(code, 0)
        self.assertIn("wrote", out)
        self.assertEqual(parse_code(Path(p).read_text()),
                         family_torus_link(3, tunnel=True))

    def test_family_to_stdout(self):
        code, out, _ = run(["family", "torus-link", "--n", "2"])
        self.assertEqual(code, 0)
        self.assertIn("graph link", out)

    def test_family_json_wraps_code(self):
        code, out, _ = run(["family", "odd-ringed", "--n", "3", "--format", "json"])
        self.assertEqual(code, 0)
        self.assertIn("graph handcuff", json.loads(out)["code"])

    def test_family_needs_n(self):
        code, _, err = run(["family", "torus-link"])
        self.assertEqual(code, 2)
        self.assertIn("needs --n", err)

    def test_family_rejects_small_n(self):
        code, _, _ = run(["family", "torus-link", "--n", "1"])
        self.assertEqual(code, 2)

    def test_family_rejects_huge_n(self):
        for name in ("torus-link", "odd-ringed"):
            for n in ("100001", "100000000000000000001"):
                code, _, err = run(["family", name, "--n", n])
                self.assertEqual(code, 2, (name, n))
                self.assertIn("to 100000", err)

    def test_bundled_spine(self):
        from hkdiag.spatial import constituent_links, parse_code
        from hkdiag.wirtinger import alexander_polynomial

        code, out, _ = run(["family", "spine-5-2"])
        self.assertEqual(code, 0)
        g = parse_code(out)
        self.assertEqual(g.kind, "theta")
        pieces = {"+".join(e.id for e in p.edges): p for p in constituent_links(g)}
        delta = alexander_polynomial(pieces["ka+kb"])
        self.assertEqual(str(delta), "2*t^2 - 3*t + 2")

    def test_loop_round_trip(self):
        from hkdiag.spatial import parse_code

        src = self.out_path("theta.txt")
        dst = self.out_path("looped.txt")
        run(["family", "torus-link", "--n", "3", "--tunnel", "-o", src])
        code, out, _ = run(["loop", src, "--vertex", "u", "--pair", "ka,kb",
                            "--tunnel", "t", "-o", dst])
        self.assertEqual(code, 0)
        g = parse_code(Path(dst).read_text())
        self.assertEqual(g.kind, "handcuff")
        self.assertEqual(g.provenance.loopings, 1)
        self.assertEqual(g.provenance.looping_kind, "tunnel")

    def test_loop_that_would_disconnect(self):
        src = self.out_path("h.txt")
        run(["family", "torus-link", "--n", "2", "--tunnel", "-o", src])
        code, _, err = run(["loop", src, "--vertex", "u", "--pair", "a.0,a.1"])
        self.assertEqual(code, 1)
        self.assertIn("rejected", err)

    def test_loop_argument_errors(self):
        src = self.out_path("h.txt")
        run(["family", "torus-link", "--n", "2", "--tunnel", "-o", src])
        code, _, _ = run(["loop", src, "--vertex", "u", "--pair", "a.0"])
        self.assertEqual(code, 2)
        code, _, err = run(["loop", src, "--vertex", "zz", "--pair", "a.0,t"])
        self.assertEqual(code, 2)
        self.assertEqual(err, "error: no vertex named 'zz'\n")
        spine = self.out_path("spine.txt")
        run(["family", "spine-5-2", "-o", spine])
        for path, pair in ((spine, "ka,t"), (src, "a.0,t")):
            code, out, err = run(["loop", path, "--vertex", "u", "--pair", pair, "--tunnel", "zz"])
            self.assertEqual((code, out, err), (2, "", "error: no edge named 'zz'\n"), path)


class LinkingTests(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def build(self, name, *argv):
        p = str(Path(self.tmp.name) / name)
        run(["family", *argv, "-o", p])
        return p

    def test_linking_of_a_link(self):
        p = self.build("t4.txt", "torus-link", "--n", "4")
        code, out, _ = run(["linking", p, "--components", "a,b"])
        self.assertEqual(code, 0)
        self.assertIn("lk(a, b) = 2", out)
        self.assertIn("satisfied", out)

    def test_linking_unit_violates_obstruction(self):
        p = self.build("t2.txt", "torus-link", "--n", "2")
        code, out, _ = run(["linking", p, "--components", "a,b", "--format", "json"])
        self.assertEqual(code, 0)
        data = json.loads(out)
        self.assertEqual(data["linking_number"], 1)
        self.assertFalse(data["mixed_type_annulus_possible"])

    def test_linking_uses_handcuff_constituent(self):
        p = self.build("h6.txt", "torus-link", "--n", "6", "--tunnel")
        code, out, _ = run(["linking", p, "--components", "a,b"])
        self.assertEqual(code, 0)
        self.assertIn("lk(a, b) = 3", out)

    def test_linking_rejects_theta(self):
        p = self.build("theta.txt", "torus-link", "--n", "3", "--tunnel")
        code, out, _ = run(["linking", p, "--components", "ka,kb"])
        self.assertEqual(code, 1)
        self.assertIn("knot constituents", out)

    def test_linking_unknown_component(self):
        p = self.build("t4.txt", "torus-link", "--n", "4")
        code, _, _ = run(["linking", p, "--components", "a,z"])
        self.assertEqual(code, 2)

    def test_linking_needs_two_component_names(self):
        p = self.build("t4.txt", "torus-link", "--n", "4")
        for names in ("a", "a,b,a"):
            code, out, _ = run(["linking", p, "--components", names])
            self.assertEqual((code, out), (2, f"{p}: --components needs two comma-separated names\n"))


class AnalyzeTests(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def build(self, name, *argv):
        p = str(Path(self.tmp.name) / name)
        run(["family", *argv, "-o", p])
        return p

    def analyze_json(self, path, *assertions):
        argv = ["analyze", path, "--format", "json"]
        for a in assertions:
            argv += ["--assert", a]
        code, out, err = run(argv)
        return code, (json.loads(out) if out.strip() else None), err

    def test_theta_without_facts_is_unclassified(self):
        p = self.build("theta.txt", "torus-link", "--n", "3", "--tunnel")
        code, data, _ = self.analyze_json(p)
        self.assertEqual(code, 0)
        self.assertEqual(data["kind"], "theta")
        self.assertIsNone(data["class"])
        self.assertEqual(data["unclassified"]["needed"], ["atoroidal"])
        self.assertEqual(data["homology"]["group"], "Z^2")
        knots = {c["component"]: c["alexander"]
                 for c in data["constituents"] if "component" in c}
        self.assertEqual(knots["ka+kb"], "t^2 - t + 1")
        self.assertEqual(knots["ka+t"], "1")

    def test_theta_classifies_with_assertions(self):
        p = self.build("theta.txt", "torus-link", "--n", "3", "--tunnel")
        code, data, _ = self.analyze_json(
            p, "atoroidal=true", "planar=false", "tunnel=t")
        self.assertEqual(code, 0)
        self.assertEqual(data["class"], "tau3")
        self.assertEqual(data["looping_targets"], ["h3", "h4"])
        facts = {f["key"]: f for f in data["facts"]}
        self.assertEqual(facts["knot-trivial:ka+kb"]["value"], False)
        self.assertEqual(facts["knot-trivial:ka+kb"]["provenance"], "computed")
        self.assertEqual(facts["atoroidal"]["provenance"], "asserted")

    def test_handcuff_classifies_from_linking(self):
        p = self.build("h.txt", "torus-link", "--n", "4", "--tunnel")
        code, data, _ = self.analyze_json(
            p, "atoroidal=true", "planar=false", "tunnel=t")
        self.assertEqual(code, 0)
        self.assertEqual(data["class"], "h3")
        self.assertEqual(data["bridge"], "t")
        self.assertEqual(data["looping_targets"], ["h2"])
        facts = {f["key"]: f for f in data["facts"]}
        self.assertEqual(facts["split"]["value"], False)
        self.assertEqual(facts["split"]["provenance"], "computed")

    def test_contradictory_assertion(self):
        p = self.build("theta.txt", "torus-link", "--n", "3", "--tunnel")
        code, _, _ = self.analyze_json(p, "trivial-knot=ka+kb")
        self.assertEqual(code, 1)

    def test_unknown_assertion_key(self):
        p = self.build("theta.txt", "torus-link", "--n", "3", "--tunnel")
        code, _, _ = self.analyze_json(p, "flavor=salty")
        self.assertEqual(code, 2)

    def test_assertion_needs_a_value(self):
        p = self.build("theta.txt", "torus-link", "--n", "3", "--tunnel")
        for key in ("tunnel", "knotting-arc", "trivial-knot", "nontrivial-knot"):
            code, data, _ = self.analyze_json(p, f"{key}=")
            self.assertEqual(code, 2, key)
            self.assertEqual(data["errors"], [f"{p}: assertion {key} needs a value"])
            code, out, _ = run(["analyze", p, "--assert", f"{key}="])
            self.assertEqual((code, out.splitlines()[-1]), (2, data["errors"][0]))

    def test_malformed_assertions_exit_2(self):
        p = self.build("theta.txt", "torus-link", "--n", "3", "--tunnel")
        for token, message in (("x", "assertion 'x' needs key=value"),
                               ("planar=maybe", "assertion planar needs true or false")):
            code, data, _ = self.analyze_json(p, token)
            self.assertEqual((code, data["errors"]), (2, [f"{p}: {message}"]))

    def test_planar_theta_prints_the_tau1_looping_note(self):
        p = str(Path(self.tmp.name) / "planar.txt")
        Path(p).write_text(
            "graph theta\nvertex u ends a.0 b.0 c.0\nvertex v ends a.1 b.1 c.1\n"
            "edge a from u to v\nedge b from u to v\nedge c from u to v\n")
        code, out, _ = run(["analyze", p, "--assert", "atoroidal=true", "--assert", "planar=true"])
        self.assertEqual(code, 0)
        self.assertIn("class: tau1 (planar theta-curve)\nlooping lands in: h3\n"
                      "  note: the looped graph carries the handlebody-knot 2_1\n", out)

    def test_trivial_link_is_not_an_assertion_key(self):
        p = self.build("theta.txt", "torus-link", "--n", "3", "--tunnel")
        code, data, _ = self.analyze_json(p, "trivial-link=true")
        self.assertEqual(code, 2)
        self.assertIn("unknown assertion key", data["errors"][0])

    def test_text_and_json_agree_on_class(self):
        p = self.build("h.txt", "torus-link", "--n", "4", "--tunnel")
        argv = [p, "--assert", "atoroidal=true", "--assert", "planar=false",
                "--assert", "tunnel=t"]
        _, text, _ = run(["analyze", *argv])
        _, data, _ = self.analyze_json(p, "atoroidal=true", "planar=false",
                                       "tunnel=t")
        self.assertIn(f"class: {data['class']}", text)

    def test_looped_spine_prediction(self):
        spine = self.build("spine.txt", "spine-5-2")
        once = str(Path(self.tmp.name) / "once.txt")
        run(["loop", spine, "--vertex", "u", "--pair", "ka,kb",
             "--tunnel", "t", "-o", once])
        code, data, _ = self.analyze_json(once, "atoroidal=true", "planar=false")
        self.assertEqual(code, 0)
        pred = data["prediction"]
        self.assertEqual(pred["annulus_type"], "2-1")
        self.assertEqual(pred["diagram"], "(1,1,0,hollow) labels {h1}")
        self.assertTrue(pred["unknotting"])
        self.assertTrue(pred["unique"])

    def test_double_looped_spine_prediction(self):
        spine = self.build("spine.txt", "spine-5-2")
        once = str(Path(self.tmp.name) / "once.txt")
        twice = str(Path(self.tmp.name) / "twice.txt")
        run(["loop", spine, "--vertex", "u", "--pair", "ka,kb",
             "--tunnel", "t", "-o", once])
        code, _, _ = run(["loop", once, "--vertex", "v",
                          "--pair", "ka+kb.0,t.1", "-o", twice])
        self.assertEqual(code, 0)
        code, data, _ = self.analyze_json(twice, "atoroidal=true", "planar=false")
        self.assertEqual(code, 0)
        pred = data["prediction"]
        self.assertEqual(pred["annulus_type"], "2-2")
        self.assertEqual(pred["annulus_count"], 2)
        self.assertEqual(pred["diagram"], "(3,0,3,hollow) labels {h2, h2, l0}")

    def test_analyze_rejects_invalid_code(self):
        p = str(Path(self.tmp.name) / "broken.txt")
        Path(p).write_text("graph link\nedge k\npass k x1 over sign=+\n")
        code, data, _ = self.analyze_json(p)
        self.assertEqual(code, 2)
        self.assertIn("line 3", data["errors"][0])

    def test_analyze_rejects_bad_meta(self):
        p = str(Path(self.tmp.name) / "meta.txt")
        for token in ("n=abc", "loopings=abc", "loopings=-1", "origin=nonsense", "n=0"):
            Path(p).write_text(f"graph link\nedge k\nmeta origin=family {token}\n")
            code, data, _ = self.analyze_json(p)
            self.assertEqual(code, 2, token)
            self.assertIn("line 3", data["errors"][0])

    def test_analyze_rejects_unpaired_linking_signs(self):
        p = str(Path(self.tmp.name) / "odd.txt")
        Path(p).write_text("graph link\nedge a\nedge b\n"
                           "pass a x1 over sign=+\npass b x1 under sign=+\n")
        code, data, _ = self.analyze_json(p)
        self.assertEqual(code, 2)
        self.assertIn("odd.txt: line 5: closed strands a and b cross an odd number of times",
                      data["errors"][0])
        code, out, err = run(["linking", p, "--components", "a,b"])
        self.assertEqual(code, 2)
        self.assertIn("odd.txt: line 5: closed strands a and b", out + err)

    def test_analyze_lists_every_pair_of_link_components(self):
        p = str(Path(self.tmp.name) / "three.txt")
        Path(p).write_text(format_code(closed_braid([(1, 1), (1, 1), (2, 1), (2, 1)], 3)))
        code, data, _ = self.analyze_json(p)
        self.assertEqual(code, 0)
        self.assertEqual(data["constituents"], [
            {"components": ["c1", "c2"], "linking_number": 1},
            {"components": ["c1", "c3"], "linking_number": 0},
            {"components": ["c2", "c3"], "linking_number": 1},
        ])
        self.assertEqual(data["homology"]["group"], "Z^3")
        code, out, _ = run(["analyze", p])
        self.assertEqual(code, 0)
        self.assertIn("  link {c1, c2}: lk = 1\n  link {c1, c3}: lk = 0\n"
                      "  link {c2, c3}: lk = 1\n", out)

    def test_analyze_empty_link_lists_no_pairs(self):
        p = str(Path(self.tmp.name) / "empty.txt")
        Path(p).write_text("graph link\n")
        code, data, _ = self.analyze_json(p)
        self.assertEqual(code, 0)
        self.assertEqual(data["constituents"], [])
        self.assertEqual(data["homology"], {"group": "1", "meridians": {}})
        code, out, _ = run(["analyze", p])
        self.assertEqual(code, 0)
        self.assertIn("constituents:\nhomology of the complement: 1\n", out)

    def test_analyze_validates_each_code_and_reduces_once(self):
        """One validate_code per code object, one Smith normal form, and each
        constituent invariant computed once per analyze, counted through every
        hkdiag module namespace: classify_atoroidal reads the fact set only,
        so it builds no constituent link of its own, also when lk = 0
        certifies nothing."""
        theta = self.build("theta.txt", "torus-link", "--n", "5", "--tunnel")
        handcuff = self.build("h.txt", "torus-link", "--n", "10", "--tunnel")
        g = family_torus_link(2, tunnel=True)
        looped = loop_at(g, "u", (("a", 0), ("t", 0)))
        double = loop_at(looped, "v", (resolve_end(looped, "v", "b.0"),
                                       resolve_end(looped, "v", "t+a")))
        unlinked = str(Path(self.tmp.name) / "double.txt")
        Path(unlinked).write_text(format_code(double))
        # the handcuff only: its constituent link comes back already validated
        handcuff_counts = {"validate": 1, "alexander_polynomial": 2, "linking_number": 1,
                           "constituent_links": 1}
        expected = {
            theta: {"validate": 1, "alexander_polynomial": 3, "linking_number": 0,
                    "constituent_links": 1},
            handcuff: handcuff_counts,
            unlinked: handcuff_counts,
        }
        for path, counts in expected.items():
            with ExitStack() as stack:
                vc = stack.enter_context(mock.patch.object(
                    spatial, "validate_code", wraps=spatial.validate_code))
                snf = stack.enter_context(mock.patch.object(
                    wirtinger, "smith_normal_form", wraps=wirtinger.smith_normal_form))
                calls = {}
                for name in ("alexander_polynomial", "linking_number", "constituent_links"):
                    calls[name] = mock.Mock(wraps=getattr(wirtinger, name))
                    for module in NAMESPACES:
                        if hasattr(module, name):
                            stack.enter_context(mock.patch.object(module, name, calls[name]))
                code, _, _ = self.analyze_json(path, "atoroidal=true", "planar=false", "tunnel=t")
            self.assertEqual(code, 0)
            self.assertEqual(snf.call_count, 1, path)
            validated = [c.args[0] for c in vc.call_args_list]
            self.assertEqual(len({id(g) for g in validated}), len(validated), path)
            self.assertEqual(len(validated), counts["validate"], path)
            for name, call in calls.items():
                self.assertEqual(call.call_count, counts[name], (path, name))


ID_CHARS = string.ascii_letters + string.digits + "_+-"


@st.composite
def clashing_ids(draw):
    """Edge ids p+r, (p+r+)^k p and r+p: for p before r the names of the
    first two and of the last two are both (p+r+)^(k+1) p."""
    text = st.text(st.sampled_from(ID_CHARS), min_size=1, max_size=4)
    p, r, k = draw(text), draw(text), draw(st.integers(1, 2))
    return [f"{p}+{r}", f"{p}+{r}+" * k + p, f"{r}+{p}"]


def renamed(g: SpatialGraphCode, names: dict[str, str]) -> SpatialGraphCode:
    """The same code with every edge id e replaced by names[e]."""
    edges = tuple(replace(e, id=names[e.id]) for e in g.edges)
    vertices = tuple(VertexCode(v.id, tuple((names[eid], side) for eid, side in v.ends))
                     for v in g.vertices)
    return SpatialGraphCode(g.kind, vertices, edges, g.crossings, g.provenance)


class RenamedEdgeTests(unittest.TestCase):
    """Edge ids are names only: analyze classifies a renamed code as the
    original, also when the new ids contain the "+" that joins the names of
    theta constituents."""

    @staticmethod
    def analyze(g: SpatialGraphCode, assertions=(), *options) -> tuple[int, str, str]:
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "code.txt")
            Path(path).write_text(format_code(g))
            argv = ["analyze", path, *options]
            for a in assertions:
                argv += ["--assert", a]
            return run(argv)

    def classify(self, g: SpatialGraphCode, assertions) -> tuple[str | None, list | None]:
        code, out, err = self.analyze(g, assertions, "--format", "json")
        self.assertNotEqual(code, 3, err)
        self.assertEqual(code, 0, err)
        data = json.loads(out)
        return data["class"], data.get("unclassified", {}).get("needed")

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=2, max_value=12), mirror=st.booleans(),
           ids=st.lists(st.text(st.one_of(st.just("+"), st.sampled_from(ID_CHARS)),
                                min_size=1, max_size=5),
                        min_size=3, max_size=3, unique=True),
           tunnel=st.booleans())
    def test_renamed_edges_classify_alike(self, n, mirror, ids, tunnel):
        # ids such as w+z, w+z+w and z+w give two constituents one name,
        # which no reader of the names can tell apart; this property is about
        # ids being read back out of names, so it leaves that case out
        ordered = sorted(ids)
        assume(len({f"{a}+{b}" for a, b in combinations(ordered, 2)}) == 3)
        g = family_torus_link(n, tunnel=True, mirror=mirror)
        names = dict(zip((e.id for e in g.edges), ids))
        base = ("atoroidal=true", "planar=false")
        self.assertEqual(
            self.classify(renamed(g, names), base + ((f"tunnel={names['t']}",) if tunnel else ())),
            self.classify(g, base + (("tunnel=t",) if tunnel else ())))

    def test_shared_constituent_name_is_a_structure_error(self):
        # edges w+z, w+z+w, z+w (in any order) make w+z+w+z+w the name of two
        # of the trefoil's three constituents
        g = family_torus_link(3, tunnel=True)
        for names, assertions in (({"ka": "w+z", "kb": "w+z+w", "t": "z+w"}, ()),
                                  ({"ka": "z+w", "kb": "w+z+w", "t": "w+z"},
                                   ("tunnel=w+z",))):
            code, out, _ = self.analyze(renamed(g, names), assertions)
            self.assertEqual(code, 2, out)
            self.assertIn(": line 6: two theta constituents are both named w+z+w+z+w", out)
            self.assertNotIn("constituents:", out)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=2, max_value=8), mirror=st.booleans(),
           ids=st.one_of(clashing_ids(),
                         st.lists(st.text(st.one_of(st.just("+"), st.sampled_from(ID_CHARS)),
                                          min_size=1, max_size=5),
                                  min_size=3, max_size=3, unique=True)))
    def test_exit_2_on_exactly_the_triples_with_a_shared_name(self, n, mirror, ids):
        # the triples test_renamed_edges_classify_alike leaves out; only a
        # theta (odd n) names constituents after pairs of edges
        assume(len(set(ids)) == 3)
        ordered = sorted(ids)
        shared = len({f"{a}+{b}" for a, b in combinations(ordered, 2)}) < 3
        g = family_torus_link(n, tunnel=True, mirror=mirror)
        code, out, _ = self.analyze(renamed(g, dict(zip((e.id for e in g.edges), ids))))
        self.assertEqual(code, 2 if shared and n % 2 else 0, out)


def _replaced(g: SpatialGraphCode, lineno: int, line: str) -> str:
    """format_code(g) with its line number lineno replaced by line."""
    lines = format_code(g).splitlines()
    lines[lineno - 1] = line
    return "\n".join(lines) + "\n"


class MalformedCodeTests(unittest.TestCase):
    """A code that is not a diagram exits 2 from every command that reads
    it, and each names the same line, once."""

    THETA = family_torus_link(3, tunnel=True)
    HANDCUFF = family_torus_link(2, tunnel=True)
    CASES = {  # name: (text, the line to name)
        "theta vertex with two ends": (_replaced(THETA, 2, "vertex u ends ka.0 kb.1"), 2),
        "handcuff vertex with two ends": (_replaced(HANDCUFF, 2, "vertex u ends a.0 a.1"), 2),
        "lone pass": ("graph link\nedge k\npass k x1 over sign=+\n", 3),
        "repeated vertex": (_replaced(HANDCUFF, 3, "vertex u ends b.0 b.1 t.1"), 3),
        "unknown kind": (_replaced(HANDCUFF, 1, "graph foo"), 1),
        "link crossing once": ("graph link\nedge a\nedge b\n"
                               "pass a x1 over sign=+\npass b x1 under sign=+\n", 5),
        "handcuff loops crossing once": (
            "graph handcuff\nvertex u ends a.0 a.1 t.0\nvertex v ends b.0 b.1 t.1\n"
            "edge a loop from u to u\nedge b loop from v to v\nedge t from u to v\n"
            "pass a x1 over sign=+\npass b x1 under sign=+\n", 8),
        "mirror meta neither true nor false": (
            resources.files("hkdiag").joinpath("data", "spine_5_2.txt").read_text()
            .replace("family=spine-5-2", "family=spine-5-2 mirror=yes"), 23),
        "unknown looping kind meta": (
            resources.files("hkdiag").joinpath("data", "spine_5_2.txt").read_text()
            .replace("family=spine-5-2", "family=spine-5-2 looping-kind=banana"), 23),
        "looping origin without its record": (
            resources.files("hkdiag").joinpath("data", "spine_5_2.txt").read_text()
            .replace("origin=family family=spine-5-2", "origin=looping source-kind=theta"), 23),
        "looping origin on a theta code": (
            resources.files("hkdiag").joinpath("data", "spine_5_2.txt").read_text()
            .replace("origin=family family=spine-5-2",
                     "origin=looping source-kind=theta looping-kind=tunnel loopings=1"), 5),
        "looping record with a family origin": (
            "graph link\nedge k\nmeta origin=family loopings=3 looping-kind=knot\n", 3),
    }

    def test_every_command_names_the_line(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "code.txt")
            commands = {
                "analyze": ["analyze", path],
                "analyze json": ["analyze", path, "--format", "json"],
                "loop": ["loop", path, "--vertex", "u", "--pair", "a,t"],
                "linking": ["linking", path, "--components", "a,b"],
                "linking json": ["linking", path, "--components", "a,b", "--format", "json"],
            }
            for name, (text, line) in self.CASES.items():
                Path(path).write_text(text)
                for command, argv in commands.items():
                    code, out, err = run(argv)
                    self.assertEqual(code, 2, (name, command, out, err))
                    self.assertEqual(re.findall(r"line \d+:", out + err), [f"line {line}:"],
                                     (name, command, out, err))


SPINE = spatial.parse_code(resources.files("hkdiag").joinpath("data", "spine_5_2.txt").read_text())


@st.composite
def diagram_codes(draw) -> SpatialGraphCode:
    """A family code, one or two loopings of the spine, or a braid closure."""
    source = draw(st.sampled_from(("family", "spine", "braid")))
    if source == "family":
        n = draw(st.integers(2, 7))
        return draw(st.sampled_from((
            family_torus_link(n), family_torus_link(n, tunnel=True),
            family_torus_link(n, tunnel=True, mirror=True),
            spatial.family_odd_ringed(2 * (n // 2) + 1, "one"),
            spatial.family_odd_ringed(2 * (n // 2) + 1, "both"))))
    if source == "spine":
        g = SPINE
        for _ in range(draw(st.integers(1, 2))):
            v = draw(st.sampled_from(g.vertices))
            pairs = [(p, q) for p, q in combinations(v.ends, 2) if p[0] != q[0]]
            g = loop_at(g, v.id, draw(st.sampled_from(pairs)), mirror=draw(st.booleans()))
        return g
    strands = draw(st.integers(2, 3))
    word = draw(st.lists(st.tuples(st.integers(1, strands - 1), st.sampled_from((1, -1))),
                         min_size=1, max_size=6))
    return closed_braid(word, strands)


def keep_diagram(draw, lines: list[str]) -> None:
    """Edit the lines of a code in place so that they still spell a diagram:
    a crossing change (over and under swap on both pass lines of one
    crossing, and both signs flip), a comment or blank line, or a crossing
    renamed to a fresh id on both its lines."""
    passes = [i for i, line in enumerate(lines) if line.startswith("pass ")]
    ops = ["comment line", "trailing comment", "blank line"]
    if passes:
        ops += ["crossing change", "rename crossing"]
    op = draw(st.sampled_from(ops))
    if op == "trailing comment":
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] += "  # note"
        return
    if op in ("comment line", "blank line"):
        lines.insert(draw(st.integers(0, len(lines))), "# note" if op == "comment line" else "")
        return
    crossings = sorted({lines[i].split()[2] for i in passes})
    chosen = draw(st.sampled_from(crossings))
    fresh = next(f"y{k}" for k in range(len(crossings) + 1) if f"y{k}" not in crossings)
    for i in passes:
        line, hash_, note = lines[i].partition("#")
        _, edge, cid, position, sign = line.split()
        if cid != chosen:
            continue
        if op == "crossing change":
            position = "under" if position == "over" else "over"
            sign = "sign=-" if sign == "sign=+" else "sign=+"
        else:
            cid = fresh
        lines[i] = f"pass {edge} {cid} {position} {sign} {hash_}{note}".rstrip()


@st.composite
def kept_diagrams(draw) -> str:
    """The text of a diagram code after one to three edits that keep it a
    diagram (keep_diagram)."""
    lines = format_code(draw(diagram_codes())).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        keep_diagram(draw, lines)
    return "\n".join(lines) + "\n"


@st.composite
def mutated_codes(draw) -> str:
    """The text of a diagram code with one line mutated: deleted,
    duplicated, its pass flipped between over and under, an end token
    dropped or renamed, or its vertex renamed; or with one edit that keeps
    it a diagram (keep_diagram)."""
    lines = format_code(draw(diagram_codes())).splitlines()
    starting = {d: [i for i, line in enumerate(lines) if line.startswith(d + " ")]
                for d in ("vertex", "edge", "pass")}
    ops = ["delete", "duplicate", "keep diagram"]
    if starting["pass"]:
        ops.append("flip")
    if starting["vertex"]:
        ops += ["drop end", "rename end", "rename vertex"]
    op = draw(st.sampled_from(ops))
    if op == "keep diagram":
        keep_diagram(draw, lines)
    elif op == "delete":
        del lines[draw(st.integers(0, len(lines) - 1))]
    elif op == "duplicate":
        i = draw(st.integers(0, len(lines) - 1))
        lines.insert(i, lines[i])
    else:
        i = draw(st.sampled_from(starting["pass" if op == "flip" else "vertex"]))
        tokens = lines[i].split()
        if op == "flip":
            tokens[3] = "under" if tokens[3] == "over" else "over"
        elif op == "rename vertex":
            tokens[1] = draw(st.sampled_from([lines[j].split()[1] for j in starting["vertex"]]
                                             + ["w9"]))
        elif op == "drop end":
            del tokens[draw(st.integers(3, len(tokens) - 1))]
        else:
            edge = draw(st.sampled_from([lines[j].split()[1] for j in starting["edge"]] + ["zz"]))
            tokens[draw(st.integers(3, len(tokens) - 1))] = f"{edge}.{draw(st.sampled_from('01'))}"
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


class MutatedCodeTests(unittest.TestCase):
    """Input that is not a diagram has one outcome: parse_code raises at a
    line of the text, and analyze exits 2 with it."""

    @settings(max_examples=150, deadline=None)
    @given(text=mutated_codes())
    def test_parse_returns_a_valid_code_or_names_a_line(self, text):
        try:
            g = spatial.parse_code(text)
        except diagram.StructureError as err:
            self.assertIsNotNone(err.line, str(err))
            self.assertTrue(1 <= err.line <= len(text.splitlines()), str(err))
        else:
            self.assertEqual(spatial.validate_code(g), [])
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "code.txt")
            Path(path).write_text(text)
            code, _, err = run(["analyze", path])
        self.assertIn(code, (0, 2), err)

    @settings(max_examples=100, deadline=None)
    @given(text=kept_diagrams())
    def test_edits_that_keep_a_diagram_parse_and_analyze(self, text):
        """A crossing change, a comment or blank line, or a renamed crossing
        leaves a code that parses without violations and analyzes with exit 0."""
        g = spatial.parse_code(text)
        self.assertEqual(spatial.validate_code(g), [])
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "code.txt")
            Path(path).write_text(text)
            code, _, err = run(["analyze", path])
        self.assertEqual(code, 0, err)

    @settings(max_examples=150, deadline=None)
    @given(text=st.one_of(mutated_codes(), diagram_codes().map(format_code)), data=st.data())
    def test_every_command_exits_0_1_or_2(self, text, data):
        """analyze, linking and loop on a code, mutated or whole, with drawn
        names: the exit code says violation or bad input, never a crash."""
        lines = [line.split() for line in text.splitlines()]
        edges = sorted({t[1] for t in lines if t[:1] == ["edge"] and len(t) > 1} | {"zz"})
        vertex = data.draw(st.sampled_from([t for t in lines if t[:1] == ["vertex"]]
                                           or [["vertex", "u", "ends", "a.0"]]))
        names = data.draw(st.lists(st.sampled_from(edges), min_size=2, max_size=2))
        ends = data.draw(st.lists(st.sampled_from(vertex[3:] + edges), min_size=2, max_size=2))
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "code.txt")
            Path(path).write_text(text)
            for argv in (
                ["analyze", path, "--format", "json",
                 *(f"--assert={a}" for a in AnalyzeOutputTests.ASSERTED)],
                ["linking", path, "--components", ",".join(names)],
                ["loop", path, "--vertex", vertex[1], "--pair", ",".join(ends),
                 *(["--mirror"] if data.draw(st.booleans()) else [])],
            ):
                code, _, err = run(argv)
                self.assertIn(code, (0, 1, 2), (argv, err))
                self.assertNotIn("internal error", err, argv)


ANNULUS_LABELS = ("h1", "h2", "k1", "k2(2)", "k2(1/2)", "k2(5/2)", "l(0,5)", "l(2/3,3/2)",
                  "l(2/3,6)", "l0", "em", "zz")


@st.composite
def mutated_annulus_files(draw) -> str:
    """The text of a catalog entry with one line mutated: deleted,
    duplicated, an edge relabeled (bad labels included) or a token replaced."""
    entry = draw(st.sampled_from(labeling.label_catalog()))
    lines = labeling.format_annulus(entry.diagram).splitlines()
    op = draw(st.sampled_from(("delete", "duplicate", "relabel", "replace token")))
    i = draw(st.integers(0, len(lines) - 1))
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "relabel":
        j = draw(st.sampled_from([k for k, line in enumerate(lines) if line.startswith("edge ")]))
        lines[j] = f"{lines[j].partition(' label=')[0]} label={draw(st.sampled_from(ANNULUS_LABELS))}"
    else:
        tokens = lines[i].split()
        pool = sorted({t for line in lines for t in line.split()}) + ["zz", "genus=x"]
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(pool))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


class MutatedAnnulusFileTests(unittest.TestCase):
    """An annulus file one edit away from a catalog entry exits 0, 1 or 2
    from every command that reads it, never 3."""

    @settings(max_examples=150, deadline=None)
    @given(text=mutated_annulus_files())
    def test_every_command_exits_0_1_or_2(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "diagram.txt")
            Path(path).write_text(text)
            for command in ("validate", "classify", "symmetry"):
                for fmt in ("text", "json"):
                    code, _, err = run([command, path, "--format", fmt])
                    self.assertIn(code, (0, 1, 2), (command, fmt, err))
                    self.assertNotIn("internal error", err, (command, fmt))


class AnalyzeOutputTests(unittest.TestCase):
    """analyze prints what it printed before its error mapping, constituent
    names and split certificate each got a single owner."""

    # sha256 of stdout of one analyze over every input below, in input
    # order, with the temporary directory written as <tmp>; recorded before
    # that change
    OUTPUT_SHA256 = {
        "text": "17138afb3f8a319ad63c0cd94e0b12ffdce09e7448369ef7db1f13af6cc23a40",
        "json": "2bf7b0e9948f96f6b4b9ea2e6792a89cb4f693bbf68563ef2dc095a785d782d1",
        "text asserted": "e06bdac3a23b088ce744664225dbbebf4099d63c8b01668c3b21aa32084ea0d3",
        "json asserted": "3d09a9b4d7c85199123af990d607bb9376dad035c6d2f2f9aa1c438c671241a5",
    }
    ASSERTED = ("atoroidal=true", "planar=false", "tunnel=t")

    @staticmethod
    def inputs(tmp: str) -> list[str]:
        """The pinned inputs, written into tmp: tunnel thetas and handcuffs of
        the closed 2-braid family, plain and mirrored, both ringed codes, the
        spine with a single and a double looping, and a 3-component link."""
        paths = []

        def family(name, *argv):
            paths.append(str(Path(tmp) / name))
            run(["family", *argv, "-o", paths[-1]])

        for n in ("3", "4", "5", "10"):
            family(f"torus-{n}.txt", "torus-link", "--n", n, "--tunnel")
            family(f"torus-{n}-mirror.txt", "torus-link", "--n", n, "--tunnel", "--mirror")
        for ring in ("one", "both"):
            family(f"ringed-{ring}.txt", "odd-ringed", "--n", "5", "--ring", ring)
        family("spine.txt", "spine-5-2")
        for name, argv in (("once.txt", ["--vertex", "u", "--pair", "ka,kb", "--tunnel", "t"]),
                           ("twice.txt", ["--vertex", "v", "--pair", "ka+kb.0,t.1"])):
            paths.append(str(Path(tmp) / name))
            run(["loop", paths[-2], *argv, "-o", paths[-1]])
        paths.append(str(Path(tmp) / "link3.txt"))
        Path(paths[-1]).write_text(
            format_code(closed_braid([(1, 1), (1, 1), (2, 1), (2, 1)], 3)))
        return paths

    @classmethod
    def digests(cls) -> dict[str, tuple[int, str]]:
        """Exit code and stdout digest of each pinned analyze run."""
        out = {}
        with tempfile.TemporaryDirectory() as tmp:
            paths = cls.inputs(tmp)
            for fmt in ("text", "json"):
                for suffix, assertions in (("", ()), (" asserted", cls.ASSERTED)):
                    argv = ["analyze", *paths, "--format", fmt]
                    for a in assertions:
                        argv += ["--assert", a]
                    code, stdout, _ = run(argv)
                    digest = hashlib.sha256(stdout.replace(tmp, "<tmp>").encode()).hexdigest()
                    out[fmt + suffix] = code, digest
        return out

    def test_output_is_unchanged(self):
        for name, (code, digest) in self.digests().items():
            self.assertEqual(code, 0, name)
            self.assertEqual(digest, self.OUTPUT_SHA256[name], name)


class ParserReuseTests(unittest.TestCase):
    """main builds its parser on the first call of a process and reuses it;
    nothing one call parses reaches the next."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.theta = str(Path(self.tmp.name) / "theta.txt")
        run(["family", "torus-link", "--n", "3", "--tunnel", "-o", self.theta])

    def test_calls_leak_nothing_into_later_calls(self):
        plain = run(["analyze", self.theta])
        self.assertEqual(plain[0], 0)
        asserted = run(["analyze", self.theta, "--assert", "atoroidal=true",
                        "--assert", "planar=false", "--assert", "tunnel=t"])
        self.assertEqual(asserted[0], 0)
        self.assertIn("[asserted] tunnel = t", asserted[1])
        with self.assertRaises(SystemExit) as exit_, redirect_stderr(io.StringIO()):
            main(["validate"])
        self.assertEqual(exit_.exception.code, 2)
        looped = str(Path(self.tmp.name) / "looped.txt")
        self.assertEqual(run(["loop", self.theta, "--vertex", "u", "--pair", "ka,kb",
                              "-o", looped])[0], 0)
        self.assertEqual(run(["analyze", self.theta]), plain)

    def test_eight_subcommands_build_one_parser(self):
        annulus = Path(self.tmp.name) / "h1.txt"
        annulus.write_text(H1_DIAGRAM)
        handcuff = str(Path(self.tmp.name) / "handcuff.txt")
        run(["family", "torus-link", "--n", "2", "--tunnel", "-o", handcuff])
        argvs = (
            ["enumerate"],
            ["validate", str(annulus)],
            ["classify", str(annulus)],
            ["symmetry", str(annulus)],
            ["loop", self.theta, "--vertex", "u", "--pair", "ka,kb"],
            ["family", "spine-5-2"],
            ["linking", handcuff, "--components", "a,b"],
            ["analyze", self.theta],
        )
        added = []
        original = argparse.ArgumentParser.add_argument

        def add_argument(parser, *args, **kwargs):
            added.append(args)
            return original(parser, *args, **kwargs)

        with mock.patch.object(argparse.ArgumentParser, "add_argument", add_argument):
            cli._build_parser.__wrapped__()
            one_build = len(added)
            cli._build_parser.cache_clear()
            for argv in argvs:
                self.assertEqual(run(argv)[0], 0, argv)
        self.assertEqual(cli._build_parser.cache_info().misses, 1)
        self.assertEqual(len(added), 2 * one_build)


class OneShotTests(unittest.TestCase):
    """A fresh process builds the parser only when it runs a command, and
    prints what an in-process call prints."""

    @staticmethod
    def python(*args: str, check: bool = True, **streams) -> subprocess.CompletedProcess:
        """Run the interpreter on this checkout's package, capturing stdout
        and stderr unless `streams` says where they go."""
        src = str(Path(hkdiag.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        return subprocess.run([sys.executable, *args], text=True, check=check,
                              env=dict(os.environ, PYTHONPATH=path),
                              **(streams or {"capture_output": True}))

    def one_shot(self, *argv: str) -> tuple[int, str, str]:
        """Exit code, stdout and stderr of `python -m hkdiag.cli argv`, checked
        against the same call in process."""
        proc = self.python("-m", "hkdiag.cli", *argv, check=False)
        result = (proc.returncode, proc.stdout, proc.stderr)
        self.assertEqual(result, run(list(argv)))
        return result

    def test_import_builds_no_parser(self):
        out = self.python("-c", (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import hkdiag.cli\n"
            "print(len(built))\n"
        )).stdout
        self.assertEqual(out, "0\n")

    def test_one_shot_output_matches_in_process(self):
        out = self.python("-m", "hkdiag.cli", "enumerate", "--labels", "--format", "json").stdout
        self.assertEqual(hashlib.sha256(out.encode()).hexdigest(),
                         OncePerProcessTests.OUTPUT_SHA256["enumerate --labels json"])

    def test_a_reader_that_leaves_early_gives_141_and_no_traceback(self):
        """Output larger than a pipe's buffer fails in a write, smaller
        output in the last flush; both are a closed pipe, not a crash."""
        for argv in (["enumerate", "--labels", "--format", "json"], ["enumerate"]):
            read, write = os.pipe()
            os.close(read)  # the reader is gone before the first byte
            try:
                proc = self.python("-m", "hkdiag.cli", *argv, check=False,
                                   stdout=write, stderr=subprocess.PIPE)
            finally:
                os.close(write)
            self.assertEqual((proc.returncode, proc.stderr), (141, ""), argv)

    def test_one_shot_exit_codes_match_in_process(self):
        with tempfile.TemporaryDirectory() as tmp:
            theta, link = str(Path(tmp) / "theta.txt"), str(Path(tmp) / "link.txt")
            spine, once = str(Path(tmp) / "spine.txt"), str(Path(tmp) / "once.txt")
            broken, bad = str(Path(tmp) / "broken.txt"), str(Path(tmp) / "bad.txt")
            run(["family", "torus-link", "--n", "3", "--tunnel", "-o", theta])
            run(["family", "torus-link", "--n", "2", "--tunnel", "-o", link])
            run(["family", "spine-5-2", "-o", spine])
            run(["loop", spine, "--vertex", "u", "--pair", "ka,kb", "--tunnel", "t", "-o", once])
            Path(broken).write_text("graph link\nedge k\npass k x1 over sign=+\n")
            Path(bad).write_text(BAD_LABELS)

            code, out, _ = self.one_shot("analyze", theta, "--assert", "atoroidal=true",
                                         "--assert", "planar=false", "--assert", "tunnel=t")
            self.assertEqual(code, 0)
            self.assertIn("class: ", out)
            code, out, _ = self.one_shot("analyze", once)  # imports labeling on the way
            self.assertEqual(code, 0)
            self.assertIn("ring annulus prediction:", out)
            code, out, _ = self.one_shot("analyze", broken)
            self.assertEqual(code, 2)
            self.assertIn(f"{broken}: line 3", out)
            code, out, _ = self.one_shot("validate", bad)
            self.assertEqual(code, 1)
            self.assertIn("violation", out)
            code, out, err = self.one_shot("loop", link, "--vertex", "u", "--pair", "a.0,a.1")
            self.assertEqual((code, out), (1, ""))
            self.assertTrue(err.startswith("rejected: "), err)



json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=24,
)


class JsonTextTests(unittest.TestCase):
    """cli._json_text writes exactly what json.dumps(obj, indent=2) writes."""

    def assertSameAsStdlib(self, obj):
        self.assertEqual(cli._json_text(obj), json.dumps(obj, indent=2))

    @given(json_trees)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_stdlib_on_random_trees(self, obj):
        self.assertSameAsStdlib(obj)

    def test_empty_containers_at_every_depth_and_top_level_scalars(self):
        for obj in ([], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[[], {}], {"b": [[]]}],
                    {"a": {"b": {"c": []}}, "d": ()}, None, True, False, 0, -7, "", "x"):
            self.assertSameAsStdlib(obj)

    def test_bools_are_never_ints(self):
        self.assertEqual(cli._json_text([True, 1, False, 0]), "[\n  true,\n  1,\n  false,\n  0\n]")
        self.assertSameAsStdlib({"t": True, "one": 1, "f": False, "zero": 0})

    def test_large_ints(self):
        self.assertSameAsStdlib([-(10 ** 40), 10 ** 40, -1, {"n": -(2 ** 63) - 1}])

    def test_strings_and_keys_are_escaped(self):
        nasty = ['"', "\\", "\n", "\x00", "],{:", "\u00e9t\u00e9", "\U0001f600", "\ud800", "\t\x7f"]
        self.assertSameAsStdlib(nasty)
        self.assertSameAsStdlib({k: [k, {k: k}] for k in nasty})
        self.assertEqual(cli._json_text("\U0001f600"), '"\\ud83d\\ude00"')

    def test_other_types_raise_type_error(self):
        for bad in (1.5, {1, 2}, object()):
            for obj in (bad, [bad], {"k": bad}, {"k": [0, (bad,)]}):
                with self.assertRaisesRegex(TypeError, type(bad).__name__):
                    cli._json_text(obj)
        with self.assertRaisesRegex(TypeError, "int"):
            cli._json_text({1: "a"})

    def test_an_unwritable_reply_is_an_internal_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            good = Path(tmp) / "good.txt"
            good.write_text(H1_DIAGRAM)

            def worker(report):
                report.data["type"] = 1.5

            with mock.patch.object(cli, "_validate_worker", worker):
                code, out, err = run(["validate", str(good), "--format", "json"])
        self.assertEqual((code, out), (3, ""))
        self.assertIn("TypeError: Object of type float is not JSON serializable", err)


if __name__ == "__main__":
    unittest.main()
