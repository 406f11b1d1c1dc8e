"""Start-up pays only for the layers a command calls: `import hkdiag` loads no
layer, `import hkdiag.cli` loads only the shared errors, and each command
imports its own layers. Module sets are read in a fresh process, one per
command group."""

import io
import json
import os
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from test_package import EXPORTED

import hkdiag
from hkdiag import cli, diagram, errors, labeling, spatial, wirtinger

CLI = ["hkdiag", "hkdiag.cli", "hkdiag.errors"]
ANNULUS = sorted(CLI + ["hkdiag.diagram", "hkdiag.labeling"])
SPATIAL = sorted(CLI + ["hkdiag.diagram", "hkdiag.spatial"])
ANALYZE = sorted(CLI + ["hkdiag.diagram", "hkdiag.homology", "hkdiag.spatial",
                        "hkdiag.wirtinger"])

LOADED = (
    "import sys\n"
    "def loaded():\n"
    "    return sorted(m for m in sys.modules if m == 'hkdiag' or m.startswith('hkdiag.'))\n"
)

# Runs the commands given as JSON in argv[1], one after another, and prints
# each one's exit code with the hkdiag modules loaded after it.
RUN_COMMANDS = LOADED + (
    "import io, json\n"
    "from contextlib import redirect_stderr, redirect_stdout\n"
    "from hkdiag.cli import main\n"
    "steps = []\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):\n"
    "        steps.append([main(argv), loaded()])\n"
    "print(json.dumps(steps))\n"
)


def fresh_python(script: str, *args: str) -> str:
    src = str(Path(hkdiag.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), check=True).stdout


def run(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(argv)


class ImportGraphTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        tmp = Path(cls.tmp.name)
        cls.annulus = str(tmp / "h1.txt")
        Path(cls.annulus).write_text("node v hollow genus=2\nedge v v label=h1\n")
        cls.theta, cls.handcuff = str(tmp / "theta.txt"), str(tmp / "handcuff.txt")
        cls.spine, cls.once = str(tmp / "spine.txt"), str(tmp / "once.txt")
        for argv in (["family", "torus-link", "--n", "3", "--tunnel", "-o", cls.theta],
                     ["family", "torus-link", "--n", "4", "-o", cls.handcuff],
                     ["family", "spine-5-2", "-o", cls.spine],
                     ["loop", cls.spine, "--vertex", "u", "--pair", "ka,kb",
                      "--tunnel", "t", "-o", cls.once]):
            assert run(argv) == 0, argv

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def assert_loads(self, commands, expected):
        """Each command exits 0, and the modules loaded after each one are
        expected[i]."""
        steps = json.loads(fresh_python(RUN_COMMANDS, json.dumps(commands)))
        self.assertEqual(steps, [[0, modules] for modules in expected])

    def test_bare_package_and_cli_load_no_layer(self):
        out = fresh_python(LOADED + (
            "import hkdiag\n"
            "steps = [loaded()]\n"
            "try:\n"
            "    hkdiag.no_such_name\n"
            "except AttributeError as err:\n"
            "    steps.append(str(err))\n"
            "steps.append(loaded())\n"
            "from hkdiag import cli\n"
            "steps.append(loaded())\n"
            "steps.append('json' in sys.modules)\n"
            "steps.append(hkdiag.spatial.__name__)\n"
            "import json\n"
            "print(json.dumps(steps))\n"
        ))
        bare, missing, after_miss, with_cli, json_loaded, spatial_name = json.loads(out)
        self.assertEqual(bare, ["hkdiag"])
        self.assertIn("no_such_name", missing)
        self.assertEqual(after_miss, ["hkdiag"])
        self.assertEqual(with_cli, CLI)
        self.assertFalse(json_loaded)
        self.assertEqual(spatial_name, "hkdiag.spatial")

    def test_diagram_commands_load_diagram_and_labeling(self):
        self.assert_loads(
            [["enumerate"], ["enumerate", "--labels", "--format", "json"],
             ["validate", self.annulus], ["classify", self.annulus],
             ["symmetry", self.annulus]],
            [sorted(CLI + ["hkdiag.diagram"])] + [ANNULUS] * 4)

    def test_code_commands_load_spatial_only(self):
        self.assert_loads(
            [["loop", self.theta, "--vertex", "u", "--pair", "ka,kb", "--tunnel", "t"],
             ["linking", self.handcuff, "--components", "a,b"],
             ["family", "spine-5-2"]],
            [SPATIAL] * 3)

    def test_analyze_loads_labeling_only_for_a_looped_code(self):
        self.assert_loads(
            [["analyze", self.theta, "--assert", "tunnel=t"], ["analyze", self.handcuff],
             ["analyze", self.once]],
            [ANALYZE, ANALYZE, sorted(ANALYZE + ["hkdiag.labeling"])])

    def test_analyze_of_an_unlooped_code_loads_no_rationals(self):
        out = fresh_python(
            "import io, sys\n"
            "from contextlib import redirect_stdout\n"
            "from hkdiag.cli import main\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['analyze', path]) for path in sys.argv[1:]]\n"
            "print(codes, sorted({'fractions', 'decimal'} & set(sys.modules)))\n",
            self.theta, self.handcuff)
        self.assertEqual(out, "[0, 0] []\n")


class LazyNamespaceTests(unittest.TestCase):
    def test_star_import_binds_the_exported_names(self):
        namespace = {}
        exec("from hkdiag import *", namespace)
        del namespace["__builtins__"]
        self.assertEqual(set(namespace), EXPORTED)

    def test_dir_lists_the_exports_and_the_layers(self):
        names = set(dir(hkdiag))
        self.assertLessEqual(set(hkdiag.__all__), names)
        self.assertLessEqual({"diagram", "homology", "labeling", "spatial", "wirtinger"}, names)

    def test_unknown_name_is_an_attribute_error(self):
        with self.assertRaisesRegex(AttributeError, "no_such_name"):
            hkdiag.no_such_name

    def test_errors_have_one_home(self):
        for module in (hkdiag, diagram, labeling, spatial, wirtinger, cli):
            self.assertIs(module.StructureError, errors.StructureError, module)
        for module in (hkdiag, spatial, cli):
            self.assertIs(module.ContradictionError, errors.ContradictionError, module)


if __name__ == "__main__":
    unittest.main()
