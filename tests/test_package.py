import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ["admcalc", "admcalc.series", "admcalc.hurwitz", "admcalc.hodge",
           "admcalc.localization", "admcalc.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    missing = [public for public in module.__all__ if not hasattr(module, public)]
    assert missing == []


def test_traced_benchmark_installs():
    # The traced benchmark run wraps package functions by the names it looks
    # up; a renamed or deleted one breaks its install.  The identities sum
    # their catalogs' numerators without ``enumerate_loci``, so no command
    # reaches its wrap and the script calls it directly.
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(str(root / part) for part in ("src", "perfbench"))
    script = (
        "import spans\n"
        "from admcalc import cli\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "assert cli.run(['table', '--what', 'J3', '--gmax', '2']) == 0\n"
        "assert tracer.n['hodge.table_calls'] == 2\n"
        "assert cli.run(['verify', '--all', '--gmax', '2', '--order', '6']) == 0\n"
        "calls = tracer.n['hodge.table_calls']\n"
        "assert cli.run(['verify', '--all', '--gmax', '3', '--order', '21']) == 0\n"
        "assert tracer.n['hodge.table_calls'] == calls + 2\n"
        "assert cli.run(['series', '--what', 'J', '--degree', '3']) == 0\n"
        "from admcalc import hodge, localization\n"
        "localization.enumerate_loci(1, 'J', hodge.l2_table(1))\n"
        "assert tracer.n['localization.terms'] > 0\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (["verify", "--suite", "rel2", "--gmax", "2"], 0, "rel2: pass\n"),
        (["hurwitz", "--degree", "3", "--profile", "x"], 2, ""),
    ],
)
def test_cli_module_runs_as_a_script(argv, code, out):
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-m", "admcalc.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout) == (code, out), result.stderr


def test_package_imports_only_the_standard_library():
    src = Path(__file__).resolve().parents[1] / "src" / "admcalc"
    allowed = set(sys.stdlib_module_names) | {"admcalc"}
    outside = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []
