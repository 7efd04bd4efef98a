"""Each command loads only what it runs, and the package itself loads and
defines nothing: each name lives in its module. The checks run in fresh
interpreters and compare against a snapshot taken first, so what site
already loaded does not count. No module imports a name it does not use."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wimax_il

SRC = Path(wimax_il.__file__).parents[1]

SUBMODULES = ("burst", "config", "cost_model", "errors", "generator", "reference", "tablefile")
# a well-formed argv is parsed without argparse, which imports gettext and,
# through it, locale
ARGPARSE = {"argparse", "gettext", "locale"}
# each step runs in the child after the snapshot; the named modules must not
# be loaded by it
BUDGETS = [
    ("import wimax_il", {f"wimax_il.{name}" for name in (*SUBMODULES, "cli")}),
    (
        "import wimax_il.cli",
        {"dataclasses", "inspect", "json", "wimax_il.cost_model", "wimax_il.burst",
         "wimax_il.generator", *ARGPARSE},
    ),
    (
        "import wimax_il.cli; wimax_il.cli.main(['gen', '--preset', 'qpsk'])",
        {"wimax_il.cost_model", "wimax_il.burst", *ARGPARSE},
    ),
    (
        "import wimax_il.cli; wimax_il.cli.main(['burst', '--preset', 'qpsk', '--b', '8'])",
        {"wimax_il.cost_model", *ARGPARSE},
    ),
    # verify runs the counter generator without a census, so not the datapath model
    (
        "import wimax_il.cli; wimax_il.cli.main(['verify', '--preset', 'qpsk'])",
        {"wimax_il.cost_model", "wimax_il.burst", *ARGPARSE},
    ),
    # a table file is checked against the reference tables alone
    (
        "import wimax_il.cli; wimax_il.cli.main(['verify', '--table', "
        f"{str(Path(__file__).parent / 'golden' / 'deinterleave_192_16_1.csv')!r}])",
        {"wimax_il.cost_model", "wimax_il.burst", "wimax_il.generator", *ARGPARSE},
    ),
]


def run_child(script: str) -> subprocess.CompletedProcess:
    """Run script in a fresh interpreter that imports the package from SRC."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )


def modules_loaded_by(step: str) -> set[str]:
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{step}\n"
        "new = sorted(set(sys.modules) - before)\n"
        "sys.stderr.write(' '.join(new))\n"
    )
    return set(run_child(script).stderr.split())


@pytest.mark.parametrize(
    "step,unloaded", BUDGETS, ids=["package", "cli", "gen", "burst", "verify", "verify-table"]
)
def test_command_imports_only_what_it_runs(step, unloaded):
    loaded = modules_loaded_by(step)
    assert "wimax_il" in loaded
    assert not loaded & unloaded, sorted(loaded & unloaded)


def test_package_defines_no_public_name():
    script = "import wimax_il; print([n for n in vars(wimax_il) if not n.startswith('_')])"
    assert run_child(script).stdout == "[]\n"


def unused_imports(source: str) -> list[str]:
    """The names bound by source's top-level imports that nothing in it reads,
    except on an import whose lines carry "# noqa: F401"."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = [
        (alias.asname or alias.name).partition(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        and not any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names
    ]
    return [name for name in bound if name not in read]


def test_unused_imports_finds_an_unused_name():
    source = "import os\nimport sys  # noqa: F401\nfrom a.b import c, d as e\nprint(c)\n"
    assert unused_imports(source) == ["os", "e"]


@pytest.mark.parametrize("path", sorted((SRC / "wimax_il").glob("*.py")), ids=lambda path: path.stem)
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
