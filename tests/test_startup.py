"""Each command loads only what it runs, and the package API resolves
lazily. The import checks run in fresh interpreters and compare sys.modules
against a snapshot taken first, so what site already loaded does not count."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wimax_il

SRC = Path(wimax_il.__file__).parents[1]

SUBMODULES = ("burst", "config", "cost_model", "errors", "generator", "reference", "tablefile")
# each step runs in the child after the snapshot; the named modules must not
# be loaded by it
BUDGETS = [
    ("import wimax_il", {f"wimax_il.{name}" for name in (*SUBMODULES, "cli")}),
    (
        "import wimax_il.cli",
        {"dataclasses", "inspect", "json", "wimax_il.cost_model", "wimax_il.burst",
         "wimax_il.generator"},
    ),
    (
        "import wimax_il.cli; wimax_il.cli.main(['gen', '--preset', 'qpsk'])",
        {"wimax_il.cost_model", "wimax_il.burst"},
    ),
    (
        "import wimax_il.cli; wimax_il.cli.main(['burst', '--preset', 'qpsk', '--b', '8'])",
        {"wimax_il.cost_model"},
    ),
]


def modules_loaded_by(step: str) -> set[str]:
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{step}\n"
        "new = sorted(set(sys.modules) - before)\n"
        "sys.stderr.write(' '.join(new))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return set(proc.stderr.split())


@pytest.mark.parametrize("step,unloaded", BUDGETS, ids=["package", "cli", "gen", "burst"])
def test_command_imports_only_what_it_runs(step, unloaded):
    loaded = modules_loaded_by(step)
    assert "wimax_il" in loaded
    assert not loaded & unloaded, sorted(loaded & unloaded)


def test_every_export_is_its_submodule_object():
    modules = [importlib.import_module(f"wimax_il.{name}") for name in SUBMODULES]
    assert len(set(wimax_il.__all__)) == len(wimax_il.__all__)
    for name in wimax_il.__all__:
        value = getattr(wimax_il, name)
        holders = [module for module in modules if hasattr(module, name)]
        assert holders, name
        assert all(getattr(module, name) is value for module in holders), name
    assert set(wimax_il.__all__) <= set(dir(wimax_il))
    with pytest.raises(AttributeError):
        wimax_il.no_such_name
