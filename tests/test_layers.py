"""The layer gate (``tools/layers.py``): the package graph points down
one declared order, and ``import repro.core`` stays light."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_gate():
    spec = importlib.util.spec_from_file_location("layers", ROOT / "tools" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_gate()

#: The order of a synthetic package whose ``low`` layer sits under ``high``.
ORDER = ("errors", "low", "high", "repro/__init__")

LOW_MODULE = """\
from repro import high
from typing import TYPE_CHECKING
if TYPE_CHECKING:
    from repro.high.b import Other
def upward():
    from repro.high import b
def downward():
    from repro.errors import Boom
from ..high import b
"""


@pytest.fixture
def tree(tmp_path):
    package = tmp_path / "repro"
    files = {
        "__init__.py": "",
        "errors.py": "class Boom(Exception):\n    pass\n",
        "low/__init__.py": "",
        "low/a.py": LOW_MODULE,
        "high/__init__.py": "from repro.low import a\n",
        "high/b.py": "class Other:\n    pass\n",
    }
    for name, text in files.items():
        path = package / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return package


class TestGate:
    def test_the_repo_passes(self):
        assert layers.violations() == []

    def test_each_upward_or_unlisted_import_is_named_by_file_and_line(self, tree):
        found = layers.violations(tree, order=ORDER, lazy={})
        low = tree / "low" / "a.py"
        expected = {
            f"{low}:1: low imports repro.high, a layer above it (high)",
            f"{low}:4: low imports repro.high.b, a layer above it (high)",
            f"{low}:6: low imports repro.high.b, a layer above it (high)",
            f"{low}:6: function-level import of repro.high.b is not on the LAZY allow-list",
            f"{low}:8: function-level import of repro.errors is not on the LAZY allow-list",
            f"{low}:9: low imports repro.high.b, a layer above it (high)",
        }
        assert set(found) == expected

    def test_an_allowed_lazy_import_passes_and_a_stale_entry_fails(self, tree):
        lazy = {("low/a.py", "repro.errors"): "start-up cost", ("low/a.py", "repro.gone"): "-"}
        found = layers.violations(tree, order=ORDER, lazy=lazy)
        assert not any(":8:" in line for line in found)
        assert any("LAZY entry ('low/a.py', 'repro.gone') is stale" in line for line in found)

    def test_a_layer_missing_from_the_order_fails(self, tree):
        found = layers.violations(tree, order=("errors", "low", "repro/__init__"), lazy={})
        assert f"{tree / 'high' / '__init__.py'}:1: layer 'high' is not in ORDER" in found

    def test_the_script_prints_each_violation_and_exits_1(self, tree, monkeypatch, capsys):
        found = layers.violations(tree, order=ORDER, lazy={})
        monkeypatch.setattr(layers, "violations", lambda: found)
        assert layers.main() == 1
        assert capsys.readouterr().out.splitlines()[: len(found)] == found


def test_import_repro_core_stays_off_the_upper_layers():
    heavy = ("repro.storage", "repro.media", "repro.evaluation", "repro.service")
    # ``core.dial`` imports its messages from ``net.codec``; the package
    # around it re-exports nothing, so no transport loads with them.
    heavy += ("repro.net.loopback", "repro.net.shaped", "repro.net.transport", "repro.net.sockets")
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, repro.core; print(' '.join(sys.modules))"],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ).stdout.split()
    assert "repro.core" in loaded
    assert [m for m in loaded if m in heavy or m.startswith(tuple(h + "." for h in heavy))] == []
