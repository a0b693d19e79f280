"""The reachability ratchet's field pass (``tools/reach.py``): every
config field has a setter outside the tests."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _load_tool()

KNOBS = """\
from dataclasses import dataclass, field

@dataclass(frozen=True)
class KnobConfig:
    positional: int = 0
    by_keyword: int = 1
    by_replace: int = 2
    by_dict: int = 3
    only_in_tests: int = 4
    nested: "InnerConfig" = field(default_factory=lambda: InnerConfig())

    def tuned(self):
        return replace(self, by_replace=5)

@dataclass(frozen=True)
class InnerConfig:
    by_attribute_replace: int = 0
    unset: int = 1
"""

USES = """\
from dataclasses import replace
from repro.knobs import KnobConfig

def build(outer):
    first = KnobConfig(7, by_keyword=2)
    return first, replace(outer.nested, by_attribute_replace=3)
"""

WORKLOAD = """\
from repro.knobs import KnobConfig

def config(smoke):
    sizes = dict(by_dict=1) if smoke else {"by_dict": 2}
    base = dict(**sizes)
    return KnobConfig(**base)
"""

TEST = """\
from repro.knobs import InnerConfig, KnobConfig

def test_knobs():
    KnobConfig(only_in_tests=9)
    InnerConfig(unset=2)
"""


@pytest.fixture
def tree(tmp_path):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/knobs.py": KNOBS,
        "src/repro/uses.py": USES,
        "bench/workload.py": WORKLOAD,
        "tests/test_knobs.py": TEST,
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return tmp_path


def _names(found):
    return sorted(qualname for _, _, qualname in found)


def test_the_repo_passes():
    assert reach.field_problems(reach.unset_fields()) == []


def test_a_field_set_only_in_tests_fails(tree):
    found = reach.unset_fields(tree)
    assert _names(found) == [
        "InnerConfig.unset", "KnobConfig.nested", "KnobConfig.only_in_tests",
    ]
    problems = reach.field_problems(found, allowed={})
    knobs = Path("src/repro/knobs.py")
    assert f"{knobs}:9: config field KnobConfig.only_in_tests is set by nothing outside tests/" in problems
    assert len(problems) == 3


def test_a_policy_field_set_only_in_tests_fails(tree):
    (tree / "src/repro/policy.py").write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\n"
        "class SwitchPolicy:\n"
        "    in_src: int = 0\n"
        "    only_in_tests: int = 1\n\n"
        "DEFAULT = SwitchPolicy(in_src=2)\n",
        encoding="utf-8",
    )
    (tree / "tests/test_policy.py").write_text(
        "from repro.policy import SwitchPolicy\n\n"
        "def test_policy():\n"
        "    SwitchPolicy(only_in_tests=3)\n",
        encoding="utf-8",
    )
    found = reach.unset_fields(tree)
    assert "SwitchPolicy.only_in_tests" in _names(found)
    assert "SwitchPolicy.in_src" not in _names(found)
    policy = Path("src/repro/policy.py")
    assert (
        f"{policy}:6: config field SwitchPolicy.only_in_tests is set by nothing outside tests/"
        in reach.field_problems(found, allowed={})
    )


def test_fields_set_in_src_or_bench_pass(tree):
    names = _names(reach.unset_fields(tree))
    for setter in ("positional", "by_keyword", "by_replace", "by_dict"):
        assert f"KnobConfig.{setter}" not in names
    assert "InnerConfig.by_attribute_replace" not in names


def test_an_allowed_field_passes_and_a_stale_entry_fails(tree):
    allowed = {
        "InnerConfig": "every unset field of it",
        "KnobConfig.only_in_tests": "why it stays",
        "KnobConfig.nested": "why it stays",
        "KnobConfig.by_keyword": "set in src: stale",
        "GoneConfig": "no such class: stale",
    }
    problems = reach.field_problems(reach.unset_fields(tree), allowed)
    assert problems == [
        "tools/reach.py: field allow-list entry 'GoneConfig' is stale; remove it",
        "tools/reach.py: field allow-list entry 'KnobConfig.by_keyword' is stale; remove it",
    ]
