"""The reachability ratchet (``tools/reach.py``): the execution probe's
pieces, the keyword gate and the field pass (every keyword and config
field has a setter outside the tests)."""

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

def tune(level, by_position=0, by_name=1, only_in_tests=2, in_bench=3):
    return level
"""

USES = """\
from dataclasses import replace
from repro.knobs import KnobConfig, tune

def build(outer):
    first = KnobConfig(7, by_keyword=2)
    return first, replace(outer.nested, by_attribute_replace=3), tune(0, 5), tune(0, by_name=6)
"""

WORKLOAD = """\
from repro.knobs import KnobConfig, tune

def config(smoke):
    sizes = dict(by_dict=1) if smoke else {"by_dict": 2}
    base = dict(**sizes)
    return KnobConfig(**base), tune(1, **dict(in_bench=4))
"""

TEST = """\
from repro.knobs import InnerConfig, KnobConfig, tune

def test_knobs():
    KnobConfig(only_in_tests=9)
    InnerConfig(unset=2)
    tune(0, only_in_tests=9)
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


#: What the probe reports for ``tune``: no call changed any keyword.
TUNE = [(Path("src/repro/knobs.py"), "tune", keyword)
        for keyword in ("by_position", "by_name", "only_in_tests", "in_bench")]


def test_a_keyword_only_tests_pass_fails(tree):
    problems = reach.keyword_problems(TUNE, reach.scan(tree).passed, allowed={})
    assert problems == [
        f"{Path('src/repro/knobs.py')}: tune(only_in_tests=) only ever took its default, "
        "and nothing outside tests/ passes it"
    ]


def test_keywords_passed_in_src_or_bench_pass(tree):
    passed = reach.scan(tree).passed
    for keyword in ("by_position", "by_name", "in_bench"):
        assert ("tune", keyword) in passed
    assert ("tune", "only_in_tests") not in passed


def test_a_positional_call_to_a_shared_name_passes_no_keyword(tree):
    """A second ``tune`` makes ``tune(0, 5)`` ambiguous: its positional
    argument counts for neither definition; keywords still match by name."""
    (tree / "src/repro/dial.py").write_text(
        "class Dial:\n    def tune(self, level, volume=0):\n        return volume\n",
        encoding="utf-8",
    )
    passed = reach.scan(tree).passed
    assert ("tune", "volume") not in passed
    assert ("tune", "by_position") not in passed
    assert ("tune", "by_name") in passed


def test_an_allowed_keyword_passes_and_a_stale_entry_fails(tree):
    allowed = {
        "tune(only_in_tests=)": "why it stays",
        "tune(by_name=)": "passed in src: stale",
        "gone(level=)": "no such keyword: stale",
    }
    assert reach.keyword_problems(TUNE, reach.scan(tree).passed, allowed) == [
        "tools/reach.py: keyword allow-list entry 'gone(level=)' is stale; remove it",
        "tools/reach.py: keyword allow-list entry 'tune(by_name=)' is stale; remove it",
    ]


CI_LINES = """\
      - run: |
          PYTHONPATH=src python -m repro.cli soak --scale tiny \\
            --json run1.json | tee soak.out
          PYTHONPATH=src python -m repro.cli serve --port 9700 > serve.out 2>&1 &
          help=$(PYTHONPATH=src python -m repro.cli "$cmd" --help)
          PYTHONPATH=src python -m repro.cli soak --scale tiny \\
            --json run1.json
"""


def test_ci_lines_become_argv_without_shell_words_or_repeats():
    assert reach.ci_commands(CI_LINES) == [
        (["soak", "--scale", "tiny", "--json", "run1.json"], False),
        (["serve", "--port", "9700"], True),
    ]


GOLDEN_TABLE = """\
GOLDEN = {
    # A comment between rows.
    "soak-row": (["soak", "--seed", "3"], {"report": "--json"}, 0, {"traces": "ab"}),
    "demo-row": (["demo"], {}, 1, {"telemetry": "cd"}),
    "conference-row": (["conference", "--json"], {}, 0, {"stdout": "ef"}),
}
"""


def test_golden_rows_become_argv_with_the_flags_their_test_adds():
    soak, demo = Path("golden", "soak-row"), Path("golden", "demo-row")
    assert reach.golden_commands(GOLDEN_TABLE) == [
        (soak, ["soak", "--seed", "3", "--json", str(soak / "report"),
                "--trace", "--obs-dir", str(soak / "obs")], 0),
        (demo, ["demo", "--trace", "--obs-dir", str(demo / "obs")], 1),
        (Path("golden", "conference-row"), ["conference", "--json"], 0),
    ]


def test_ci_runs_every_subcommand():
    """The probe runs what CI and the golden table run, so a subcommand in
    neither would have every definition only it reaches reported as
    uncalled."""
    import argparse

    from repro.cli import make_parser

    parser = make_parser()
    subcommands = next(
        a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    run = {argv[0] for argv, _ in reach.ci_commands(reach.CI.read_text())}
    run |= {argv[0] for _, argv, _ in reach.golden_commands(reach.GOLDEN.read_text())}
    assert run == set(subcommands)


def test_the_probe_maps_calls_to_definitions():
    from repro.evaluation.report import render_cdf_row, render_series
    from repro.voip.outage import OutageWindow

    defined = {qualname: (str(path), line) for path, line, qualname, _ in reach.definitions()}
    probe = reach.Probe()
    with probe:
        OutageWindow(0.0, 5.0).duration_ms  # a property: its site is the decorator's line
        render_series("t", [("a", [1.0])])
    sites = probe.sites()
    assert defined["OutageWindow.duration_ms"] in sites
    assert defined["render_series"] in sites
    assert defined["account_outages"] not in sites
    assert defined["render_cdf_row"] + ("unit",) in probe.unchanged()
    with probe:
        render_cdf_row("a", [1.0], unit="ms")
    assert defined["render_cdf_row"] + ("unit",) not in probe.unchanged()
