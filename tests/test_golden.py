"""Golden artifacts: same-seed CLI runs must reproduce pinned digests.

Each case runs one ``repro`` command in-process and compares the sha256
of its deterministic artifacts — the JSON report, ``telemetry.jsonl``
and ``traces.jsonl`` (``events.jsonl`` and the manifest carry wall time
and are left out) — to the values pinned here.  A change that moves one
of them must say why and re-pin it.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.service import ServiceWorld, run_demo

#: ``(argv, report flag, exit code, {artifact: sha256})``; ``traces`` / ``telemetry``
#: are read from the ``--obs-dir``, ``report`` is the file the command
#: writes through its report flag (``--json``, or ``section7``'s
#: ``--records`` CSV; ``None`` for a command with no report, like
#: ``demo``).  ``demo`` exits 1 when a call did not complete.
GOLDEN = {
    # 47 close_set.build spans: simulated surrogates serving batch-computed
    # sets under churn and a shard kill.
    "soak-small-seed3": (
        ["soak", "--scale", "small", "--seed", "3", "--minutes", "20",
         "--churn-rate", "2", "--kill-shard", "0"],
        "--json",
        0,
        {
            "traces": "6f972f3ad255ae82aaeef63982b580dbfb2fd789511624e5eee3c9524883f250",
            "telemetry": "e8a762caee138eb0083b3af4a90ba017a93f10a70794231f1e6a41277c2fd9a3",
            "report": "ba3f6d943c7f07388c17ba6adaf13805ebfa06080831ef98f6b74dda1a9b74fa",
        },
    ),
    # 21 close_set.build spans, latent calls placed first, surrogate crashes.
    "chaos-small-seed1": (
        ["chaos", "--scale", "small", "--seed", "1", "--latent", "10",
         "--crash-rate", "1"],
        "--json",
        0,
        {
            "traces": "5ef8bb9185fa96a8831b8ae7249a98eca0e4331750fcf377f8f62d01dc13eadf",
            "telemetry": "cfd338add27ac4e59eb3e704d45b2bf3ebd89c141f11d025260fbbf067eed7e4",
            "report": "f85aba005ccd97ff896ed7ad896e1d5d75a1791b48b1f8c9c5ac89a1e7fd3aeb",
        },
    ),
    # Every policy's per-session records and ASAP's close_set.build spans
    # of a Section-7 run: relay selection for a batch of latent sessions.
    "section7-small-seed0": (
        ["section7", "--scale", "small", "--seed", "0"],
        "--records",
        0,
        {
            "traces": "c4ae7ad490ab4a40b873f778464474a8af43039f363a516fe8e1959d57ad5d20",
            "report": "47bc36386a0378c381430ee0e6c63d2b055505bb19f04eb1b56f854e3432c441",
        },
    ),
    # 16 concurrent loopback dials, each with 4 s of relayed MediaFrames:
    # the wire codec, the loopback hub and the host agents' media path.
    # One call degrades (relay-offline), so the command exits 1.
    "demo-small-seed0": (
        ["demo", "--scale", "small", "--seed", "0", "--calls", "16",
         "--media-ms", "4000"],
        None,
        1,
        {
            "traces": "c7854287327ab0696cb2f4a980251e0be0c33b807c1c8e7962548ae05037b01a",
            "telemetry": "23483515230bcbf4a67cc11dd4cc5b27f0ed24b2e598f6af24cc1f99dbc12088",
        },
    ),
}

#: sha256 of :func:`_demo_digest_document` for the 16-call ``small``
#: seed-0 loopback run with frame traces (the ``wire-dial`` dial shape).
DEMO_RECORDS_SHA256 = "e577dd3758c7d69ab6203a76e331e0911bf9817abaf612692b76c6a0f1ece5c2"


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_artifacts_match_the_pinned_digests(case, tmp_path, capsys):
    argv, report_flag, exit_code, pinned = GOLDEN[case]
    obs_dir, report = tmp_path / "obs", tmp_path / "report"
    report_args = [report_flag, str(report)] if report_flag else []
    code = main([*argv, "--trace", "--obs-dir", str(obs_dir), *report_args])
    capsys.readouterr()
    assert code == exit_code
    files = {
        "traces": obs_dir / "traces.jsonl",
        "telemetry": obs_dir / "telemetry.jsonl",
        "report": report,
    }
    digests = {name: hashlib.sha256(files[name].read_bytes()).hexdigest() for name in pinned}
    assert digests == pinned


def _demo_digest_document(result) -> str:
    """Every dial's record, the wire totals and each frame trace, as text."""
    calls = [
        [call.outcome, call.path, call.setup_ms, call.mos, call.selection_messages,
         [list(step) for step in call.steps]]
        for call in result.calls
    ]
    traces = [
        [call_id, got[call_id].to_jsonl()]
        for got in result.frame_traces
        for call_id in sorted(got)
    ]
    return json.dumps(
        {
            "calls": calls,
            "virtual_ms": result.virtual_ms,
            "wire_deliveries": result.wire_deliveries,
            "media_delivered": result.media_delivered,
            "frame_traces": traces,
        },
        sort_keys=True,
    )


def test_wire_dial_records_match_the_pinned_digest():
    world = ServiceWorld.from_scale("small", 0)
    result = run_demo(world=world, calls=16, media_ms=4000, media_frames=True)
    document = _demo_digest_document(result)
    assert hashlib.sha256(document.encode()).hexdigest() == DEMO_RECORDS_SHA256
