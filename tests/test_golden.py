"""Golden artifacts: same-seed runs must reproduce pinned digests.

Each case runs one ``repro`` command in-process and compares the sha256
of its deterministic artifacts — report files, ``telemetry.jsonl`` and
``traces.jsonl`` (the manifest carries wall time and is left out), or
what it printed — to the values pinned here.  A change
that moves one of them must say why and re-pin it: a mismatch prints one
``name: pinned <sha256>, now <sha256>`` line per changed artifact.
"""

import hashlib
import json
import runpy
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main
from repro.media import MediaPlaneConfig, PathWindow, run_media_session
from repro.service import ServiceWorld, run_demo

ROOT = Path(__file__).resolve().parent.parent

#: ``(argv, {artifact: flag}, exit code, {artifact: sha256})``.  Each
#: flagged artifact is the file the command writes where that flag points
#: (``--json``, ``--fault-log``, ``section7``'s ``--records`` CSV; ``trace``
#: writes its run directory, ``obs``, through ``--output``).  ``traces`` /
#: ``telemetry`` are read from ``--obs-dir``, passed with ``--trace`` when
#: one of them is pinned; ``stdout`` is what the command printed.  ``demo``
#: exits 1 when a call did not complete.
GOLDEN = {
    # 47 close_set.build spans: simulated surrogates serving batch-computed
    # sets under churn and a shard kill.
    "soak-small-seed3": (
        ["soak", "--scale", "small", "--seed", "3", "--minutes", "20",
         "--churn-rate", "2", "--kill-shard", "0"],
        {"report": "--json"},
        0,
        {
            "traces": "6f972f3ad255ae82aaeef63982b580dbfb2fd789511624e5eee3c9524883f250",
            "telemetry": "e8a762caee138eb0083b3af4a90ba017a93f10a70794231f1e6a41277c2fd9a3",
            "report": "ba3f6d943c7f07388c17ba6adaf13805ebfa06080831ef98f6b74dda1a9b74fa",
        },
    ),
    # The control-plane event log of a shard kill and its recovery.
    "soak-tiny-seed3": (
        ["soak", "--scale", "tiny", "--seed", "3", "--minutes", "20",
         "--churn-rate", "2", "--kill-shard", "0"],
        {"report": "--json", "event-log": "--event-log"},
        0,
        {
            "traces": "f9102d4615c1007e863b7c79d5642fc5318404f6ae674234c91f2dfb32b8abf9",
            "telemetry": "5e753d7c87bf3b21bf4c7eee927754efb519bf31690e5b558d8dbea610bac25a",
            "report": "ff6bb63b394af2f9a431190bbe5122d74cc388e60b6eb70961e0d09dfca1b2b9",
            "event-log": "3a773c89dd52d3a1842c4d90e7b518bfa2a00d69157e0f0cf9a36cae64dc3683",
        },
    ),
    # 21 close_set.build spans, latent calls placed first, surrogate crashes.
    "chaos-small-seed1": (
        ["chaos", "--scale", "small", "--seed", "1", "--latent", "10",
         "--crash-rate", "1"],
        {"report": "--json"},
        0,
        {
            "traces": "5ef8bb9185fa96a8831b8ae7249a98eca0e4331750fcf377f8f62d01dc13eadf",
            "telemetry": "cfd338add27ac4e59eb3e704d45b2bf3ebd89c141f11d025260fbbf067eed7e4",
            "report": "f85aba005ccd97ff896ed7ad896e1d5d75a1791b48b1f8c9c5ac89a1e7fd3aeb",
        },
    ),
    # Fault seed 4: churn takes two relays down mid-call and three calls
    # fail over (the report's failover_ms count).
    "chaos-tiny-seed11-fault4": (
        ["chaos", "--scale", "tiny", "--seed", "11", "--sessions", "20", "--joins", "20",
         "--duration-ms", "20000", "--media-ms", "5000", "--churn-rate", "30",
         "--crash-rate", "4", "--loss-rate", "0.02", "--fault-seed", "4"],
        {"report": "--json", "fault-log": "--fault-log"},
        0,
        {
            "traces": "d0685e0829c5c67170dd7b8cbb2a7ba2a8aeb7b98929b9dfc21c37f86ff74571",
            "telemetry": "7317cf55f51e2ba2520dec67802dcf70542273409cb9e3a0a7b00f1df4a147e3",
            "report": "d4498ced367a1240b3942ae6609be5e2284f424b4963c314ae7f6d79aa50e1eb",
            "fault-log": "bb366a57a9e962288ec457c69034378650157e7d6f23215f02fdba74606fc65b",
        },
    ),
    # Traced chaos calls and Skype-like sessions: the L1-L4 evidence.
    "trace-tiny-seed11": (
        ["trace", "--scale", "tiny", "--seed", "11", "--sessions", "4", "--joins", "4",
         "--skype-sessions", "2", "--duration-ms", "15000", "--media-ms", "4000",
         "--skype-ms", "30000"],
        {"obs": "--output"},
        0,
        {"traces": "1f9b0950655b5c6a1ba8b560d782cc0a08920e969e19ad7b74c25a0c09fd716c"},
    ),
    # Every policy's per-session records and ASAP's close_set.build spans
    # of a Section-7 run: relay selection for a batch of latent sessions.
    "section7-small-seed0": (
        ["section7", "--scale", "small", "--seed", "0"],
        {"report": "--records"},
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
        {},
        1,
        {
            "traces": "c7854287327ab0696cb2f4a980251e0be0c33b807c1c8e7962548ae05037b01a",
            "telemetry": "23483515230bcbf4a67cc11dd4cc5b27f0ed24b2e598f6af24cc1f99dbc12088",
        },
    ),
    # Per-leg measured and closed-form MOS of a three-way conference
    # through a loss burst (codec switches included).
    "conference-tiny-seed0": (
        ["conference", "--scale", "tiny", "--seed", "0", "--json"],
        {},
        0,
        {"stdout": "e3507c4bda689c3125aa5bb552c824b7a550c4e5f3c6e61edce0cee18996a1ec"},
    ),
}

#: sha256 of :func:`_demo_digest_document` for the 16-call ``small``
#: seed-0 loopback run with frame traces (the ``wire-dial`` dial shape).
DEMO_RECORDS_SHA256 = "e577dd3758c7d69ab6203a76e331e0911bf9817abaf612692b76c6a0f1ece5c2"

#: One 20 s media session through a 4 s loss burst (codec switches
#: included): its frame trace and the telemetry it samples.
MEDIA_SESSION_SHA256 = {
    "frames": "329eceb3120f9d4756cafbc440f70de0346fc96a592bf81d28d2505b9288efc5",
    "telemetry": "ecbdb86c68e99ac780642d6ae2c34bc1e3db49375637789356f2613d8a19f90b",
}

#: ``examples/voice_call.py``'s printout: static path, path switching and
#: path diversity over one ASAP selection.
VOICE_CALL_SHA256 = "b922710ae63ff0bc2c98c97fdc0b259e770d3a75840a3b39c68ff0d53537698a"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _assert_pinned(digests: dict, pinned: dict) -> None:
    changed = [
        f"{name}: pinned {pinned[name]}, now {digests[name]}"
        for name in pinned
        if digests[name] != pinned[name]
    ]
    assert not changed, "\n".join(changed)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_artifacts_match_the_pinned_digests(case, tmp_path, capsys):
    argv, outputs, exit_code, pinned = GOLDEN[case]
    obs_dir = tmp_path / "obs"
    files = {name: tmp_path / name for name in outputs}
    files.update(traces=obs_dir / "traces.jsonl", telemetry=obs_dir / "telemetry.jsonl")
    args = [arg for name, flag in outputs.items() for arg in (flag, str(files[name]))]
    if {"traces", "telemetry"} & set(pinned):
        args += ["--trace", "--obs-dir", str(obs_dir)]
    code = main([*argv, *args])
    stdout = capsys.readouterr().out.encode()
    assert code == exit_code
    _assert_pinned(
        {
            name: _sha256(stdout if name == "stdout" else files[name].read_bytes())
            for name in pinned
        },
        pinned,
    )


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
    _assert_pinned({"records": _sha256(document.encode())}, {"records": DEMO_RECORDS_SHA256})


def test_media_session_matches_the_pinned_digests(tmp_path):
    with obs.observe(obs_dir=tmp_path, command="media") as run:
        result = run_media_session(
            call_id=1,
            duration_ms=20_000.0,
            path=[
                PathWindow(0.0, 120.0, 0.005),
                PathWindow(5_000.0, 120.0, 0.30),
                PathWindow(9_000.0, 120.0, 0.005),
            ],
            config=MediaPlaneConfig(burst_frames=4.0),
            seed=11,
            timeline=run.timeline,
        )
    digests = {
        "frames": _sha256(result.trace.to_jsonl().encode()),
        "telemetry": _sha256((tmp_path / "telemetry.jsonl").read_bytes()),
    }
    _assert_pinned(digests, MEDIA_SESSION_SHA256)


def test_voice_call_example_prints_the_pinned_digest(capsys):
    runpy.run_path(str(ROOT / "examples" / "voice_call.py"), run_name="__main__")
    stdout = capsys.readouterr().out.encode()
    _assert_pinned({"stdout": _sha256(stdout)}, {"stdout": VOICE_CALL_SHA256})
