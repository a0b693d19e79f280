"""Golden artifacts: same-seed CLI runs must reproduce pinned digests.

Each case runs one ``repro`` command in-process and compares the sha256
of its deterministic artifacts — the JSON report, ``telemetry.jsonl``
and ``traces.jsonl`` (``events.jsonl`` and the manifest carry wall time
and are left out) — to the values pinned here.  A change that moves one
of them must say why and re-pin it.
"""

import hashlib

import pytest

from repro.cli import main

#: ``(argv, report flag, {artifact: sha256})``; ``traces`` / ``telemetry``
#: are read from the ``--obs-dir``, ``report`` is the file the command
#: writes through its report flag (``--json``, or ``section7``'s
#: ``--records`` CSV).
GOLDEN = {
    # 47 close_set.build spans: simulated surrogates serving batch-computed
    # sets under churn and a shard kill.
    "soak-small-seed3": (
        ["soak", "--scale", "small", "--seed", "3", "--minutes", "20",
         "--churn-rate", "2", "--kill-shard", "0"],
        "--json",
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
        {
            "traces": "c4ae7ad490ab4a40b873f778464474a8af43039f363a516fe8e1959d57ad5d20",
            "report": "47bc36386a0378c381430ee0e6c63d2b055505bb19f04eb1b56f854e3432c441",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_artifacts_match_the_pinned_digests(case, tmp_path, capsys):
    argv, report_flag, pinned = GOLDEN[case]
    obs_dir, report = tmp_path / "obs", tmp_path / "report"
    code = main([*argv, "--trace", "--obs-dir", str(obs_dir), report_flag, str(report)])
    capsys.readouterr()
    assert code == 0
    files = {
        "traces": obs_dir / "traces.jsonl",
        "telemetry": obs_dir / "telemetry.jsonl",
        "report": report,
    }
    digests = {name: hashlib.sha256(files[name].read_bytes()).hexdigest() for name in pinned}
    assert digests == pinned
