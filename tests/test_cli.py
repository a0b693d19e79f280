"""Tests for the command-line interface."""

import pytest

from repro.cli import main, make_parser


#: The uniform interface every subcommand must accept (wired once in
#: ``_subcommand``; this test file is the drift alarm).
COMMON_FLAGS = (
    "--scale", "--seed", "--cache-dir",
    "--obs-dir", "--log-level", "--trace",
)


def _subparsers(parser):
    import argparse

    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    raise AssertionError("no subparsers registered")


class TestUniformFlags:
    def test_every_subcommand_accepts_the_common_flags(self):
        choices = _subparsers(make_parser())
        assert choices  # at least one subcommand registered
        for name, subparser in choices.items():
            options = set(subparser._option_string_actions)
            missing = [flag for flag in COMMON_FLAGS if flag not in options]
            assert not missing, (
                f"subcommand {name!r} drifted from the uniform interface: "
                f"missing {missing} (register it via _subcommand)"
            )

    def test_common_flags_parse_on_every_subcommand(self):
        parser = make_parser()
        for name, subparser in _subparsers(parser).items():
            argv = [name, "--scale", "tiny", "--seed", "7",
                    "--obs-dir", "obs", "--log-level", "debug", "--trace"]
            # Satisfy per-command required options generically.
            for option, action in subparser._option_string_actions.items():
                if action.required and option not in argv:
                    argv += [option, "out"]
            args = parser.parse_args(argv)
            assert args.seed == 7
            assert args.obs_dir == "obs"
            assert args.log_level == "debug"
            assert args.trace is True

    def test_trace_without_obs_dir_is_an_error(self, capsys):
        rc = main(["section3", "--scale", "tiny", "--trace"])
        assert rc == 2
        assert "--trace requires --obs-dir" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["bogus"])

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["section3", "--scale", "huge"])


class TestCommands:
    def test_generate_writes_artifacts(self, tmp_path, capsys):
        rc = main(["generate", "--scale", "tiny", "--seed", "2",
                   "--output", str(tmp_path / "out")])
        assert rc == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "rib.dump").exists()
        assert (out_dir / "updates.log").exists()
        assert (out_dir / "matrices.npz").exists()
        assert "wrote" in capsys.readouterr().out

    def test_generated_artifacts_load_back(self, tmp_path):
        main(["generate", "--scale", "tiny", "--seed", "2",
              "--output", str(tmp_path)])
        from repro.storage import load_matrices, read_rib_file

        entries = read_rib_file(tmp_path / "rib.dump")
        matrices = load_matrices(tmp_path / "matrices.npz")
        assert entries
        assert matrices.count > 0

    def test_section3(self, capsys):
        rc = main(["section3", "--scale", "tiny", "--seed", "11",
                   "--sessions", "300"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "direct" in out and "latent" in out

    def test_section7_with_records(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        rc = main(["section7", "--scale", "tiny", "--seed", "11",
                   "--sessions", "300", "--latent", "8",
                   "--records", str(records)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ASAP" in out and "OPT" in out
        assert records.exists()
        from repro.evaluation.metrics import load_records_csv

        assert load_records_csv(records)

    def test_call(self, capsys):
        rc = main(["call", "--scale", "tiny", "--seed", "11"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "direct RTT" in out

    def test_call_with_explicit_pair(self, capsys):
        rc = main(["call", "--scale", "tiny", "--seed", "11",
                   "--src", "0", "--dst", "5"])
        assert rc == 0
        assert "direct RTT" in capsys.readouterr().out

    def test_call_src_without_dst_is_an_error(self, capsys):
        rc = main(["call", "--scale", "tiny", "--seed", "11", "--src", "0"])
        assert rc == 2
        assert "--src and --dst" in capsys.readouterr().err

    def test_call_host_index_out_of_range(self, capsys):
        rc = main(["call", "--scale", "tiny", "--seed", "11",
                   "--src", "0", "--dst", "10000000"])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["call", "dial"])
    @pytest.mark.parametrize("src, dst", [("0", "10000000"), ("-1", "0")])
    def test_host_pair_is_range_checked_alike(self, capsys, command, src, dst):
        # Checked before anything is dialled: no overlay needs to run.
        rc = main([command, "--scale", "tiny", "--seed", "11", "--src", src, "--dst", dst])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: host index {src if src == '-1' else dst} out of range" in err

    def test_dial_src_without_dst_is_an_error(self, capsys):
        rc = main(["dial", "--scale", "tiny", "--seed", "11", "--dst", "3"])
        assert rc == 2
        assert "--src and --dst must be given together" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["chaos", "--crash-rate", "-1"],
        ["chaos", "--crash-rate", "nan"],
        ["experiment", "--seed", "-1"],
    ], ids=["negative-crash-rate", "nan-crash-rate", "negative-seed"])
    def test_config_errors_are_usage_errors(self, capsys, argv):
        rc = main([*argv, "--scale", "tiny"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_version_reports_package_and_schema_versions(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert f"repro {__version__}" in out
        assert "codec schema" in out
        assert "manifest schema" in out

    def test_scalability(self, capsys):
        rc = main(["scalability", "--scale", "tiny", "--seed", "11",
                   "--sessions", "300", "--latent", "6"])
        assert rc == 0
        assert "scalability error" in capsys.readouterr().out


class TestExtendedCommands:
    def test_limits(self, capsys):
        rc = main(["limits", "--scale", "tiny", "--seed", "11", "--sessions", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "detected Skype limits" in out

    def test_robustness(self, capsys):
        rc = main(["robustness", "--seed", "11", "--worlds", "1",
                   "--sessions", "300"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "aggregate:" in out

    def test_chaos_writes_fault_log_and_summary(self, tmp_path, capsys):
        rc = main([
            "chaos", "--scale", "tiny", "--seed", "11",
            "--sessions", "10", "--joins", "10",
            "--duration-ms", "15000", "--media-ms", "4000",
            "--churn-rate", "30", "--crash-rate", "4", "--loss-rate", "0.02",
            "--fault-log", str(tmp_path / "faults.jsonl"),
            "--json", str(tmp_path / "chaos.json"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chaos run:" in out
        assert "calls" in out
        import json

        log_lines = (tmp_path / "faults.jsonl").read_text().strip().splitlines()
        assert log_lines
        for line in log_lines:
            assert json.loads(line)["kind"]
        summary = json.loads((tmp_path / "chaos.json").read_text())
        assert sum(summary["calls"].values()) == 10

    def test_trace_subcommand_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "trace"
        rc = main([
            "trace", "--scale", "tiny", "--seed", "11",
            "--sessions", "4", "--joins", "4", "--skype-sessions", "2",
            "--duration-ms", "15000", "--media-ms", "4000",
            "--skype-ms", "30000", "--timelines", "2",
            "--output", str(out),
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        # The aggregate report covers all four limits...
        assert "Skype limits" in printed
        for needle in ("L1 relay-RTT gap", "L2 same-AS duplicate probes",
                       "L3 stabilization", "L4 probe messages"):
            assert needle in printed
        # ...and per-call timelines were rendered.
        assert "setup.ping" in printed
        # traces.jsonl exists beside the manifest and validates.
        from repro import obs

        records = obs.load_trace_file(out / obs.TRACES_FILENAME)
        assert records
        manifest = obs.load_manifest(out / obs.MANIFEST_FILENAME)
        assert manifest["traces_file"] == obs.TRACES_FILENAME
        assert manifest["traces_written"] == len(records)

    def test_chaos_with_trace_writes_trace_file(self, tmp_path, capsys):
        rc = main([
            "chaos", "--scale", "tiny", "--seed", "11",
            "--sessions", "6", "--joins", "6", "--latent", "6",
            "--duration-ms", "10000", "--media-ms", "4000",
            "--churn-rate", "60", "--crash-rate", "10",
            "--obs-dir", str(tmp_path), "--trace",
        ])
        assert rc == 0
        assert "chaos run:" in capsys.readouterr().out
        from repro import obs
        from repro.obs import trace_analysis as ta

        records = obs.load_trace_file(tmp_path / obs.TRACES_FILENAME)
        trees = ta.build_trees(records)
        assert any(
            t.root is not None and t.root.name == "call" for t in trees.values()
        )
        assert any(
            t.root is not None and t.root.name == "fault" for t in trees.values()
        )

    def test_demo_loopback(self, capsys):
        rc = main(["demo", "--scale", "tiny", "--seed", "0",
                   "--media-ms", "600"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "loopback demo" in out
        assert "MOS" in out
        assert "setup critical path" in out

    def test_demo_records_versions_in_manifest(self, tmp_path):
        rc = main(["demo", "--scale", "tiny", "--seed", "0",
                   "--media-ms", "600", "--obs-dir", str(tmp_path)])
        assert rc == 0
        from repro import __version__, obs
        from repro.net.codec import CODEC_SCHEMA_VERSION

        manifest = obs.load_manifest(tmp_path / obs.MANIFEST_FILENAME)
        assert manifest["annotations"]["package_version"] == __version__
        assert manifest["annotations"]["codec_schema"] == CODEC_SCHEMA_VERSION

    def test_serve_and_dial_over_tcp_in_one_process(self, tmp_path, capsys):
        """The server half of ``repro serve`` on real sockets, served from
        a background event loop; ``repro dial`` joins and calls through it."""
        import asyncio
        import threading

        from repro.net.sockets import TcpTransport
        from repro.service import ServiceWorld
        from repro.service.demo import start_servers

        cache = str(tmp_path / "cache")
        world = ServiceWorld.from_scale("tiny", 0, cache_dir=cache)
        loop = asyncio.new_event_loop()
        servers = loop.run_until_complete(start_servers(world, lambda key: TcpTransport()))
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            rc = main(["dial", "--scale", "tiny", "--seed", "0", "--cache-dir", cache,
                       "--bootstrap", servers.address, "--media-ms", "1000"])
        finally:
            asyncio.run_coroutine_threadsafe(servers.close(), loop).result(timeout=30)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=30)
            loop.close()
        assert not thread.is_alive()
        out = capsys.readouterr().out
        assert rc == 0
        assert ": completed" in out and "path: relay via" in out
        assert "setup critical path" in out and "relay_setup" in out
        assert "measured media (call " in out and "measured MOS" in out
        assert "] measured " in out  # one line per scored window

    def test_chaos_sweep(self, capsys):
        rc = main([
            "chaos", "--scale", "tiny", "--seed", "11",
            "--sessions", "8", "--joins", "8",
            "--duration-ms", "10000", "--churn-rate", "20",
            "--sweep", "0,1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "intensity 0:" in out
        assert "intensity 1:" in out
