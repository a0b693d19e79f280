"""Command-line interface: ``python -m repro.cli <command>``.

Commands mirror the paper's workflow: the measurement foundation
(``section3``), the Skype study (``section5``, ``limits``), the
evaluation (``section7``, ``experiment``, ``scalability``, ``figures``,
``robustness``), single calls and conferences (``call``,
``conference``), runs under faults and churn (``chaos``, ``soak``,
``trace``, ``report``), scenario export (``generate``) and the wire
overlay (``serve``, ``dial``, ``demo``, all assembled by
:mod:`repro.service.demo`); ``--help`` describes each.  This module
holds only argument handling and printing.

Every subcommand is registered through :func:`_subcommand`, the single
place the uniform flags (``--scale``/``--seed``/``--cache-dir``/
``--obs-dir``/``--trace``) are wired —
a new subcommand cannot drift from the shared interface, and the CLI
tests enumerate the registered parsers to enforce it.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro import __version__, obs
from repro.errors import ConfigurationError
from repro.scenario import SCALES, Scenario, ScenarioConfig, build_scenario


def _build_from_args(args: argparse.Namespace) -> Scenario:
    return build_scenario(ScenarioConfig.from_cli_args(args))


def _version_string() -> str:
    from repro.net.codec import CODEC_SCHEMA_VERSION

    return (
        f"repro {__version__} "
        f"(codec schema {CODEC_SCHEMA_VERSION}, "
        f"trace schema {obs.TRACE_SCHEMA_VERSION}, "
        f"manifest schema {obs.MANIFEST_SCHEMA_VERSION})"
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", choices=SCALES, default="small",
                        help="scenario size (default: small)")
    parser.add_argument("--seed", type=int, default=0, help="scenario seed")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache built worlds + matrices here; a cold run costs ~2x a plain "
                             "build, so it pays from the second (default: $REPRO_CACHE_DIR or none)")
    parser.add_argument("--obs-dir", default=None, metavar="DIR",
                        help="enable observability: write run_manifest.json "
                             "and telemetry.jsonl to this directory")
    parser.add_argument("--trace", action="store_true",
                        help="also write causal trace records to "
                             "<obs-dir>/traces.jsonl (requires --obs-dir)")


def _subcommand(sub, name: str, func, help_text: str) -> argparse.ArgumentParser:
    """Register one subcommand with the uniform common flags attached.

    The only sanctioned way to add a subparser: common flags are wired
    here and nowhere else, so every present and future subcommand
    accepts the same ``--scale``/``--seed``/``--cache-dir``/``--obs-dir``/
    ``--trace`` interface.
    """
    parser = sub.add_parser(name, help=help_text)
    _add_common(parser)
    parser.set_defaults(func=func)
    return parser


def _add_fault_flags(p: argparse.ArgumentParser, crash_rate: float, churn_rate: float) -> None:
    """The fault-schedule flags :func:`_fault_config` reads."""
    p.add_argument("--duration-ms", type=float, default=60_000.0,
                   help="fault schedule window (simulated ms)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed of the fault schedule (independent of --seed)")
    p.add_argument("--crash-rate", type=float, default=crash_rate,
                   help="surrogate crashes per simulated minute")
    p.add_argument("--churn-rate", type=float, default=churn_rate,
                   help="host departures per simulated minute")


class _UsageError(Exception):
    """Flags that cannot run together: ``_run`` prints it and returns 2,
    as it does a :class:`~repro.errors.ConfigurationError` (a flag value
    the config rejects)."""


def _host_pair(args: argparse.Namespace, hosts) -> Optional[tuple]:
    """The ``--src``/``--dst`` host pair's IPs, or None when neither is given."""
    if (args.src is None) != (args.dst is None):
        raise _UsageError("--src and --dst must be given together")
    if args.src is None:
        return None
    for index in (args.src, args.dst):
        if not 0 <= index < len(hosts):
            raise _UsageError(
                f"host index {index} out of range (population has {len(hosts)} hosts)"
            )
    return hosts[args.src].ip, hosts[args.dst].ip


def _print_measured_mos(closed: Optional[float], score) -> None:
    """The closed-form vs measured MOS line, then one line per window."""
    closed_str = f"{closed:.3f}" if closed is not None else "n/a"
    print(f"  closed-form MOS: {closed_str}   measured MOS: {score.mos:.3f}")
    for w in score.windows:
        mos_str = "outage" if w.is_outage else f"{w.mos:.3f}"
        print(f"  [{w.start_ms:7.0f}..{w.end_ms:7.0f} ms] "
              f"measured {mos_str}  loss {w.effective_loss:.3f}  "
              f"codec {w.codec}")


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.storage import (
        save_matrices,
        write_asgraph_file,
        write_rib_file,
        write_update_file,
    )
    from repro.topology.bgpfeed import generate_rib_entries, generate_update_stream

    scenario = _build_from_args(args)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    entries = generate_rib_entries(
        scenario.topology, scenario.allocation, seed=args.seed
    )
    updates = generate_update_stream(
        scenario.topology, scenario.allocation, seed=args.seed
    )
    n_routes = write_rib_file(out / "rib.dump", entries)
    n_updates = write_update_file(out / "updates.log", updates)
    n_edges = write_asgraph_file(out / "asgraph.txt", scenario.inferred_graph)
    save_matrices(out / "matrices.npz", scenario.matrices)
    print(
        f"wrote {n_routes} routes, {n_updates} updates, {n_edges} AS-graph "
        f"edges, {scenario.matrices.count}x{scenario.matrices.count} matrices to {out}"
    )
    return 0


def cmd_section3(args: argparse.Namespace) -> int:
    from repro.evaluation.report import render_cdf_row, render_kv_table
    from repro.evaluation.section3 import run_section3

    scenario = _build_from_args(args)
    result = run_section3(scenario, session_count=args.sessions, seed=args.seed)
    print(render_cdf_row("direct", result.direct_rtts, "ms"))
    print(render_cdf_row("opt 1-hop", result.optimal_one_hop, "ms"))
    print(
        render_kv_table(
            "summary:",
            [
                ("latent fraction (>300 ms)", result.latent_fraction),
                ("improved fraction", result.improved_fraction),
                ("latent rescued fraction", result.rescued_fraction),
            ],
        )
    )
    return 0


def cmd_section5(args: argparse.Namespace) -> int:
    from repro.evaluation.section5 import run_section5

    scenario = _build_from_args(args)
    study = run_section5(scenario, seed=args.seed)
    print("session  stabilization_s  probed  after_stab  asymmetric")
    for analysis, stab, probed, after in zip(
        study.analyses,
        study.stabilization_seconds(),
        study.probed_counts(),
        study.probed_after_stabilization(),
    ):
        print(
            f"{analysis.session_id:>7}  {stab:>15.1f}  {probed:>6}  {after:>10}  "
            f"{'yes' if analysis.asymmetric else 'no':>10}"
        )
    rows = study.same_as_table()
    print(f"same-AS probe groups: {len(rows)}")
    return 0


def cmd_section7(args: argparse.Namespace) -> int:
    from repro.evaluation.report import render_method_table
    from repro.evaluation.section7 import run_section7

    scenario = _build_from_args(args)
    result = run_section7(
        scenario,
        session_count=args.sessions,
        latent_target=args.latent,
        max_latent_sessions=args.latent,
        seed=args.seed,
    )
    print(f"latent sessions: {len(result.latent_sessions)}")
    print(render_method_table(result.summaries()))
    if "ASAP" in result.records:
        total = sum(r.messages for r in result.records["ASAP"])
        print(f"ASAP relay-selection messages (total): {total}")
    if args.records:
        from repro.evaluation.metrics import save_records_csv

        rows = [r for records in result.records.values() for r in records]
        save_records_csv(args.records, rows)
        print(f"wrote {len(rows)} records to {args.records}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.evaluation.engine import ExperimentConfig, run_experiment
    from repro.evaluation.policies import METHOD_NAMES
    from repro.evaluation.report import render_method_table

    if args.policies:
        methods = tuple(p.strip().upper() for p in args.policies.split(",") if p.strip())
    else:
        methods = METHOD_NAMES
    config = ExperimentConfig(
        scale=args.scale,
        seed=args.seed,
        session_count=args.sessions,
        latent_target=args.latent,
        max_latent_sessions=args.latent,
        methods=methods,
        stream=args.stream,
        spill_dir=args.spill_dir,
        chunk_columns=args.chunk_columns,
    )
    report = run_experiment(config)
    substrate = "streamed" if report.streamed else "dense"
    print(
        f"experiment: scale={args.scale} substrate={substrate} "
        f"population={report.population} clusters={report.clusters}"
    )
    stages = " ".join(f"{k}={v:.2f}s" for k, v in report.stage_seconds.items())
    print(f"stages: {stages}")
    policies = " ".join(f"{k}={v:.2f}s" for k, v in report.policy_seconds.items())
    print(f"policies: {policies}")
    print(f"peak RSS: {report.peak_rss_kb} KiB "
          f"(dense matrices would need {report.dense_bytes // (1024 * 1024)} MiB)")
    if report.spill is not None:
        print(f"spill: {report.spill['chunks']}/{report.spill['chunk_total']} chunks, "
              f"{report.spill['bytes'] // (1024 * 1024)} MiB "
              f"({'ephemeral' if report.spill['ephemeral'] else report.spill['dir']})")
    print(f"latent sessions: {len(report.result.latent_sessions)} "
          f"(derived k = {report.derived_k_hops})")
    print(render_method_table(report.result.summaries()))
    return 0


def cmd_scalability(args: argparse.Namespace) -> int:
    from repro.evaluation.report import render_kv_table
    from repro.evaluation.scalability import run_scalability

    scenario = _build_from_args(args)
    result = run_scalability(
        scenario,
        session_count=args.sessions,
        latent_target=args.latent,
        max_latent_sessions=args.latent,
        seed=args.seed,
    )
    print(
        render_kv_table(
            "scalability error by method (≈0 = scalable):",
            [(m, result.scalability_error(m)) for m in ("DEDI", "RAND", "MIX", "ASAP")],
        )
    )
    return 0


def cmd_call(args: argparse.Namespace) -> int:
    from repro.core import ASAPConfig, ASAPSystem
    from repro.core.config import derive_k_hops

    scenario = _build_from_args(args)
    matrices = scenario.matrices
    system = ASAPSystem(scenario, ASAPConfig(k_hops=derive_k_hops(matrices)))
    pair = _host_pair(args, scenario.population.hosts)
    if pair is not None:
        caller_ip, callee_ip = pair
    else:
        rtt = matrices.rtt_ms.copy()
        rtt[~np.isfinite(rtt)] = -1.0
        a, b = np.unravel_index(int(np.argmax(rtt)), rtt.shape)
        clusters = scenario.clusters.all_clusters()
        caller_ip, callee_ip = clusters[a].hosts[0].ip, clusters[b].hosts[0].ip
    session = system.call(caller_ip, callee_ip)
    print(f"caller {session.caller} -> callee {session.callee}")
    print(f"direct RTT: {session.direct_rtt_ms:.0f} ms; relay needed: {session.relay_needed}")
    if session.selection is not None:
        print(f"quality paths: {session.quality_paths} "
              f"({session.selection.one_hop_ips} one-hop IPs, "
              f"{session.selection.two_hop_pairs} two-hop pairs)")
        print(f"messages: {session.messages}")
        best = session.best_relay_rtt_ms
        print("best relay RTT: " + (f"{best:.0f} ms" if best is not None else "none found"))
    if args.media:
        from repro.media.session import MediaPlaneConfig, PathWindow, run_media_session
        from repro.voip.quality import DEFAULT_EVAL_LOSS_RATE, mos_of_path

        rtt = session.best_path_rtt_ms
        if not np.isfinite(rtt):
            print("media: no usable path to run frames over", file=sys.stderr)
            return 1
        result = run_media_session(
            call_id=1,
            duration_ms=args.media_ms,
            path=[PathWindow(0.0, float(rtt), DEFAULT_EVAL_LOSS_RATE)],
            config=MediaPlaneConfig(burst_frames=4.0),
            seed=args.seed,
        )
        print(f"media: {len(result.trace.frames)} frames over best path "
              f"({rtt:.0f} ms RTT), {result.score.late_frames} late, "
              f"{result.score.lost_frames} lost, "
              f"{len(result.switches)} codec switches")
        _print_measured_mos(mos_of_path(float(rtt)), result.score)
    return 0


def cmd_limits(args: argparse.Namespace) -> int:
    from repro.evaluation.report import render_kv_table
    from repro.evaluation.section5 import run_skype_batch
    from repro.measurement.tools import KingEstimator
    from repro.skype.analyzer import TraceAnalyzer
    from repro.skype.limits import detect_limits

    scenario = _build_from_args(args)
    study = run_skype_batch(scenario, session_count=args.sessions, seed=args.seed)
    analyzer = TraceAnalyzer(
        scenario.prefix_table,
        king=KingEstimator(scenario.latency, seed=args.seed, non_response_rate=0.0),
        population=scenario.population,
    )
    report = detect_limits(study.analyses, study.results, analyzer)
    print(render_kv_table("detected Skype limits:", report.summary_rows()))
    return 0


def cmd_robustness(args: argparse.Namespace) -> int:
    from repro.evaluation.report import render_kv_table
    from repro.evaluation.robustness import seed_study, summarize_across
    from repro.scenario import ScenarioConfig
    from repro.topology import PopulationConfig, TopologyConfig

    base = ScenarioConfig(
        topology=TopologyConfig(tier1_count=5, tier2_count=40, tier3_count=250),
        population=PopulationConfig(host_count=2000),
        cache_dir=args.cache_dir,
    )
    seeds = tuple(range(args.seed, args.seed + args.worlds))
    results = seed_study(base, seeds=seeds, session_count=args.sessions, latent_target=30)
    for metrics in results:
        print(metrics.row())
    print(render_kv_table("aggregate:", summarize_across(results)))
    return 0


def _fault_config(args: argparse.Namespace, **extra):
    from repro.faults import FaultScheduleConfig

    return FaultScheduleConfig(
        seed=args.fault_seed,
        duration_ms=args.duration_ms,
        surrogate_crash_rate_per_min=args.crash_rate,
        host_churn_rate_per_min=args.churn_rate,
        **extra,
    )


def _flushed_trace_path():
    """The active run's ``traces.jsonl``, flushed; None unless tracing
    is on and writing to disk."""
    observer = obs.active()
    tracer = observer.trace if observer is not None else None
    if tracer is None or tracer.path is None:
        return None
    tracer.flush()
    return tracer.path


#: Failover timelines printed in full; the rest are counted.
FAILOVERS_SHOWN = 5


def _print_traced_failovers() -> int:
    """Render the failover timelines captured by the active run's trace.

    No-op (returns 0) unless tracing is on and writing to disk.  Reads
    the records back from ``traces.jsonl`` rather than runtime state, so
    what is printed is exactly what a later offline analysis would see.
    """
    from repro.obs import trace_analysis as ta

    path = _flushed_trace_path()
    if path is None:
        return 0
    trees = ta.build_trees(obs.load_trace_file(path))
    faults = ta.fault_links(trees)
    interesting = [tree for tree in ta.call_trees(trees) if ta.relay_losses(tree)]
    if not interesting:
        return 0
    print(f"traced failover timelines ({len(interesting)} calls):")
    for tree in interesting[:FAILOVERS_SHOWN]:
        for line in ta.render_timeline(tree, faults):
            print("  " + line)
    if len(interesting) > FAILOVERS_SHOWN:
        print(f"  ... {len(interesting) - FAILOVERS_SHOWN} more traced calls with failovers")
    return len(interesting)


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.evaluation.chaos import run_chaos
    from repro.evaluation.report import render_kv_table
    from repro.evaluation.sessions import generate_workload
    from repro.obs import trace_analysis as ta
    from repro.skype.session import run_skype_session

    scenario = _build_from_args(args)
    run_chaos(
        scenario,
        _fault_config(args),
        sessions=args.sessions,
        joins=args.joins,
        media_duration_ms=args.media_ms,
        seed=args.seed,
        latent_target=args.sessions,
    )
    # The Skype-like baseline runs the same workload pairs (latent ones
    # first — those are the calls where relay choice matters).
    workload = generate_workload(
        scenario, max(args.sessions, 1), seed=args.seed, latent_target=args.sessions
    )
    pairs = (workload.latent() + workload.sessions)[: args.skype_sessions]
    for index, session in enumerate(pairs):
        run_skype_session(
            scenario,
            session.caller,
            session.callee,
            duration_ms=args.skype_ms,
            session_id=index,
        )

    path = _flushed_trace_path()
    if path is None:
        raise _UsageError("the trace command needs an active traced run")
    # Everything below is derived purely from the trace file on disk —
    # never from live runtime state — so the same report reproduces
    # offline from traces.jsonl alone.
    records = obs.load_trace_file(path)
    trees = ta.build_trees(records)
    calls = ta.analyze_calls(trees)
    skypes = ta.analyze_skype_calls(trees)
    faults = ta.fault_links(trees)

    # Most disrupted first: relay losses plus the faults that hit the call.
    call_trees = sorted(
        ta.call_trees(trees),
        key=lambda t: (-ta.relay_losses(t) - len(faults.get(t.trace_id, ())), t.trace_id),
    )
    for tree in call_trees[: args.timelines]:
        print()
        for line in ta.render_timeline(tree, faults):
            print(line)

    report = ta.limits_report(calls, skypes)
    print()
    print(render_kv_table("Skype limits, ASAP vs Skype-like baseline:", report.rows()))
    print(f"trace records: {len(records)} in {path}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.evaluation.chaos import run_chaos, sweep_chaos
    from repro.evaluation.report import render_kv_table

    scenario = _build_from_args(args)
    fault_config = _fault_config(
        args, random_as_outages=args.as_failures, message_loss_rate=args.loss_rate
    )
    kwargs = dict(
        sessions=args.sessions,
        joins=args.joins,
        media_duration_ms=args.media_ms,
        seed=args.seed,
        latent_target=args.latent,
    )
    if args.sweep:
        intensities = tuple(float(x) for x in args.sweep.split(","))
        results = sweep_chaos(scenario, fault_config, intensities, **kwargs)
        for intensity, result in results:
            print(render_kv_table(f"intensity {intensity:g}:", result.summary_rows()))
        final = results[-1][1]
    else:
        final = run_chaos(scenario, fault_config, **kwargs)
        print(render_kv_table("chaos run:", final.summary_rows()))
    if args.fault_log:
        Path(args.fault_log).write_text("\n".join(final.fault_log) + "\n")
        print(f"wrote {len(final.fault_log)} fault log lines to {args.fault_log}")
    if args.json:
        Path(args.json).write_text(final.to_json() + "\n")
        print(f"wrote chaos summary to {args.json}")
    _print_traced_failovers()
    return 0


def cmd_soak(args: argparse.Namespace) -> int:
    from repro.evaluation.report import render_kv_table
    from repro.evaluation.soak import SoakConfig, default_shard_outage, run_soak
    from repro.faults import ChurnWave

    scenario = _build_from_args(args)
    waves = tuple(
        ChurnWave(at_ms=round(at, 3), fraction=args.wave_fraction)
        for at in (args.wave_at_ms if args.wave_fraction > 0 else ())
    )
    config = SoakConfig(
        seed=args.soak_seed,
        sim_minutes=args.minutes,
        shards=args.shards,
        sessions=args.sessions,
        joins=args.joins,
        media_duration_ms=args.media_ms,
        churn_rate_per_min=args.churn_rate,
        churn_waves=waves,
        rejoin_delay_ms=args.rejoin_ms,
        staleness_p95_max=args.staleness_max,
    )
    if args.kill_shard >= 0:
        config = dataclasses.replace(
            config, shard_outages=(default_shard_outage(config, args.kill_shard),)
        )
    report = run_soak(scenario, config)
    print(render_kv_table("churn soak:", report.summary_rows()))
    if args.event_log:
        Path(args.event_log).write_text("\n".join(report.log_lines()) + "\n")
        print(f"wrote {len(report.log_lines())} event log lines to {args.event_log}")
    if args.json:
        Path(args.json).write_text(report.to_json() + "\n")
        print(f"wrote soak report to {args.json}")
    return 0 if report.ok else 1


def cmd_report(args: argparse.Namespace) -> int:
    """Render one finished run directory as the unified repro report.

    Pure artifact reader: joins run_manifest.json, telemetry.jsonl and
    traces.jsonl (plus any ``--extra-traces`` from the other side of a
    cross-process run) without starting a new observability run.
    """
    from repro.obs.report import load_run, render_report, write_flame

    try:
        artifacts = load_run(args.run_dir, extra_traces=args.extra_traces)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in render_report(artifacts, width=args.width):
        print(line)
    if args.flame_out:
        if not artifacts.traces:
            print("error: --flame-out needs trace records", file=sys.stderr)
            return 2
        path, frames = write_flame(artifacts, args.flame_out)
        print(f"wrote flamegraph document ({frames} frames) to {path}")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.evaluation.figures import export_all

    scenario = _build_from_args(args)
    written = export_all(
        scenario,
        args.output,
        session_count=args.sessions,
        latent_target=args.latent,
        seed=args.seed,
    )
    for name, rows in sorted(written.items()):
        print(f"  {name}: {rows} rows")
    print(f"wrote {len(written)} figure data files to {args.output}")
    return 0


def _service_world(args: argparse.Namespace):
    from repro.service.world import ServiceWorld

    return ServiceWorld.from_scale(args.scale, args.seed, cache_dir=args.cache_dir)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the server side of the overlay — bootstrap + surrogate
    daemons — on real TCP sockets until interrupted."""
    import asyncio

    from repro.net.sockets import TcpTransport
    from repro.service.demo import start_servers

    world = _service_world(args)
    # Distinct node prefix: a traced serve+dial pair must never mint
    # colliding span/trace ids, so each side's ids carry its own tag.
    obs.tracer().set_node("s")
    bootstrap_key = str(world.bootstrap_host.ip)

    async def serve() -> None:
        servers = await start_servers(
            world,
            lambda key: TcpTransport(args.host, args.port if key == bootstrap_key else 0),
        )
        print(
            f"bootstrap on {servers.address}; "
            f"{len(servers.surrogates)} surrogate daemons registered "
            f"(scale={args.scale} seed={args.seed})"
        )
        sys.stdout.flush()
        try:
            forever = args.duration_s is None
            await (asyncio.Event().wait() if forever else asyncio.sleep(args.duration_s))
        finally:
            await servers.close()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0


def _print_dial_result(result, media_received: int) -> None:
    print(
        f"call {result.caller} -> {result.callee}: {result.outcome}"
        + (f" ({result.failure_reason})" if result.failure_reason else "")
    )
    print(f"  path: {result.path}"
          + (f" via {result.relay_ip} (cluster {result.relay_cluster})"
             if result.relay_ip else ""))
    if result.direct_rtt_ms is not None:
        print(f"  direct RTT: {result.direct_rtt_ms:.1f} ms")
    if result.path_rtt_ms is not None:
        print(f"  path RTT:   {result.path_rtt_ms:.1f} ms")
    if result.mos is not None:
        print(f"  MOS:        {result.mos:.3f}")
    print(
        f"  media: {result.media_packets} sent, {media_received} delivered; "
        f"keepalives {result.keepalives}, failovers {result.failovers}, "
        f"selection messages {result.selection_messages}"
    )
    if result.setup_ms is not None:
        print(f"setup critical path ({result.setup_ms:.1f} ms total):")
        for name, ms in result.steps:
            print(f"  {name:<14} {ms:9.1f} ms")


def cmd_dial(args: argparse.Namespace) -> int:
    """Join host agents against a running ``serve`` bootstrap and place
    one call end-to-end over TCP: join, close-set exchange, relay
    selection, voice frames, teardown."""
    import asyncio

    from repro.media.frames import trace_from_wire
    from repro.media.score import score_trace
    from repro.service.demo import shaped_tcp, start_agents
    from repro.service.host import media_frame_budget

    world = _service_world(args)
    obs.tracer().set_node("d")  # distinct ids vs the serve side's "s"
    pair = _host_pair(args, world.scenario.population.hosts)
    if pair is None:
        pairs = world.latent_pairs(1)
        if not pairs:
            raise _UsageError("no latent call pair in this scenario")
        pair = pairs[0]
    caller_ip, callee_ip = pair

    async def dial():
        # The agents this process runs (caller, callee, relay candidates)
        # shape the wire among themselves with the scenario's RTTs;
        # control traffic to the remote bootstrap and surrogates does not.
        agents = await start_agents(world, shaped_tcp(world), args.bootstrap, [pair])
        try:
            result = await agents[caller_ip].dial(callee_ip, media_ms=args.media_ms)
        finally:
            for agent in agents.values():
                await agent.close()
        return result, agents[callee_ip]

    result, callee = asyncio.run(dial())
    _print_dial_result(result, sum(callee.media_received.values()))
    budget = media_frame_budget(args.media_ms)
    for call_id, receipts in sorted(callee.frame_traces.items()):
        trace = trace_from_wire(call_id, receipts, budget=budget)
        score = score_trace(trace)
        print(f"measured media (call {call_id}): {len(trace.frames)} frames, "
              f"{score.late_frames} late, {score.lost_frames} lost")
        _print_measured_mos(result.mos, score)
    return 0 if result.outcome in ("completed", "degraded") else 1


def cmd_demo(args: argparse.Namespace) -> int:
    """The whole overlay in one process: bootstrap, surrogates, host
    agents, latent calls — over loopback (deterministic) or TCP."""
    from repro.service.demo import run_demo

    result = run_demo(
        scale=args.scale,
        seed=args.seed,
        calls=args.calls,
        media_ms=args.media_ms,
        transport=args.transport,
        cache_dir=args.cache_dir,
    )
    print(
        f"{result.transport} demo: {result.surrogate_count} surrogates, "
        f"{result.host_count} host agents, {len(result.calls)} calls "
        f"({result.completed} completed, {result.relayed} relayed)"
    )
    if result.transport == "loopback":
        print(
            f"  virtual time: {result.virtual_ms:.1f} ms; wire deliveries "
            f"{result.wire_deliveries}, drops {result.wire_drops}"
        )
    for call, received in zip(result.calls, result.media_delivered):
        print()
        _print_dial_result(call, received)
    return 0 if result.completed == len(result.calls) else 1


def cmd_conference(args: argparse.Namespace) -> int:
    """Bridge an N-way conference through the relay that satisfies all
    legs and measure per-leg media quality from received frames."""
    from repro.evaluation.conference import run_conference

    scenario = _build_from_args(args)
    burst = (
        None
        if args.no_burst
        else (args.burst_start_ms, args.burst_duration_ms, args.burst_loss)
    )
    result = run_conference(
        scenario,
        participants=args.participants,
        duration_ms=args.duration_ms,
        seed=args.seed,
        burst=burst,
    )
    if args.json:
        print(result.to_json())
        return 0
    print(f"{len(result.participants)}-way conference bridged via {result.relay} "
          f"(worst leg RTT {result.worst_leg_rtt_ms:.0f} ms)")
    for i, prefix in enumerate(result.participants):
        print(f"  participant {i}: {prefix}")
    if result.burst is not None:
        start, length, rate = result.burst
        print(f"  injected burst: {rate:.0%} loss over "
              f"[{start:.0f}..{start + length:.0f}] ms")
    for leg in result.legs:
        print(f"  leg {leg.a}-{leg.b}: RTT {leg.rtt_ms:.0f} ms, "
              f"measured MOS {leg.measured_mos:.3f} "
              f"(closed form {leg.closed_form_mos:.3f}), "
              f"{leg.codec_switches} codec switches, "
              f"concealed {leg.concealed_rate:.1%}")
    print(f"min leg MOS: {result.min_leg_mos:.3f}; "
          f"codec switches: {result.total_switches}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ASAP (ICDCS 2006) reproduction command-line interface",
    )
    parser.add_argument(
        "--version", action="version", version=_version_string(),
        help="print package and wire/trace/manifest schema versions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "generate", cmd_generate,
                    "export scenario artifacts to a directory")
    p.add_argument("--output", required=True, help="output directory")

    p = _subcommand(sub, "section3", cmd_section3,
                    "measurement foundation (Figs. 2-3)")
    p.add_argument("--sessions", type=int, default=2000)

    _subcommand(sub, "section5", cmd_section5,
                "Skype study (Tables 1-2, Figs. 6-7)")

    p = _subcommand(sub, "section7", cmd_section7,
                    "ASAP vs baselines (Figs. 11-16, 18)")
    p.add_argument("--sessions", type=int, default=2000)
    p.add_argument("--latent", type=int, default=60)
    p.add_argument("--records", help="write per-session records CSV here")

    p = _subcommand(sub, "experiment", cmd_experiment,
                    "unified Section-7 experiment engine (streamed or "
                    "dense substrate, any tier)")
    p.add_argument("--sessions", type=int, default=2000)
    p.add_argument("--latent", type=int, default=60)
    p.add_argument("--policies", metavar="P1,P2,...",
                   help="comma-separated method roster "
                        "(default: DEDI,RAND,MIX,ASAP,OPT)")
    p.add_argument("--stream", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="force the streamed (--stream) or dense "
                        "(--no-stream) substrate; default: streamed for "
                        "100k/1m, dense otherwise")
    p.add_argument("--spill-dir", default=None, metavar="DIR",
                   help="persistent column-store directory (resumable); "
                        "default: ephemeral temp dir, removed after the run")
    p.add_argument("--chunk-columns", type=int, default=256, metavar="C",
                   help="columns per spilled chunk (default: 256)")

    p = _subcommand(sub, "scalability", cmd_scalability,
                    "two-population experiment (Fig. 17)")
    p.add_argument("--sessions", type=int, default=1500)
    p.add_argument("--latent", type=int, default=40)

    p = _subcommand(sub, "call", cmd_call,
                    "run one ASAP call on the worst direct pair "
                    "(or an explicit --src/--dst host pair)")
    p.add_argument("--src", type=int, default=None, metavar="I",
                   help="caller host index into the population")
    p.add_argument("--dst", type=int, default=None, metavar="J",
                   help="callee host index into the population")
    p.add_argument("--media", action="store_true",
                   help="run real frames over the best path and print "
                        "per-window measured MOS beside the closed form")
    p.add_argument("--media-ms", type=float, default=10_000.0,
                   help="--media voice duration (default: 10000 ms)")

    p = _subcommand(sub, "figures", cmd_figures,
                    "export every figure's raw data as CSV")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--sessions", type=int, default=1500)
    p.add_argument("--latent", type=int, default=40)

    p = _subcommand(sub, "limits", cmd_limits,
                    "detect the four Skype limits at scale")
    p.add_argument("--sessions", type=int, default=20)

    p = _subcommand(sub, "trace", cmd_trace,
                    "traced chaos + Skype-baseline run: per-call timelines "
                    "and the L1-L4 limits report from traces.jsonl")
    p.add_argument("--output", required=True,
                   help="directory for traces.jsonl and the run manifest")
    p.add_argument("--sessions", type=int, default=8, help="ASAP calls to place")
    p.add_argument("--joins", type=int, default=10, help="hosts that join")
    p.add_argument("--skype-sessions", type=int, default=4,
                   help="Skype-like baseline sessions to trace")
    _add_fault_flags(p, crash_rate=4.0, churn_rate=0.0)
    p.add_argument("--media-ms", type=float, default=20_000.0,
                   help="voice duration per completed call (simulated ms)")
    p.add_argument("--skype-ms", type=float, default=120_000.0,
                   help="duration of each Skype-like session (simulated ms)")
    p.add_argument("--timelines", type=int, default=3,
                   help="full per-call timelines to print")
    p.set_defaults(trace=True)

    p = _subcommand(sub, "chaos", cmd_chaos,
                    "runtime under injected faults (timeouts, retries, "
                    "relay failover)")
    p.add_argument("--sessions", type=int, default=40, help="calls to place")
    p.add_argument("--joins", type=int, default=40, help="hosts that join")
    p.add_argument("--latent", type=int, default=None, metavar="N",
                   help="prefer latent (relay-needing) sessions: keep "
                        "generating until N exist and place those first")
    _add_fault_flags(p, crash_rate=2.0, churn_rate=10.0)
    p.add_argument("--media-ms", type=float, default=10_000.0,
                   help="voice duration per completed call (simulated ms)")
    p.add_argument("--loss-rate", type=float, default=0.0,
                   help="uniform background message-loss probability")
    p.add_argument("--as-failures", type=int, default=0,
                   help="random mid-run AS outages to inject")
    p.add_argument("--sweep", metavar="I1,I2,...",
                   help="comma-separated fault intensities to sweep "
                        "(scales the random rates; 0 = fault-free control)")
    p.add_argument("--fault-log", metavar="PATH",
                   help="write the byte-stable fault log (JSON lines) here")
    p.add_argument("--json", metavar="PATH",
                   help="write the chaos summary document (JSON) here")

    p = _subcommand(sub, "soak", cmd_soak,
                    "long-horizon churn soak over the sharded control "
                    "plane (steady-state gates; exit 1 on gate failure)")
    p.add_argument("--minutes", type=float, default=60.0,
                   help="simulated runtime in minutes (default: 60)")
    p.add_argument("--shards", type=int, default=3,
                   help="directory shards on the hash ring (default: 3)")
    p.add_argument("--sessions", type=int, default=40, help="calls to place")
    p.add_argument("--joins", type=int, default=40, help="hosts that join")
    p.add_argument("--media-ms", type=float, default=10_000.0,
                   help="voice duration per completed call (simulated ms)")
    p.add_argument("--soak-seed", type=int, default=0,
                   help="seed of the soak schedule (independent of --seed)")
    p.add_argument("--churn-rate", type=float, default=2.0,
                   help="host departures per simulated minute (each host "
                        "rejoins --rejoin-ms later)")
    p.add_argument("--rejoin-ms", type=float, default=30_000.0,
                   help="delay before a churned host rejoins (simulated ms)")
    p.add_argument("--wave-fraction", type=float, default=0.0,
                   help="churn-wave size as a fraction of all hosts "
                        "(0 = no waves)")
    p.add_argument("--wave-at-ms", type=float, nargs="*", default=[],
                   metavar="T", help="churn-wave instants (simulated ms)")
    p.add_argument("--kill-shard", type=int, default=0, metavar="I",
                   help="kill shard I at 30%% of the run, recover at 50%% "
                        "(default: shard 0; negative = no outage)")
    p.add_argument("--staleness-max", type=float, default=0.5,
                   help="p95 close-set drift the staleness gate tolerates")
    p.add_argument("--event-log", metavar="PATH",
                   help="write the byte-stable control-plane event log here")
    p.add_argument("--json", metavar="PATH",
                   help="write the soak report document (JSON) here")

    p = _subcommand(sub, "report", cmd_report,
                    "render a finished run directory: telemetry "
                    "timelines, trace profile, critical path")
    p.add_argument("--run-dir", required=True, metavar="DIR",
                   help="run directory holding run_manifest.json / "
                        "telemetry.jsonl / traces.jsonl")
    p.add_argument("--extra-traces", nargs="*", default=[], metavar="PATH",
                   help="additional traces.jsonl files to merge (e.g. the "
                        "serve side of a cross-process run)")
    p.add_argument("--flame-out", metavar="PATH",
                   help="write the flamegraph JSON export here")
    p.add_argument("--width", type=int, default=48,
                   help="sparkline width in characters (default: 48)")

    p = _subcommand(sub, "robustness", cmd_robustness,
                    "headline metrics across seeds")
    p.add_argument("--worlds", type=int, default=3)
    p.add_argument("--sessions", type=int, default=1200)

    p = _subcommand(sub, "serve", cmd_serve,
                    "run the bootstrap + surrogate daemons on TCP")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=9700,
                   help="bootstrap port (default: 9700; surrogates bind "
                        "kernel-assigned ports and register)")
    p.add_argument("--duration-s", type=float, default=None, metavar="S",
                   help="serve for S seconds then exit (default: forever)")

    p = _subcommand(sub, "dial", cmd_dial,
                    "place one call over the wire against a running serve")
    p.add_argument("--bootstrap", default="127.0.0.1:9700", metavar="ADDR",
                   help="bootstrap address (default: 127.0.0.1:9700); the "
                        "serve side must use the same --scale/--seed")
    p.add_argument("--src", type=int, default=None, metavar="I",
                   help="caller host index into the population "
                        "(default: worst latent pair)")
    p.add_argument("--dst", type=int, default=None, metavar="J",
                   help="callee host index into the population")
    p.add_argument("--media-ms", type=float, default=2_000.0,
                   help="voice duration; the received frames are scored "
                        "per window (default: 2000 ms)")

    p = _subcommand(sub, "demo", cmd_demo,
                    "whole overlay in one process (loopback or TCP)")
    p.add_argument("--transport", choices=("loopback", "tcp"),
                   default="loopback",
                   help="wire substrate (default: loopback — deterministic "
                        "virtual clock)")
    p.add_argument("--calls", type=int, default=1,
                   help="latent calls to place concurrently (default: 1)")
    p.add_argument("--media-ms", type=float, default=2_000.0,
                   help="voice duration per call (default: 2000 ms)")

    p = _subcommand(sub, "conference", cmd_conference,
                    "N-way conference: one relay must satisfy all legs; "
                    "per-leg MOS measured from real frames")
    p.add_argument("--participants", type=int, default=3,
                   help="conference size (default: 3)")
    p.add_argument("--duration-ms", type=float, default=20_000.0,
                   help="media duration (default: 20000 ms)")
    p.add_argument("--burst-start-ms", type=float, default=5_000.0,
                   help="injected loss burst start (default: 5000 ms)")
    p.add_argument("--burst-duration-ms", type=float, default=4_000.0,
                   help="injected loss burst length (default: 4000 ms)")
    p.add_argument("--burst-loss", type=float, default=0.30,
                   help="injected burst loss rate (default: 0.30)")
    p.add_argument("--no-burst", action="store_true",
                   help="run fault-free (no injected burst)")
    p.add_argument("--json", action="store_true",
                   help="print the stable JSON document instead of text")

    return parser


def _run(args: argparse.Namespace) -> int:
    try:
        return args.func(args)
    except (_UsageError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    obs_dir = getattr(args, "obs_dir", None)
    trace = bool(getattr(args, "trace", False))
    if obs_dir is None and trace:
        # The trace subcommand keeps traces.jsonl beside its --output
        # artifacts unless an explicit --obs-dir redirects them.
        obs_dir = getattr(args, "output", None)
    if trace and obs_dir is None:
        print("error: --trace requires --obs-dir", file=sys.stderr)
        return 2
    if obs_dir is None:
        return _run(args)
    obs.start_run(
        obs_dir=obs_dir,
        command=args.command,
        argv=list(sys.argv[1:] if argv is None else argv),
        trace=trace,
    )
    from repro.net.codec import CODEC_SCHEMA_VERSION

    obs.annotate(scale=getattr(args, "scale", None), seed=getattr(args, "seed", None))
    obs.annotate(package_version=__version__, codec_schema=CODEC_SCHEMA_VERSION)
    try:
        return _run(args)
    finally:
        manifest = obs.finish_run()
        if manifest is not None:
            print(f"observability manifest: {manifest}")


if __name__ == "__main__":
    sys.exit(main())
