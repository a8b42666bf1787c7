"""Command-line interface: ``ddbdd <command> ...``.

Subcommands
-----------
``synth``    — synthesize a BLIF file (or named benchmark) with any of
               the four flows and report depth/area; optionally write
               the mapped network back to BLIF and verify equivalence.
``serve``    — run the synthesis-as-a-service HTTP daemon
               (``repro.serve``): job queue, per-tenant quotas,
               streaming per-pass telemetry, graceful drain.
``bench``    — list the named benchmark circuits.
``table``    — regenerate one of the paper's tables (1–5) or the
               Theorem-1 scaling study.
``vpr``      — run the VPR-like flow on a mapped BLIF file.
``check``    — run the IR invariant checkers on a circuit and report
               structured ``DDxxx`` diagnostics.
``lint``     — run the source lint gate (``repro.analysis.repolint``):
               every RLxxx and DD5xx rule over the given paths
               (default ``src/repro``).
``analyze``  — list every static analyzer and the codes it reports.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.baselines import abc_flow, bdspga_synthesize, sis_daomap_flow
from repro.benchgen import CIRCUITS, build_circuit
from repro.core import DDBDDConfig, ddbdd_synthesize
from repro.network import check_equivalence, read_blif, write_blif
from repro.vpr import Architecture, vpr_flow


def _load(source: str):
    if source in CIRCUITS:
        return build_circuit(source)
    if source.endswith((".v", ".sv")):
        from repro.network.verilog import read_verilog

        return read_verilog(source)
    return read_blif(source)


def _save(net, path: str) -> None:
    if path.endswith((".v", ".sv")):
        from repro.network.verilog import write_verilog

        write_verilog(net, path)
    else:
        write_blif(net, path)


def _cmd_synth(args: argparse.Namespace) -> int:
    net = _load(args.circuit)
    kwargs = {}
    if args.jobs is not None:
        kwargs["jobs"] = args.jobs
    if args.job_deadline is not None:
        kwargs["job_deadline_s"] = args.job_deadline
    if args.job_node_budget is not None:
        kwargs["job_node_budget"] = args.job_node_budget
    if args.faults is not None:
        # Explicit flag wins over the $DDBDD_FAULTS default.
        kwargs["faults"] = args.faults
    config = DDBDDConfig(
        k=args.k,
        collapse=not args.no_collapse,
        verify_level=args.verify_level,
        cache=args.cache,
        cache_dir=args.cache_dir,
        **kwargs,
    )
    def run():
        if args.flow == "ddbdd":
            from repro.flow import run_flow

            return run_flow(net, config)
        if args.flow == "bdspga":
            return bdspga_synthesize(net)
        if args.flow == "sis-daomap":
            return sis_daomap_flow(net, k=args.k)
        return abc_flow(net, k=args.k)

    if args.profile is not None or args.profile_out:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        result = run()
        profiler.disable()
        if args.profile is not None:
            for sort in ("cumulative", "tottime"):
                print(f"--- profile: top {args.profile} by {sort} ---")
                pstats.Stats(profiler, stream=sys.stdout).sort_stats(sort).print_stats(
                    args.profile
                )
        if args.profile_out:
            # Raw pstats dump for offline inspection (snakeviz, pstats
            # browse, gprof2dot, ...).
            profiler.dump_stats(args.profile_out)
            print(f"wrote profile to {args.profile_out}")
    else:
        result = run()
    print(f"{args.flow}: depth={result.depth} area={result.area} LUTs (K={args.k})")
    stats = getattr(result, "runtime_stats", None)
    if args.stats:
        if stats is not None:
            print(stats.render())
        else:
            print(f"runtime: no stage telemetry for the {args.flow} flow")
    if args.stats_json:
        import json

        print(json.dumps(stats.as_dict() if stats is not None else {}, sort_keys=True))
    if args.verify:
        eq = check_equivalence(net, result.network)
        print(f"equivalence: {'PASS' if eq.equivalent else 'FAIL'} ({eq.method})")
        if not eq.equivalent:
            return 1
    if args.output:
        _save(result.network, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServerConfig
    from repro.serve.app import serve_main

    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_workers=args.workers,
        tenant_concurrency=args.tenant_concurrency,
        tenant_queue_limit=args.tenant_queue_limit,
        max_queue_depth=args.max_queue_depth,
    )

    def announce(line: str) -> None:
        print(line, flush=True)

    try:
        return asyncio.run(serve_main(config, announce))
    except KeyboardInterrupt:  # non-Unix loops without signal handlers
        return 130


def _cmd_bench(args: argparse.Namespace) -> int:
    for name in sorted(CIRCUITS):
        net = build_circuit(name)
        s = net.stats()
        print(
            f"{name:10s} {CIRCUITS[name]:9s} pi={s['pis']:3d} po={s['pos']:3d} "
            f"nodes={s['nodes']:4d} depth={s['depth']:3d}"
        )
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro import experiments

    runner = {
        "1": experiments.run_table1,
        "2": experiments.run_table2,
        "3": experiments.run_table3,
        "4": experiments.run_table4,
        "5": experiments.run_table5,
        "scaling": experiments.run_scaling,
    }[args.which]
    result = runner()
    print(result.render())
    return 0


def _cmd_vpr(args: argparse.Namespace) -> int:
    net = _load(args.circuit)
    if net.max_fanin() > args.k:
        net = ddbdd_synthesize(net, DDBDDConfig(k=args.k)).network
        print("(input was unmapped; synthesized with DDBDD first)")
    result = vpr_flow(net, Architecture(k=args.k), seed=args.seed)
    print(
        f"luts={result.num_luts} clusters={result.num_clusters} grid={result.grid}x{result.grid} "
        f"minW={result.min_channel_width} routedW={result.routed_channel_width} "
        f"critical_path={result.critical_path_ns:.2f}ns wirelength={result.total_wirelength}"
    )
    return 0


def main(argv: Optional[list] = None) -> int:
    from repro._version import __version__

    parser = argparse.ArgumentParser(prog="ddbdd", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"ddbdd {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a circuit")
    p.add_argument("circuit", help="BLIF path or named benchmark")
    p.add_argument("--flow", choices=["ddbdd", "bdspga", "sis-daomap", "abc"], default="ddbdd")
    p.add_argument("-k", type=int, default=5, help="LUT input size")
    p.add_argument("--no-collapse", action="store_true", help="skip Algorithm 2")
    p.add_argument("--verify", action="store_true", help="check equivalence")
    p.add_argument(
        "--verify-level",
        type=int,
        choices=[0, 1, 2],
        default=0,
        help="stage-boundary IR verification (0=off, 1=structural, 2=full)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for supernode synthesis "
        "(default: $DDBDD_JOBS or 1; 0 = all CPUs)",
    )
    p.add_argument(
        "--cache",
        choices=["off", "read", "readwrite"],
        default="off",
        help="persistent DP-emission cache mode",
    )
    p.add_argument(
        "--cache-dir",
        default=".ddbdd_cache",
        help="cache directory (default: .ddbdd_cache)",
    )
    p.add_argument(
        "--job-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-time budget per supernode job; a breach triggers the "
        "degradation ladder (default: unlimited)",
    )
    p.add_argument(
        "--job-node-budget",
        type=int,
        default=None,
        metavar="NODES",
        help="live-BDD-node budget per supernode job; a breach triggers "
        "the degradation ladder (default: unlimited)",
    )
    p.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="deterministic fault-injection plan, e.g. "
        '"crash_worker@job=3;corrupt_shard@put=5;stall@job=7:2.5s" '
        "(overrides $DDBDD_FAULTS; testing only)",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print runtime telemetry (incl. the per-pass table) after synthesis",
    )
    p.add_argument(
        "--stats-json",
        action="store_true",
        help="print the runtime telemetry as one JSON object",
    )
    p.add_argument(
        "--profile",
        nargs="?",
        const=25,
        default=None,
        type=int,
        metavar="N",
        help="run the flow under cProfile and print the top N entries "
        "by cumulative and total time (default N=25)",
    )
    p.add_argument(
        "--profile-out",
        metavar="FILE",
        default=None,
        help="dump the raw cProfile pstats to FILE for offline inspection "
        "(implies profiling; combine with --profile to also print top-N)",
    )
    p.add_argument("-o", "--output", help="write mapped BLIF here")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("serve", help="run the synthesis-as-a-service daemon")
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port",
        type=int,
        default=8750,
        help="TCP port (0 = ephemeral; the bound port is printed on the "
        "'listening on' line)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="jobs executing concurrently (worker threads)",
    )
    p.add_argument(
        "--tenant-concurrency",
        type=int,
        default=1,
        help="concurrent jobs allowed per tenant",
    )
    p.add_argument(
        "--tenant-queue-limit",
        type=int,
        default=64,
        help="waiting jobs allowed per tenant before 429",
    )
    p.add_argument(
        "--max-queue-depth",
        type=int,
        default=256,
        help="waiting jobs allowed in total before 429",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("bench", help="list named benchmark circuits")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("which", choices=["1", "2", "3", "4", "5", "scaling"])
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("vpr", help="pack/place/route a mapped circuit")
    p.add_argument("circuit", help="BLIF path or named benchmark")
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_vpr)

    p = sub.add_parser("equiv", help="check two circuits for equivalence")
    p.add_argument("circuit_a", help="BLIF path or named benchmark")
    p.add_argument("circuit_b", help="BLIF path or named benchmark")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("stats", help="print circuit statistics")
    p.add_argument("circuit", help="BLIF path or named benchmark")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("check", help="run IR invariant checkers on a circuit")
    p.add_argument("circuit", help="BLIF path or named benchmark")
    p.add_argument(
        "--bdd", action="store_true", help="also audit the circuit's BDD manager"
    )
    p.add_argument(
        "--synth",
        action="store_true",
        help="additionally run the synthesis flow at verify_level=2 "
        "and report every verified stage boundary (exit 1: verification "
        "errors; exit 2: verified but with DD4xx findings/warnings)",
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("lint", help="run the source lint gate (repolint)")
    p.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("analyze", help="list the static analyzers and their codes")
    p.set_defaults(func=_cmd_analyze)

    args = parser.parse_args(argv)
    return args.func(args)


def _cmd_equiv(args: argparse.Namespace) -> int:
    from repro.network.netlist import NetworkError

    a = _load(args.circuit_a)
    b = _load(args.circuit_b)
    try:
        eq = check_equivalence(a, b)
    except NetworkError as exc:
        print(f"interface mismatch: {exc}")
        return 2
    if eq.equivalent:
        print(f"EQUIVALENT ({eq.method})")
        return 0
    print(f"NOT EQUIVALENT: output {eq.failing_output} differs; "
          f"counterexample {eq.counterexample}")
    return 1


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis import check_bdd_manager, check_network, errors_of

    net = _load(args.circuit)
    diags = check_network(net)
    if args.bdd:
        diags += check_bdd_manager(net.mgr, roots=[n.func for n in net.nodes.values()])
    for d in diags:
        print(d.describe())
    errors = errors_of(diags)
    warnings = len(diags) - len(errors)
    print(f"check: {len(errors)} error(s), {warnings} warning(s)")
    if errors:
        return 1
    if args.synth:
        # Drive the flow under full stage-boundary checking: every
        # stage boundary becomes a verified boundary.
        from repro.analysis import check_failure_reports
        from repro.analysis.diagnostics import VerificationError
        from repro.flow import FlowState, run_stages, stage_names

        config = DDBDDConfig(verify_level=2)
        state = FlowState.initial(net, config)
        try:
            run_stages(state)
        except VerificationError as exc:
            for d in exc.diagnostics:
                print(d.describe())
            print(f"check: pipeline FAILED at stage {exc.stage!r}")
            return 1
        for telemetry in state.stats.passes:
            print(
                f"pass {telemetry.name:<10s} ok "
                f"({telemetry.seconds:.3f}s + {telemetry.verify_seconds:.3f}s verify)"
            )
        print(
            f"check: pipeline {';'.join(stage_names(config))!r} verified "
            f"{len(state.verifier.stages_run)} stage boundary(ies), "
            f"{len(state.verifier.warnings)} warning(s)"
        )
        # The run verified, but recovered-failure findings (DD4xx) may
        # still warrant attention: exit 2 separates "verified with
        # findings" from verification errors (1) and a clean pass (0).
        findings = check_failure_reports(state.stats.failures)
        for d in findings:
            print(d.describe())
        if errors_of(findings):
            return 1
        if findings or state.verifier.warnings:
            return 2
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.repolint import main as repolint_main

    return repolint_main(args.paths)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import DIAGNOSTIC_CODES
    from repro.analysis.repolint import RULES as LINT_RULES

    groups = [
        (
            "repolint",
            "source lint gate: coding contract, determinism and fork "
            "safety (ddbdd lint [PATH...])",
            LINT_RULES,
        ),
        (
            "netcheck/bddcheck/covercheck/failcheck",
            "runtime IR and failure-report audits (ddbdd check CIRCUIT)",
            DIAGNOSTIC_CODES,
        ),
    ]
    for name, blurb, rules in groups:
        print(f"{name}: {blurb}")
        for code in sorted(rules):
            print(f"  {code}  {rules[code]}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    net = _load(args.circuit)
    s = net.stats()
    print(f"name:      {net.name}")
    print(f"inputs:    {s['pis']}")
    print(f"outputs:   {s['pos']}")
    print(f"nodes:     {s['nodes']}")
    print(f"max fanin: {s['max_fanin']}")
    print(f"depth:     {s['depth']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
