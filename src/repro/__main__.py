"""Command-line interface.

Profile a mini-language workload file (or a named built-in workload)
under Scalene or any baseline profiler, lint it for performance
anti-patterns, or disassemble it::

    python -m repro profile app.py --mode full --html profile.html
    python -m repro profile --workload pprint --profiler cProfile
    python -m repro lint app.py --profile
    python -m repro lint app.py --fail-on high
    python -m repro crossflow --workload chatty
    python -m repro dis app.py
    python -m repro list

or run the continuous-profiling service (:mod:`repro.serve`)::

    python -m repro serve --port 8000 --workers 4 --store ./profiles
    python -m repro serve --shards 3 --port 8000 --store ./profiles
    python -m repro submit --workload pprint --url http://127.0.0.1:8000
    python -m repro profiles --url http://127.0.0.1:8000
    python -m repro profiles --url http://127.0.0.1:8000 --merge ID1 ID2
    python -m repro profiles --url http://127.0.0.1:8000 --diff ID1 ID2
    python -m repro loadgen --url http://127.0.0.1:8000 --jobs 1000

With ``--shards N`` the serve command boots the scale-out plane
(DESIGN.md §12): N sharded daemons behind a consistent-hash router and
one gateway; ``loadgen`` measures its submission
throughput and accept-latency percentiles.

or chaos-test the service's self-healing (:mod:`repro.faults`) — a
seeded, replayable fault schedule (worker crashes, torn store writes,
signal/clock/allocator faults) driven through a live daemon::

    python -m repro chaos --seed 1
    python -m repro chaos --seed 1 --jobs 8 --torn-writes 2 --json
    python -m repro chaos --shards 3 --seed 1   # shard kill + failover

Mirrors ``scalene yourprogram.py``: the CLI builds a simulated process,
attaches the profiler, runs, and renders the report. ``lint --profile``
triangulates the static findings with a Scalene run, ranking them by
measured cost and suppressing the ones on insignificant lines.
"""

from __future__ import annotations

import argparse
import json as json_module
import sys
from pathlib import Path

from repro.baselines import make_profiler, profiler_names
from repro.core import Scalene
from repro.interp.libs import install_standard_libraries
from repro.runtime.process import SimProcess
from repro.ui import write_html, write_json
from repro.workloads import get_workload, workload_names

SCALENE_MODES = {"cpu", "cpu+gpu", "full"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Scalene-reproduction profiler CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("profile", help="profile a workload")
    run.add_argument("file", nargs="?", help="mini-language source file")
    run.add_argument("--workload", help="a named built-in workload instead of a file")
    run.add_argument("--scale", type=float, default=1.0, help="workload scale (built-ins)")
    run.add_argument("--mode", default="full", help="Scalene mode: cpu | cpu+gpu | full")
    run.add_argument(
        "--profiler",
        default="scalene",
        help="'scalene' (default) or any baseline profiler name",
    )
    run.add_argument("--json", metavar="PATH", help="also write the JSON profile")
    run.add_argument("--html", metavar="PATH", help="also write the HTML profile")

    lint = sub.add_parser("lint", help="static performance lints for a workload")
    lint.add_argument("file", nargs="?", help="mini-language source file")
    lint.add_argument("--workload", help="a named built-in workload instead of a file")
    lint.add_argument("--scale", type=float, default=1.0, help="workload scale (built-ins)")
    lint.add_argument(
        "--profile",
        action="store_true",
        help="run the program under Scalene and triangulate findings with measured cost",
    )
    lint.add_argument(
        "--min-percent",
        type=float,
        default=None,
        help="suppression threshold for --profile (default 1.0, the paper's §5 cutoff)",
    )
    lint.add_argument("--json", metavar="PATH", help="also write findings as JSON")
    lint.add_argument(
        "--fail-on",
        choices=("low", "medium", "high"),
        help="exit nonzero when any finding is at or above this severity (CI gate)",
    )

    crossflow = sub.add_parser(
        "crossflow",
        help="native-boundary cross-flow analysis: boundary lints × measured crossings",
    )
    crossflow.add_argument("file", nargs="?", help="mini-language source file")
    crossflow.add_argument("--workload", help="a named built-in workload instead of a file")
    crossflow.add_argument("--scale", type=float, default=1.0, help="workload scale (built-ins)")
    crossflow.add_argument("--json", metavar="PATH", help="also write findings as JSON")

    dis = sub.add_parser("dis", help="disassemble a workload with CFG block boundaries")
    dis.add_argument("file", nargs="?", help="mini-language source file")
    dis.add_argument("--workload", help="a named built-in workload instead of a file")
    dis.add_argument("--scale", type=float, default=1.0, help="workload scale (built-ins)")

    sub.add_parser("list", help="list workloads and profilers")

    serve = sub.add_parser("serve", help="run the continuous-profiling daemon")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8000,
                       help="bind port (0 picks an ephemeral port)")
    serve.add_argument("--workers", type=int, default=2,
                       help="profiling worker processes")
    serve.add_argument("--store", default="./profile-store",
                       help="profile store directory")
    serve.add_argument("--shards", type=int, default=0,
                       help="boot N sharded daemons behind a gateway "
                       "instead of one daemon (0 = single daemon)")
    serve.add_argument("--wal", default=None,
                       help="gateway write-ahead-log directory (sharded mode "
                       "only; default: <store>/gateway-wal; 'none' disables "
                       "durability)")

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a gateway/daemon with a job-submission burst and "
        "report throughput + accept-latency percentiles",
    )
    loadgen.add_argument("--url", default="http://127.0.0.1:8000",
                         help="gateway (or daemon) URL")
    loadgen.add_argument("--jobs", type=int, default=1000,
                         help="jobs to submit")
    loadgen.add_argument("--concurrency", type=int, default=8,
                         help="concurrent submitter connections")
    loadgen.add_argument("--scale", type=float, default=0.02,
                         help="workload scale per job")
    loadgen.add_argument("--workloads", default=None,
                         help="comma-separated workload names to cycle")
    loadgen.add_argument("--json", action="store_true",
                         help="print the full report as JSON")
    loadgen.add_argument("--submit-keys", action="store_true",
                         help="attach idempotency keys so submissions can be "
                         "safely resubmitted through a gateway restart")
    loadgen.add_argument("--retry-window", type=float, default=30.0,
                         help="seconds keyed submitters keep retrying through "
                         "a gateway outage (with --submit-keys)")
    loadgen.add_argument("--kill-gateway-at", type=int, default=None,
                         metavar="N",
                         help="SIGKILL --gateway-pid after N accepted jobs "
                         "(implies --submit-keys)")
    loadgen.add_argument("--gateway-pid", type=int, default=None,
                         help="pid to SIGKILL for --kill-gateway-at")
    loadgen.add_argument("--reshard-at", type=int, default=None, metavar="N",
                         help="POST /reshard after N accepted jobs "
                         "(implies --submit-keys)")
    loadgen.add_argument("--reshard-action", default="add",
                         choices=("add", "remove"),
                         help="reshard action for --reshard-at")
    loadgen.add_argument("--reshard-shard", default=None,
                         help="shard name to remove (with "
                         "--reshard-action remove)")

    submit = sub.add_parser("submit", help="submit a profiling job to a daemon")
    submit.add_argument("--url", default="http://127.0.0.1:8000", help="daemon URL")
    submit.add_argument("--workload", required=True, help="workload name (see 'list')")
    submit.add_argument("--profiler", default="scalene",
                        help="'scalene' or a baseline profiler name")
    submit.add_argument("--mode", default="full", help="Scalene mode for the job")
    submit.add_argument("--scale", type=float, default=1.0, help="workload scale")
    submit.add_argument("--no-wait", action="store_true",
                        help="return the job id immediately instead of polling")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="seconds to wait for completion")

    profiles = sub.add_parser("profiles", help="query a daemon's profile store")
    profiles.add_argument("--url", default="http://127.0.0.1:8000", help="daemon URL")
    profiles.add_argument("--workload", help="filter the listing by workload")
    profiles.add_argument("--id", help="fetch one profile and render it as text")
    profiles.add_argument("--json", action="store_true",
                          help="with --id: print the raw JSON payload instead")
    profiles.add_argument("--merge", nargs="+", metavar="ID",
                          help="merge two or more stored profiles")
    profiles.add_argument("--diff", nargs=2, metavar=("BEFORE", "AFTER"),
                          help="diff two stored profiles")
    profiles.add_argument("--trend", action="store_true",
                          help="time-ordered headline numbers (honours --workload)")

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection run against a live daemon (self-healing check)",
    )
    chaos.add_argument("--seed", type=int, default=0, help="chaos schedule seed")
    chaos.add_argument("--jobs", type=int, default=8, help="concurrent jobs")
    chaos.add_argument("--workers", type=int, default=2, help="worker processes")
    chaos.add_argument("--store", default=None,
                       help="store directory (default: a temp dir, removed after)")
    chaos.add_argument("--exit-crashers", type=int, default=2,
                       help="jobs whose worker hard-exits on attempt 1")
    chaos.add_argument("--exception-crashers", type=int, default=2,
                       help="jobs whose worker raises on attempt 1")
    chaos.add_argument("--torn-writes", type=int, default=2,
                       help="store writes to tear before healing")
    chaos.add_argument("--drop-rate", type=float, default=0.1,
                       help="per-expiry timer-signal drop probability")
    chaos.add_argument("--json", action="store_true",
                       help="print the full report as JSON")
    chaos.add_argument("--shards", type=int, default=0,
                       help="run the shard-kill chaos instead: N shards "
                       "behind a gateway, one killed mid-run (0 = classic)")
    chaos.add_argument("--gateway-kill", action="store_true",
                       help="with --shards: kill -9 the WAL-backed gateway "
                       "mid-burst and prove recovery loses nothing")
    chaos.add_argument("--reshard", action="store_true",
                       help="with --shards: grow the ring by one shard "
                       "under load and prove every key migrates")
    return parser


def _make_process(args):
    if args.workload:
        return get_workload(args.workload).make_process(args.scale)
    if not args.file:
        raise SystemExit(f"{args.command}: provide a source file or --workload NAME")
    source = Path(args.file).read_text(encoding="utf-8")
    process = SimProcess(source, filename=Path(args.file).name)
    install_standard_libraries(process)
    return process


def _cmd_profile(args) -> int:
    process = _make_process(args)
    if args.profiler == "scalene":
        if args.mode not in SCALENE_MODES:
            raise SystemExit(f"unknown mode {args.mode!r}; use one of {sorted(SCALENE_MODES)}")
        scalene = Scalene(process, mode=args.mode)
        scalene.start()
        process.run()
        profile = scalene.stop()
        print(profile.render_text())
        if args.json:
            print(f"wrote {write_json(profile, args.json)}")
        if args.html:
            print(f"wrote {write_html(profile, args.html)}")
        return 0

    profiler = make_profiler(args.profiler, process)
    profiler.start()
    process.run()
    report = profiler.stop()
    print(f"profiler: {report.profiler} ({report.total_samples} events/samples)")
    for (file, line), seconds in sorted(report.line_times.items()):
        print(f"  {file}:{line:<5} {seconds:9.3f} s")
    for (file, fn), seconds in sorted(
        report.function_times.items(), key=lambda kv: -kv[1]
    ):
        print(f"  {fn:<24} {seconds:9.3f} s")
    for (file, line), mb in sorted(report.line_memory_mb.items()):
        print(f"  {file}:{line:<5} {mb:9.1f} MB")
    if report.peak_memory_mb is not None:
        print(f"  peak memory: {report.peak_memory_mb:.1f} MB")
    if report.log_bytes:
        print(f"  log output:  {report.log_bytes} bytes")
    return 0


def _lint_gate(findings, fail_on) -> int:
    """CI gate: nonzero exit when findings reach the --fail-on severity."""
    if not fail_on:
        return 0
    from repro.staticcheck import DETECTOR_SEVERITY, SEVERITY_RANK

    threshold = SEVERITY_RANK[fail_on]
    over = [
        f
        for f in findings
        if SEVERITY_RANK[DETECTOR_SEVERITY.get(f.detector, "low")] >= threshold
    ]
    if over:
        print(
            f"fail-on {fail_on}: {len(over)} finding(s) at or above threshold",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.triangulate import DEFAULT_MIN_PERCENT, attach_lint, triangulate
    from repro.staticcheck import lint_code

    process = _make_process(args)
    findings = lint_code(process.code, filename=process.filename)

    if args.profile:
        min_percent = DEFAULT_MIN_PERCENT if args.min_percent is None else args.min_percent
        scalene = Scalene(process, mode="full")
        scalene.start()
        process.run()
        profile = scalene.stop()
        triangulated = triangulate(findings, profile, min_percent=min_percent)
        attach_lint(profile, triangulated)
        print(profile.render_text())
        if args.json:
            payload = [t.to_dict() for t in triangulated]
            Path(args.json).write_text(json_module.dumps(payload, indent=2), encoding="utf-8")
            print(f"wrote {args.json}")
        return _lint_gate(findings, args.fail_on)

    if not findings:
        print(f"{process.filename}: no performance lints")
    for finding in findings:
        print(str(finding))
    if args.json:
        payload = [
            {
                "detector": f.detector,
                "filename": f.filename,
                "lineno": f.lineno,
                "function": f.function,
                "message": f.message,
                "suggestion": f.suggestion,
            }
            for f in findings
        ]
        Path(args.json).write_text(json_module.dumps(payload, indent=2), encoding="utf-8")
        print(f"wrote {args.json}")
    return _lint_gate(findings, args.fail_on)


def _cmd_crossflow(args) -> int:
    from repro.analysis.crossflow import analyze_crossflow

    process = _make_process(args)
    source, filename = process.source, process.filename
    scalene = Scalene(process, mode="full")
    scalene.start()
    process.run()
    profile = scalene.stop()
    findings = analyze_crossflow(
        source, profile, filename, recorder=process.crossings
    )
    print(profile.render_text())
    if not findings:
        print(f"{filename}: no cross-flow findings")
    if args.json:
        payload = [f.to_dict() for f in findings]
        Path(args.json).write_text(json_module.dumps(payload, indent=2), encoding="utf-8")
        print(f"wrote {args.json}")
    return 0


def _cmd_dis(args) -> int:
    from repro.interp.disassembler import disassemble, iter_code_objects

    process = _make_process(args)
    listings = [
        disassemble(code_object, show_blocks=True)
        for code_object in iter_code_objects(process.code)
    ]
    print("\n\n".join(listings))
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import ProfileDaemon

    if args.shards:
        return _cmd_serve_shards(args)
    daemon = ProfileDaemon(
        args.store, workers=args.workers, host=args.host, port=args.port
    )
    daemon.start()
    print(f"repro serve: listening on {daemon.url} "
          f"({args.workers} workers, store: {args.store})", flush=True)
    daemon.serve_forever()
    return 0


def _cmd_serve_shards(args) -> int:
    """The scale-out plane: N shard daemons + router + gateway."""
    import os
    import time
    from pathlib import Path

    from repro.serve import ServeFrontend, ShardPlane

    plane = ShardPlane(args.store, shards=args.shards, workers=args.workers)
    router = plane.start()
    wal = None if args.wal == "none" else (
        args.wal or str(Path(args.store) / "gateway-wal")
    )
    gateway = ServeFrontend(
        router, host=args.host, port=args.port, wal=wal, plane=plane
    )
    gateway.start()
    print(f"repro serve: gateway on {gateway.url} pid {os.getpid()} "
          f"({args.shards} shards x {args.workers} workers, "
          f"store: {args.store}, wal: {wal or 'off'})", flush=True)
    for name, url in sorted(plane.urls().items()):
        print(f"  {name}: {url}", flush=True)
    try:
        # Short sleeps, as in ProfileDaemon.serve_forever: a Ctrl-C that
        # the kernel hands to another thread does not cut the main
        # thread's sleep short; the handler runs when the sleep ends.
        while True:
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        gateway.stop()
        plane.stop()
    return 0


def _cmd_loadgen(args) -> int:
    from repro.serve import run_load
    from repro.serve.loadgen import DEFAULT_WORKLOADS

    workloads = (
        tuple(w.strip() for w in args.workloads.split(",") if w.strip())
        if args.workloads
        else DEFAULT_WORKLOADS
    )
    if args.kill_gateway_at is not None and args.gateway_pid is None:
        raise SystemExit("loadgen: --kill-gateway-at requires --gateway-pid")
    report = run_load(
        args.url,
        jobs=args.jobs,
        concurrency=args.concurrency,
        workloads=workloads,
        scale=args.scale,
        submit_keys=args.submit_keys,
        retry_window_s=args.retry_window,
        kill_at=args.kill_gateway_at,
        kill_pid=args.gateway_pid,
        reshard_at=args.reshard_at,
        reshard_action=args.reshard_action,
        reshard_shard=args.reshard_shard,
    )
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2))
    else:
        print(
            f"loadgen: {report.submitted}/{args.jobs} submitted "
            f"({report.errors} errors) in {report.elapsed_s:.2f}s — "
            f"{report.submissions_per_s:,.0f} submissions/s"
        )
        print(
            f"  accept latency ms: p50 {report.latency_p50_ms:.2f}  "
            f"p90 {report.latency_p90_ms:.2f}  p99 {report.latency_p99_ms:.2f}  "
            f"max {report.latency_max_ms:.2f}"
        )
        if report.resubmissions or report.deduped:
            print(f"  chaos: {report.resubmissions} resubmissions, "
                  f"{report.deduped} deduped, "
                  f"gateway killed: {report.killed_gateway}, "
                  f"resharded: {report.resharded}")
    return 0 if report.errors == 0 else 1


def _cmd_submit(args) -> int:
    from repro.serve import ServeClient

    client = ServeClient(args.url)
    job = client.submit(
        args.workload, profiler=args.profiler, mode=args.mode, scale=args.scale
    )
    print(f"submitted {job['id']} ({args.workload} under {args.profiler})")
    if args.no_wait:
        return 0
    job = client.wait(job["id"], timeout=args.timeout)
    print(f"{job['id']}: {job['status']} -> profile {job['profile_id']}")
    return 0


def _cmd_profiles(args) -> int:
    from repro.serve import ServeClient

    client = ServeClient(args.url)
    if args.merge:
        merged = client.merge(args.merge)
        print(f"merged {len(args.merge)} profiles -> {merged['id']}")
        return 0
    if args.diff:
        diff = client.diff(args.diff[0], args.diff[1])
        print(json_module.dumps(diff, indent=2))
        return 0
    if args.id:
        if args.json:
            print(json_module.dumps(client.profile(args.id)["profile"], indent=2))
        else:
            print(client.profile_data(args.id).render_text())
        return 0
    if args.trend:
        trend = client.trend(workload=args.workload or "")
        print(json_module.dumps(trend, indent=2))
        return 0
    entries = client.profiles(workload=args.workload or "")
    if not entries:
        print("no stored profiles")
        return 0
    for e in entries:
        merged = f" merged({len(e['parents'])})" if e["parents"] else ""
        print(
            f"{e['id'][:12]}  {e['workload'] or '-':<16} {e['profiler']:<10} "
            f"{e['mode']:<10} {e['elapsed_s']:8.3f}s  {e['peak_mb']:8.1f}MB"
            f"{merged}"
        )
    return 0


def _cmd_chaos(args) -> int:
    import contextlib
    import tempfile

    from repro.faults import (
        run_chaos,
        run_gateway_chaos,
        run_reshard_chaos,
        run_shard_chaos,
    )

    with contextlib.ExitStack() as stack:
        store_root = args.store or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-chaos-")
        )
        if args.gateway_kill or args.reshard:
            if not args.shards:
                raise SystemExit(
                    "chaos: --gateway-kill/--reshard need --shards N"
                )
            runner = run_gateway_chaos if args.gateway_kill else run_reshard_chaos
            report = runner(
                args.seed,
                root=store_root,
                shards=args.shards,
                jobs=args.jobs,
                workers=args.workers,
            )
            if args.json:
                print(json_module.dumps(report.to_dict(), indent=2))
            else:
                print(report.summary())
            return 0 if report.ok else 1
        if args.shards:
            report = run_shard_chaos(
                args.seed,
                root=store_root,
                shards=args.shards,
                jobs=args.jobs,
                workers=args.workers,
            )
            if args.json:
                print(json_module.dumps(report.to_dict(), indent=2))
            else:
                print(report.summary())
            return 0 if report.ok else 1
        report = run_chaos(
            args.seed,
            store_root=store_root,
            jobs=args.jobs,
            workers=args.workers,
            exit_crashers=args.exit_crashers,
            exception_crashers=args.exception_crashers,
            torn_writes=args.torn_writes,
            signal_drop_rate=args.drop_rate,
        )
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_list() -> int:
    print("workloads:")
    for name in workload_names():
        print(f"  {name}")
    print("profilers: scalene (modes: cpu, cpu+gpu, full)")
    for name in profiler_names():
        print(f"  {name}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "crossflow":
            return _cmd_crossflow(args)
        if args.command == "dis":
            return _cmd_dis(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "loadgen":
            return _cmd_loadgen(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "profiles":
            return _cmd_profiles(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        return _cmd_profile(args)
    except BrokenPipeError:
        # Output piped to a pager/head that exited early — not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
