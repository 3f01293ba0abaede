"""Command-line tools mirroring the paper's workflow.

* ``repro-acquire`` — run an instrumented application under an
  acquisition mode and produce time-independent traces (§4).
* ``repro-tau2ti`` — the tau2simgrid extractor on an existing TAU
  archive (§4.3).
* ``repro-calibrate`` — flop-rate + network calibration; can write a
  calibrated SimGrid platform file (§5).
* ``repro-replay`` — the trace replay tool: platform XML + deployment
  XML + traces in, simulated execution time out (§5, Fig. 4).
* ``repro-validate`` — static replayability check of a trace set.
* ``repro-stats`` — descriptive statistics of a trace (volumes, traffic
  matrix, message-size mix).
* ``repro-convert`` — text <-> binary trace conversion (§7 future work).
* ``repro-campaign`` — parallel experiment campaigns over the full
  pipeline with content-addressed result caching (lives in
  :mod:`repro.campaign.cli`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .apps import (
    CgWorkload, LuWorkload, MgWorkload, StencilConfig, ring_program,
    stencil_program,
)
from .core.acquisition import AcquisitionMode, acquire
from .core.calibration import calibrate_flop_rate, calibrate_network
from .core.replay import COLLECTIVE_ALGORITHMS, TraceReplayer
from .extract import tau2simgrid
from .platforms import bordereau, gdx, grid5000
from .simkernel import (
    dump_platform,
    load_deployment,
    load_platform,
)
from .simkernel.lmm import LMM_MODES
from .smpi import round_robin_deployment

_PLATFORMS = {"bordereau": bordereau, "gdx": gdx, "grid5000": grid5000}


def _build_platform(name: str, n_hosts: Optional[int], ground_truth: bool,
                    cores: int = 1, speed: Optional[float] = None):
    try:
        factory = _PLATFORMS[name]
    except KeyError:
        raise SystemExit(
            f"unknown platform {name!r}; choose from {sorted(_PLATFORMS)}"
        )
    kwargs = {"ground_truth": ground_truth, "cores": cores}
    if name != "grid5000" and speed is not None:
        kwargs["speed"] = speed
    if n_hosts is not None:
        if name == "grid5000":
            kwargs.update(n_bordereau=n_hosts, n_gdx=n_hosts)
        else:
            kwargs["n_hosts"] = n_hosts
    return factory(**kwargs)


def _build_program(args):
    if args.app == "lu":
        return LuWorkload(args.lu_class, args.ranks).program
    if args.app == "cg":
        return CgWorkload(args.lu_class, args.ranks).program
    if args.app == "mg":
        return MgWorkload(args.lu_class, args.ranks).program
    if args.app == "ring":
        return ring_program
    if args.app == "stencil":
        config = StencilConfig(nx=args.stencil_size, ny=args.stencil_size,
                               iterations=args.stencil_iterations)
        return lambda mpi: stencil_program(mpi, config)
    raise SystemExit(f"unknown app {args.app!r}")


def _add_app_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--app", default="lu",
                        choices=["lu", "cg", "mg", "ring", "stencil"],
                        help="workload to run (default: lu)")
    parser.add_argument("--class", dest="lu_class", default="S",
                        help="NPB problem class for lu/cg/mg (default: S)")
    parser.add_argument("--ranks", type=int, default=4,
                        help="number of MPI ranks (default: 4)")
    parser.add_argument("--stencil-size", type=int, default=256)
    parser.add_argument("--stencil-iterations", type=int, default=100)
    parser.add_argument("--platform", default="bordereau",
                        choices=sorted(_PLATFORMS))
    parser.add_argument("--hosts", type=int, default=None,
                        help="number of hosts per cluster (default: full)")
    parser.add_argument("--cores", type=int, default=1,
                        help="cores per host (paper uses 1 for acquisition)")


def main_acquire(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-acquire",
        description="Acquire a time-independent trace (instrument, "
                    "execute, extract, gather).",
    )
    _add_app_options(parser)
    parser.add_argument("--mode", default="R",
                        help="acquisition mode: R, F-<x>, S-<y>, SF-(<u>,<v>)")
    parser.add_argument("--workdir", required=True,
                        help="directory for tau/ and ti/ outputs")
    parser.add_argument("--jitter", type=float, default=0.0,
                        help="hardware-counter jitter fraction (e.g. 0.005)")
    parser.add_argument("--skip-application-run", action="store_true",
                        help="skip the uninstrumented reference run")
    args = parser.parse_args(argv)

    platform = _build_platform(args.platform, args.hosts, ground_truth=True,
                               cores=args.cores)
    mode = AcquisitionMode.parse(args.mode)
    result = acquire(
        _build_program(args), platform, args.ranks, mode=mode,
        workdir=args.workdir, papi_jitter=args.jitter,
        measure_application=not args.skip_application_run,
    )
    print(f"mode:                {result.mode_label}")
    if result.application_time is not None:
        print(f"application time:    {result.application_time:.3f} s")
        print(f"tracing overhead:    {result.tracing_overhead:.3f} s")
    print(f"execution time:      {result.execution_time:.3f} s")
    print(f"timed trace size:    {result.tau_archive.mib:.2f} MiB "
          f"({result.tau_archive.n_records} records)")
    print(f"extraction:          {result.extraction.wall_seconds:.3f} s "
          f"({result.extraction.n_actions} actions)")
    print(f"TI trace size:       {result.extraction.mib:.2f} MiB")
    print(f"gathering:           {result.gather.time:.3f} s simulated "
          f"({result.gather.n_rounds} rounds)")
    print(f"traces in:           {result.trace_dir}")
    return 0


def main_tau2ti(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-tau2ti",
        description="Extract time-independent traces from a TAU archive.",
    )
    parser.add_argument("tau_dir", help="directory of tautrace.*/events.* files")
    parser.add_argument("n_ranks", type=int)
    parser.add_argument("out_dir", help="destination for SG_process*.trace")
    parser.add_argument("--processes", type=int, default=1,
                        help="extraction parallelism (tau2simgrid is a "
                             "parallel program)")
    args = parser.parse_args(argv)
    report = tau2simgrid(args.tau_dir, args.n_ranks, args.out_dir,
                         processes=args.processes)
    print(f"extracted {report.n_actions} actions "
          f"({report.mib:.2f} MiB) for {report.n_ranks} ranks "
          f"in {report.wall_seconds:.3f} s")
    return 0


def main_calibrate(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-calibrate",
        description="Calibrate flop rate (5-run weighted average) and the "
                    "piece-wise-linear network model.",
    )
    _add_app_options(parser)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--jitter", type=float, default=0.002)
    parser.add_argument("--output", default=None,
                        help="write a calibrated SimGrid platform XML here")
    args = parser.parse_args(argv)

    platform = _build_platform(args.platform, args.hosts, ground_truth=True,
                               cores=args.cores)
    deployment = round_robin_deployment(platform, args.ranks)
    flops = calibrate_flop_rate(platform, deployment, _build_program(args),
                                runs=args.runs, jitter=args.jitter)
    network = calibrate_network(platform, deployment[:2])
    print(f"flop rate:    {flops.rate:.4g} flop/s "
          f"(spread {100 * flops.spread:.2f}% over {args.runs} runs, "
          f"{flops.n_samples} bursts)")
    print(f"latency:      {network.latency:.4g} s  (1-byte ping-pong / 6)")
    print(f"bandwidth:    {network.bandwidth:.4g} B/s (nominal)")
    for seg in network.model.segments:
        upper = "inf" if seg.upper == float("inf") else f"{seg.upper:g}"
        print(f"  segment [{seg.lower:g}, {upper}): "
              f"lat x {seg.lat_factor:.3f}, bw x {seg.bw_factor:.3f}")
    if args.output:
        calibrated = _build_platform(args.platform, args.hosts,
                                     ground_truth=False, cores=args.cores,
                                     speed=flops.rate)
        dump_platform(calibrated, args.output)
        print(f"calibrated platform written to {args.output}")
    return 0


def main_convert(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-convert",
        description="Convert a directory of time-independent traces "
                    "between the text and binary representations "
                    "(the paper's §7 size-reduction future work).",
    )
    parser.add_argument("src_dir")
    parser.add_argument("dst_dir")
    parser.add_argument("--to", dest="target", required=True,
                        choices=["binary", "text"])
    args = parser.parse_args(argv)

    import os

    from .core.binfmt import (
        binary_trace_file_name, read_binary_trace, write_binary_trace,
    )
    from .core.trace import read_trace_file, trace_file_name
    from .core.actions import format_action

    os.makedirs(args.dst_dir, exist_ok=True)
    rank = 0
    in_bytes = out_bytes = 0
    while True:
        text_path = os.path.join(args.src_dir, trace_file_name(rank))
        bin_path = os.path.join(args.src_dir, binary_trace_file_name(rank))
        if args.target == "binary" and os.path.exists(text_path):
            actions = list(read_trace_file(text_path, expect_rank=rank))
            out_path = os.path.join(args.dst_dir,
                                    binary_trace_file_name(rank))
            out_bytes += write_binary_trace(actions, rank, out_path)
            in_bytes += os.path.getsize(text_path)
        elif args.target == "text" and os.path.exists(bin_path):
            out_path = os.path.join(args.dst_dir, trace_file_name(rank))
            with open(out_path, "w", encoding="ascii") as handle:
                for action in read_binary_trace(bin_path):
                    handle.write(format_action(action) + "\n")
            in_bytes += os.path.getsize(bin_path)
            out_bytes += os.path.getsize(out_path)
        else:
            break
        rank += 1
    if rank == 0:
        raise SystemExit(f"no rank-0 trace found in {args.src_dir!r}")
    print(f"converted {rank} ranks: {in_bytes:,} B -> {out_bytes:,} B "
          f"({in_bytes / max(1, out_bytes):.2f}x)")
    return 0


def main_compile(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-compile",
        description="Compile time-independent traces into columnar op "
                    "programs cached as .tic sidecars, so later replays "
                    "skip tokenization and dispatch entirely.",
    )
    parser.add_argument("trace", help="trace directory or merged trace file")
    parser.add_argument("--force", action="store_true",
                        help="recompile even when fresh .tic sidecars exist")
    args = parser.parse_args(argv)

    from .core.compile import compile_source, fuse_computes

    try:
        programs, report = compile_source(args.trace, force=args.force)
    except (OSError, ValueError) as exc:
        print(f"compile failed: {exc}", file=sys.stderr)
        return 2
    fusible = sum(p.n_src - fuse_computes(p).n_ops for p in programs)
    print(f"compiled {report.n_ranks} ranks: {report.n_src:,} actions -> "
          f"{report.n_ops:,} ops ({fusible:,} computes fusible) in "
          f"{report.wall_seconds:.2f} s")
    print(f"cache: {report.cache_hits} hits, {report.cache_misses} misses; "
          f"{len(report.artifacts)} sidecar(s) written")
    for path in report.artifacts[:8]:
        print(f"  {path}")
    if len(report.artifacts) > 8:
        print(f"  ... and {len(report.artifacts) - 8} more")
    return 0


def main_import(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-import",
        description="Import a PyTorch/param comms trace (per-rank "
                    "rank<k>.json files, or one symmetric JSON file of "
                    "collectives) into a time-independent trace set.",
    )
    parser.add_argument("source",
                        help="directory of rank<k>.json files, or a single "
                             "JSON trace file")
    parser.add_argument("out_dir",
                        help="destination for SG_process*.trace files")
    parser.add_argument("--format", default="param-comms",
                        choices=["param-comms"],
                        help="source trace format (default: param-comms)")
    parser.add_argument("--world-size", type=int, default=None,
                        help="communicator size; required for single-file "
                             "sources, checked against per-rank sources")
    parser.add_argument("--skip-unsupported", action="store_true",
                        help="drop records the format cannot express "
                             "(counted in the report) instead of failing")
    parser.add_argument("--binary", action="store_true",
                        help="write .btrace files instead of text")
    parser.add_argument("--json", action="store_true",
                        help="print the import report as JSON")
    args = parser.parse_args(argv)

    from .importers import import_param_comms

    try:
        report = import_param_comms(
            args.source, args.out_dir,
            world_size=args.world_size,
            skip_unsupported=args.skip_unsupported,
            binary=args.binary,
        )
    except (OSError, ValueError) as exc:
        print(f"import failed: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json

        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(f"imported {report.n_ranks} ranks: {report.n_records:,} "
              f"records -> {report.n_actions:,} actions "
              f"({report.n_bytes:,} B) into {report.out_dir}")
        if report.n_skipped:
            ops = ", ".join(f"{op} x{n}" for op, n
                            in sorted(report.skipped_ops.items()))
            print(f"skipped {report.n_skipped} unsupported record(s): "
                  f"{ops}")
    return 0


def main_validate(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-validate",
        description="Statically check a time-independent trace for "
                    "replayability (matching, request balance, collective "
                    "agreement).",
    )
    parser.add_argument("trace", help="trace directory or merged file")
    parser.add_argument("--format", default="text", choices=["text", "json"],
                        help="report format (default: text)")
    args = parser.parse_args(argv)

    import os

    from .core.trace import read_merged_trace, read_trace_dir
    from .core.validate import validate_trace

    if os.path.isdir(args.trace):
        trace = read_trace_dir(args.trace)
    else:
        trace = read_merged_trace(args.trace)
    report = validate_trace(trace)
    if args.format == "json":
        import json

        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    # Exit taxonomy: 0 = clean, 1 = warnings only, 2 = errors.
    if not report.ok:
        return 2
    return 1 if report.findings else 0


def main_stats(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-stats",
        description="Descriptive statistics of a time-independent trace: "
                    "volumes, traffic matrix, message-size mix.",
    )
    parser.add_argument("trace", help="trace directory or merged file")
    args = parser.parse_args(argv)

    import os

    from .analysis import compute_trace_stats
    from .core.trace import read_merged_trace, read_trace_dir

    if os.path.isdir(args.trace):
        trace = read_trace_dir(args.trace)
    else:
        trace = read_merged_trace(args.trace)
    print(compute_trace_stats(trace).report())
    return 0


def main_replay(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-replay",
        description="Replay time-independent traces: platform + deployment "
                    "+ traces -> simulated execution time (Fig. 4).",
    )
    parser.add_argument("trace", help="trace directory or merged trace file")
    parser.add_argument("--platform-xml", required=True,
                        help="SimGrid v3 platform file (Fig. 5)")
    parser.add_argument("--deployment-xml", default=None,
                        help="SimGrid v3 deployment file (Fig. 6); default: "
                             "rank i on host i")
    parser.add_argument("--ranks", type=int, default=None,
                        help="rank count when no deployment file is given")
    parser.add_argument("--collectives", default="binomial",
                        choices=COLLECTIVE_ALGORITHMS)
    parser.add_argument("--lmm", default="auto", choices=LMM_MODES,
                        help="max-min solver path: 'auto' vectorizes "
                             "large sharing components, 'reference' "
                             "forces the pure-Python oracle, 'vectorized' "
                             "forces NumPy (default: auto)")
    parser.add_argument("--no-lmm-incremental", dest="lmm_incremental",
                        action="store_false", default=True,
                        help="disable the certified incremental max-min "
                             "re-solve of large sharing groups (A/B "
                             "benchmarking only; results are identical "
                             "either way)")
    parser.add_argument("--eager-threshold", type=float, default=65536)
    parser.add_argument("--compiled", dest="compiled", action="store_const",
                        const="always", default="auto",
                        help="force the compiled replay driver (columnar op "
                             "programs, .tic sidecar cache); default 'auto' "
                             "compiles directory and merged-file sources")
    parser.add_argument("--no-compiled", dest="compiled",
                        action="store_const", const="never",
                        help="force the token-stream replay driver")
    parser.add_argument("--shards", type=int, default=0, metavar="N",
                        help="replay contiguous rank bands in N forked "
                             "worker processes, merged at collective "
                             "windows (decoupled platforms only; results "
                             "are validated against the band owners to "
                             "1e-9 and the replay fails loudly if the "
                             "halo is too thin)")
    parser.add_argument("--shard-halo", type=int, default=0, metavar="R",
                        help="guard width in ranks each shard simulates "
                             "beyond its band (default: auto-sized from "
                             "the trace's communication pattern)")
    parser.add_argument("--faults", default=None, metavar="PLAN_JSON",
                        help="fault plan JSON (host crashes, link outages, "
                             "link degradations) to inject during replay")
    parser.add_argument("--fault-mode", default="abort",
                        choices=["abort", "checkpoint-restart"],
                        help="failure-aware replay mode: 'abort' stops at "
                             "the first rank death and reports provenance; "
                             "'checkpoint-restart' prices a coordinated "
                             "checkpoint/restart timeline (the plan needs "
                             "a 'checkpoint' block)")
    parser.add_argument("--fault-report", default=None, metavar="JSON_PATH",
                        help="write the structured FaultReport here "
                             "(default: a summary on stdout)")
    parser.add_argument("--timed-trace", default=None,
                        help="write the simulated timed trace here")
    parser.add_argument("--metrics", nargs="?", const="-", default=None,
                        metavar="JSON_PATH",
                        help="collect replay telemetry and emit it as a "
                             "JSON document (to stdout, or to JSON_PATH "
                             "when given)")
    args = parser.parse_args(argv)

    platform = load_platform(args.platform_xml)
    hosts = platform.host_list()
    if args.deployment_xml:
        deployments = load_deployment(args.deployment_xml)
        deployment = [platform.host(d.host) for d in deployments]
    else:
        n = args.ranks if args.ranks is not None else len(hosts)
        deployment = round_robin_deployment(platform, n)
    fault_plan = None
    if args.faults is not None:
        from .faults import load_fault_plan

        try:
            fault_plan = load_fault_plan(args.faults)
            fault_plan.validate(platform)
        except (OSError, ValueError) as exc:
            print(f"bad fault plan: {exc}", file=sys.stderr)
            return 2
    try:
        replayer = TraceReplayer(
            platform, deployment,
            eager_threshold=args.eager_threshold,
            collective_algorithm=args.collectives,
            record_timed_trace=args.timed_trace is not None,
            collect_metrics=args.metrics is not None,
            lmm_mode=args.lmm,
            lmm_incremental=args.lmm_incremental,
            fault_plan=fault_plan,
            fault_mode=args.fault_mode,
            compiled=args.compiled,
            shards=args.shards,
            shard_halo=args.shard_halo,
        )
    except ValueError as exc:
        # Option mismatch (checkpoint-restart without a checkpoint
        # block, --shards with --no-compiled, ...) is an input error,
        # not a replay failure.
        print(f"bad replay configuration: {exc}", file=sys.stderr)
        return 2
    try:
        result = replayer.replay(args.trace)
    except Exception as exc:
        # A failed replay (deadlock, malformed trace, rank/deployment
        # mismatch) must fail the invoking script: diagnostics on stderr,
        # a nonzero exit code, and whatever telemetry was collected up to
        # the failure point still emitted.
        print(f"replay failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        from .simkernel import DeadlockError

        if isinstance(exc, DeadlockError):
            if exc.blocked:
                print(f"blocked processes: {', '.join(exc.blocked)}",
                      file=sys.stderr)
            for key, value in sorted(exc.details.items()):
                print(f"  {key}: {value}", file=sys.stderr)
        if args.metrics is not None and replayer.telemetry is not None:
            import json

            document = json.dumps(replayer.telemetry.as_dict(), indent=2,
                                  sort_keys=True)
            if args.metrics == "-":
                print(document)
            else:
                with open(args.metrics, "w", encoding="ascii") as handle:
                    handle.write(document + "\n")
                print(f"metrics written to {args.metrics}", file=sys.stderr)
        return 3
    print(f"Simulated execution time: {result.simulated_time:.6f} s")
    print(f"({result.n_ranks} ranks, {result.n_actions} actions, "
          f"replayed in {result.wall_seconds:.2f} s)")
    if result.fault_report is not None:
        print(result.fault_report.summary())
        if args.fault_report:
            with open(args.fault_report, "w", encoding="ascii") as handle:
                handle.write(result.fault_report.to_json() + "\n")
            print(f"fault report written to {args.fault_report}")
    if args.timed_trace:
        with open(args.timed_trace, "w") as handle:
            for rank, name, start, end in result.timed_trace:
                handle.write(f"p{rank} {name} {start:.9f} {end:.9f}\n")
        print(f"timed trace written to {args.timed_trace}")
    if args.metrics is not None:
        import json

        document = json.dumps(result.metrics, indent=2, sort_keys=True)
        if args.metrics == "-":
            print(document)
        else:
            with open(args.metrics, "w", encoding="ascii") as handle:
                handle.write(document + "\n")
            print(f"metrics written to {args.metrics}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main_replay())
