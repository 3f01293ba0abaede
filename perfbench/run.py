"""The repository benchmark: one command, every workload, every metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lu2d-contention --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` takes a traced run and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the machine fingerprint, ``fail_ratio`` and each metric
by name.  Traced runs also write their spans to
``perfbench/.work/spans/``.  The program is imported from ``src/`` of
the same checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")


def git_commit(root: str) -> str:
    """HEAD of the checkout read from ``.git`` directly (no git process,
    no search above the checkout); "unknown" outside a git checkout."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"),
                  encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "git_commit": git_commit(ROOT)}


def complete(metrics: dict, declared: dict, zero_fill: bool) -> dict:
    """``metrics`` holding exactly the ``declared`` ones.  With
    ``zero_fill`` (per-layer metrics), a layer the workload does not run
    reads 0; any other gap is a bug of the benchmark."""
    unknown = sorted(set(metrics) - set(declared))
    missing = sorted(set(declared) - set(metrics))
    units = sorted(name for name, (_, unit) in metrics.items()
                   if declared.get(name, unit) != unit)
    if unknown or units or (missing and not zero_fill):
        raise RuntimeError(f"metrics not as declared: unknown {unknown}, "
                           f"missing {missing}, other unit {units}")
    return {name: metrics.get(name, (0, unit))
            for name, unit in declared.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from gate import Gate
    from spans import Tracer
    from speed import REFERENCE_S
    from workloads import (END_TO_END, PER_LAYER, WORKLOADS, Context,
                           run_workload)

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(WORK, "runs"), exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                               dir=os.path.join(WORK, "runs"))
    # Library temp files (campaign trace synthesis) stay in the checkout.
    tempfile.tempdir = run_dir
    os.environ["TMPDIR"] = run_dir
    ctx = Context(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace_run=bool(args.trace),
                  smoke=args.smoke, src_dir=SRC, run_dir=run_dir,
                  cache_dir=os.path.join(WORK, "cache"), gate=Gate(),
                  tracer=Tracer(args.workload))
    try:
        metrics = complete(run_workload(ctx),
                           PER_LAYER if args.trace else END_TO_END,
                           zero_fill=bool(args.trace))
    finally:
        tempfile.tempdir = None
        shutil.rmtree(run_dir, ignore_errors=True)

    stamp = fingerprint()
    print("fingerprint " + json.dumps(stamp, sort_keys=True))
    if args.trace:
        spans_dir = os.path.join(WORK, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        path = os.path.join(spans_dir,
                            f"{args.workload}-seed{args.seed}.jsonl")
        ctx.tracer.write(path, stamp)
        print(f"spans {len(ctx.tracer.spans)} -> {os.path.relpath(path, ROOT)}")
    gate = ctx.gate
    for problem in gate.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"fail_ratio {gate.failed}/{gate.attempted} = "
          f"{gate.failed / max(1, gate.attempted):.6g}")
    if ctx.probes:
        print(f"machine speed: probe median {statistics.median(ctx.probes):.6g}"
              f" s, min {min(ctx.probes):.6g} s over {len(ctx.probes)} probe "
              f"times; reference probe {REFERENCE_S} s")
    for name, (value, unit) in sorted(metrics.items()):
        line = f"{name} {value!r} {unit}"
        for label, values in (("samples", ctx.samples.get(name)),
                              ("host seconds", ctx.host.get(name))):
            if values:
                line += (f"  ({label}: {len(values)}, median "
                         f"{statistics.median(values):.6g}, min "
                         f"{min(values):.6g}, max {max(values):.6g})")
        print(line)
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
