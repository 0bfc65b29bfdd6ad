"""The repository's benchmark: end-to-end metrics, or a traced run's
per-layer metrics, for one workload.

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` replays the first half of the same operations untraced and
then traced, and prints every per-layer metric plus the tracing overhead.
The last line of standard output is the result object; the line before
it records the run's inputs (a digest of every generated input and, on
serve-mix, the backend the server resolved).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("compile-cold", "edit-watch", "serve-mix")
#: set-ups per run; setup_s is their median
SETUP_REPEATS = 5
#: kernel samples taken before the first timed operation
LEAD_SAMPLES = 5


def parse_args(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--seconds", type=int, default=20,
        help="sets how much work a run replays (see each workload's rate)",
    )
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _reexec_with_fixed_hash_seed() -> None:
    """String hashing is randomised per process; set-iteration order then
    changes allocation order and with it when the collector runs.  A fixed
    seed makes counts such as ``gc.gen2_collections`` repeat."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def make_workload(name: str, seed: int, seconds: int):
    if name == "compile-cold":
        from compile_cold import CompileCold

        return CompileCold(seed, seconds)
    if name == "edit-watch":
        from edit_watch import EditWatch

        return EditWatch(seed, seconds)
    from serve_mix import ServeMix

    return ServeMix(seed, seconds)


def pin_to_one_cpu() -> None:
    """Run an in-process workload, its kernel samples and its set-up
    probes on one CPU.  Each CPU of a shared host slows down on its own
    (noisy neighbours), so the kernel only measures the speed the
    operations saw when both run on the same CPU.  serve-mix is not
    pinned: the daemon sizes its backend from the CPUs it may use."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure_in_process(workload) -> Tuple[Dict[str, float], "OpLog"]:
    from common import OpLog, probe_setup, self_peak_rss_mb
    from tracing import NullTracer

    log = OpLog()
    setup_s = probe_setup(log, workload.probe_argv(), SETUP_REPEATS)
    workload.warm_up()
    for _ in range(LEAD_SAMPLES):
        log.host.sample()
    workload.run_pass(log, workload.units(), NullTracer())
    peak_rss = self_peak_rss_mb()
    workload.finish(log)
    metrics = workload.e2e(log)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = peak_rss
    return metrics, log


def trace_in_process(workload) -> Tuple[Dict[str, float], List["OpLog"]]:
    from common import OUT_DIR, OpLog
    from tracing import NullTracer, Tracer, layer_metrics

    untraced = OpLog()
    traced = OpLog(host=untraced.host)
    units = workload.units()
    half = units[: max(1, len(units) // 2)]
    workload.warm_up()
    for _ in range(LEAD_SAMPLES):
        untraced.host.sample()
    workload.run_pass(untraced, half, NullTracer())
    tracer = Tracer()
    tracer.install()
    try:
        workload.run_pass(traced, half, tracer)
    finally:
        tracer.uninstall()
    workload.finish(traced)
    ops = {i for i, op in enumerate(traced.ops) if op.kind in workload.main_kinds}
    metrics = layer_metrics(tracer, ops)
    metrics.update(workload.layers())
    # corrected busy time of the traced pass over the untraced one's
    kinds = {op.kind for op in untraced.ops}
    metrics["trace.overhead_ratio"] = traced.busy(kinds) / untraced.busy(kinds)
    metrics["host.kernel_ms"], metrics["host.kernel_spread"] = traced.host.summary()
    tracer.dump(OUT_DIR / f"spans-{workload.name}-{workload.seed}.jsonl")
    return metrics, [untraced, traced]


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    _reexec_with_fixed_hash_seed()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no package sources under {ROOT / 'src'}; "
            "run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from common import digest

    workload = make_workload(args.workload, args.seed, args.seconds)
    in_process = not hasattr(workload, "measure")
    if in_process:
        pin_to_one_cpu()
    if args.trace:
        if in_process:
            metrics, logs = trace_in_process(workload)
        else:
            metrics, logs = workload.trace()
        wanted = spec["per_layer"]
    else:
        if in_process:
            metrics, log = measure_in_process(workload)
        else:
            metrics, log = workload.measure(SETUP_REPEATS)
        logs = [log]
        wanted = spec["end_to_end"]

    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    failures = [f for log in logs for f in log.failures]
    kernel_ms, kernel_spread = logs[-1].host.summary()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": digest(workload.input_texts()),
        "inputs": len(workload.input_texts()),
        "operations": sum(len(log.ops) for log in logs),
        "backend": getattr(workload, "backend", None),
        "kernel_ms": round(kernel_ms, 4),
        "kernel_spread": round(kernel_spread, 4),
        "failures": failures,
    }
    print("perfbench-run " + json.dumps(record, sort_keys=True))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not args.trace:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            # a layer a workload never enters reports 0
            m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
