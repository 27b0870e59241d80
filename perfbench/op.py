"""One benchmark operation in a fresh process (spawned by run.py).

Usage: ``python3 perfbench/op.py SPEC.json``.  The spec names the
workload, its runtime-config file, store directory and output path,
whether to trace, and where to write the result.  ``"probe": true``
stops once the process is ready, which run.py uses to sample set-up
time.

Ready means ``import repro.cli`` has finished and the screening backend
is resolved (the first ``active_backend()`` compiles the native kernel
on a fresh checkout), so neither lands in the timed operation.
"""

import time

_START_NS = time.monotonic_ns()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _usage() -> tuple:
    """(cpu seconds, peak RSS in MB) of this process and its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime
    return cpu, max(own.ru_maxrss, workers.ru_maxrss) / 1024.0


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    import repro.cli

    import_ns = time.monotonic_ns()
    from repro.collision.merge_kernel import active_backend

    backend = active_backend()
    ready_ns = time.monotonic_ns()
    result = {"start_ns": _START_NS, "import_ns": import_ns, "ready_ns": ready_ns,
              "backend": backend}
    if not spec.get("probe"):
        result.update(_operation(spec, repro.cli))
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def _operation(spec: dict, cli) -> dict:
    import spans
    import workloads
    from repro.runtime.metrics import diff_snapshots, global_metrics

    workload = workloads.WORKLOADS[spec["workload"]]
    recorder = patches = None
    if spec["trace"]:
        recorder = spans.SpanRecorder(Path(spec["spill_dir"]))
        patches = spans.install(recorder)
    baseline = global_metrics().snapshot()
    cpu0, _ = _usage()
    try:
        if workload.kind == "design":
            from repro.benchmarks.library import BENCHMARK_NAMES
            from repro.evaluation.parallel import SweepExecutor
            from repro.runtime.config import RuntimeConfig

            settings = RuntimeConfig.from_json(spec["config"]).evaluation_settings()
            start_ns = time.monotonic_ns()
            points = SweepExecutor(settings, jobs=1).enumerate_points(BENCHMARK_NAMES)
            end_ns = time.monotonic_ns()
            code = 0
        else:
            argv = workloads.sweep_argv(workload, Path(spec["config"]),
                                        Path(spec["store_dir"]), Path(spec["output"]))
            start_ns = time.monotonic_ns()
            code = cli.main(argv)
            end_ns = time.monotonic_ns()
    finally:
        if patches is not None:
            spans.uninstall(patches)
            recorder.flush()
    cpu1, peak_mb = _usage()
    if workload.kind == "design":
        Path(spec["output"]).write_text(workloads.design_output(points), encoding="utf-8")
    return {
        "exit_code": code, "op_start_ns": start_ns, "op_end_ns": end_ns,
        "cpu_s": cpu1 - cpu0, "peak_rss_mb": peak_mb,
        "metrics": diff_snapshots(global_metrics().snapshot(), baseline),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
