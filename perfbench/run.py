"""Benchmark of the design flow: four workloads, golden-checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig10-cold --seed 7 --seconds 25 --trace 0

Every operation runs in a fresh child process (``perfbench/op.py``)
with tracing off, one after another (a closed loop with one client),
until ``--seconds`` have passed; at least one always runs.  Each
operation's output is checked against ``golden.json``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the environment and the raw samples.

``--trace 0`` reports the end-to-end metrics: the medians over the
run's operations, plus ``setup_s`` (median process start to ready, and
on fig10-warm the priming sweep), all in reference seconds (see
:func:`calibrate`).  ``--trace 1`` runs one untraced and one traced
operation instead (and traces fig10-warm's priming sweep, which is
where its stores are written), checks that the outputs are
byte-identical, reports the per-layer metrics in measured seconds and
writes the traced operation's spans as Chrome trace-event JSON under
``.perfbench_work/traces/`` (open it at https://ui.perfetto.dev).

Everything the run writes stays under ``.perfbench_work/`` at the
repository root; each run's stores and outputs are deleted when it
ends, its trace is kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

#: Set-up samples taken by probe processes before the timed loop; every
#: operation adds one more, so a run has at least three.
PROBES = 2
#: One screening thread per process, so an operation never runs more
#: threads than one core: on a 2-vCPU VM a second kernel thread made
#: design-grid wait on steal of the other vCPU (median 4.31 s with two
#: threads against 3.26 s with one, alternating runs; IQR/median 0.114
#: against 0.052).
SCREENING_THREADS = "1"
#: Calibration samples taken before every child process starts, and
#: again after the last one.
CALIBRATION_REPS = 8
#: Mean seconds of one :func:`calibrate` on the machine the bounds were
#: set on, a 2-vCPU VM, outside its slow and fast spells.
CALIBRATION_REF_S = 0.055
CHILD_TIMEOUT_S = 150.0
#: No operation starts after this much of the run has passed, so the
#: run ends well inside its 180-second limit.
LAST_START_S = 110.0


class Run:
    """The work directory and child processes of one benchmark run."""

    def __init__(self, workload: workloads.Workload, seed: int,
                 golden: Optional[dict]) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.work = WORK_ROOT / f"run-{os.getpid()}-{time.time_ns()}"
        (self.work / "tmp").mkdir(parents=True)
        self.config = self.work / "runtime-config.json"
        self.config.write_text(json.dumps(workloads.runtime_config(seed)) + "\n")
        self.golden = golden
        self.children: List[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: Dict[str, str] = {}
        self.op_walls: List[float] = []
        self.calibrations: List[float] = []
        #: fig10-warm's shared stores, their last state, and how many
        #: store files an operation has rewritten since priming.
        self.primed: Optional[Path] = None
        self.primed_state: Optional[Dict[str, tuple]] = None
        self.warm_rewrites = 0
        self._count = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def spawn(self, **spec) -> dict:
        """Run op.py on ``spec`` in a fresh process and return its result."""
        self.calibrate()
        self._count += 1
        spec["result"] = str(self.work / f"result-{self._count}.json")
        spec_path = self.work / f"spec-{self._count}.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(self.work / "tmp"),
                   REPRO_SCREENING_THREADS=SCREENING_THREADS)
        spawn_ns = time.monotonic_ns()
        child = subprocess.Popen([sys.executable, str(HERE / "op.py"), str(spec_path)],
                                 cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                 start_new_session=True)
        try:
            child.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
        exit_ns = time.monotonic_ns()
        if child.returncode != 0:
            raise RuntimeError(f"operation process exited with {child.returncode}")
        with open(spec["result"], encoding="utf-8") as handle:
            result = json.load(handle)
        result.update(spawn_ns=spawn_ns, exit_ns=exit_ns)
        self.children.append(result)
        return result

    def calibrate(self) -> None:
        self.calibrations.extend(calibrate() for _ in range(CALIBRATION_REPS))

    def speed_factor(self) -> float:
        """Reference seconds per measured second of this run."""
        return CALIBRATION_REF_S / statistics.fmean(self.calibrations)

    def prime(self, trace: bool = False) -> dict:
        """Fill the stores every later operation shares, with one cold sweep."""
        self.primed = self.work / "stores-primed"
        result = self.operation(trace=trace)
        self.op_walls.clear()  # priming is set-up, not a timed operation
        self.primed_state = store_state(self.primed)
        return result

    def operation(self, trace: bool = False) -> dict:
        """One checked operation, on fresh stores unless they were primed."""
        index = self._count + 1
        store_dir = self.primed or self.work / f"stores-{index}"
        store_dir.mkdir(exist_ok=True)
        output = self.work / f"output-{index}.json"
        spill = self.work / f"spill-{index}"
        spill.mkdir(exist_ok=True)
        result = self.spawn(workload=self.workload.name, config=str(self.config),
                            store_dir=str(store_dir), output=str(output), trace=trace,
                            spill_dir=str(spill))
        text = None
        if result["exit_code"] == 0 and output.exists():
            text = output.read_text(encoding="utf-8")
        result.update(text=text, spill=spill, store_dir=store_dir,
                      wall_s=(result["op_end_ns"] - result["op_start_ns"]) / 1e9)
        self.op_walls.append(result["wall_s"])
        if self.primed_state is not None:
            after = store_state(store_dir)
            self.warm_rewrites += sum(1 for name in set(self.primed_state) | set(after)
                                      if self.primed_state.get(name) != after.get(name))
            self.primed_state = after
        if self.golden is not None:
            self.record(workloads.check_output(self.workload, self.golden, self.seed, text))
        return result

    def record(self, check: workloads.CheckResult) -> None:
        self.attempted += check.attempted
        self.failed += check.failed
        for key, reason in check.failures.items():
            self.failures.setdefault(key, reason)

    def setup_samples(self) -> List[float]:
        return [(c["ready_ns"] - c["spawn_ns"]) / 1e9 for c in self.children]

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work.

    The harness runs it between child processes, never alongside one.
    The harness never imports the program, so no program change can
    alter it: a run's mean calibration measures how fast the shared
    machine was during that run.  On a 2-vCPU VM the speed shifted by a
    third for minutes at a time, both ways, and the calibration moved
    with it: ten fig10-warm runs spread by 0.39 of their median in
    measured seconds and by 0.10 in reference seconds (IQR/median).
    The end-to-end times are therefore reported in reference seconds,
    ``measured * CALIBRATION_REF_S / mean``.
    """
    import numpy

    rng = numpy.random.default_rng(0)
    start = time.perf_counter()
    counts: Dict[int, int] = {}
    for i in range(110_000):
        key = (i * 7919) % 1021
        counts[key] = counts.get(key, 0) + (i & 3)
    sorted(counts.items(), key=lambda item: (item[1], item[0]))
    samples = rng.random(300_000)
    for _ in range(3):
        samples = numpy.sort(numpy.abs(samples - samples.mean()) * 1.5)
    return time.perf_counter() - start


def store_state(store_dir: Path) -> Dict[str, tuple]:
    """Identity of every store file: content hash, size, inode and mtime.

    Lock files hold no data and are left out; a rewrite with identical
    bytes still shows as a new inode or mtime.
    """
    state = {}
    for path in sorted(store_dir.rglob("*")):
        if path.is_file() and not path.name.endswith(".lock"):
            info = path.stat()
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            state[str(path.relative_to(store_dir))] = (digest, info.st_size, info.st_ino,
                                                      info.st_mtime_ns)
    return state


def store_bytes(store_dir: Path) -> int:
    return sum(p.stat().st_size for p in store_dir.rglob("*") if p.is_file())


def _p80(values: List[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[7]


def _rate(counters: dict, base: str) -> float:
    hits = counters.get(base + "/hits", 0)
    lookups = hits + counters.get(base + "/misses", 0)
    return hits / lookups if lookups else 0.0


def layer_metrics(run: Run, traced: dict, untraced: dict, prime_s: float,
                  trace_path: Path, prime: Optional[dict] = None) -> Dict[str, float]:
    """The per-layer metrics of one traced operation.

    Store writes also count those of a traced priming sweep, which is
    where fig10-warm writes its stores.
    """
    recorded = spans.load_spans(traced["spill"])
    primed = spans.load_spans(prime["spill"]) if prime else []
    prime_writes = [span for span in primed if span.name == "persistence.write"]
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(spans.chrome_trace(recorded, traced["op_start_ns"])))
    self_s = spans.layer_self_seconds(recorded)
    by_layer: Dict[str, List[spans.Span]] = {}
    for span in recorded:
        by_layer.setdefault(span.name, []).append(span)

    def durations(layer: str) -> List[float]:
        return [span.duration_s for span in by_layer.get(layer, [])]

    counters = traced["metrics"]["counters"]
    timers = traced["metrics"]["timers"]
    wall = traced["wall_s"]
    covered = spans.top_level_coverage_s(recorded, traced["op_start_ns"], traced["op_end_ns"])
    profiled = {span.args["circuit"] for span in by_layer.get("profiling.profile", [])
                if span.args}
    routes = by_layer.get("mapping.route", [])
    tasks = durations("evaluation.task")
    candidates = counters.get("screening/candidates", 0)
    records = (workloads.parse_records(run.workload, untraced["text"])
               if run.workload.kind == "sweep" and untraced["text"] else [])
    children = run.children
    return {
        "runtime.import_s": statistics.median(
            (c["import_ns"] - c["start_ns"]) / 1e9 for c in children),
        "runtime.backend_ready_s": statistics.median(
            (c["ready_ns"] - c["import_ns"]) / 1e9 for c in children),
        "persistence.prime_s": prime_s,
        "circuit.build_s": self_s.get("circuit.build", 0.0),
        "circuit.build_calls": len(durations("circuit.build")),
        "profiling.profile_s": self_s.get("profiling.profile", 0.0),
        "profiling.profile_calls": len(durations("profiling.profile")),
        "profiling.calls_per_circuit": (len(durations("profiling.profile")) / len(profiled)
                                        if profiled else 0.0),
        "design.generate_s": self_s.get("design.generate", 0.0),
        "design.layout_s": self_s.get("design.layout", 0.0),
        "design.bus_selection_s": self_s.get("design.bus_selection", 0.0),
        "design.alg3_s": self_s.get("design.alg3", 0.0),
        "design.alg3_calls": counters.get("design/allocation_calls", 0),
        "design.frequency_hit_rate": _rate(counters, "design/frequency"),
        "collision.screening_pack_s": timers.get("screening/pack", {}).get("total_s", 0.0),
        "collision.screening_merge_s": timers.get("screening/merge", {}).get("total_s", 0.0),
        "collision.screening_prune_frac": (counters.get("screening/pruned", 0) / candidates
                                           if candidates else 0.0),
        "collision.yield_s": self_s.get("collision.yield", 0.0),
        "collision.yield_calls": len(durations("collision.yield")),
        "collision.yield_ms_p50": 1e3 * statistics.median(durations("collision.yield") or [0.0]),
        "collision.yield_ms_p80": 1e3 * _p80(durations("collision.yield")),
        "mapping.route_s": self_s.get("mapping.route", 0.0),
        "mapping.routes": len(routes),
        "mapping.route_ms_p50": 1e3 * statistics.median(durations("mapping.route") or [0.0]),
        "mapping.route_ms_p80": 1e3 * _p80(durations("mapping.route")),
        "mapping.swaps": sum(span.args["swaps"] for span in routes if span.args),
        "mapping.cache_hit_rate": _rate(counters, "routing/cache"),
        "evaluation.tasks": len(tasks),
        "evaluation.task_s_p50": statistics.median(tasks or [0.0]),
        "evaluation.task_s_max": max(tasks or [0.0]),
        "evaluation.worker_busy_frac": sum(tasks) / wall,
        "evaluation.unattributed_s": wall - covered,
        "evaluation.attribution_coverage": covered / wall,
        "persistence.write_s": (self_s.get("persistence.write", 0.0)
                                + spans.layer_self_seconds(primed).get("persistence.write", 0.0)),
        "persistence.writes": len(durations("persistence.write")) + len(prime_writes),
        "persistence.read_s": self_s.get("persistence.read", 0.0),
        "persistence.reads": len(durations("persistence.read")),
        "persistence.store_bytes": store_bytes(traced["store_dir"]),
        "persistence.warm_rewrites": run.warm_rewrites,
        "trace.overhead_frac": (wall - untraced["wall_s"]) / untraced["wall_s"],
        "quality.routed_gates_total": sum(r["total_gates"] for r in records),
        "quality.yield_mean": (statistics.fmean(r["yield_rate"] for r in records)
                               if records else 0.0),
    }


def environment(run: Run) -> dict:
    """What the result was measured on (informational, never gated)."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").is_dir():
        probe = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    src_lines = 0
    for path in (ROOT / "src").rglob("*.py"):
        with open(path, "rb") as handle:
            src_lines += sum(1 for _ in handle)
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy_version,
        "backend": run.children[-1]["backend"] if run.children else None,
        "commit": commit, "repo.src_lines": src_lines,
    }


def measure(run: Run, seconds: float, trace: bool) -> Dict[str, float]:
    workload = run.workload
    for _ in range(PROBES):
        run.spawn(probe=True)
    prime_s = 0.0
    prime = None
    if workload.primed:
        prime = run.prime(trace=trace)
        prime_s = (prime["exit_ns"] - prime["spawn_ns"]) / 1e9
    if trace:
        untraced = run.operation()
        traced = run.operation(trace=True)
        if untraced["text"] != traced["text"]:
            run.record(workloads.CheckResult(0, {"<traced output>": "differs from untraced"}))
        trace_path = WORK_ROOT / "traces" / f"{workload.name}-seed{run.seed}.trace.json"
        return layer_metrics(run, traced, untraced, prime_s, trace_path, prime)

    ops: List[dict] = []
    loop_start = time.monotonic()
    while not ops or (time.monotonic() - loop_start < seconds
                      and run.elapsed() < LAST_START_S):
        ops.append(run.operation())
    run.calibrate()
    return end_to_end(ops, run.setup_samples(), prime_s, run.speed_factor())


def end_to_end(ops: List[dict], setup_samples: List[float], prime_s: float,
               speed_factor: float) -> Dict[str, float]:
    """The end-to-end metrics: medians over a run's timed operations.

    Times are in reference seconds: measured seconds times the run's
    ``speed_factor``.
    """
    return {
        "wall_s": speed_factor * statistics.median(op["wall_s"] for op in ops),
        "setup_s": speed_factor * (statistics.median(setup_samples) + prime_s),
        "cpu_s": speed_factor * statistics.median(op["cpu_s"] for op in ops),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in ops),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its operation process (see Run.spawn).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = units["per_layer" if args.trace else "end_to_end"]
    run = Run(workloads.WORKLOADS[args.workload], args.seed, workloads.load_golden())
    try:
        values = measure(run, args.seconds, bool(args.trace))
        env = environment(run)
    finally:
        run.close()
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "setup_samples_s": run.setup_samples(), "op_wall_s": run.op_walls,
        "warm_rewrites": run.warm_rewrites, "values": values,
        "calibration_s": run.calibrations,
        "failures": dict(list(run.failures.items())[:10]),
    }, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
