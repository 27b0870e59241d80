"""The benchmark's workloads, their seeded inputs and their output checks.

Each workload is one closed-loop client doing one operation per child
process through a public entry point of the program, at the paper's
default settings (10k yield trials, 2k Algorithm 3 local trials,
``passes=3`` routing).  README.md records why each one was chosen.

The workload seed reaches the program only through the
``--runtime-config`` file, as ``yield_seed`` and ``random_bus_seeds``.

The seed sets ``yield_seed`` and the order of ``random_bus_seeds``, a
permutation of the program's default seeds.  Every seed therefore asks
for the same set of architectures and the same amount of work, so the
spread of timings across seeds measures the machine, not the input,
while the outputs (point order, every yield sample) differ per seed.

Output checks.  ``golden.json`` holds, for the committed seeds, the
sha256 of each workload's output bytes and of every point's record.
Any other seed is checked point by point against what no seed changes:
every field but the yield must match its seed-invariant digest, and the
yield must lie within a Monte Carlo tolerance of the first committed
seed's value.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

#: The default seed and the held-out seed that goldens are committed for.
GOLDEN_SEEDS = (7, 31)

FIG10 = ("sym6_145", "UCCSD_ansatz_8", "ising_model_16")

#: The program's default ``random_bus_seeds``, permuted per workload seed.
BUS_SEEDS = (1, 2, 3, 4, 5)

#: Two 10k-trial estimates of one yield differ by at most ~0.0071 (one
#: standard deviation of the difference at p = 0.5); 0.05 is seven of them.
YIELD_TOLERANCE = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "sweep" (repro.cli.main) or "design" (SweepExecutor.enumerate_points)
    benchmarks: Tuple[str, ...] = ()
    #: Whether the sweep runs on ``json:`` routing and design caches that
    #: set-up primes with one cold sweep.
    primed: bool = False


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "fig10-cold",
            "Figure 10 grid of 3 programs with no stores: routing dominates",
            "sweep", FIG10,
        ),
        Workload(
            "fig10-warm",
            "same grid on primed json stores: routing and Algorithm 3 are cache hits, "
            "profiling and yield dominate",
            "sweep", FIG10, primed=True,
        ),
        Workload(
            "design-grid",
            "architecture generation for all 12 programs x 5 configs on a cold engine: "
            "Algorithm 3 and screening dominate",
            "design",
        ),
    )
}


def runtime_config(seed: int) -> dict:
    """The ``--runtime-config`` payload of a workload seed."""
    bus_seeds = random.Random(seed).sample(BUS_SEEDS, len(BUS_SEEDS))
    return {"yield_seed": seed, "random_bus_seeds": bus_seeds}


def sweep_argv(workload: Workload, config_path: Path, store_dir: Path,
               output_path: Path) -> List[str]:
    """``repro.cli.main`` arguments of one sweep operation."""
    argv = ["sweep", *workload.benchmarks, "--jobs", "1",
            "--runtime-config", str(config_path), "--output", str(output_path)]
    if workload.primed:
        argv += ["--routing-cache", f"json:{store_dir / 'routing.json'}",
                 "--design-cache", f"json:{store_dir / 'design.json'}"]
    return argv


# ---------------------------------------------------------------------------
# Output records.
# ---------------------------------------------------------------------------


def architecture_record(benchmark: str, config: str, architecture) -> dict:
    """Canonical record of one generated architecture (design-grid output)."""
    return {
        "benchmark": benchmark,
        "config": config,
        "name": architecture.name,
        "num_qubits": architecture.num_qubits,
        "connections": sorted([list(edge) for edge in architecture.coupling_edges()]),
        "buses": [[bus.bus_type.value, list(bus.qubits)] for bus in architecture.buses],
        "frequencies": sorted([int(q), float(f)] for q, f in architecture.frequencies.items()),
    }


def design_output(points) -> str:
    """The design-grid output text: every architecture record, in order."""
    records = [architecture_record(p.benchmark, p.config.value, p.architecture)
               for p in points]
    return json.dumps(records, sort_keys=True, separators=(",", ":")) + "\n"


def parse_records(workload: Workload, text: str) -> List[dict]:
    """The point records of an output, in output order."""
    data = json.loads(text)
    if workload.kind == "design":
        return data
    return [point for name in workload.benchmarks for point in data[name]]


def record_key(record: dict) -> str:
    name = record.get("architecture_name", record.get("name"))
    return f"{record['benchmark']}/{record['config']}/{name}"


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _invariant(record: dict) -> dict:
    """The fields no workload seed can change."""
    return {k: v for k, v in record.items() if k != "yield_rate"}


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_entry(workload: Workload, outputs: Dict[int, str]) -> dict:
    """The golden.json entry of a workload, from its outputs at GOLDEN_SEEDS.

    The first seed's output gives the seed-invariant digests and the
    yield references that other seeds are checked against.
    """
    entry: dict = {"by_seed": {}}
    for seed, text in outputs.items():
        records = parse_records(workload, text)
        entry["by_seed"][str(seed)] = {
            "sha256": sha256_text(text),
            "points": {record_key(r): _digest(r) for r in records},
        }
    reference = parse_records(workload, next(iter(outputs.values())))
    entry["invariant"] = {record_key(r): _digest(_invariant(r)) for r in reference}
    if workload.kind == "sweep":
        entry["yield_ref"] = {record_key(r): r["yield_rate"] for r in reference}
    return entry


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class CheckResult:
    attempted: int
    #: Failing point key -> the first reason it failed.
    failures: Dict[str, str]

    @property
    def failed(self) -> int:
        return len(self.failures)


def check_output(workload: Workload, golden: dict, seed: int, text: Optional[str]) -> CheckResult:
    """Compare one operation's output with the golden; counts points."""
    entry = golden["workloads"][workload.name]
    by_seed = entry["by_seed"].get(str(seed))
    expected = by_seed["points"] if by_seed else entry["invariant"]
    if text is None:
        return CheckResult(len(expected), {key: "no output" for key in expected})
    try:
        records = parse_records(workload, text)
        keys = [record_key(record) for record in records]
    except (ValueError, KeyError, TypeError) as error:
        return CheckResult(len(expected), {key: f"unreadable output: {error}"
                                           for key in expected})
    seen = set()
    failures: Dict[str, str] = {}
    for record, key in zip(records, keys):
        try:
            reason = _point_problem(workload, entry, by_seed, expected, record, key, seen)
        except (KeyError, TypeError, ValueError):
            reason = "malformed record"
        seen.add(key)
        if reason:
            failures.setdefault(key, reason)
    for key in expected:
        if key not in seen:
            failures[key] = "missing"
    attempted = len(seen | set(expected))
    if not failures and by_seed and sha256_text(text) != by_seed["sha256"]:
        failures["<output>"] = "output bytes differ from golden"
    return CheckResult(attempted, failures)


def _point_problem(workload: Workload, entry: dict, by_seed: Optional[dict], expected: dict,
                   record: dict, key: str, seen: set) -> Optional[str]:
    """Why one point fails its check, or None when it passes."""
    if key in seen:
        return "duplicate point"
    if by_seed:
        return None if _digest(record) == expected.get(key) else "differs from golden"
    if _digest(_invariant(record)) != expected.get(key):
        return "seed-invariant fields differ from golden"
    if (workload.kind == "sweep"
            and abs(record["yield_rate"] - entry["yield_ref"][key]) > YIELD_TOLERANCE):
        return "yield outside the Monte Carlo tolerance"
    return None
