"""Routing engine benchmark: incremental SABRE vs the pre-refactor router.

Regenerates the evidence for the routing overhaul's two claims on the
Figure 10 evaluation grid (benchmark x architecture):

* **Speedup** — the :class:`~repro.mapping.engine.RoutingEngine`
  (incremental numpy candidate scoring, shared per-architecture state,
  linear-time verification) routes the grid at least ``MIN_SPEEDUP``
  times faster than the pre-refactor pipeline, and memoized re-routes are
  effectively free.
* **Quality** — per-point swap counts are never worse than the
  pre-refactor router's, and the evaluation default (``passes=3``
  bidirectional refinement) never loses to the single forward pass on
  any point while strictly improving the grid total — the regression
  gate that pins the quality win behind the default flip.
* **Identity** — per-point swap counts at ``passes=1`` and ``passes=3``
  equal the committed goldens in ``baselines/BENCH_routing_swaps.json``
  exactly, and each grid's ``passes=3`` total is pinned in
  ``PASSES3_TOTALS`` (3963 is the quick grid's, the figure quoted since
  the ``passes=3`` default flip).

The pre-refactor pipeline is frozen below (``_Reference*`` classes): the
original per-candidate dict-copy ``_choose_swap``, the original
front-layer machinery, and the original quadratic ``verify_routing``,
exactly as they stood before the routing overhaul.

Run styles:

* ``python benchmarks/bench_routing.py [--quick] [--json PATH]`` —
  standalone; writes a text table to ``benchmarks/results/`` and a JSON
  record (default ``benchmarks/results/BENCH_routing.json``) for the CI
  perf-trajectory artifact.
* ``python -m pytest benchmarks/bench_routing.py`` — same run wrapped in
  a test with the speedup/quality assertions.
* ``python benchmarks/bench_routing.py --write-goldens`` — recompute the
  swap-count goldens of both grids at both pass counts and rewrite
  ``baselines/BENCH_routing_swaps.json`` (no timing, no checks).
"""

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

sys.path.insert(0, str(Path(__file__).parent))

from repro.benchmarks import get_benchmark
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import CircuitDAG, DAGNode, ExecutionFrontier
from repro.circuit.gates import Gate
from repro.design import DesignFlow, DesignOptions
from repro.hardware import ibm_16q_2x8, ibm_20q_4x5
from repro.mapping import DistanceMatrix, RoutingEngine, SabreParameters, initial_mapping
from repro.profiling import profile_circuit
from repro.runtime.config import DEFAULT_EVALUATION_ROUTING

from _bench_utils import RESULTS_DIR, write_result

#: Minimum acceptable grid speedup of the new engine over the reference.
MIN_SPEEDUP = 3.0

#: Relaxed floor for shared CI runners, where noisy neighbours make
#: wall-clock ratios jitter; the JSON artifact still records the true
#: ratio, so the perf trajectory catches slow drift either way.
CI_MIN_SPEEDUP = 2.0

#: Committed per-point swap counts of both grids at passes=1 and passes=3.
SWAP_GOLDENS = Path(__file__).parent / "baselines" / "BENCH_routing_swaps.json"

#: Each grid's swap total at the passes=3 evaluation default.
PASSES3_TOTALS = {"quick": 3963, "full": 6175}

#: Benchmarks of the quick grid (CI); the full grid adds the rest.
QUICK_GRID_BENCHMARKS = ("sym6_145", "z4_268", "adr4_197", "qft_16", "ising_model_16")
FULL_GRID_BENCHMARKS = QUICK_GRID_BENCHMARKS + (
    "UCCSD_ansatz_8", "dc1_220", "cm152a_212",
)


# ---------------------------------------------------------------------------
# Frozen pre-refactor pipeline (the router as it stood before this PR).
# ---------------------------------------------------------------------------


class _ReferenceFrontier:
    """The original ExecutionFrontier: dict counters, sort-heavy look-ahead."""

    def __init__(self, dag: CircuitDAG) -> None:
        self._dag = dag
        self._remaining_preds: Dict[int, int] = {
            node.index: len(node.predecessors) for node in dag.nodes()
        }
        self._front: Set[int] = {i for i, count in self._remaining_preds.items() if count == 0}
        self._executed: Set[int] = set()

    @property
    def done(self) -> bool:
        return len(self._executed) == self._dag.num_nodes

    @property
    def num_executed(self) -> int:
        return len(self._executed)

    def front_nodes(self) -> List[DAGNode]:
        return [self._dag.node(i) for i in sorted(self._front)]

    def execute(self, index: int) -> List[DAGNode]:
        if index not in self._front:
            raise ValueError(f"gate {index} is not currently executable")
        self._front.discard(index)
        self._executed.add(index)
        unblocked: List[DAGNode] = []
        for succ in sorted(self._dag.node(index).successors):
            self._remaining_preds[succ] -= 1
            if self._remaining_preds[succ] == 0:
                self._front.add(succ)
                unblocked.append(self._dag.node(succ))
        return unblocked

    def lookahead_nodes(self, depth: int) -> List[DAGNode]:
        result: List[DAGNode] = []
        seen: Set[int] = set(self._front) | self._executed
        queue: List[int] = []
        for index in sorted(self._front):
            queue.extend(sorted(self._dag.node(index).successors))
        while queue and len(result) < depth:
            index = queue.pop(0)
            if index in seen:
                continue
            seen.add(index)
            node = self._dag.node(index)
            if node.gate.is_two_qubit:
                result.append(node)
            queue.extend(sorted(node.successors))
        return result


class _ReferenceRouter:
    """The original SabreRouter: per-candidate dict copies, Python-loop costs.

    Identical heuristic constants to the live router; only the machinery
    differs.  The one intentional fidelity point: the dead neutral-swap
    filter (a ``pass``) is preserved exactly as it was.
    """

    def __init__(self, architecture, parameters=None) -> None:
        from repro.mapping import SabreParameters

        self.architecture = architecture
        self.parameters = parameters or SabreParameters()
        self.distances = DistanceMatrix(architecture)
        self._coupled: Set[Tuple[int, int]] = set()
        for a, b in architecture.coupling_edges():
            self._coupled.add((a, b))
            self._coupled.add((b, a))

    def route(self, circuit: QuantumCircuit, initial: Dict[int, int]):
        dag = CircuitDAG(circuit)
        frontier = _ReferenceFrontier(dag)
        logical_to_physical = dict(initial)
        physical_to_logical = {p: l for l, p in logical_to_physical.items()}

        max_physical = max(self.architecture.qubits) + 1
        routed = QuantumCircuit(max_physical, name=f"{circuit.name}@{self.architecture.name}")
        num_swaps = 0
        swap_budget = self.parameters.max_swaps_per_gate * max(1, circuit.num_two_qubit_gates)
        decay: Dict[int, float] = {q: 1.0 for q in self.architecture.qubits}
        swaps_since_reset = 0
        swaps_since_progress = 0
        stall_threshold = int(3 * self.distances.diameter()) + 8

        while not frontier.done:
            executed_any = self._execute_ready_gates(frontier, logical_to_physical, routed)
            if frontier.done:
                break
            if executed_any:
                swaps_since_progress = 0
                continue
            blocked = [node for node in frontier.front_nodes() if node.gate.is_two_qubit]
            if not blocked:
                raise RuntimeError("router stalled with no blocked two-qubit gates")
            if swaps_since_progress >= stall_threshold:
                num_swaps += self._force_route(
                    blocked[0], logical_to_physical, physical_to_logical, routed
                )
                swaps_since_progress = 0
                continue
            swap = self._choose_swap(blocked, frontier, logical_to_physical, decay)
            if swap is None:
                raise RuntimeError("no useful SWAP found")
            self._apply_swap(swap, logical_to_physical, physical_to_logical, routed)
            num_swaps += 1
            swaps_since_reset += 1
            swaps_since_progress += 1
            for qubit in swap:
                decay[qubit] = decay.get(qubit, 1.0) + self.parameters.decay_factor
            if swaps_since_reset >= self.parameters.decay_reset_interval:
                decay = {q: 1.0 for q in self.architecture.qubits}
                swaps_since_reset = 0
            if num_swaps > swap_budget:
                raise RuntimeError(f"router exceeded swap budget ({swap_budget})")
        return routed, num_swaps, logical_to_physical

    def _force_route(self, node, logical_to_physical, physical_to_logical, routed) -> int:
        logical_a, logical_b = node.gate.qubits
        applied = 0
        while True:
            phys_a = logical_to_physical[logical_a]
            phys_b = logical_to_physical[logical_b]
            current = self.distances.distance(phys_a, phys_b)
            if current <= 1:
                return applied
            step = min(
                (n for n in self.architecture.neighbors(phys_a)
                 if self.distances.distance(n, phys_b) < current),
                default=None,
            )
            if step is None:
                raise RuntimeError("coupling graph is disconnected")
            self._apply_swap((phys_a, step), logical_to_physical, physical_to_logical, routed)
            applied += 1

    def _execute_ready_gates(self, frontier, logical_to_physical, routed) -> bool:
        executed_any = False
        progress = True
        while progress:
            progress = False
            for node in frontier.front_nodes():
                if self._is_executable(node.gate, logical_to_physical):
                    routed.append(node.gate.remap(logical_to_physical))
                    frontier.execute(node.index)
                    executed_any = True
                    progress = True
        return executed_any

    def _is_executable(self, gate: Gate, logical_to_physical) -> bool:
        if not gate.is_two_qubit:
            return True
        a, b = gate.qubits
        return (logical_to_physical[a], logical_to_physical[b]) in self._coupled

    def _choose_swap(self, blocked, frontier, logical_to_physical, decay):
        involved_physical = set()
        for node in blocked:
            for logical in node.gate.qubits:
                involved_physical.add(logical_to_physical[logical])
        candidates = [
            (a, b)
            for a, b in self.architecture.coupling_edges()
            if a in involved_physical or b in involved_physical
        ]
        if not candidates:
            return None
        extended = frontier.lookahead_nodes(self.parameters.extended_set_size)
        physical_to_logical = {p: l for l, p in logical_to_physical.items()}
        best_swap = None
        best_score = None
        baseline_front = self._front_cost(blocked, logical_to_physical)
        for swap in candidates:
            trial = dict(logical_to_physical)
            self._swap_mapping(swap, trial, physical_to_logical)
            front_cost = self._front_cost(blocked, trial)
            if front_cost >= baseline_front and len(candidates) > 1:
                # The pre-refactor dead filter, preserved verbatim.
                pass
            extended_cost = self._front_cost(extended, trial) if extended else 0.0
            score = front_cost / max(1, len(blocked))
            if extended:
                score += self.parameters.extended_set_weight * extended_cost / len(extended)
            score *= max(decay.get(swap[0], 1.0), decay.get(swap[1], 1.0))
            key = (score, swap)
            if best_score is None or key < best_score:
                best_score = key
                best_swap = swap
        return best_swap

    def _front_cost(self, nodes, logical_to_physical) -> float:
        cost = 0.0
        for node in nodes:
            if not node.gate.is_two_qubit:
                continue
            a, b = node.gate.qubits
            cost += self.distances.distance(logical_to_physical[a], logical_to_physical[b])
        return cost

    @staticmethod
    def _swap_mapping(swap, logical_to_physical, physical_to_logical) -> None:
        phys_a, phys_b = swap
        logical_a = physical_to_logical.get(phys_a)
        logical_b = physical_to_logical.get(phys_b)
        if logical_a is not None:
            logical_to_physical[logical_a] = phys_b
        if logical_b is not None:
            logical_to_physical[logical_b] = phys_a

    def _apply_swap(self, swap, logical_to_physical, physical_to_logical, routed) -> None:
        phys_a, phys_b = swap
        logical_a = physical_to_logical.get(phys_a)
        logical_b = physical_to_logical.get(phys_b)
        routed.append(Gate("swap", (phys_a, phys_b)))
        if logical_a is not None:
            logical_to_physical[logical_a] = phys_b
        if logical_b is not None:
            logical_to_physical[logical_b] = phys_a
        if logical_a is not None:
            physical_to_logical[phys_b] = logical_a
        else:
            physical_to_logical.pop(phys_b, None)
        if logical_b is not None:
            physical_to_logical[phys_a] = logical_b
        else:
            physical_to_logical.pop(phys_a, None)


def _reference_verify(logical, routed, architecture, initial) -> None:
    """The original quadratic verify_routing (front rescanned per gate)."""
    coupled = set()
    for a, b in architecture.coupling_edges():
        coupled.add((a, b))
        coupled.add((b, a))
    physical_to_logical = {p: l for l, p in initial.items()}
    frontier = _ReferenceFrontier(CircuitDAG(logical))
    for gate in routed.gates:
        if gate.is_two_qubit and tuple(gate.qubits) not in coupled:
            raise AssertionError(f"routed gate {gate} acts on uncoupled physical qubits")
        if gate.name == "swap":
            phys_a, phys_b = gate.qubits
            logical_a = physical_to_logical.get(phys_a)
            logical_b = physical_to_logical.get(phys_b)
            if logical_a is not None:
                physical_to_logical[phys_b] = logical_a
            else:
                physical_to_logical.pop(phys_b, None)
            if logical_b is not None:
                physical_to_logical[phys_a] = logical_b
            else:
                physical_to_logical.pop(phys_a, None)
            continue
        recovered = tuple(physical_to_logical[q] for q in gate.qubits)
        match = None
        for node in frontier.front_nodes():
            if node.gate.name == gate.name and node.gate.qubits == recovered \
                    and node.gate.params == gate.params:
                match = node
                break
        if match is None:
            raise AssertionError(f"routed gate {gate} does not match any executable gate")
        frontier.execute(match.index)
    if not frontier.done:
        raise AssertionError("routed circuit left logical gates unexecuted")


def _reference_route_point(circuit, architecture, profile) -> int:
    """The pre-refactor route_circuit pipeline for one evaluation point."""
    distances = DistanceMatrix(architecture)
    mapping = initial_mapping(profile, architecture, distances)
    router = _ReferenceRouter(architecture)
    routed, num_swaps, _final = router.route(circuit, mapping)
    _reference_verify(circuit, routed, architecture, mapping)
    return num_swaps


# ---------------------------------------------------------------------------
# The benchmark harness.
# ---------------------------------------------------------------------------


def _grid(quick: bool):
    """The evaluation-grid points: benchmark x (IBM baselines + one design)."""
    names = QUICK_GRID_BENCHMARKS if quick else FULL_GRID_BENCHMARKS
    points = []
    for name in names:
        circuit = get_benchmark(name)
        profile = profile_circuit(circuit)
        targets = {
            "ibm_16q_2x8_2qbus": ibm_16q_2x8(False),
            "ibm_16q_2x8_4qbus": ibm_16q_2x8(True),
            "ibm_20q_4x5_4qbus": ibm_20q_4x5(True),
            "eff_0_buses": DesignFlow(circuit, DesignOptions(local_trials=200)).design(0),
        }
        for arch_name, architecture in targets.items():
            if architecture.num_qubits >= circuit.num_qubits:
                points.append((name, arch_name, circuit, profile, architecture))
    return points


def _time_grid(route_point, points, repeats: int):
    """Best-of-``repeats`` wall time to route every grid point.

    ``route_point(circuit, profile, architecture)`` must return the swap
    count; the counts collected during the first repeat are returned so the
    grid is never routed an extra time just to harvest them.
    """
    best = float("inf")
    swaps = None
    for repeat in range(repeats):
        counts = {}
        start = time.perf_counter()
        for name, arch_name, circuit, profile, architecture in points:
            counts[(name, arch_name)] = route_point(circuit, profile, architecture)
        best = min(best, time.perf_counter() - start)
        if repeat == 0:
            swaps = counts
    return best, swaps


def swap_counts(points, parameters) -> Dict[str, int]:
    """Swap count per grid point (``"benchmark/architecture"``) on a fresh engine."""
    engine = RoutingEngine(parameters)
    return {
        f"{name}/{arch_name}": engine.route(
            circuit, architecture, profile=profile, keep_routed_circuit=False
        ).num_swaps
        for name, arch_name, circuit, profile, architecture in points
    }


def write_goldens(path: Path = SWAP_GOLDENS) -> dict:
    """Recompute and write the swap-count goldens of both grids."""
    record = {"bench": "routing-swaps",
              "generated_by": "python benchmarks/bench_routing.py --write-goldens"}
    for grid, quick in (("quick", True), ("full", False)):
        points = _grid(quick)
        record[grid] = {
            f"passes={passes}": swap_counts(points, SabreParameters(passes=passes))
            for passes in (1, 3)
        }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return record


def run_bench(quick: bool = False, repeats: int = 3) -> dict:
    """Route the grid with both pipelines; return the comparison record."""
    points = _grid(quick)

    reference_time, reference_swaps = _time_grid(
        lambda circuit, profile, architecture: _reference_route_point(
            circuit, architecture, profile
        ),
        points,
        repeats,
    )

    # Cold timing: a fresh engine per repeat (no memoized results carried
    # over); the last repeat's engine serves the warm-pass measurement.
    engine_time = float("inf")
    engine = None
    engine_swaps = None
    for repeat in range(repeats):
        engine = RoutingEngine()
        counts = {}
        start = time.perf_counter()
        for name, arch_name, circuit, profile, architecture in points:
            result = engine.route(circuit, architecture, profile=profile,
                                  keep_routed_circuit=False)
            counts[(name, arch_name)] = result.num_swaps
        engine_time = min(engine_time, time.perf_counter() - start)
        if repeat == 0:
            engine_swaps = counts

    # Warm timing: the memoized second pass over the same grid.
    start = time.perf_counter()
    for _name, _arch_name, circuit, profile, architecture in points:
        engine.route(circuit, architecture, profile=profile, keep_routed_circuit=False)
    warm_time = time.perf_counter() - start

    # Quality pass: the evaluation default (bidirectional passes=3
    # refinement) over the same grid.  Swap counts only — the refinement
    # trades extra routing time for fewer SWAPs, and the persistent
    # routing cache absorbs that cost across invocations.
    bidirectional_engine = RoutingEngine(DEFAULT_EVALUATION_ROUTING)
    bidirectional_swaps = {}
    for name, arch_name, circuit, profile, architecture in points:
        result = bidirectional_engine.route(circuit, architecture, profile=profile,
                                            keep_routed_circuit=False)
        bidirectional_swaps[(name, arch_name)] = result.num_swaps

    rows = []
    for name, arch_name, circuit, _profile, _architecture in points:
        ref = reference_swaps[(name, arch_name)]
        new = engine_swaps[(name, arch_name)]
        bidirectional = bidirectional_swaps[(name, arch_name)]
        rows.append({
            "point": f"{name}/{arch_name}",
            "benchmark": name,
            "architecture": arch_name,
            "reference_swaps": ref,
            "engine_swaps": new,
            "bidirectional_swaps": bidirectional,
            "regressed": new > ref,
            "bidirectional_regressed": bidirectional > new,
        })
    return {
        "bench": "routing",
        "quick": quick,
        "repeats": repeats,
        "points": len(points),
        "reference_time_s": round(reference_time, 4),
        "engine_time_s": round(engine_time, 4),
        "warm_time_s": round(warm_time, 6),
        "speedup": round(reference_time / engine_time, 2),
        "warm_speedup": round(reference_time / warm_time, 1) if warm_time else None,
        "engine_total_swaps": sum(row["engine_swaps"] for row in rows),
        "bidirectional_total_swaps": sum(row["bidirectional_swaps"] for row in rows),
        "bidirectional_passes": DEFAULT_EVALUATION_ROUTING.passes,
        "cache": engine.cache.stats(),
        "rows": rows,
    }


def render_table(record: dict) -> str:
    lines = [
        "Routing engine vs pre-refactor SABRE pipeline "
        f"({record['points']} evaluation-grid points, best of {record['repeats']})",
        "",
        f"{'benchmark':<16} {'architecture':<20} {'ref swaps':>9} {'new swaps':>9} "
        f"{'bidi swaps':>10}",
    ]
    for row in record["rows"]:
        lines.append(
            f"{row['benchmark']:<16} {row['architecture']:<20} "
            f"{row['reference_swaps']:>9} {row['engine_swaps']:>9} "
            f"{row['bidirectional_swaps']:>10}"
        )
    lines += [
        "",
        f"reference pipeline : {record['reference_time_s'] * 1e3:9.1f} ms",
        f"routing engine     : {record['engine_time_s'] * 1e3:9.1f} ms "
        f"({record['speedup']:.1f}x)",
        f"memoized re-route  : {record['warm_time_s'] * 1e3:9.2f} ms "
        f"(cache: {record['cache']['hits']} hits / {record['cache']['misses']} misses)",
        f"grid swap totals   : {record['engine_total_swaps']} single-pass -> "
        f"{record['bidirectional_total_swaps']} with passes="
        f"{record['bidirectional_passes']} (the evaluation default)",
    ]
    return "\n".join(lines)


def check_record(record: dict, min_speedup: float = MIN_SPEEDUP) -> None:
    """The acceptance assertions shared by the test and script entry points."""
    goldens = json.loads(SWAP_GOLDENS.read_text(encoding="utf-8"))
    for name, total in PASSES3_TOTALS.items():
        assert sum(goldens[name]["passes=3"].values()) == total, (
            f"the committed {name}-grid passes=3 goldens no longer total {total}"
        )
    name = "quick" if record["quick"] else "full"
    grid = goldens[name]
    for column, passes in (("engine_swaps", "passes=1"), ("bidirectional_swaps", "passes=3")):
        measured = {row["point"]: row[column] for row in record["rows"]}
        assert measured == grid[passes], (
            f"{passes} swap counts differ from {SWAP_GOLDENS.name}: "
            + str({point: (count, grid[passes].get(point))
                   for point, count in measured.items() if count != grid[passes].get(point)})
        )
    assert record["bidirectional_total_swaps"] == PASSES3_TOTALS[name], (
        f"{name}-grid passes=3 swap total {record['bidirectional_total_swaps']} "
        f"is not {PASSES3_TOTALS[name]}"
    )
    regressed = [row for row in record["rows"] if row["regressed"]]
    assert not regressed, f"swap-count regressions vs pre-refactor router: {regressed}"
    assert record["speedup"] >= min_speedup, (
        f"routing speedup {record['speedup']:.2f}x below the {min_speedup}x bar"
    )
    # The quality gate behind the passes=3 evaluation default: the
    # bidirectional refinement never loses a point to the single forward
    # pass, and it strictly improves the grid total.
    bidirectional_regressed = [
        row for row in record["rows"] if row["bidirectional_regressed"]
    ]
    assert not bidirectional_regressed, (
        f"bidirectional refinement regressed swap counts: {bidirectional_regressed}"
    )
    assert record["bidirectional_total_swaps"] < record["engine_total_swaps"], (
        "bidirectional refinement no longer improves the grid swap total "
        f"({record['bidirectional_total_swaps']} vs {record['engine_total_swaps']}); "
        "the passes=3 evaluation default has lost its justification"
    )


def _write_json(record: dict, path: Optional[Path]) -> Path:
    path = path or (RESULTS_DIR / "BENCH_routing.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def test_routing_speedup_and_quality():
    """Pytest entry: quick grid, same assertions as the CI smoke job."""
    record = run_bench(quick=True)
    write_result("table_routing_speedup", render_table(record))
    _write_json(record, None)
    check_record(record)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced grid (CI smoke job)")
    parser.add_argument("--json", type=Path, default=None,
                        help="JSON output path (default benchmarks/results/BENCH_routing.json)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats per timing (default 3)")
    parser.add_argument("--min-speedup", type=float, default=MIN_SPEEDUP,
                        help=f"speedup assertion floor (default {MIN_SPEEDUP}; "
                             f"CI uses {CI_MIN_SPEEDUP} to tolerate noisy shared runners)")
    parser.add_argument("--write-goldens", action="store_true",
                        help=f"rewrite {SWAP_GOLDENS.name} from both grids and exit")
    args = parser.parse_args(argv)
    if args.write_goldens:
        write_goldens()
        print(f"wrote {SWAP_GOLDENS}")
        return 0
    record = run_bench(quick=args.quick, repeats=args.repeats)
    write_result("table_routing_speedup", render_table(record))
    json_path = _write_json(record, args.json)
    print(f"\nJSON record: {json_path}")
    check_record(record, min_speedup=args.min_speedup)
    return 0


if __name__ == "__main__":
    sys.exit(main())
