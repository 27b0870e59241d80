"""Public entry point of the qubit mapping substrate.

:func:`route_circuit` maps a logical circuit onto an architecture and
returns a :class:`MappingResult` carrying the performance metric the
paper uses throughout Section 5: the total post-mapping gate count, where
each inserted SWAP costs three CNOTs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.ir import CircuitIR
from repro.hardware.architecture import Architecture
from repro.mapping.sabre import SabreParameters, apply_swap
from repro.profiling.profiler import CircuitProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.mapping.engine import RoutingEngine

#: Number of CNOT gates required to implement one SWAP on hardware.
CNOTS_PER_SWAP = 3


@dataclass
class MappingResult:
    """Outcome of mapping a circuit onto an architecture.

    Attributes:
        circuit_name: Name of the mapped circuit.
        architecture_name: Name of the target architecture.
        original_gates: Gate count of the input circuit (all gate kinds).
        original_two_qubit_gates: Two-qubit gate count of the input circuit.
        num_swaps: SWAPs inserted by the router.
        initial_mapping: The logical -> physical mapping the router started from.
        final_mapping: The mapping after the last routed gate.
        routed_circuit: The physical circuit including explicit swap gates.
    """

    circuit_name: str
    architecture_name: str
    original_gates: int
    original_two_qubit_gates: int
    num_swaps: int
    initial_mapping: Dict[int, int]
    final_mapping: Dict[int, int]
    routed_circuit: Optional[QuantumCircuit] = None

    # With bidirectional passes or restarts enabled, ``initial_mapping`` is
    # the initial mapping of the *winning* forward pass (the mapping from
    # which replaying ``routed_circuit`` reproduces the logical circuit),
    # which may differ from the profile-driven placement the search began at.

    @property
    def total_gates(self) -> int:
        """Total post-mapping gate count (the paper's performance metric).

        Every original gate survives mapping unchanged; each inserted SWAP
        is charged as three CNOTs.
        """
        return self.original_gates + CNOTS_PER_SWAP * self.num_swaps

    @property
    def total_two_qubit_gates(self) -> int:
        """Post-mapping two-qubit gate count."""
        return self.original_two_qubit_gates + CNOTS_PER_SWAP * self.num_swaps

    @property
    def overhead_gates(self) -> int:
        """Gates added by routing."""
        return CNOTS_PER_SWAP * self.num_swaps

    @property
    def overhead_ratio(self) -> float:
        """Routing overhead relative to the original gate count."""
        return self.overhead_gates / self.original_gates if self.original_gates else 0.0

    def summary(self) -> Dict[str, object]:
        return {
            "circuit": self.circuit_name,
            "architecture": self.architecture_name,
            "original_gates": self.original_gates,
            "num_swaps": self.num_swaps,
            "total_gates": self.total_gates,
            "overhead_ratio": round(self.overhead_ratio, 4),
        }


def route_circuit(
    circuit: QuantumCircuit,
    architecture: Architecture,
    profile: Optional[CircuitProfile] = None,
    parameters: Optional[SabreParameters] = None,
    keep_routed_circuit: bool = True,
    engine: Optional["RoutingEngine"] = None,
) -> MappingResult:
    """Map ``circuit`` onto ``architecture`` and report the gate-count metric.

    Args:
        circuit: Logical circuit in the CNOT + single-qubit basis.
        architecture: Target hardware architecture.
        profile: Optional precomputed profile (saves recomputation when the
            caller already profiled the circuit).
        parameters: Optional router tuning parameters (must be omitted when
            ``engine`` is given; the engine's parameters apply).
        keep_routed_circuit: Set to False to drop the physical circuit and
            keep only the counts (saves memory in large sweeps).
        engine: Optional :class:`~repro.mapping.engine.RoutingEngine` to
            route through; shares per-architecture state and memoizes
            results across calls.  Without one, a throwaway engine is used
            (identical results, no reuse).
    """
    from repro.mapping.engine import RoutingEngine

    if engine is None:
        engine = RoutingEngine(parameters)
    elif parameters is not None and parameters != engine.parameters:
        raise ValueError(
            "pass routing parameters either directly or via the engine, not both"
        )
    return engine.route(
        circuit, architecture, profile=profile, keep_routed_circuit=keep_routed_circuit
    )


class _Replay:
    """Replays routing steps against the logical circuit's DAG, checking each.

    The one verifier behind :func:`verify_trace` and :func:`verify_routing`.
    Steps are trace entries (see :class:`~repro.mapping.sabre.SabreRouter`),
    and :meth:`run` checks that

    * every two-qubit gate (including inserted swaps) acts on a coupled
      physical pair;
    * every logical gate executes exactly once, only after every gate it
      depends on, on the physical qubits that host its logical operands
      at that step.
    """

    def __init__(self, ir: CircuitIR, architecture: Architecture,
                 initial_mapping: Dict[int, int]) -> None:
        self.ir = ir
        self.architecture = architecture
        self.width = max(architecture.qubits) + 1
        self.coupled: Set[Tuple[int, int]] = set()
        for a, b in architecture.coupling_edges():
            self.coupled.add((a, b))
            self.coupled.add((b, a))
        self.logical_to_physical = dict(initial_mapping)
        self.physical_to_logical = {p: l for l, p in initial_mapping.items()}
        # Unmet dependencies per gate; -1 marks a gate done, and barrier
        # slots, which never execute, start done.
        self.remaining = [
            -1 if opcode == ir.barrier_opcode else count
            for opcode, count in zip(ir.opcodes, ir.pred_count)
        ]

    def ready(self, g: int) -> bool:
        """True when logical gate ``g`` may execute now."""
        return self.remaining[g] == 0

    def run(self, steps: Iterable[int]) -> None:
        """Replay ``steps`` in order, then require every gate to have executed."""
        ir = self.ir
        size = ir.size
        two_qubit = ir.two_qubit
        operand_a = ir.operand_a
        operand_b = ir.operand_b
        succ_ptr = ir.succ_ptr
        succ = ir.succ
        remaining = self.remaining
        coupled = self.coupled
        width = self.width
        logical_to_physical = self.logical_to_physical
        physical_to_logical = self.physical_to_logical
        executed = 0
        for step in steps:
            if step >= 0:
                if step >= size or remaining[step]:
                    raise AssertionError(
                        f"logical gate {step} executed twice, before a gate it depends "
                        "on, or is no gate of the circuit"
                    )
                if two_qubit[step]:
                    pair = (logical_to_physical[operand_a[step]],
                            logical_to_physical[operand_b[step]])
                    if pair not in coupled:
                        raise AssertionError(
                            f"logical gate {step} acts on uncoupled physical qubits "
                            f"{pair} on architecture {self.architecture.name!r}"
                        )
                remaining[step] = -1
                executed += 1
                for s in succ[succ_ptr[step]:succ_ptr[step + 1]]:
                    remaining[s] -= 1
            else:
                phys_a, phys_b = divmod(~step, width)
                if (phys_a, phys_b) not in coupled:
                    raise AssertionError(
                        f"routing swap on uncoupled physical qubits {(phys_a, phys_b)} "
                        f"on architecture {self.architecture.name!r}"
                    )
                apply_swap(phys_a, phys_b, logical_to_physical, physical_to_logical)
        if executed != ir.num_nodes:
            raise AssertionError(
                f"routed circuit left {ir.num_nodes - executed} logical gates unexecuted"
            )


def verify_trace(
    ir: CircuitIR,
    trace: List[int],
    architecture: Architecture,
    initial_mapping: Dict[int, int],
) -> None:
    """Check that a routing trace (see :class:`~repro.mapping.sabre.SabreRouter`)
    is a faithful execution of the lowered logical circuit ``ir``.

    Linear in the trace length; the routing engine runs it on every route.

    Raises:
        AssertionError: When any check fails (this guards the evaluation
            pipeline against router bugs rather than user input errors).
    """
    _Replay(ir, architecture, initial_mapping).run(trace)


def verify_routing(
    logical: QuantumCircuit,
    routed: QuantumCircuit,
    architecture: Architecture,
    initial_mapping: Dict[int, int],
) -> None:
    """Check that a routed circuit is a faithful execution of the logical circuit.

    Each routed gate is matched to a logical gate by (name, logical
    operands, params), the logical operands recovered through the mapping
    as replayed so far, and the match is replayed with the checks of
    :func:`verify_trace`.  The router may execute gates on disjoint qubits
    in a different order than the source circuit, so the replay checks
    against the dependency DAG rather than the literal gate sequence.

    Raises:
        AssertionError: When any check fails.
    """
    replay = _Replay(logical.lowered(), architecture, initial_mapping)
    replay.run(_matched_steps(logical, routed, replay))


def _matched_steps(
    logical: QuantumCircuit, routed: QuantumCircuit, replay: _Replay,
) -> Iterator[int]:
    """The trace steps a routed circuit spells, matched against live replay state.

    Logical gates sharing a match key share their operands, so they form
    a dependency chain and only the earliest unexecuted one can be
    executable: the match is always that one, found in O(1), so the whole
    check is linear in the routed gate count.
    """
    # Per match key, the logical gates in reverse circuit order (next match last).
    pending: Dict[Tuple, List[int]] = {}
    for g, gate in enumerate(logical.gates):
        if gate.name != "barrier":
            pending.setdefault((gate.name, gate.qubits, gate.params), []).append(g)
    for bucket in pending.values():
        bucket.reverse()
    physical_to_logical = replay.physical_to_logical
    width = replay.width
    for gate in routed.gates:
        if gate.name == "swap":
            # A swap can be a gate of the *program* rather than a router
            # insertion.  Try the logical interpretation first; this is
            # unambiguous for router output, because an executable logical
            # swap in the front would have been executed before the router
            # ever inserted a swap of its own on that coupled pair.
            phys_a, phys_b = gate.qubits
            logical_a = physical_to_logical.get(phys_a)
            logical_b = physical_to_logical.get(phys_b)
            if logical_a is not None and logical_b is not None:
                bucket = pending.get(("swap", (logical_a, logical_b), gate.params))
                if bucket and replay.ready(bucket[-1]):
                    yield bucket.pop()
                    continue
            if (phys_a, phys_b) not in replay.coupled:  # also keeps the encoding exact
                raise AssertionError(
                    f"routed gate {gate} acts on uncoupled physical qubits "
                    f"on architecture {replay.architecture.name!r}"
                )
            yield ~(phys_a * width + phys_b)
            continue
        try:
            operands = tuple([physical_to_logical[q] for q in gate.qubits])
        except KeyError:
            raise AssertionError(
                f"routed gate {gate} acts on a physical qubit hosting no logical qubit"
            ) from None
        bucket = pending.get((gate.name, operands, gate.params))
        if not bucket or not replay.ready(bucket[-1]):
            raise AssertionError(
                f"routed gate {gate} (logical operands {operands}) does not match "
                "any executable logical gate"
            )
        yield bucket.pop()
