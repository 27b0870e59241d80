"""SABRE-style look-ahead SWAP routing.

This reimplements the heuristic search of Li, Ding, Xie (ASPLOS 2019),
the mapper the paper uses as its performance oracle.  Starting from an
initial logical-to-physical mapping, the router repeatedly:

1. executes every gate in the dependency front layer whose operands are
   mapped to directly coupled physical qubits (single-qubit gates and
   measurements are always executable);
2. when the front layer is blocked, evaluates candidate SWAPs on physical
   couplings adjacent to the blocked gates and applies the one minimizing
   a distance-based cost that mixes the front layer with an *extended set*
   of upcoming two-qubit gates, damped by a decay factor that discourages
   ping-ponging on the same qubits.

Candidate SWAPs are scored **incrementally**.  The pre-refactor router
copied the full logical-to-physical dict per candidate and re-walked the
whole front layer; here, the front and extended-set gates become *slot
tables* (current distance-matrix endpoint indices per gate, plus base
cost sums and a reverse index from physical position to slots), rebuilt
only when gates execute.  A candidate swap then only rescores the few
slots its two endpoints touch — O(affected gates) per candidate instead
of O(front + extended) — and the applied swap updates the tables in
place.  The arithmetic reproduces the full recomputation bit-for-bit
(coupling distances are small integers, so the cost sums are exact).

Two refinements from the original SABRE work sit behind
:class:`SabreParameters` knobs (:meth:`SabreRouter.route_best`):

* **bidirectional passes** — route forward, then route the reversed
  circuit starting from the final mapping, then forward again; each pass
  seeds the next pass's initial mapping, letting the mapping adapt to
  both ends of the circuit;
* **seeded restarts** — best-of-k over deterministically perturbed
  initial mappings.

The output records the number of inserted SWAPs; the paper's performance
metric (total post-mapping gate count) charges three CNOTs per SWAP.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import CircuitDAG, DAGNode, ExecutionFrontier
from repro.circuit.gates import Gate
from repro.hardware.architecture import Architecture
from repro.mapping.distance import DistanceMatrix
from repro.utils.rng import deterministic_rng
from repro.utils.validation import finite, integral


@dataclass(frozen=True)
class SabreParameters:
    """Tunable parameters of the SWAP search heuristic.

    Attributes:
        extended_set_size: How many upcoming two-qubit gates beyond the
            front layer participate in the cost (look-ahead window).
        extended_set_weight: Relative weight of the extended set term.
        decay_factor: Additional cost multiplier applied to swaps touching
            recently swapped qubits.
        decay_reset_interval: Number of swaps after which decay factors reset.
        max_swaps_per_gate: Safety valve: abort if the router inserts more
            than this many swaps per two-qubit gate (indicates a
            disconnected architecture or a heuristic livelock).
        passes: Number of routing passes in :meth:`SabreRouter.route_best`.
            Must be odd: passes alternate forward / reverse / forward ...,
            and only forward passes produce a usable routed circuit.
            ``1`` is the classic single forward pass; ``3`` is the
            forward-backward-forward refinement of the SABRE paper.
        restarts: Best-of-k restarts in :meth:`SabreRouter.route_best`.
            Restart 0 uses the caller's initial mapping verbatim; restarts
            1..k-1 apply seeded random transpositions to it.  The result
            with the fewest swaps (earliest restart on ties) wins.
        seed: Seed of the restart perturbations (ignored for ``restarts=1``).
        stall_threshold: Number of consecutive swaps without executing a
            gate after which the livelock escape hatch kicks in.  ``None``
            derives a threshold from the coupling-graph diameter.
    """

    extended_set_size: int = 20
    extended_set_weight: float = 0.5
    decay_factor: float = 0.001
    decay_reset_interval: int = 5
    max_swaps_per_gate: int = 64
    passes: int = 1
    restarts: int = 1
    seed: int = 11
    stall_threshold: Optional[int] = None

    def __post_init__(self) -> None:
        # Coerce at the boundary: the parameters are part of every routing
        # cache key and store record, so 20 and 20.0 must spell one key.
        for name, minimum in (
            ("extended_set_size", 0), ("decay_reset_interval", 0),
            ("max_swaps_per_gate", 0), ("restarts", 1), ("seed", None),
        ):
            object.__setattr__(self, name, integral(name, getattr(self, name), minimum))
        for name in ("extended_set_weight", "decay_factor"):
            object.__setattr__(self, name, finite(name, getattr(self, name), 0.0))
        if self.stall_threshold is not None:
            object.__setattr__(self, "stall_threshold", integral(
                "stall_threshold", self.stall_threshold, 0
            ))
        passes = integral("passes", self.passes)
        if passes < 1 or passes % 2 == 0:
            raise ValueError(
                f"passes must be a positive odd number (forward passes produce results, "
                f"reverse passes only refine the mapping); got {passes}"
            )
        object.__setattr__(self, "passes", passes)


class SabreRouter:
    """Routes a circuit onto an architecture, inserting SWAPs as needed.

    Construction builds the distance matrix and candidate-edge tables, so
    a router is worth reusing across circuits — the
    :class:`~repro.mapping.engine.RoutingEngine` keeps one per distinct
    architecture.

    Args:
        architecture: Target hardware architecture.
        parameters: Optional tuning parameters.
    """

    def __init__(
        self,
        architecture: Architecture,
        parameters: Optional[SabreParameters] = None,
    ) -> None:
        self.architecture = architecture
        self.parameters = parameters or SabreParameters()
        self.distances = DistanceMatrix(architecture)
        # Distance rows as plain nested lists: the scoring loops index a
        # handful of scalar entries per candidate, where list indexing beats
        # numpy scalar indexing by a wide margin.
        self._dist_rows: List[List[float]] = self.distances.array.tolist()
        self._coupled: set = set()
        for a, b in architecture.coupling_edges():
            self._coupled.add((a, b))
            self._coupled.add((b, a))
        # Candidate-edge tables, in distance-matrix index space.
        # coupling_edges() is sorted (a, b) with a < b, which fixes the
        # deterministic tie-break order of equal-score candidates.
        index_of = self.distances.index_of
        self._edges: List[Tuple[int, int]] = architecture.coupling_edges()
        self._edge_a: List[int] = [index_of(a) for a, _ in self._edges]
        self._edge_b: List[int] = [index_of(b) for _, b in self._edges]
        self._edges_at: Dict[int, List[int]] = {index_of(q): [] for q in architecture.qubits}
        for edge_index in range(len(self._edges)):
            self._edges_at[self._edge_a[edge_index]].append(edge_index)
            self._edges_at[self._edge_b[edge_index]].append(edge_index)

    # -- public API ------------------------------------------------------------

    def route(
        self,
        circuit: QuantumCircuit,
        initial_mapping: Dict[int, int],
        dag: Optional[CircuitDAG] = None,
    ) -> Tuple[QuantumCircuit, int, Dict[int, int]]:
        """Route ``circuit`` starting from ``initial_mapping`` (one forward pass).

        Args:
            circuit: Logical circuit (CNOT + single-qubit basis).
            initial_mapping: logical qubit -> physical qubit; must be injective
                and cover every logical qubit of the circuit.
            dag: Optional prebuilt dependency DAG of ``circuit`` (routing
                never mutates it, so one DAG serves any number of passes).

        Returns:
            ``(physical_circuit, num_swaps, final_mapping)`` where
            ``physical_circuit`` contains the original gates rewritten onto
            physical qubit indices with explicit ``swap`` gates inserted.
        """
        self._validate_mapping(circuit, initial_mapping)
        frontier = ExecutionFrontier(dag if dag is not None else CircuitDAG(circuit))
        logical_to_physical = dict(initial_mapping)
        physical_to_logical = {p: l for l, p in logical_to_physical.items()}
        index_of = self.distances.index_of
        # positions[l] = distance-matrix index of the physical qubit hosting
        # logical l; kept in lockstep with logical_to_physical.  The mapping
        # may carry extra logical keys beyond the circuit's register (they
        # pin physical qubits but never appear in a gate), so only circuit
        # logicals are tracked.
        positions: List[int] = [0] * circuit.num_qubits
        for logical, physical in logical_to_physical.items():
            if logical < circuit.num_qubits:
                positions[logical] = index_of(physical)

        max_physical = max(self.architecture.qubits) + 1
        routed = QuantumCircuit(max_physical, name=f"{circuit.name}@{self.architecture.name}")
        num_swaps = 0
        swap_budget = self.parameters.max_swaps_per_gate * max(1, circuit.num_two_qubit_gates)
        num_positions = len(self._dist_rows)
        decay: List[float] = [1.0] * num_positions
        decay_factor = self.parameters.decay_factor
        swaps_since_reset = 0
        swaps_since_progress = 0
        stall_threshold = self.parameters.stall_threshold
        if stall_threshold is None:
            stall_threshold = int(3 * self.distances.diameter()) + 8

        # Execute everything executable up front; from here on, gates only
        # become executable as a consequence of swaps.
        self._execute_ready_gates(frontier, logical_to_physical, routed)

        dist_rows = self._dist_rows
        while not frontier.done:
            # The blocked front and the extended look-ahead set only change
            # when gates execute, not when swaps are applied, so the slot
            # tables are rebuilt once per execution event rather than per
            # swap decision.
            blocked = [node for node in frontier.front_nodes() if node.two_qubit]
            if not blocked:
                # Only non-two-qubit gates remain but none executed: impossible,
                # since those are always executable.
                raise RuntimeError("router stalled with no blocked two-qubit gates")
            extended = frontier.lookahead_nodes(self.parameters.extended_set_size)

            # Slot tables: per pending gate (front first, then extended), the
            # distance-matrix indices its operands currently occupy, the base
            # front/extended cost sums, and a reverse index position -> slots.
            num_front = len(blocked)
            slot_a: List[int] = []
            slot_b: List[int] = []
            for node in blocked:
                qubit_a, qubit_b = node.gate.qubits
                slot_a.append(positions[qubit_a])
                slot_b.append(positions[qubit_b])
            for node in extended:
                qubit_a, qubit_b = node.gate.qubits
                slot_a.append(positions[qubit_a])
                slot_b.append(positions[qubit_b])
            base_front = 0.0
            for slot in range(num_front):
                base_front += dist_rows[slot_a[slot]][slot_b[slot]]
            base_extended = 0.0
            for slot in range(num_front, len(slot_a)):
                base_extended += dist_rows[slot_a[slot]][slot_b[slot]]
            slots_of: Dict[int, List[int]] = {}
            for slot in range(len(slot_a)):
                slots_of.setdefault(slot_a[slot], []).append(slot)
                slots_of.setdefault(slot_b[slot], []).append(slot)

            blocked_on: Dict[int, List[DAGNode]] = {}
            for node in blocked:
                for logical in node.gate.qubits:
                    blocked_on.setdefault(logical, []).append(node)

            while True:
                if swaps_since_progress >= stall_threshold:
                    # The heuristic is livelocking; force progress by walking
                    # the first blocked gate's operands together along a
                    # shortest path (making that gate executable).
                    num_swaps += self._force_route(
                        blocked[0], logical_to_physical, physical_to_logical, routed, positions
                    )
                    swaps_since_progress = 0
                    break

                chosen = self._choose_swap(
                    num_front, slot_a, slot_b, slots_of, base_front, base_extended, decay
                )
                if chosen is None:
                    raise RuntimeError(
                        f"no useful SWAP found; architecture {self.architecture.name!r} "
                        "may have a disconnected coupling graph"
                    )
                swap, swapped_a, swapped_b = chosen
                base_front, base_extended = self._shift_slots(
                    swapped_a, swapped_b, num_front, slot_a, slot_b, slots_of,
                    base_front, base_extended,
                )
                self._apply_swap(swap, logical_to_physical, physical_to_logical, routed, positions)
                num_swaps += 1
                swaps_since_reset += 1
                swaps_since_progress += 1
                decay[swapped_a] += decay_factor
                decay[swapped_b] += decay_factor
                if swaps_since_reset >= self.parameters.decay_reset_interval:
                    decay = [1.0] * num_positions
                    swaps_since_reset = 0
                if num_swaps > swap_budget:
                    raise RuntimeError(
                        f"router exceeded swap budget ({swap_budget}); "
                        "the architecture is likely not routable"
                    )
                # Only blocked gates holding a logical qubit the swap moved can
                # have become executable; checking those few gates avoids a
                # full front rescan per swap.
                if self._swap_unblocked(swap, blocked_on, logical_to_physical,
                                        physical_to_logical):
                    swaps_since_progress = 0
                    break

            self._execute_ready_gates(frontier, logical_to_physical, routed)

        return routed, num_swaps, logical_to_physical

    def route_best(
        self,
        circuit: QuantumCircuit,
        initial_mapping: Dict[int, int],
        dag: Optional[CircuitDAG] = None,
    ) -> Tuple[QuantumCircuit, int, Dict[int, int], Dict[int, int]]:
        """Best routing over bidirectional passes and seeded restarts.

        Runs ``parameters.restarts`` restart chains; each chain routes
        ``parameters.passes`` alternating forward / reverse passes, feeding
        every pass's final mapping into the next pass as its initial
        mapping.  Every *forward* pass yields a candidate result for the
        original circuit; the candidate with the fewest swaps wins, with
        ties resolved toward the earliest (restart, pass) so that the
        default ``passes=1, restarts=1`` reproduces :meth:`route` exactly.

        Returns:
            ``(physical_circuit, num_swaps, final_mapping, used_initial_mapping)``
            where ``used_initial_mapping`` is the initial mapping of the
            winning forward pass (replaying the routed circuit from it
            reproduces the logical circuit).
        """
        self._validate_mapping(circuit, initial_mapping)
        params = self.parameters
        if dag is None:
            dag = CircuitDAG(circuit)
        reversed_circuit: Optional[QuantumCircuit] = None
        reversed_dag: Optional[CircuitDAG] = None
        if params.passes > 1:
            reversed_circuit = QuantumCircuit(circuit.num_qubits, name=f"{circuit.name}~reversed")
            reversed_circuit.extend(reversed(circuit.gates))
            reversed_dag = CircuitDAG(reversed_circuit)

        best: Optional[Tuple[QuantumCircuit, int, Dict[int, int], Dict[int, int]]] = None
        for restart in range(params.restarts):
            mapping = (
                dict(initial_mapping)
                if restart == 0
                else self._perturbed_mapping(initial_mapping, restart)
            )
            for pass_index in range(params.passes):
                forward = pass_index % 2 == 0
                source = circuit if forward else reversed_circuit
                routed, num_swaps, final_mapping = self.route(
                    source, mapping, dag=dag if forward else reversed_dag
                )
                if forward and (best is None or num_swaps < best[1]):
                    best = (routed, num_swaps, dict(final_mapping), dict(mapping))
                mapping = final_mapping
        assert best is not None  # params.passes >= 1 guarantees a forward pass
        return best

    def _perturbed_mapping(self, initial_mapping: Dict[int, int], restart: int) -> Dict[int, int]:
        """A deterministic perturbation of ``initial_mapping`` for restart > 0.

        Applies ``1 + restart`` random transpositions of physical qubits
        (occupied or free), seeded from the router parameters and the
        restart index only — never from process or schedule state — so
        parallel sweeps stay byte-identical across worker counts.
        """
        mapping = dict(initial_mapping)
        qubits = self.architecture.qubits
        if len(qubits) < 2:
            return mapping  # nothing to transpose on a degenerate chip
        rng = deterministic_rng("sabre-restart", self.parameters.seed, restart)
        physical_to_logical = {p: l for l, p in mapping.items()}
        for _ in range(1 + restart):
            phys_a, phys_b = (int(qubits[i]) for i in rng.choice(len(qubits), 2, replace=False))
            logical_a = physical_to_logical.get(phys_a)
            logical_b = physical_to_logical.get(phys_b)
            if logical_a is not None:
                mapping[logical_a] = phys_b
                physical_to_logical[phys_b] = logical_a
            else:
                physical_to_logical.pop(phys_b, None)
            if logical_b is not None:
                mapping[logical_b] = phys_a
                physical_to_logical[phys_a] = logical_b
            else:
                physical_to_logical.pop(phys_a, None)
        return mapping

    def _force_route(
        self,
        node: DAGNode,
        logical_to_physical: Dict[int, int],
        physical_to_logical: Dict[int, int],
        routed: QuantumCircuit,
        positions: Optional[List[int]] = None,
    ) -> int:
        """Move the operands of ``node`` adjacent via greedy shortest-path swaps.

        Used only as a livelock escape hatch; returns the number of swaps applied.
        """
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
                raise RuntimeError(
                    "cannot route gate: coupling graph is disconnected between "
                    f"physical qubits {phys_a} and {phys_b}"
                )
            self._apply_swap(
                (phys_a, step), logical_to_physical, physical_to_logical, routed, positions
            )
            applied += 1

    # -- internals ----------------------------------------------------------------

    def _validate_mapping(self, circuit: QuantumCircuit, mapping: Dict[int, int]) -> None:
        physical = set(self.architecture.qubits)
        for logical in range(circuit.num_qubits):
            if logical not in mapping:
                raise ValueError(f"initial mapping misses logical qubit {logical}")
        # Injectivity and target validity must hold across the WHOLE mapping,
        # extra logical keys included: an extra key sharing a physical qubit
        # with a circuit logical corrupts the inverse mapping and livelocks
        # the router.
        for logical, target in mapping.items():
            if target not in physical:
                raise ValueError(
                    f"logical qubit {logical} mapped to unknown physical qubit {target}"
                )
        targets = list(mapping.values())
        if len(set(targets)) != len(targets):
            raise ValueError("initial mapping maps two logical qubits to the same physical qubit")

    def _execute_ready_gates(
        self,
        frontier: ExecutionFrontier,
        logical_to_physical: Dict[int, int],
        routed: QuantumCircuit,
    ) -> bool:
        """Execute every currently executable gate; return True if any executed.

        Executing a gate never changes the mapping, so one pass over the
        front plus the transitively unblocked nodes reaches closure — no
        rescan of already-rejected front gates is needed.
        """
        executed_any = False
        queue = deque(frontier.front_nodes())
        append = routed.append_unchecked
        while queue:
            node = queue.popleft()
            if self._is_executable(node, logical_to_physical):
                append(node.gate.remap(logical_to_physical))
                queue.extend(frontier.execute(node.index))
                executed_any = True
        return executed_any

    def _is_executable(self, node: DAGNode, logical_to_physical: Dict[int, int]) -> bool:
        if not node.two_qubit:
            return True
        a, b = node.gate.qubits
        return (logical_to_physical[a], logical_to_physical[b]) in self._coupled

    def _swap_unblocked(
        self,
        swap: Tuple[int, int],
        blocked_on: Dict[int, List[DAGNode]],
        logical_to_physical: Dict[int, int],
        physical_to_logical: Dict[int, int],
    ) -> bool:
        """True when the just-applied ``swap`` made any blocked gate executable."""
        for physical in swap:
            logical = physical_to_logical.get(physical)
            if logical is None:
                continue
            for node in blocked_on.get(logical, ()):
                if self._is_executable(node, logical_to_physical):
                    return True
        return False

    def _choose_swap(
        self,
        num_front: int,
        slot_a: List[int],
        slot_b: List[int],
        slots_of: Dict[int, List[int]],
        base_front: float,
        base_extended: float,
        decay: List[float],
    ) -> Optional[Tuple[Tuple[int, int], int, int]]:
        """The candidate SWAP minimizing the look-ahead distance cost.

        Incremental delta scoring: a candidate swap of positions (ia, ib)
        changes the cost of exactly the slots listed under ia or ib in
        ``slots_of``, so each candidate accumulates distance deltas over
        those few slots against the base sums instead of rescoring the
        whole front and extended set.  Distances are small integers, so
        ``base + delta`` equals the full recomputation bit-for-bit and the
        deterministic (score, swap-pair) tie-break is preserved.

        Returns ``(swap pair, index of a, index of b)``, or None when no
        coupling edge touches the front layer.
        """
        involved = set(slot_a[:num_front])
        involved.update(slot_b[:num_front])
        edges_at = self._edges_at
        candidate_ids = sorted({e for q in involved for e in edges_at[q]})
        if not candidate_ids:
            return None

        dist_rows = self._dist_rows
        edge_a = self._edge_a
        edge_b = self._edge_b
        edges = self._edges
        weight = self.parameters.extended_set_weight
        front_div = max(1, num_front)
        num_extended = len(slot_a) - num_front

        best_key = None
        best = None
        best_improving_key = None
        best_improving = None
        for edge_index in candidate_ids:
            index_a = edge_a[edge_index]
            index_b = edge_b[edge_index]
            delta_front = 0.0
            delta_extended = 0.0
            slots_at_a = slots_of.get(index_a)
            slots_at_b = slots_of.get(index_b)
            if slots_at_a:
                for slot in slots_at_a:
                    pos_a = slot_a[slot]
                    pos_b = slot_b[slot]
                    new_a = index_b if pos_a == index_a else (index_a if pos_a == index_b else pos_a)
                    new_b = index_b if pos_b == index_a else (index_a if pos_b == index_b else pos_b)
                    delta = dist_rows[new_a][new_b] - dist_rows[pos_a][pos_b]
                    if slot < num_front:
                        delta_front += delta
                    else:
                        delta_extended += delta
            if slots_at_b:
                for slot in slots_at_b:
                    pos_a = slot_a[slot]
                    pos_b = slot_b[slot]
                    if pos_a == index_a or pos_b == index_a:
                        continue  # gate spans both endpoints; counted above
                    new_a = index_a if pos_a == index_b else pos_a
                    new_b = index_a if pos_b == index_b else pos_b
                    delta = dist_rows[new_a][new_b] - dist_rows[pos_a][pos_b]
                    if slot < num_front:
                        delta_front += delta
                    else:
                        delta_extended += delta

            score = (base_front + delta_front) / front_div
            if num_extended:
                score += weight * (base_extended + delta_extended) / num_extended
            decay_a = decay[index_a]
            decay_b = decay[index_b]
            score *= decay_a if decay_a >= decay_b else decay_b

            key = (score, edges[edge_index])
            if best_key is None or key < best_key:
                best_key = key
                best = (edges[edge_index], index_a, index_b)
            if delta_front < 0.0 and (best_improving_key is None or key < best_improving_key):
                best_improving_key = key
                best_improving = (edges[edge_index], index_a, index_b)

        # Swaps that do not reduce the front-layer cost at all only stay in
        # the running when no candidate reduces it (they can still win on
        # the extended set, but must not displace genuine progress).
        return best_improving if best_improving is not None else best

    def _shift_slots(
        self,
        index_a: int,
        index_b: int,
        num_front: int,
        slot_a: List[int],
        slot_b: List[int],
        slots_of: Dict[int, List[int]],
        base_front: float,
        base_extended: float,
    ) -> Tuple[float, float]:
        """Apply a position swap (ia, ib) to the slot tables in place.

        Rewrites the affected slots' endpoint indices, exchanges the two
        reverse-index buckets, and returns the updated base cost sums.
        """
        dist_rows = self._dist_rows
        affected = set(slots_of.get(index_a, ()))
        affected.update(slots_of.get(index_b, ()))
        for slot in affected:
            pos_a = slot_a[slot]
            pos_b = slot_b[slot]
            new_a = index_b if pos_a == index_a else (index_a if pos_a == index_b else pos_a)
            new_b = index_b if pos_b == index_a else (index_a if pos_b == index_b else pos_b)
            delta = dist_rows[new_a][new_b] - dist_rows[pos_a][pos_b]
            slot_a[slot] = new_a
            slot_b[slot] = new_b
            if slot < num_front:
                base_front += delta
            else:
                base_extended += delta
        bucket_a = slots_of.pop(index_a, None)
        bucket_b = slots_of.pop(index_b, None)
        if bucket_b is not None:
            slots_of[index_a] = bucket_b
        if bucket_a is not None:
            slots_of[index_b] = bucket_a
        return base_front, base_extended

    def _apply_swap(
        self,
        swap: Tuple[int, int],
        logical_to_physical: Dict[int, int],
        physical_to_logical: Dict[int, int],
        routed: QuantumCircuit,
        positions: Optional[List[int]] = None,
    ) -> None:
        phys_a, phys_b = swap
        logical_a = physical_to_logical.get(phys_a)
        logical_b = physical_to_logical.get(phys_b)
        routed.append_unchecked(Gate("swap", (phys_a, phys_b)))
        if logical_a is not None:
            logical_to_physical[logical_a] = phys_b
            if positions is not None and logical_a < len(positions):
                positions[logical_a] = self.distances.index_of(phys_b)
        if logical_b is not None:
            logical_to_physical[logical_b] = phys_a
            if positions is not None and logical_b < len(positions):
                positions[logical_b] = self.distances.index_of(phys_a)
        if logical_a is not None:
            physical_to_logical[phys_b] = logical_a
        else:
            physical_to_logical.pop(phys_b, None)
        if logical_b is not None:
            physical_to_logical[phys_a] = logical_b
        else:
            physical_to_logical.pop(phys_a, None)
