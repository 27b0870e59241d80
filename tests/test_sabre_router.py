"""Tests for the SABRE-style SWAP router."""

import pytest

from repro.circuit import QuantumCircuit, cx, h, measure
from repro.hardware import Architecture, Lattice, ibm_16q_2x8
from repro.mapping import SabreRouter, SabreParameters, route_circuit
from repro.mapping.router import verify_routing
from repro.profiling import profile_circuit


def chain_architecture(n):
    return Architecture.from_layout("chain", Lattice.rectangle(1, n))


class TestRouterCore:
    def test_already_executable_circuit_needs_no_swaps(self):
        circuit = QuantumCircuit(3).extend([cx(0, 1), cx(1, 2), h(0), measure(2)])
        arch = chain_architecture(3)
        router = SabreRouter(arch)
        routed, num_swaps, _final = router.route(circuit, {0: 0, 1: 1, 2: 2})
        assert num_swaps == 0
        assert len(routed) == len(circuit)

    def test_distant_gate_requires_swaps(self):
        circuit = QuantumCircuit(4).extend([cx(0, 3)])
        arch = chain_architecture(4)
        router = SabreRouter(arch)
        routed, num_swaps, _final = router.route(circuit, {0: 0, 1: 1, 2: 2, 3: 3})
        assert num_swaps >= 2
        assert sum(1 for gate in routed if gate.name == "swap") == num_swaps

    def test_single_qubit_gates_always_executable(self):
        circuit = QuantumCircuit(2).extend([h(0), h(1), measure(0)])
        arch = chain_architecture(2)
        routed, num_swaps, _final = SabreRouter(arch).route(circuit, {0: 0, 1: 1})
        assert num_swaps == 0
        assert len(routed) == 3

    def test_final_mapping_tracks_swaps(self):
        circuit = QuantumCircuit(3).extend([cx(0, 2)])
        arch = chain_architecture(3)
        _routed, num_swaps, final = SabreRouter(arch).route(circuit, {0: 0, 1: 1, 2: 2})
        assert num_swaps >= 1
        assert sorted(final.values()) == sorted({0, 1, 2} & set(final.values()))
        assert len(set(final.values())) == 3

    def test_mapping_with_extra_logical_keys_accepted(self):
        """Extra logical keys beyond the register pin physical qubits but
        must not crash routing (the pre-refactor router accepted them)."""
        circuit = QuantumCircuit(2).extend([cx(0, 1), cx(1, 0)])
        arch = chain_architecture(5)
        mapping = {0: 0, 1: 2, 2: 1, 3: 3, 4: 4}
        routed, num_swaps, final = SabreRouter(arch).route(circuit, mapping)
        verify_routing(circuit, routed, arch, mapping)
        assert num_swaps >= 1
        assert set(final) == set(mapping)

    def test_invalid_initial_mapping_rejected(self):
        circuit = QuantumCircuit(3).extend([cx(0, 1)])
        arch = chain_architecture(3)
        router = SabreRouter(arch)
        with pytest.raises(ValueError):
            router.route(circuit, {0: 0, 1: 0, 2: 1})
        with pytest.raises(ValueError):
            router.route(circuit, {0: 0, 1: 1})
        with pytest.raises(ValueError):
            router.route(circuit, {0: 0, 1: 1, 2: 99})
        with pytest.raises(ValueError):
            # Extra logical key colliding with a circuit logical's physical
            # qubit: corrupts the inverse mapping (would livelock routing).
            router.route(circuit, {0: 0, 1: 1, 2: 2, 9: 0})
        with pytest.raises(ValueError):
            # Extra logical key on an unknown physical qubit.
            router.route(circuit, {0: 0, 1: 1, 2: 2, 9: 77})

    def test_all_routed_two_qubit_gates_on_coupled_pairs(self, line_circuit):
        arch = ibm_16q_2x8()
        result = route_circuit(line_circuit, arch)
        coupled = set()
        for a, b in arch.coupling_edges():
            coupled.add((a, b))
            coupled.add((b, a))
        for gate in result.routed_circuit:
            if gate.is_two_qubit:
                assert tuple(gate.qubits) in coupled

    def test_router_parameters_accepted(self, line_circuit):
        params = SabreParameters(extended_set_size=5, extended_set_weight=0.3)
        result = route_circuit(line_circuit, ibm_16q_2x8(), parameters=params)
        assert result.total_gates >= len(line_circuit)


class TestRoutingVerification:
    def test_verify_accepts_correct_routing(self, line_circuit):
        arch = ibm_16q_2x8()
        result = route_circuit(line_circuit, arch)
        verify_routing(line_circuit, result.routed_circuit, arch, result.initial_mapping)

    def test_verify_rejects_dropped_gate(self, line_circuit):
        arch = ibm_16q_2x8()
        result = route_circuit(line_circuit, arch)
        truncated = QuantumCircuit(result.routed_circuit.num_qubits)
        truncated.extend(result.routed_circuit.gates[:-1])
        with pytest.raises(AssertionError):
            verify_routing(line_circuit, truncated, arch, result.initial_mapping)

    def test_logical_swap_gates_route_and_verify(self):
        """Program swap gates are routed like any two-qubit gate and must
        not be confused with router-inserted swaps during verification."""
        from repro.circuit.gates import swap

        circuit = QuantumCircuit(4, name="with_logical_swaps")
        circuit.extend([swap(0, 1), cx(1, 3), swap(0, 3), cx(2, 0), measure(3)])
        arch = chain_architecture(4)
        result = route_circuit(circuit, arch)
        verify_routing(circuit, result.routed_circuit, arch, result.initial_mapping)
        assert result.original_gates == len(circuit)

    def test_verify_rejects_uncoupled_gate(self, line_circuit):
        arch = ibm_16q_2x8()
        result = route_circuit(line_circuit, arch)
        corrupted = QuantumCircuit(result.routed_circuit.num_qubits)
        corrupted.extend(result.routed_circuit.gates)
        corrupted.append(cx(0, 15))
        with pytest.raises(AssertionError):
            verify_routing(line_circuit, corrupted, arch, result.initial_mapping)

    @staticmethod
    def _rebuilt(routed, gates):
        circuit = QuantumCircuit(routed.num_qubits, name=routed.name)
        circuit.extend(gates)
        return circuit

    def test_verify_rejects_gate_on_wrong_coupled_pair(self, line_circuit):
        arch = chain_architecture(6)
        result = route_circuit(line_circuit, arch)
        gates = list(result.routed_circuit.gates)
        index = next(i for i, gate in enumerate(gates) if gate.name == "cx")
        original = set(gates[index].qubits)
        wrong = next(edge for edge in arch.coupling_edges() if set(edge) != original)
        gates[index] = cx(*wrong)
        with pytest.raises(AssertionError):
            verify_routing(line_circuit, self._rebuilt(result.routed_circuit, gates),
                           arch, result.initial_mapping)

    def test_verify_rejects_dependent_gates_reordered(self, line_circuit):
        arch = chain_architecture(6)
        result = route_circuit(line_circuit, arch)
        gates = list(result.routed_circuit.gates)
        index = next(
            i for i in range(len(gates) - 1)
            if "swap" not in (gates[i].name, gates[i + 1].name)
            and set(gates[i].qubits) & set(gates[i + 1].qubits)
            and gates[i] != gates[i + 1]
        )
        gates[index], gates[index + 1] = gates[index + 1], gates[index]
        with pytest.raises(AssertionError):
            verify_routing(line_circuit, self._rebuilt(result.routed_circuit, gates),
                           arch, result.initial_mapping)

    def test_verify_rejects_duplicated_gate(self, line_circuit):
        arch = chain_architecture(6)
        result = route_circuit(line_circuit, arch)
        gates = list(result.routed_circuit.gates)
        index = next(i for i, gate in enumerate(gates) if gate.name != "swap")
        gates.insert(index + 1, gates[index])
        with pytest.raises(AssertionError):
            verify_routing(line_circuit, self._rebuilt(result.routed_circuit, gates),
                           arch, result.initial_mapping)

    def test_verify_rejects_changed_rotation_parameter(self):
        from repro.benchmarks import ising_model_circuit
        from repro.circuit.gates import Gate

        circuit = ising_model_circuit(4, trotter_steps=1)
        arch = chain_architecture(4)
        result = route_circuit(circuit, arch)
        verify_routing(circuit, result.routed_circuit, arch, result.initial_mapping)
        gates = list(result.routed_circuit.gates)
        index = next(i for i, gate in enumerate(gates) if gate.params)
        gate = gates[index]
        gates[index] = Gate(gate.name, gate.qubits, (gate.params[0] + 0.1,) + gate.params[1:])
        with pytest.raises(AssertionError):
            verify_routing(circuit, self._rebuilt(result.routed_circuit, gates),
                           arch, result.initial_mapping)

    def test_program_swap_is_not_mistaken_for_routing_swap(self):
        """The first physical swap(0, 1) is the program's own swap (the mapping
        stays put); the second is a routing swap that moves logical 0 next to
        logical 2.  Reading either the other way fails the replay."""
        from repro.circuit.gates import swap

        circuit = QuantumCircuit(3, name="program_swap")
        circuit.extend([swap(0, 1), cx(0, 2)])
        arch = chain_architecture(3)
        identity = {0: 0, 1: 1, 2: 2}
        routed = QuantumCircuit(3).extend([swap(0, 1), swap(0, 1), cx(1, 2)])
        verify_routing(circuit, routed, arch, identity)
        # Without the routing swap, cx lands on the uncoupled pair (0, 2).
        with pytest.raises(AssertionError):
            verify_routing(circuit, QuantumCircuit(3).extend([swap(0, 1), cx(0, 2)]),
                           arch, identity)
        # Without the program swap, the program's swap never executes.
        with pytest.raises(AssertionError):
            verify_routing(circuit, QuantumCircuit(3).extend([swap(0, 1), cx(1, 2)]),
                           arch, identity)


class TestEscapeHatches:
    def test_force_route_path_still_verifies(self):
        """stall_threshold=0 funnels every blocked gate through _force_route."""
        circuit = QuantumCircuit(6, name="forced")
        for _ in range(3):
            for qubit in range(5):
                circuit.append(cx(qubit, qubit + 1))
            circuit.append(cx(0, 5))
        arch = chain_architecture(6)
        params = SabreParameters(stall_threshold=0)
        result = route_circuit(circuit, arch, parameters=params)
        verify_routing(circuit, result.routed_circuit, arch, result.initial_mapping)
        assert result.num_swaps >= 1

    def test_force_route_matches_distance_lower_bound(self):
        """The greedy walk needs exactly distance-1 swaps on a bare chain."""
        circuit = QuantumCircuit(5).extend([cx(0, 4)])
        arch = chain_architecture(5)
        router = SabreRouter(arch, SabreParameters(stall_threshold=0))
        routed, num_swaps, _final = router.route(circuit, {q: q for q in range(5)})
        assert num_swaps == 3
        assert sum(1 for gate in routed if gate.name == "swap") == 3

    def test_swap_budget_exhaustion_raises(self):
        circuit = QuantumCircuit(4).extend([cx(0, 3)])
        arch = chain_architecture(4)
        router = SabreRouter(arch, SabreParameters(max_swaps_per_gate=0))
        with pytest.raises(RuntimeError, match="swap budget"):
            router.route(circuit, {q: q for q in range(4)})

    def test_stall_threshold_validation(self):
        with pytest.raises(ValueError):
            SabreParameters(stall_threshold=-1)


class TestBidirectionalAndRestarts:
    def test_invalid_pass_counts_rejected(self):
        with pytest.raises(ValueError):
            SabreParameters(passes=0)
        with pytest.raises(ValueError):
            SabreParameters(passes=2)
        with pytest.raises(ValueError):
            SabreParameters(restarts=0)

    def test_single_pass_route_best_matches_route(self, line_circuit):
        arch = ibm_16q_2x8()
        profile = profile_circuit(line_circuit)
        from repro.mapping import DistanceMatrix, initial_mapping

        mapping = initial_mapping(profile, arch, DistanceMatrix(arch))
        router = SabreRouter(arch)
        routed, swaps, final = router.route(line_circuit, dict(mapping))
        best_routed, best_swaps, best_final, used = router.route_best(line_circuit, mapping)
        assert best_swaps == swaps
        assert used == mapping
        assert best_final == final
        assert list(best_routed.gates) == list(routed.gates)

    @pytest.mark.parametrize("benchmark_name", ["sym6_145", "qft_16"])
    def test_bidirectional_never_worse(self, benchmark_name):
        from repro.benchmarks import get_benchmark

        circuit = get_benchmark(benchmark_name)
        arch = ibm_16q_2x8()
        single = route_circuit(circuit, arch, parameters=SabreParameters(passes=1))
        refined = route_circuit(circuit, arch, parameters=SabreParameters(passes=3))
        assert refined.num_swaps <= single.num_swaps
        verify_routing(circuit, refined.routed_circuit, arch, refined.initial_mapping)

    def test_restarts_never_worse_and_deterministic(self):
        from repro.benchmarks import get_benchmark

        circuit = get_benchmark("sym6_145")
        arch = ibm_16q_2x8()
        single = route_circuit(circuit, arch)
        restarted = SabreParameters(restarts=3)
        first = route_circuit(circuit, arch, parameters=restarted)
        second = route_circuit(circuit, arch, parameters=restarted)
        assert first.num_swaps <= single.num_swaps
        assert first.num_swaps == second.num_swaps
        assert first.initial_mapping == second.initial_mapping
        verify_routing(circuit, first.routed_circuit, arch, first.initial_mapping)

    def test_restarts_on_single_qubit_architecture(self):
        """Degenerate chips have nothing to transpose; restarts must not crash."""
        circuit = QuantumCircuit(1).extend([h(0), measure(0)])
        arch = chain_architecture(1)
        result = route_circuit(
            circuit, arch, parameters=SabreParameters(restarts=3, passes=3)
        )
        assert result.num_swaps == 0
        assert len(result.routed_circuit) == 2

    def test_bidirectional_winner_replays_from_recorded_mapping(self):
        """With passes > 1 the winning pass's initial mapping is recorded."""
        from repro.benchmarks import get_benchmark

        circuit = get_benchmark("qft_16")
        arch = ibm_16q_2x8()
        result = route_circuit(
            circuit, arch, parameters=SabreParameters(passes=3, restarts=2)
        )
        verify_routing(circuit, result.routed_circuit, arch, result.initial_mapping)


class TestSwapCountRegression:
    """The incremental router must never route worse than the pre-refactor
    router did; the pinned counts are the old router's on the seed tree."""

    PRE_REFACTOR_SWAPS = {
        ("sym6_145", False): 280,
        ("sym6_145", True): 207,
        ("z4_268", False): 402,
        ("z4_268", True): 287,
        ("qft_16", False): 134,
        ("qft_16", True): 76,
    }

    @pytest.mark.parametrize("benchmark_name,four_qubit", sorted(PRE_REFACTOR_SWAPS))
    def test_swap_counts_do_not_regress(self, benchmark_name, four_qubit):
        from repro.benchmarks import get_benchmark

        circuit = get_benchmark(benchmark_name)
        result = route_circuit(circuit, ibm_16q_2x8(use_four_qubit_buses=four_qubit))
        assert result.num_swaps <= self.PRE_REFACTOR_SWAPS[(benchmark_name, four_qubit)]


class TestDenseCouplingAdvantage:
    def test_more_connections_never_hurt_much(self):
        """4-qubit buses (denser coupling) should not increase the swap count materially."""
        from repro.benchmarks import get_benchmark

        circuit = get_benchmark("sym6_145")
        sparse = route_circuit(circuit, ibm_16q_2x8(use_four_qubit_buses=False))
        dense = route_circuit(circuit, ibm_16q_2x8(use_four_qubit_buses=True))
        assert dense.num_swaps <= sparse.num_swaps * 1.1 + 5

    def test_perfect_layout_for_chain_circuit_needs_no_swaps(self):
        """Section 5.3.1: a chain program on a chain layout maps perfectly."""
        from repro.benchmarks import ising_model_circuit
        from repro.design import DesignFlow, DesignOptions

        circuit = ising_model_circuit(8, trotter_steps=2)
        arch = DesignFlow(circuit, DesignOptions(local_trials=200)).design(0)
        result = route_circuit(circuit, arch)
        assert result.num_swaps == 0


class TestRoutedCircuitGoldens:
    """Routed circuits pinned gate for gate (SHA-256 over the name, register
    size and every gate's (name, qubits, params)), recorded before routing
    moved onto the flat integer IR: the routed output built at the API edge
    must not change."""

    DIGESTS = {
        ("sym6_145", 1): "1dfb63551a922d1705a5929ee3322f5a266fb7092e3fa40c7e43d87f78e143a0",
        ("sym6_145", 3): "07923a1bed680a495f12bb50b2a7142c7af958651a2dc26e233dc2a6ebe65bb8",
        ("ising_model_16", 1):
            "25f0a20bd72e36096fc39946d40c883799f51d8739a989517babdfe74bde6764",
        ("ising_model_16", 3):
            "ec55235fe4ef4afe033a482896ed68d54a35b6cae81b88ea3916ef06227d32d2",
    }

    @pytest.mark.parametrize("benchmark_name,passes", sorted(DIGESTS))
    def test_routed_circuit_digest(self, benchmark_name, passes):
        import hashlib

        from repro.benchmarks import get_benchmark

        result = route_circuit(
            get_benchmark(benchmark_name), ibm_16q_2x8(use_four_qubit_buses=True),
            parameters=SabreParameters(passes=passes), keep_routed_circuit=True,
        )
        routed = result.routed_circuit
        digest = hashlib.sha256(repr((routed.name, routed.num_qubits)).encode())
        for gate in routed.gates:
            digest.update(repr((gate.name, gate.qubits, gate.params)).encode())
        assert digest.hexdigest() == self.DIGESTS[(benchmark_name, passes)]
