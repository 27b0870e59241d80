"""The routing engine: per-architecture router reuse plus result memoization.

Every evaluation point of the paper's Figure 10 grid routes a benchmark
onto a candidate architecture, and sweeps revisit the same architectures
(and often the same (circuit, architecture) pairs) many times.  Two layers
of reuse make that cheap:

* **Router reuse** — a :class:`RoutingEngine` keeps one
  :class:`~repro.mapping.sabre.SabreRouter` (and therefore one BFS
  distance matrix and one candidate-edge table) per distinct architecture,
  instead of rebuilding them on every :func:`route_circuit` call.
* **Result memoization** — a :class:`RoutingCache` memoizes completed
  :class:`~repro.mapping.router.MappingResult` objects under a
  ``(circuit, architecture, parameters)`` key.

Both tables (results, routers) are bounded :class:`~repro.utils.memo.Memo`
instances.

Both layers are *transparent*: routing is a pure deterministic function of
the key, so cache hits return exactly what a fresh computation would, and
parallel sweeps stay byte-identical for any worker count no matter how
hits and misses distribute across processes.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Tuple, Union

from repro import persistence

from repro.circuit.circuit import QuantumCircuit
from repro.hardware.architecture import Architecture
from repro.mapping.distance import DistanceMatrix
from repro.mapping.initial import initial_mapping
from repro.mapping.sabre import SabreParameters, SabreRouter
from repro.profiling.profiler import CircuitProfile, profile_circuit
from repro.runtime.metrics import global_metrics
from repro.utils.memo import Memo

_metrics = global_metrics()

#: Default bound on memoized routing results per engine.  Entries retain
#: the full routed circuit only when a caller asked for it
#: (``keep_routed_circuit=True``); sweep-style counts-only routings cache
#: compact results.
DEFAULT_CACHE_ENTRIES = 256


def circuit_cache_key(circuit: QuantumCircuit) -> Tuple:
    """Value identity of a circuit: register size, name, length, content digest.

    The name participates because it is recorded in the
    :class:`~repro.mapping.router.MappingResult` (and in the routed
    circuit's own name), so two same-gate circuits with different names
    must not share a memoized result.  The gate sequence itself enters via
    :meth:`~repro.circuit.circuit.QuantumCircuit.content_hash` — a cached
    digest — rather than the full gate tuple, so building and comparing
    keys stays O(1) per route call instead of re-hashing thousands of gate
    objects every lookup.  Hash collisions are harmless: cache entries
    carry the exact gate tuple and the engine confirms it on every hit.
    """
    return (circuit.num_qubits, circuit.name, len(circuit), circuit.content_hash())


@dataclass
class _CacheEntry:
    """A memoized routing: the exact gate tuple plus the result.

    ``gates`` guards against 64-bit content-hash collisions in the cache
    key: a hit is only served after confirming the stored tuple matches
    the requesting circuit's (identity check first — free for the common
    same-circuit-object case — full comparison otherwise).  Entries
    restored from a persisted cache carry ``gates=None`` — the gate
    tuples are not written to disk, so loaded hits trust the content
    digest in the key (see :meth:`RoutingCache.save`).
    """

    gates: Optional[Tuple]
    result: object


def profile_cache_key(profile: Optional[CircuitProfile]) -> Optional[int]:
    """Value identity of a caller-supplied profile (None for no profile).

    The profile drives the initial placement, so a caller-supplied
    profile participates in routing cache keys by content digest over
    every field the placement reads (strengths, degree order, coupling
    edges): a profile that slips past the engine's cheap identity guard
    can only ever poison (or hit) its own entry, never the profile-less
    one.  SHA-256 rather than the salted built-in ``hash()``, so the key
    survives a save/load round trip into another process.
    """
    if profile is None:
        return None
    digest = hashlib.sha256()
    digest.update(profile.strength_matrix.tobytes())
    digest.update(str(tuple(profile.degree_list)).encode())
    digest.update(str(
        tuple(sorted(tuple(sorted(edge)) for edge in profile.graph.edges()))
    ).encode())
    return int.from_bytes(digest.digest()[:8], "big")


def architecture_cache_key(architecture: Architecture) -> Tuple:
    """Value identity of an architecture as far as routing is concerned.

    Routing depends on the physical qubit set, the coupling graph, the
    recorded pseudo-mapping (it seeds the initial placement), and the name
    (recorded in results).  Frequencies are irrelevant to routing and are
    deliberately excluded so that architectures differing only in their
    frequency plan share routers and cached results.
    """
    return (
        architecture.name,
        tuple(architecture.qubits),
        tuple(architecture.coupling_edges()),
        tuple(sorted(architecture.logical_to_physical.items())),
    )


def _encode_routing(key: Tuple, entry: _CacheEntry) -> dict:
    """A memoized routing as a counts-only record (no gates, no circuit)."""
    circuit_key, arch_key, parameters, profile_key = key
    result = entry.result
    return {
        "circuit_key": list(circuit_key),
        "architecture_key": persistence.listify(arch_key),
        "parameters": asdict(parameters),
        "profile_key": profile_key,
        "result": {
            "circuit_name": result.circuit_name,
            "architecture_name": result.architecture_name,
            "original_gates": result.original_gates,
            "original_two_qubit_gates": result.original_two_qubit_gates,
            "num_swaps": result.num_swaps,
            "initial_mapping": {str(k): v for k, v in result.initial_mapping.items()},
            "final_mapping": {str(k): v for k, v in result.final_mapping.items()},
        },
    }


def _decode_routing(record: dict) -> Tuple[Tuple, _CacheEntry]:
    """A persisted record back as a digest-trusted (``gates=None``) entry."""
    from repro.mapping.router import MappingResult

    key = (
        tuple(record["circuit_key"]),
        persistence.tuplify(record["architecture_key"]),
        SabreParameters(**record["parameters"]),
        record["profile_key"],
    )
    data = record["result"]
    result = MappingResult(
        circuit_name=data["circuit_name"],
        architecture_name=data["architecture_name"],
        original_gates=data["original_gates"],
        original_two_qubit_gates=data["original_two_qubit_gates"],
        num_swaps=data["num_swaps"],
        initial_mapping={int(k): v for k, v in data["initial_mapping"].items()},
        final_mapping={int(k): v for k, v in data["final_mapping"].items()},
        routed_circuit=None,
    )
    return key, _CacheEntry(gates=None, result=result)


def _routing_record_key(record: dict) -> Tuple:
    """A serialized record's identity (file-level merge key)."""
    return (
        persistence.tuplify(record["circuit_key"]),
        persistence.tuplify(record["architecture_key"]),
        tuple(sorted(record["parameters"].items())),
        record["profile_key"],
    )


class RoutingCache(Memo):
    """The memo of completed routing results, persistable across processes.

    Keys are ``(circuit key, architecture key, SabreParameters, profile
    key)`` tuples; values are the engine's cache entries (exact gate
    tuple + a :class:`~repro.mapping.router.MappingResult` whose
    ``routed_circuit`` is present only if the producing call requested
    it).  A bounded LRU, so long sweeps cannot grow memory without limit.

    Persisted stores are counts-only: swap counts, gate counts and the
    initial/final mappings, never routed circuits or gate tuples, so
    sweep-scale caches persist in milliseconds.  Loaded entries carry no
    gate tuple, so their hits are trusted on the 64-bit circuit content
    digest in the key alone; a digest collision between two same-length,
    same-name, same-width circuits is the only way one can be wrong.
    Route calls with ``keep_routed_circuit=True`` recompute and upgrade
    loaded entries.
    """

    PERSISTENCE = persistence.MemoPersistence(
        "repro-routing-cache", 1, "routing cache",
        _encode_routing, _decode_routing, _routing_record_key,
    )

    def __init__(self, max_entries: Optional[int] = DEFAULT_CACHE_ENTRIES) -> None:
        super().__init__(max_entries, metric="routing/cache")

    def save(self, path: Union[str, Path]) -> int:
        """Replace the store with this cache's image (see :class:`~repro.persistence.MemoPersistence`)."""
        return self.PERSISTENCE.save(self, path)

    def load(self, path: Union[str, Path], missing_ok: bool = False) -> int:
        """Merge a persisted store into this cache; in-memory entries win."""
        return self.PERSISTENCE.load(self, path, missing_ok)

    def merge_save(self, path: Union[str, Path]) -> int:
        """Extend the persisted store with this cache's entries, concurrency-safe."""
        return self.PERSISTENCE.merge_save(self, path)


class RoutingEngine:
    """Routes circuits onto architectures with per-architecture state reuse.

    One engine holds one :class:`SabreParameters` configuration.  Use
    :meth:`route` exactly like :func:`~repro.mapping.router.route_circuit`;
    repeated calls against the same architecture share the router (distance
    matrix, candidate-edge tables), and repeated calls with the same
    circuit *and* architecture return memoized results.

    Args:
        parameters: Router tuning parameters shared by every route call.
        cache: Optional externally owned :class:`RoutingCache` (a fresh
            bounded cache is created when omitted).
    """

    def __init__(
        self,
        parameters: Optional[SabreParameters] = None,
        cache: Optional[RoutingCache] = None,
    ) -> None:
        self.parameters = parameters or SabreParameters()
        self.cache = cache if cache is not None else RoutingCache()
        # Routers keyed by architecture identity, LRU-bounded like the
        # sibling tables so a worker sweeping many candidate architectures
        # cannot grow distance matrices and edge tables without limit.
        self._routers = Memo(128)

    def router_for(self, architecture: Architecture) -> SabreRouter:
        """The shared router (and distance matrix) for an architecture (bounded LRU)."""
        key = architecture_cache_key(architecture)
        router = self._routers.lookup(key)
        if router is None:
            router = SabreRouter(architecture, self.parameters)
            self._routers.put(key, router)
        return router

    def distances_for(self, architecture: Architecture) -> DistanceMatrix:
        """The shared distance matrix for an architecture."""
        return self.router_for(architecture).distances

    def route(
        self,
        circuit: QuantumCircuit,
        architecture: Architecture,
        profile: Optional[CircuitProfile] = None,
        keep_routed_circuit: bool = True,
    ):
        """Map ``circuit`` onto ``architecture`` (memoized; see ``route_circuit``).

        Args:
            circuit: Logical circuit in the CNOT + single-qubit basis.
            architecture: Target hardware architecture.
            profile: Optional precomputed profile **of this circuit** (saves
                recomputation when the caller already profiled it).  A
                profile whose identifying counts don't match the circuit is
                rejected, and a supplied profile participates in the cache
                key by content digest, so it can never poison the
                profile-less entry.
            keep_routed_circuit: Set to False to keep only the counts — the
                returned result and the cache entry both drop the physical
                circuit, so sweep-scale memoization stays light.  A later
                call with True on a counts-only entry recomputes (and
                upgrades the entry).
        """
        from repro.mapping.router import MappingResult, verify_trace

        # O(1) identity checks only — this guard runs on every route call,
        # including cache hits.
        if profile is not None and (
            profile.circuit_name != circuit.name
            or profile.num_qubits != circuit.num_qubits
            or profile.num_gates != len(circuit)
        ):
            raise ValueError(
                f"profile {profile.circuit_name!r} does not describe circuit "
                f"{circuit.name!r}; pass the circuit's own profile (or None)"
            )
        circuit_key = circuit_cache_key(circuit)
        key = (
            circuit_key,
            architecture_cache_key(architecture),
            self.parameters,
            profile_cache_key(profile),
        )
        gates = circuit.gates

        def sufficient(entry) -> bool:
            # entry.gates is None for entries restored from a persisted
            # cache (digest-trusted); in-memory entries carry the exact
            # tuple and are confirmed against the requesting circuit.
            if entry.gates is not None and entry.gates is not gates and entry.gates != gates:
                return False  # content-hash collision; recompute under this key
            return entry.result.routed_circuit is not None or not keep_routed_circuit

        cached = self.cache.lookup(key, sufficient)
        if cached is not None:
            return _result_copy(cached.result, keep_routed_circuit)

        compute_start = time.perf_counter()
        router = self.router_for(architecture)
        if not router.distances.is_connected():
            raise ValueError(
                f"architecture {architecture.name!r} has a disconnected coupling graph; "
                "every benchmark in the paper is mapped onto connected chips"
            )
        profile = profile or profile_circuit(circuit)
        mapping = initial_mapping(profile, architecture, router.distances)
        # The lowered IR is cached on the circuit (and shared by its
        # copies), so every architecture a circuit is routed onto reuses
        # one IR and one reversed IR.
        ir = circuit.lowered()
        trace, num_swaps, final_mapping, used_initial = router.trace_best(ir, mapping)
        verify_trace(ir, trace, architecture, used_initial)
        _metrics.observe("routing/route", time.perf_counter() - compute_start)
        _metrics.increment("routing/routes")
        _metrics.increment("routing/swaps", num_swaps)
        result = MappingResult(
            circuit_name=circuit.name,
            architecture_name=architecture.name,
            original_gates=len(circuit),
            original_two_qubit_gates=ir.num_two_qubit,
            num_swaps=num_swaps,
            initial_mapping=dict(used_initial),
            final_mapping=dict(final_mapping),
            routed_circuit=(
                router.routed_circuit(circuit, trace, used_initial)
                if keep_routed_circuit else None
            ),
        )
        self.cache.put(key, _CacheEntry(gates=gates, result=result))
        return _result_copy(result, keep_routed_circuit)


def _result_copy(result, keep_routed_circuit: bool):
    """A caller-owned copy of a cached result (mappings and circuit detached)."""
    from repro.mapping.router import MappingResult

    return MappingResult(
        circuit_name=result.circuit_name,
        architecture_name=result.architecture_name,
        original_gates=result.original_gates,
        original_two_qubit_gates=result.original_two_qubit_gates,
        num_swaps=result.num_swaps,
        initial_mapping=dict(result.initial_mapping),
        final_mapping=dict(result.final_mapping),
        routed_circuit=result.routed_circuit.copy() if keep_routed_circuit else None,
    )
