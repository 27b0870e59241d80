"""Pluggable cache-store machinery for persisted result caches.

Both persisted caches of the code base — the routing-result cache
(:class:`~repro.mapping.engine.RoutingCache`) and the design-stage cache
(:class:`~repro.design.engine.DesignCache`) — plus the sweep checkpoint
(:class:`~repro.evaluation.checkpoint.SweepCheckpoint`) store entry
lists that many processes read and extend concurrently.  This package
owns the storage layer beneath them, as a pluggable **store** with
three backends:

* ``json`` (:class:`~repro.persistence.store.SingleFileStore`) — the
  legacy single JSON file; byte-compatible with every cache file
  written before the abstraction existed, strict (fail-loud)
  validation.
* ``sharded`` (:class:`~repro.persistence.sharded.ShardedStore`) — a
  directory of up to 256 digest-prefixed shard files; concurrent
  mergers rarely collide, and per-shard faults degrade to cold without
  touching peers.
* ``sqlite`` (:class:`~repro.persistence.sqlite.SqliteStore`) — one
  database file with transactional upsert-merge semantics.

Cache classes do not pick backends.  The persisted memos describe their
record schema once in a :class:`MemoPersistence` adapter, which owns
save, load and merge-save; it and the sweep checkpoint call the
module-level API (:func:`read_cache_entries`, :func:`write_cache_file`,
:func:`union_merge_save`), which dispatches on the *path*: an optional
``json:`` / ``sharded:`` / ``sqlite:`` scheme prefix names the backend
explicitly, and unprefixed paths are sniffed from on-disk state (an
existing directory is a sharded store, a file opening with the SQLite
magic — or a fresh ``.sqlite`` / ``.db`` path — is a database,
everything else is the single file).  :func:`migrate_store` converts a
store between backends.

Cache classes stay in charge of their own entry schemas; this package
only standardizes the envelope (``format`` / ``version`` / ``entries``)
and the concurrency discipline around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable, List, Optional, Tuple

from repro.persistence.store import (
    BACKENDS,
    CacheStore,
    CacheStoreFault,
    PathLike,
    SQLITE_MAGIC,
    SingleFileStore,
    WrongFormatError,
    atomic_write_text,
    cache_file_lock,
    canonical_key,
    key_digest,
    listify,
    migrate_store,
    open_store,
    parse_store_path,
    salvage_torn_store,
    tuplify,
)

if TYPE_CHECKING:
    from repro.utils.memo import Memo

__all__ = [
    "BACKENDS",
    "CacheStore",
    "CacheStoreFault",
    "MemoPersistence",
    "PathLike",
    "SQLITE_MAGIC",
    "SingleFileStore",
    "WrongFormatError",
    "atomic_write_text",
    "cache_file_lock",
    "canonical_key",
    "key_digest",
    "listify",
    "migrate_store",
    "open_store",
    "parse_store_path",
    "read_cache_entries",
    "salvage_torn_store",
    "tuplify",
    "union_merge_save",
    "write_cache_file",
]


def write_cache_file(
    path: PathLike,
    file_format: str,
    version: int,
    entries: List[dict],
    key_of: Optional[Callable[[dict], Tuple]] = None,
    kind: Optional[str] = None,
) -> int:
    """Atomically write a cache store *image* in the standard envelope.

    Replaces whatever the store at ``path`` held with exactly
    ``entries``.  ``key_of`` maps an entry to its merge identity; the
    single-file backend ignores it, but the sharded and SQLite backends
    need it for shard routing / primary keys, so callers that may be
    pointed at any backend should always pass it.  Returns the number
    of entries written.
    """
    return open_store(path).replace(
        file_format, version, entries, key_of=key_of, kind=kind
    )


def read_cache_entries(
    path: PathLike,
    file_format: str,
    version: int,
    missing_ok: bool = False,
    kind: Optional[str] = None,
) -> Optional[List[dict]]:
    """Read and validate a cache store; return its entry list.

    Args:
        path: Cache store location (any backend; see the module
            docstring for how the backend is chosen).
        file_format: Expected ``format`` marker.
        version: The (single) supported schema version.  The single-file
            backend rejects other versions with a clear error; the
            sharded and SQLite backends degrade wrong-version state to
            cold with a :class:`CacheStoreFault` warning instead.
        missing_ok: Return ``None`` for a nonexistent store instead of
            raising :class:`FileNotFoundError`.
        kind: Human-readable store kind for error messages (defaults to
            ``file_format``).
    """
    return open_store(path).read(
        file_format, version, missing_ok=missing_ok, kind=kind
    )


def union_merge_save(
    path: PathLike,
    file_format: str,
    version: int,
    records: List[dict],
    key_of: Callable[[dict], Tuple],
    kind: Optional[str] = None,
) -> int:
    """Extend the cache store at ``path`` with ``records``, concurrency-safe.

    The canonical end-of-run persistence step: under the backend's
    locking discipline, the store's current entries are unioned with
    ``records`` (``records`` win under equal ``key_of`` keys, existing
    order is preserved, new entries append) and written back atomically.
    The merge happens at the *store* level, deliberately outside any
    in-memory cache: the persisted store accumulates every entry ever
    merged into it, never shrinking to a producer's LRU bound, and
    never dropping a concurrent writer's additions.

    Args:
        path: Cache store location (any backend).
        file_format: ``format`` marker of the envelope.
        version: Schema version written and required of existing state.
        records: Serialized entries to merge in (JSON-compatible dicts).
        key_of: Maps a serialized record to its hashable identity; must
            agree for loaded and freshly serialized records.
        kind: Human-readable store kind for error messages.

    Returns the number of entries the store holds afterwards.
    """
    return open_store(path).union_merge(
        file_format, version, records, key_of, kind=kind
    )


@dataclass(frozen=True)
class MemoPersistence:
    """How one kind of :class:`~repro.utils.memo.Memo` persists to a store.

    The record schema is given once: the envelope's ``file_format``,
    ``version`` and human-readable ``kind``, ``encode`` from a resident
    ``(key, value)`` to a JSON record, ``decode`` back, and
    ``record_key``, a record's file-level merge identity.  Save, load
    and merge-save are written here once for every persisted memo.
    """

    file_format: str
    version: int
    kind: str
    encode: Callable[[Hashable, Any], dict]
    decode: Callable[[dict], Tuple[Hashable, Any]]
    record_key: Callable[[dict], Tuple]

    def _records(self, memo: "Memo") -> List[dict]:
        """The memo's resident entries as persistable records."""
        return [self.encode(key, value) for key, value in memo.items()]

    def save(self, memo: "Memo", path: PathLike) -> int:
        """Replace the store with an image of ``memo``; returns entries written.

        The image holds at most the memo's bound; :meth:`merge_save`
        extends a store instead.  The write is atomic, so readers never
        observe a torn file.
        """
        return write_cache_file(
            path, self.file_format, self.version, self._records(memo),
            key_of=self.record_key, kind=self.kind,
        )

    def load(self, memo: "Memo", path: PathLike, missing_ok: bool = False) -> int:
        """Merge the store into ``memo``; returns merged entries still resident.

        Resident entries win under equal keys (:meth:`Memo.merge`).  A
        wrong format marker or an unknown version is rejected with a
        clear error; ``missing_ok`` turns a missing store into a no-op
        returning 0.
        """
        records = read_cache_entries(
            path, self.file_format, self.version, missing_ok=missing_ok,
            kind=self.kind,
        )
        if records is None:
            return 0
        return memo.merge(self.decode(record) for record in records)

    def merge_save(self, memo: "Memo", path: PathLike) -> int:
        """Extend the store with ``memo``'s entries, concurrency-safe.

        A store-level union under the backend's lock: the store keeps
        every record it holds (``memo``'s entries win under equal
        ``record_key``) plus everything resident here.  It never shrinks
        to the memo's bound, and concurrent writers sharing one path
        cannot drop each other's records.  Returns the store's size.
        """
        return union_merge_save(
            path, self.file_format, self.version, self._records(memo),
            self.record_key, kind=self.kind,
        )
