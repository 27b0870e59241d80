"""Core cache-store machinery: primitives, the backend protocol, the factory.

This module owns everything the pluggable backends share:

* **Atomic writes** — :func:`atomic_write_text` writes to a temporary
  file in the destination directory and ``os.replace``\\ s it into
  place, so a reader (or the survivor of a crashed writer) can never
  observe a torn or truncated file.
* **Per-path merge locks** — :func:`cache_file_lock` serializes a
  read-merge-rewrite cycle.  Lock keys are *resolved* absolute paths
  (:meth:`Path.resolve`), so ``./cache.json``, ``cache.json`` and a
  symlinked alias all share one lock instead of silently racing.
* **The backend protocol** — :class:`CacheStore` defines the three
  operations every backend implements (``read``, ``replace``,
  ``union_merge``) over the standard entry envelope
  (``{"format", "version", "entries"}``).
* **The legacy single-file backend** — :class:`SingleFileStore` is the
  pre-existing one-JSON-file format, byte-compatible with every cache
  file written before the store abstraction existed.  It keeps the
  original *fail-loud* validation semantics (wrong format or version
  raises); the fleet-facing sharded/SQLite backends degrade corrupt or
  wrong-version state to "cold" with a :class:`CacheStoreFault` warning
  instead (see their modules).
* **The factory** — :func:`open_store` resolves a path (with an
  optional ``json:`` / ``sharded:`` / ``sqlite:`` scheme prefix) to a
  backend instance, sniffing existing state when no scheme is given.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

try:  # pragma: no cover - exercised implicitly on POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

PathLike = Union[str, Path]

#: The recognized backend names / path scheme prefixes.
BACKENDS = ("json", "sharded", "sqlite")

#: File suffixes that make a fresh path default to the SQLite backend.
_SQLITE_SUFFIXES = {".sqlite", ".sqlite3", ".db"}

#: The 16-byte magic string opening every SQLite database file.
SQLITE_MAGIC = b"SQLite format 3\x00"


class WrongFormatError(ValueError):
    """A store holds a *different cache kind's* data (misconfiguration).

    Distinct from corruption: every backend fails loud on it — silently
    treating another cache's store as cold would mask a typo'd path —
    while garbage or wrong-version state stays recoverable in the
    fleet-facing backends.
    """


class CacheStoreFault(UserWarning):
    """A cache store recovered from corrupt or unreadable persisted state.

    Emitted when a fleet-facing backend (sharded, SQLite) encounters a
    torn, truncated, garbage, or wrong-version file and degrades it to
    "cold" instead of crashing.  The warning names the path and the
    fault so operators can investigate; the store keeps working.
    """


def _count_store_fault(name: str, amount: int = 1) -> None:
    """Count a store fault in the metrics registry (lazy import: the
    metrics module is runtime-layer and must stay importable without
    dragging in persistence, and vice versa)."""
    from repro.runtime.metrics import global_metrics

    global_metrics().increment(name, amount)


#: In-process merge locks, one per resolved cache path.  ``fcntl`` locks
#: are per open file description, not per thread, so threads sharing a
#: process need their own serialization layer.
_PROCESS_LOCKS: Dict[str, threading.Lock] = {}
_PROCESS_LOCKS_GUARD = threading.Lock()


def listify(value):
    """Tuples to lists, recursively (JSON encoding of cache keys)."""
    if isinstance(value, tuple):
        return [listify(item) for item in value]
    return value


def tuplify(value):
    """Lists to tuples, recursively (JSON decoding of cache keys)."""
    if isinstance(value, list):
        return tuple(tuplify(item) for item in value)
    return value


def canonical_key(key) -> str:
    """The canonical JSON text of a cache key (stable across processes).

    Nested tuples are listified first, so file-loaded (list-shaped) and
    in-memory (tuple-shaped) keys canonicalize identically.  This text
    is the SQLite primary key and the input of :func:`key_digest`.
    """
    return json.dumps(listify(key), sort_keys=True, separators=(",", ":"))


def key_digest(key) -> str:
    """The SHA-256 hex digest of a cache key's canonical JSON text."""
    return hashlib.sha256(canonical_key(key).encode("utf-8")).hexdigest()


def atomic_write_text(path: PathLike, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temporary file lives in the destination directory so the final
    rename never crosses a filesystem boundary; a crash between write
    and rename leaves the previous file contents untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # mkstemp creates 0o600 files; keep the destination's existing
    # permissions (or conventional 0o644 for a new file) so a cache
    # shared between users stays readable after a rewrite.
    try:
        mode = path.stat().st_mode & 0o777
    except OSError:
        mode = 0o644
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            os.chmod(tmp_name, mode)
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _lock_key(path: PathLike) -> str:
    """The lock identity of a cache path: its fully resolved location.

    ``Path.resolve`` (not ``os.path.abspath``) so that ``./cache.json``,
    ``cache.json`` and any symlinked alias of the same file key one lock
    instead of silently racing each other.
    """
    return str(Path(path).resolve())


def _process_lock(key: str) -> threading.Lock:
    with _PROCESS_LOCKS_GUARD:
        lock = _PROCESS_LOCKS.get(key)
        if lock is None:
            lock = _PROCESS_LOCKS.setdefault(key, threading.Lock())
        return lock


@contextmanager
def cache_file_lock(path: PathLike) -> Iterator[None]:
    """Serialize a read-merge-rewrite cycle on ``path`` against other writers.

    Hold the lock across the *whole* cycle — load, merge, save — not
    just the write: atomic replacement alone cannot stop two concurrent
    mergers from both loading the same base state and the second replace
    discarding the first's additions.

    The lock is reentrant-unsafe (don't nest on the same path) and is
    taken on a ``<name>.lock`` sidecar next to the *resolved* target
    rather than the cache file itself, so locking never interferes with
    the atomic replace, and aliases of one file (relative spellings,
    symlinks) contend on one sidecar.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    resolved = Path(_lock_key(path))
    with _process_lock(str(resolved)):
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        lock_path = resolved.with_name(resolved.name + ".lock")
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)


def merge_loaded(cache, records: List[dict], decode) -> int:
    """Merge decoded file records into a bounded LRU cache.

    The shared tail of every persisted cache's ``load``: existing
    in-memory entries win under equal keys, and the return value counts
    the merged entries *still resident* afterwards — on a bounded cache,
    a file larger than the bound merges only its tail, and the count
    reflects that rather than masking the eviction.

    Args:
        cache: A cache exposing the in-package LRU protocol (the
            ``_entries`` mapping and ``put``) — i.e.
            :class:`~repro.mapping.engine.RoutingCache` or a
            :class:`~repro.design.engine.StageCache` subclass.
        records: The validated entry list of a cache file.
        decode: Maps one serialized record to its ``(key, value)`` pair.
    """
    merged_keys = []
    for record in records:
        key, value = decode(record)
        if key in cache._entries:
            continue
        cache.put(key, value)
        merged_keys.append(key)
    return sum(1 for key in merged_keys if key in cache._entries)


def validate_envelope(
    payload: dict, path: Path, file_format: str, version: int, kind: str
) -> List[dict]:
    """Validate a decoded envelope dict; return its entry list.

    Shared by the single-file backend (whole file) and the sharded
    backend (per shard file).  Raises :class:`ValueError` with the
    store-standard messages on a wrong format marker or an unsupported
    version.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{path} is not a {kind} file")
    found_format = payload.get("format")
    if found_format != file_format:
        if isinstance(found_format, str) and found_format.startswith("repro-"):
            # A *recognizable other cache kind*: misconfiguration, which
            # even the degrade-to-cold backends surface loudly.
            raise WrongFormatError(f"{path} is not a {kind} file")
        raise ValueError(f"{path} is not a {kind} file")
    found = payload.get("version")
    if found != version:
        raise ValueError(
            f"{path} declares unsupported {kind} version {found!r} "
            f"(this release reads version {version}); it was likely written "
            "by a newer release — delete the file or upgrade"
        )
    entries = payload.get("entries")
    if not isinstance(entries, list):
        raise ValueError(f"{path} holds no entry list; not a valid {kind} file")
    return entries


class CacheStore:
    """One logical persisted cache behind a pluggable storage backend.

    A store holds the entry list of exactly one cache kind (identified
    by its ``format`` marker and schema ``version``) at one path.  The
    three operations mirror the module-level legacy API:

    * :meth:`read` — the full entry list (validation semantics are
      backend-specific: the single-file backend fails loud, the
      fleet-facing backends degrade faults to cold with a warning).
    * :meth:`replace` — atomically replace the store with an *image* of
      the given entries.  Not safe against concurrent mergers; callers
      wanting concurrency use :meth:`union_merge`.
    * :meth:`union_merge` — extend the store with records under the
      appropriate locks: existing entries are kept, ``records`` win
      under equal ``key_of`` keys, and concurrent mergers sharing the
      store cannot drop each other's additions.

    ``faults`` accumulates human-readable descriptions of every
    persisted-state fault the store recovered from (each is also issued
    as a :class:`CacheStoreFault` warning).
    """

    #: Backend name, matching the path scheme prefix (subclasses set it).
    backend: str = ""

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.faults: List[str] = []

    # -- protocol -------------------------------------------------------------

    def exists(self) -> bool:
        raise NotImplementedError

    def read(
        self,
        file_format: str,
        version: int,
        missing_ok: bool = False,
        kind: Optional[str] = None,
    ) -> Optional[List[dict]]:
        raise NotImplementedError

    def replace(
        self,
        file_format: str,
        version: int,
        entries: List[dict],
        key_of: Optional[Callable[[dict], Tuple]] = None,
        kind: Optional[str] = None,
    ) -> int:
        raise NotImplementedError

    def union_merge(
        self,
        file_format: str,
        version: int,
        records: List[dict],
        key_of: Callable[[dict], Tuple],
        kind: Optional[str] = None,
    ) -> int:
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------------

    def _fault(self, message: str) -> None:
        """Record a recovered persisted-state fault and warn about it.

        Besides the stderr warning, every degrade-to-cold event is
        counted in the metrics registry (``persistence/store_faults``)
        so operators watching ``--metrics-out`` see silent degradation
        without scraping warnings.
        """
        self.faults.append(message)
        _count_store_fault("persistence/store_faults")
        warnings.warn(message, CacheStoreFault, stacklevel=3)

    def _missing(self, missing_ok: bool, kind: str) -> None:
        if not missing_ok:
            raise FileNotFoundError(f"{kind} file not found: {self.path}")


class SingleFileStore(CacheStore):
    """The legacy backend: one JSON file holding the whole entry list.

    Byte-compatible with every cache file written before the store
    abstraction existed, and deliberately *strict*: a wrong format
    marker, an unknown version, or undecodable JSON raises instead of
    degrading — this is the backend humans point at hand-managed files,
    where silently treating a typo'd path's contents as cold would mask
    the mistake.
    """

    backend = "json"

    def exists(self) -> bool:
        return self.path.exists()

    def read(self, file_format, version, missing_ok=False, kind=None):
        kind = kind or file_format
        if not self.path.exists():
            self._missing(missing_ok, kind)
            return None
        payload = json.loads(self.path.read_text(encoding="utf-8"))
        return validate_envelope(payload, self.path, file_format, version, kind)

    def replace(self, file_format, version, entries, key_of=None, kind=None):
        payload = {"format": file_format, "version": version, "entries": entries}
        atomic_write_text(self.path, json.dumps(payload) + "\n")
        return len(entries)

    def union_merge(self, file_format, version, records, key_of, kind=None):
        with cache_file_lock(self.path):
            existing = self.read(file_format, version, missing_ok=True, kind=kind)
            # Index by canonical JSON text, as the SQLite backend does: by
            # Python equality, (0,), (0.0,) and (False,) would collapse.
            merged: Dict[str, dict] = {}
            for record in existing or []:
                merged[canonical_key(key_of(record))] = record
            for record in records:
                merged[canonical_key(key_of(record))] = record
            return self.replace(
                file_format, version, list(merged.values()), key_of, kind
            )


def parse_store_path(path: PathLike) -> Tuple[Optional[str], Path]:
    """Split an optional ``backend:`` scheme prefix off a store path."""
    text = str(path)
    for scheme in BACKENDS:
        prefix = scheme + ":"
        if text.startswith(prefix):
            return scheme, Path(text[len(prefix):])
    return None, Path(text)


def _sniff_backend(path: Path) -> str:
    """Guess the backend of an unprefixed path from its on-disk state.

    Existing directories are sharded stores, existing files opening with
    the SQLite magic (or fresh paths with a database suffix) are SQLite
    stores, and everything else is the legacy single JSON file.
    """
    if path.is_dir():
        return "sharded"
    if path.suffix.lower() in _SQLITE_SUFFIXES:
        # The suffix wins even for existing files: a corrupt database
        # must reach the SQLite backend's recovery path, not be parsed
        # as JSON.
        return "sqlite"
    if path.is_file():
        try:
            with open(path, "rb") as handle:
                if handle.read(len(SQLITE_MAGIC)) == SQLITE_MAGIC:
                    return "sqlite"
        except OSError:  # pragma: no cover - unreadable file; let json raise
            pass
    return "json"


def open_store(path: PathLike, backend: Optional[str] = None) -> CacheStore:
    """Resolve a store path to a backend instance.

    ``path`` may carry a ``json:`` / ``sharded:`` / ``sqlite:`` scheme
    prefix naming the backend explicitly (the CLI's ``--cache-backend``
    flag is spelled this way internally, so one string travels through
    settings, workers, and cache classes unchanged).  Without a prefix
    or an explicit ``backend`` argument, the on-disk state decides; a
    fresh path defaults to the legacy single-file backend unless its
    suffix marks it as a database.
    """
    explicit, real_path = parse_store_path(path)
    chosen = backend or explicit or _sniff_backend(real_path)
    if chosen == "json":
        return SingleFileStore(real_path)
    if chosen == "sharded":
        from repro.persistence.sharded import ShardedStore

        return ShardedStore(real_path)
    if chosen == "sqlite":
        from repro.persistence.sqlite import SqliteStore

        return SqliteStore(real_path)
    raise ValueError(
        f"unknown cache-store backend {chosen!r} (expected one of {BACKENDS})"
    )


def migrate_store(
    source: PathLike,
    dest: PathLike,
    file_format: str,
    version: int,
    key_of: Callable[[dict], Tuple],
    kind: Optional[str] = None,
) -> int:
    """Copy every entry of one store into another (backend conversion).

    Reads the full entry list of ``source`` and writes it as the new
    *image* of ``dest`` — the canonical way to promote a legacy
    single-file cache to the sharded or SQLite backend (or back).
    Returns the number of entries migrated.
    """
    entries = open_store(source).read(file_format, version, kind=kind)
    return open_store(dest).replace(
        file_format, version, list(entries or []), key_of=key_of, kind=kind
    )


def salvage_torn_store(
    path: PathLike,
    file_format: str,
    version: int,
    kind: Optional[str] = None,
) -> Optional[List[dict]]:
    """Recover the complete records of a torn single-file store.

    :func:`atomic_write_text` makes a *writer* crash unable to tear a
    store, but torn files still arrive sideways: interrupted copies,
    full disks, byte-level fault injection, or a checkpoint copied off
    a dying host mid-append.  The strict single-file backend refuses to
    read such a file; this helper decodes every record that survives
    intact in the entry-list prefix, moves the damaged original aside
    as ``<name>.quarantine-<pid>`` (bytes preserved for forensics,
    mirroring the sharded/SQLite quarantine discipline), and returns
    the salvaged records.

    Returns ``None`` when there is nothing to salvage from — no file,
    or damage that precedes the entry list so even the envelope header
    cannot be trusted; the caller then re-raises its original error or
    treats the store as cold.
    """
    kind = kind or file_format
    _, target = parse_store_path(path)
    if not target.is_file():
        return None
    try:
        text = target.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return None
    # The undamaged prefix must pin the expected envelope (format and
    # version appear before "entries" in every file this layer writes);
    # anything else is not a torn write of *this* store kind.
    head, separator, body = text.partition('"entries"')
    if not separator:
        return None
    if f'"format": {json.dumps(file_format)}' not in head:
        return None
    if f'"version": {version}' not in head:
        return None
    opening = body.find("[")
    if opening < 0:
        return None
    decoder = json.JSONDecoder()
    index = opening + 1
    records: List[dict] = []
    while index < len(body):
        character = body[index]
        if character in " \t\r\n,":
            index += 1
            continue
        if character == "]":
            break
        try:
            record, index = decoder.raw_decode(body, index)
        except ValueError:
            break  # the torn tail: drop the half-written record
        if isinstance(record, dict):
            records.append(record)
        else:
            return None  # entry list holds non-records; not our tear
    quarantine = target.with_name(f"{target.name}.quarantine-{os.getpid()}")
    os.replace(target, quarantine)
    _count_store_fault("persistence/torn_stores")
    _count_store_fault("persistence/salvaged_records", len(records))
    warnings.warn(
        f"{kind} store {target} was torn mid-write; salvaged "
        f"{len(records)} complete records, quarantined the damaged file "
        f"as {quarantine.name}, and will recompute the rest",
        CacheStoreFault, stacklevel=2,
    )
    return records
