"""Verification result caching keyed on trace fingerprints.

Batch traffic is full of repeats: the same workload recorded under different
seeds, the same trace verified twice, a nightly batch re-running yesterday's
corpus.  Because :func:`repro.trace.fingerprint.trace_fingerprint` is
invariant under global interleaving, all of those collapse onto one cache
key — ``(fingerprint, property-set, encoder options, backend, mode)`` — and
a :class:`ResultCache` answers them without touching a solver.

Two storage layers compose:

* an in-memory LRU (always on), bounded by ``maxsize`` entries;
* an optional on-disk JSON store (one file per key under ``directory``),
  which survives processes and is shared by concurrent workers — safe
  because entries are immutable once written, writes are atomic
  (``os.replace`` of a temp file), and every store-level mutation
  (entry write, index update, eviction, quarantine) happens under an
  advisory ``flock`` on ``<directory>/_lock``, so a daemon and any number
  of concurrent one-shot CLIs can share one store.

The disk layer can be size-bounded: ``max_entries`` / ``max_bytes`` cap the
store, with least-recently-used entries evicted first.  Recency lives in a
``_index.json`` sidecar (schema-stamped like the store itself); a missing
or torn index is rebuilt from a directory scan, never trusted blindly.
Unreadable entry files are moved into ``<directory>/_quarantine/`` and
counted, instead of raising mid-batch or being re-parsed forever.

**Semantics.** Only conclusive verdicts (``SAFE`` / ``VIOLATION``) are
cached; ``UNKNOWN`` is a resource exhaustion artefact and must stay
retryable with a bigger budget.  Cached hits reconstruct a
:class:`~repro.verification.result.VerificationResult` with
``from_cache=True``, ``problem=None`` (the encoding was never built) and a
witness whose matching has been translated into the *query* trace's
send/recv identifiers via the canonical ``(thread, thread_index)`` naming.

**Invalidation.** Keys embed everything that can change an answer: the
trace's semantic content (fingerprint), the property set, the encoder
options, the backend family and the verification mode (safety answers must
never collide with deadlock or orphan answers for the same trace).  There
is nothing to invalidate manually — a different question is a different
key.  Deleting the cache directory (or :meth:`ResultCache.clear`) simply
forces re-solving.

**Schema.** The key layout is versioned (:data:`CACHE_SCHEMA_VERSION`).  A
disk-backed cache stamps its directory with a ``_schema.json`` marker on
first use and *refuses* — with :class:`~repro.utils.errors.CacheSchemaError`
at construction, never a crash mid-lookup — to open a store written under a
different layout; individual entry files also carry the version and
mismatches load as misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

try:  # POSIX advisory locking; the cache degrades to lockless elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro import faults
from repro.encoding.encoder import EncoderOptions
from repro.encoding.properties import Property
from repro.encoding.witness import Witness
from repro.trace.fingerprint import trace_fingerprint
from repro.trace.trace import ExecutionTrace
from repro.utils.errors import CacheSchemaError
from repro.verification.result import Verdict, VerificationResult

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheKey",
    "ResultCache",
    "make_cache_key",
    "translate_witness",
]

#: Version of the cache key layout + entry format.  Bump whenever the key
#: composition changes (as the deadlock mode did when it joined the key):
#: stores written under another version are refused, not misread.
CACHE_SCHEMA_VERSION = 2

#: Canonical (thread, thread_index) naming of one operation.
_OpKey = Tuple[str, int]


@dataclass(frozen=True)
class CacheKey:
    """Everything that determines a verification answer."""

    fingerprint: str
    properties: str
    options: str
    backend: str
    mode: str = "safety"

    def digest(self) -> str:
        """A filesystem-safe digest naming this key on disk."""
        joined = "\x1f".join(
            (self.fingerprint, self.properties, self.options, self.backend, self.mode)
        )
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def _options_signature(options: Optional[EncoderOptions]) -> str:
    options = options if options is not None else EncoderOptions()
    parts = []
    for field in fields(options):
        value = getattr(options, field.name)
        value = value.value if hasattr(value, "value") else value
        parts.append(f"{field.name}={value}")
    return ";".join(parts)


def _properties_signature(
    trace: ExecutionTrace, properties: Optional[Sequence[Property]]
) -> str:
    """Identify the property set.

    The default (``None`` — the trace's own assertions) is fully captured
    by the fingerprint itself, so it gets a fixed tag, and *trace-global*
    properties (``Property.cache_signature`` set — deadlock freedom, orphan
    freedom) likewise contribute fixed tags so fingerprint-equal traces
    recorded under different interleavings share their entries.  All other
    explicit properties are rendered against *this* trace's identifiers:
    that is deliberately conservative — properties referencing trace-local
    recv/send ids are not portable between traces, even fingerprint-equal
    ones, so such entries only ever hit on the identical numbering.
    """
    if properties is None:
        return "trace-assertions"
    tagged: List[str] = []
    rendered: List[str] = []
    for prop in properties:
        tag = getattr(prop, "cache_signature", None)
        if tag is not None:
            tagged.append(f"{type(prop).__name__}:{tag}")
        else:
            rendered.append(f"{type(prop).__name__}:{prop.term(trace)}")
    if not rendered:
        return "|".join(sorted(tagged))
    # Two fingerprint-equal traces can bind the same recv/send id to
    # *different* logical operations (ids are assigned in interleaving
    # order), so a term like "recv_val_1 == 1" renders identically while
    # meaning different things.  Fold the id -> (thread, thread_index)
    # binding into the signature so such traces never share an entry.
    bindings = sorted(
        f"r{op.recv_id}@{trace[op.issue_event_id].thread}:"
        f"{trace[op.issue_event_id].thread_index}"
        for op in trace.receive_operations()
    ) + sorted(
        f"s{event.send_id}@{event.thread}:{event.thread_index}"
        for event in trace.sends()
    )
    payload = (
        "\n".join(sorted(tagged) + sorted(rendered)) + "\x1f" + ";".join(bindings)
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def make_cache_key(
    trace: ExecutionTrace,
    properties: Optional[Sequence[Property]] = None,
    options: Optional[EncoderOptions] = None,
    backend: str = "dpllt",
    mode: str = "safety",
    fingerprint: Optional[str] = None,
) -> CacheKey:
    """Build the cache key for one verification question.

    ``mode`` is carried explicitly even though a mode also reshapes
    ``properties``/``options`` (see
    :func:`repro.verification.session.resolve_mode`): belt-and-braces
    against any future property whose rendering coincides across modes —
    safety-mode and deadlock-mode answers must never share an entry.
    ``fingerprint`` is ``trace``'s fingerprint when the caller already
    holds it, so the trace is not hashed a second time.
    """
    return CacheKey(
        fingerprint=trace_fingerprint(trace) if fingerprint is None else fingerprint,
        properties=_properties_signature(trace, properties),
        options=_options_signature(options),
        backend=backend,
        mode=mode,
    )


# ---------------------------------------------------------------------------
# Canonical matching translation
# ---------------------------------------------------------------------------


def _operation_keys(
    trace: ExecutionTrace,
) -> Tuple[Dict[int, _OpKey], Dict[int, _OpKey]]:
    """Map this trace's recv/send ids to canonical (thread, index) keys."""
    recv_keys: Dict[int, _OpKey] = {}
    for op in trace.receive_operations():
        issue = trace[op.issue_event_id]
        recv_keys[op.recv_id] = (issue.thread, issue.thread_index)
    send_keys: Dict[int, _OpKey] = {
        event.send_id: (event.thread, event.thread_index) for event in trace.sends()
    }
    return recv_keys, send_keys


def _encode_witness(trace: ExecutionTrace, witness: Witness) -> Dict[str, object]:
    recv_keys, send_keys = _operation_keys(trace)
    matching = [
        [list(recv_keys[recv_id]), list(send_keys[send_id])]
        for recv_id, send_id in sorted(witness.matching.items())
    ]
    values = [
        [list(recv_keys[recv_id]), value]
        for recv_id, value in sorted(witness.receive_values.items())
        if recv_id in recv_keys
    ]
    unmatched = [
        list(recv_keys[recv_id]) for recv_id in sorted(witness.unmatched_receives)
    ]
    orphans = [list(send_keys[send_id]) for send_id in sorted(witness.orphan_sends)]
    return {
        "matching": matching,
        "receive_values": values,
        "unmatched_receives": unmatched,
        "orphan_sends": orphans,
    }


def _decode_witness(trace: ExecutionTrace, payload: Dict[str, object]) -> Witness:
    recv_keys, send_keys = _operation_keys(trace)
    recv_by_key = {key: recv_id for recv_id, key in recv_keys.items()}
    send_by_key = {key: send_id for send_id, key in send_keys.items()}
    matching = {
        recv_by_key[tuple(recv)]: send_by_key[tuple(send)]
        for recv, send in payload.get("matching", [])
    }
    values = {
        recv_by_key[tuple(recv)]: value
        for recv, value in payload.get("receive_values", [])
    }
    unmatched = [
        recv_by_key[tuple(recv)] for recv in payload.get("unmatched_receives", [])
    ]
    orphans = [send_by_key[tuple(send)] for send in payload.get("orphan_sends", [])]
    return Witness(
        matching=matching,
        receive_values=values,
        unmatched_receives=unmatched,
        orphan_sends=orphans,
    )


def translate_witness(
    witness: Witness, source: ExecutionTrace, target: ExecutionTrace
) -> Witness:
    """Re-express ``witness``, given in ``source``'s recv/send ids, in the
    ids of the fingerprint-equal ``target``."""
    return _decode_witness(target, _encode_witness(source, witness))


# ---------------------------------------------------------------------------
# The cache proper
# ---------------------------------------------------------------------------


class _StoreLock:
    """Advisory inter-process lock over one on-disk store.

    Backed by ``flock`` on ``<directory>/_lock``; reentrant use is not
    needed (lock scopes never nest).  On platforms without ``fcntl`` the
    lock degrades to a no-op — single-process behaviour is unchanged.
    """

    def __init__(self, directory: str) -> None:
        self._path = os.path.join(directory, "_lock")
        self._handle = None

    def __enter__(self) -> "_StoreLock":
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            return self
        self._handle = open(self._path, "a+b")
        fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc) -> None:
        if self._handle is not None:
            try:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            finally:
                self._handle.close()
                self._handle = None


class ResultCache:
    """In-memory LRU of verification answers, optionally backed by disk.

    ``max_entries`` / ``max_bytes`` bound the *disk* layer (``None`` means
    unbounded, the historical behaviour); least-recently-used entries are
    evicted first, with recency tracked in ``_index.json``.  All disk
    mutations take the store's advisory file lock, so one directory can be
    shared by a daemon and concurrent one-shot processes.
    """

    def __init__(
        self,
        maxsize: int = 4096,
        directory: Optional[str] = None,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError("ResultCache needs maxsize >= 1")
        if max_entries is not None and max_entries < 1:
            raise ValueError("ResultCache needs max_entries >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("ResultCache needs max_bytes >= 1")
        self.maxsize = maxsize
        self.directory = directory
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[CacheKey, Dict[str, object]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.quarantined = 0
        self.store_failures = 0
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self._check_store_schema()

    # -- locking -----------------------------------------------------------------

    def _store_lock(self):
        """The store's advisory file lock (a no-op for memory-only caches)."""
        if self.directory is None:
            return nullcontext()
        return _StoreLock(self.directory)

    # -- schema ------------------------------------------------------------------

    def _schema_marker_path(self) -> str:
        return os.path.join(self.directory, "_schema.json")

    def _check_store_schema(self) -> None:
        """Stamp a fresh store / refuse one written under another layout."""
        with self._store_lock():
            self._check_store_schema_locked()

    def _check_store_schema_locked(self) -> None:
        path = self._schema_marker_path()
        if os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    recorded = json.load(handle).get("schema")
            except (OSError, ValueError):
                recorded = None
            if recorded != CACHE_SCHEMA_VERSION:
                raise CacheSchemaError(
                    f"result store {self.directory!r} was written with cache "
                    f"schema {recorded!r}, but this build uses schema "
                    f"{CACHE_SCHEMA_VERSION} (the key layout changed); point "
                    "the cache at a fresh directory or delete the old store"
                )
            return
        marker = {
            "schema": CACHE_SCHEMA_VERSION,
            "key_fields": [f.name for f in fields(CacheKey)],
        }
        handle = tempfile.NamedTemporaryFile(
            "w", dir=self.directory, suffix=".tmp", delete=False, encoding="utf-8"
        )
        try:
            with handle:
                json.dump(marker, handle)
            os.replace(handle.name, path)
        except OSError:  # pragma: no cover - marker write is best effort
            try:
                os.unlink(handle.name)
            except OSError:
                pass

    def __len__(self) -> int:
        return len(self._entries)

    def statistics(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "entries": len(self._entries),
            "evictions": self.evictions,
            "quarantined": self.quarantined,
            "store_failures": self.store_failures,
        }

    def clear(self) -> None:
        """Drop the in-memory layer (disk files are left in place)."""
        self._entries.clear()

    # -- storage -----------------------------------------------------------------

    def _disk_path(self, key: CacheKey) -> Optional[str]:
        if self.directory is None:
            return None
        return os.path.join(self.directory, key.digest() + ".json")

    def _load_from_disk(self, key: CacheKey) -> Optional[Dict[str, object]]:
        path = self._disk_path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except OSError:
            return None  # racing writer/evictor: a miss, never an error
        except ValueError:
            # A torn or corrupt file would be re-parsed (and re-fail) on
            # every lookup: move it aside once and count it.
            self._quarantine(key, path)
            return None
        if not isinstance(entry, dict) or entry.get("schema") != CACHE_SCHEMA_VERSION:
            # An entry copied in from an older store (pre-marker caches had
            # no version stamp at all): never misread it, treat as a miss.
            return None
        if self._bounded():
            with self._store_lock():
                self._touch_index_locked(key.digest())
        return entry

    def _write_to_disk(self, key: CacheKey, entry: Dict[str, object]) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        if faults.ACTIVE is not None:
            faults.fire("cache.write.entry", crash=OSError)
        data = json.dumps(entry)
        with self._store_lock():
            handle = tempfile.NamedTemporaryFile(
                "w", dir=self.directory, suffix=".tmp", delete=False, encoding="utf-8"
            )
            try:
                with handle:
                    handle.write(data)
                os.replace(handle.name, path)
            except OSError:  # pragma: no cover - disk store is best effort
                try:
                    os.unlink(handle.name)
                except OSError:
                    pass
                return
            if faults.ACTIVE is not None and faults.draw("cache.write.index"):
                # Simulated crash *between* the entry write and the index
                # update — the exact torn state the scan-rebuild path exists
                # to recover from.
                return
            if self._bounded():
                self._touch_index_locked(key.digest(), size=len(data))

    # -- disk bounds & hygiene ---------------------------------------------------

    def _bounded(self) -> bool:
        return self.directory is not None and (
            self.max_entries is not None or self.max_bytes is not None
        )

    def _index_path(self) -> str:
        return os.path.join(self.directory, "_index.json")

    def _load_index_locked(self) -> Dict[str, object]:
        try:
            with open(self._index_path(), "r", encoding="utf-8") as handle:
                index = json.load(handle)
            if (
                isinstance(index, dict)
                and index.get("schema") == CACHE_SCHEMA_VERSION
                and isinstance(index.get("entries"), dict)
            ):
                return index
        except (OSError, ValueError):
            pass
        return self._rebuild_index_locked()

    def _rebuild_index_locked(self) -> Dict[str, object]:
        """Reconstruct recency from a directory scan (mtime order)."""
        rows: List[Tuple[float, str, int]] = []
        for name in os.listdir(self.directory):
            if name.startswith("_") or not name.endswith(".json"):
                continue
            try:
                stat = os.stat(os.path.join(self.directory, name))
            except OSError:  # pragma: no cover - racing deletion
                continue
            rows.append((stat.st_mtime, name[:-5], stat.st_size))
        entries: Dict[str, List[int]] = {}
        clock = 0
        for _, digest, size in sorted(rows):
            clock += 1
            entries[digest] = [int(size), clock]
        return {"schema": CACHE_SCHEMA_VERSION, "clock": clock, "entries": entries}

    def _save_index_locked(self, index: Dict[str, object]) -> None:
        handle = tempfile.NamedTemporaryFile(
            "w", dir=self.directory, suffix=".tmp", delete=False, encoding="utf-8"
        )
        try:
            with handle:
                json.dump(index, handle)
            os.replace(handle.name, self._index_path())
        except OSError:  # pragma: no cover - index write is best effort
            try:
                os.unlink(handle.name)
            except OSError:
                pass

    def _touch_index_locked(self, digest: str, size: Optional[int] = None) -> None:
        """Stamp ``digest`` most-recently-used, then evict past the bounds."""
        index = self._load_index_locked()
        entries: Dict[str, List[int]] = index["entries"]  # type: ignore[assignment]
        if size is None:
            known = entries.get(digest)
            if known is not None:
                size = known[0]
            else:
                try:
                    size = os.path.getsize(
                        os.path.join(self.directory, digest + ".json")
                    )
                except OSError:  # entry vanished: nothing to track
                    entries.pop(digest, None)
                    self._save_index_locked(index)
                    return
        index["clock"] = int(index.get("clock", 0)) + 1
        entries[digest] = [int(size), index["clock"]]
        self._evict_locked(entries)
        self._save_index_locked(index)

    def _evict_locked(self, entries: Dict[str, List[int]]) -> None:
        total = sum(size for size, _ in entries.values())
        while entries:
            over_entries = (
                self.max_entries is not None and len(entries) > self.max_entries
            )
            over_bytes = self.max_bytes is not None and total > self.max_bytes
            if not (over_entries or over_bytes):
                break
            victim = min(entries, key=lambda d: entries[d][1])
            total -= entries.pop(victim)[0]
            try:
                os.unlink(os.path.join(self.directory, victim + ".json"))
            except OSError:  # pragma: no cover - already gone
                pass
            self.evictions += 1

    def _quarantine(self, key: CacheKey, path: str) -> None:
        quarantine_dir = os.path.join(self.directory, "_quarantine")
        with self._store_lock():
            try:
                os.makedirs(quarantine_dir, exist_ok=True)
                os.replace(
                    path, os.path.join(quarantine_dir, os.path.basename(path))
                )
            except OSError:  # pragma: no cover - last resort: drop it
                try:
                    os.unlink(path)
                except OSError:
                    pass
            if self._bounded():
                index = self._load_index_locked()
                if index["entries"].pop(key.digest(), None) is not None:
                    self._save_index_locked(index)
        self.quarantined += 1

    def _remember(self, key: CacheKey, entry: Dict[str, object]) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    # -- public API --------------------------------------------------------------

    def lookup(
        self, key: CacheKey, trace: ExecutionTrace
    ) -> Optional[VerificationResult]:
        """Return a cached answer translated onto ``trace``, or ``None``.

        ``trace`` must be a trace whose key equals ``key`` — the witness
        matching is re-expressed in that trace's recv/send identifiers.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        else:
            entry = self._load_from_disk(key)
            if entry is not None:
                self._remember(key, entry)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        witness = None
        if entry.get("witness") is not None:
            witness = _decode_witness(trace, entry["witness"])
        return VerificationResult(
            verdict=Verdict(entry["verdict"]),
            witness=witness,
            solve_seconds=float(entry.get("solve_seconds", 0.0)),
            trace=trace,
            backend=entry.get("backend"),
            from_cache=True,
        )

    def store(self, key: CacheKey, result: VerificationResult) -> bool:
        """Record a freshly computed result; returns True if cached.

        UNKNOWN verdicts and results already served from cache are skipped.
        """
        if result.from_cache or result.verdict is Verdict.UNKNOWN:
            return False
        if result.trace is None:
            return False
        entry: Dict[str, object] = {
            "schema": CACHE_SCHEMA_VERSION,
            "verdict": result.verdict.value,
            "backend": result.backend,
            "solve_seconds": result.solve_seconds,
            "witness": (
                _encode_witness(result.trace, result.witness)
                if result.witness is not None
                else None
            ),
        }
        self._remember(key, entry)
        try:
            self._write_to_disk(key, entry)
        except OSError:
            # The disk layer is best effort: a failed persist must never
            # fail the verification request that produced the result.
            self.store_failures += 1
        self.stores += 1
        return True
