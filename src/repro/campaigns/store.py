"""Content-addressed on-disk result store.

Every completed campaign cell (and every cached experiment table) lives in
the store under its content key (:func:`repro.campaigns.spec.content_key`):

```
store/
  store.json                  # store-format marker
  objects/<kk>/<key>.pkl.gz   # pickled payload, reproducible gzip (mtime=0)
  runs/<kk>/<key>.json        # metadata record: spec, backend, timing, version
  leases/<kk>/<key>.lease     # in-flight claims of a worker fleet (JSON + mtime heartbeat)
  checkpoints/<kk>/<key>/ckpt-<seq>.{pkl.gz,json}  # service job checkpoint generations
  campaigns/<name>.json       # campaign manifests (what `status`/`report` read)
```

where ``<kk>`` is the first two hex digits of the key (a fan-out prefix so
no single directory grows unboundedly).  Payload and record are written via
same-directory temp files and ``os.replace`` — the manifest discipline of
:func:`repro.streaming.trace_io.write_json_atomic` — so a killed sweep
leaves either a complete cell or no cell, never a torn one; that atomicity
is the whole resume story.  A cell is *present* only when both its payload
and its record exist **and verify** (:meth:`ResultStore.__contains__`
checks the record parses and the payload matches the byte size and SHA-256
digest the record pinned), so a crash between the two writes — or a
truncated / corrupted file from a dying disk — reads as "missing" and the
cell is simply recomputed, never crashed on.

Concurrent writers (the campaign runner's worker pool) are safe by
construction: distinct cells touch distinct paths, and identical cells
replace each other with identical content.

The ``leases/`` area makes the store double as a **work queue** for
multi-process campaign fleets: a worker claims a missing cell by creating
its lease file with ``O_CREAT | O_EXCL`` (atomic on POSIX filesystems and
on NFS v3+, the shared-filesystem case fleets care about), keeps the claim
alive by bumping the file's mtime (:meth:`ResultStore.refresh_lease`), and
releases it after persisting the cell.  A lease whose heartbeat is older
than the fleet's TTL belongs to a dead worker and may be **taken over**
(:meth:`ResultStore.acquire_lease` replaces it).  Takeover is
last-writer-wins, so two workers racing for the same stale lease can, in
the worst case, both compute the cell — a *lost-lease race*.  That costs
duplicate work, never correctness: both write byte-identical content under
the same key.  Leases are advisory for readers; presence of a cell is
always decided by payload + record alone.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import os
import pickle
import socket
import tempfile
import time
from pathlib import Path
from typing import Callable, Iterator, Mapping, Tuple, Union

from repro._util.logging import get_logger
from repro.campaigns.spec import content_key
from repro.streaming.trace_io import read_json, write_json_atomic

__all__ = ["DEFAULT_LEASE_TTL_SECONDS", "STORE_FORMAT_VERSION", "ResultStore"]

#: On-disk store layout version, recorded in ``store.json``.
STORE_FORMAT_VERSION = 1

#: Default lease heartbeat TTL: a lease whose mtime is older than this is
#: presumed to belong to a dead worker and may be taken over.  Heartbeats
#: fire every ``ttl / 3``, so a healthy worker survives two missed beats.
DEFAULT_LEASE_TTL_SECONDS = 30.0

#: gzip level of stored payloads.  Level 6 compresses a campaign cell about
#: five times faster than level 9 for about 2% more bytes; any level reads
#: back the same, so stores written at level 9 stay readable.
_PAYLOAD_COMPRESSLEVEL = 6

_logger = get_logger("campaigns.store")


def _repro_version() -> str:
    from repro import __version__

    return __version__


class ResultStore:
    """Content-addressed persistence for analysis results.

    The store maps a content key (a SHA-256 hex string naming *what* was
    computed) to a pickled payload plus a JSON metadata record.  It never
    interprets payloads; callers decide what a key means (campaign cells
    store :class:`~repro.scenarios.run.ScenarioRun` objects, cached
    experiments store plain row lists).
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        marker = self.root / "store.json"
        if marker.exists():
            version = int(read_json(marker).get("format", -1))
            if version != STORE_FORMAT_VERSION:
                raise ValueError(
                    f"result store at {self.root} uses format {version}; "
                    f"this build reads format {STORE_FORMAT_VERSION}"
                )
        else:
            write_json_atomic(marker, {"format": STORE_FORMAT_VERSION})
        # keys whose payload already passed size+digest verification in this
        # process — verification is per-content, and concurrent writers of
        # the same key write identical bytes, so a pass never goes stale
        self._verified: set = set()
        self._prune_orphaned_temp_files()
        self._prune_ancient_leases()

    def __getstate__(self) -> dict:
        # a store shipped to a pool worker opens without the prune pass and
        # verifies afresh: the growing verification memo stays behind
        return {**self.__dict__, "_verified": set()}

    #: Temp files younger than this are left alone at store open — they may
    #: belong to a concurrent writer mid-put; older ones are debris from a
    #: hard-killed sweep (SIGKILL skips the in-process cleanup).
    _TEMP_MAX_AGE_SECONDS = 3600.0

    def _prune_orphaned_temp_files(self) -> None:
        """Remove stale ``*.tmp`` files a hard-killed writer left behind."""
        cutoff = time.time() - self._TEMP_MAX_AGE_SECONDS
        for pattern in (
            "objects/*/*.tmp", "runs/*/*.tmp", "leases/*/*.tmp",
            "checkpoints/*/*/*.tmp", "campaigns/*.tmp", "*.tmp",
        ):
            for orphan in self.root.glob(pattern):
                try:
                    if orphan.stat().st_mtime < cutoff:
                        orphan.unlink()
                        _logger.debug("pruned orphaned temp file %s", orphan)
                except OSError:  # pragma: no cover - racing writer finished/cleaned
                    continue

    def _prune_ancient_leases(self) -> None:
        """Remove lease files whose heartbeat stopped over an hour ago.

        This is debris collection, not takeover: no sane fleet runs a
        heartbeat TTL anywhere near :data:`_TEMP_MAX_AGE_SECONDS`, so a
        lease this old can only belong to a worker killed long before this
        store was opened.  TTL-scale staleness is handled where it matters,
        in :meth:`acquire_lease` (takeover) and :meth:`gc_leases`.
        """
        cutoff = time.time() - self._TEMP_MAX_AGE_SECONDS
        for lease in self.root.glob("leases/*/*.lease"):
            try:
                if lease.stat().st_mtime < cutoff:
                    lease.unlink()
                    _logger.debug("pruned ancient lease %s", lease)
            except OSError:  # pragma: no cover - racing worker released it
                continue

    # -- paths ---------------------------------------------------------------

    def _object_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.pkl.gz"

    def _record_path(self, key: str) -> Path:
        return self.root / "runs" / key[:2] / f"{key}.json"

    def _lease_path(self, key: str) -> Path:
        return self.root / "leases" / key[:2] / f"{key}.lease"

    def _checkpoint_dir(self, key: str) -> Path:
        return self.root / "checkpoints" / key[:2] / key

    def _checkpoint_paths(self, key: str, seq: int) -> Tuple[Path, Path]:
        directory = self._checkpoint_dir(key)
        return directory / f"ckpt-{int(seq):012d}.pkl.gz", directory / f"ckpt-{int(seq):012d}.json"

    def campaign_path(self, name: str) -> Path:
        """Path of one campaign's manifest inside the store."""
        if not name or "/" in name or name.startswith("."):
            raise ValueError(f"invalid campaign name {name!r}")
        return self.root / "campaigns" / f"{name}.json"

    # -- cell API ------------------------------------------------------------

    def _read_record(self, key: str) -> dict | None:
        """The metadata record, or ``None`` when absent or unparseable.

        A record that cannot be parsed (torn or corrupted on disk) is
        indistinguishable from a missing one on purpose: the cell must read
        as absent so a resuming sweep recomputes it instead of crashing.
        """
        path = self._record_path(key)
        try:
            record = read_json(path)
        except (OSError, ValueError):
            if path.is_file():
                _logger.warning("unreadable record for key %s in %s; treating cell as missing",
                                key[:12], self.root)
            return None
        return record if isinstance(record, dict) else None

    def _verified_payload(self, key: str, record: Mapping) -> bytes | None:
        """Read the payload file, verified against its record's pins.

        Returns the raw (still-compressed) bytes when they match the size
        and SHA-256 digest the record pinned at write time, else ``None``:
        truncation is caught by the size check without reading the file,
        in-place corruption by the digest.  Records written before these
        fields existed verify by existence alone.  The single read here is
        the store's whole integrity story — callers decompress from the
        returned buffer, never from disk a second time.
        """
        path = self._object_path(key)
        expected_size = record.get("payload_bytes")
        try:
            if expected_size is not None and path.stat().st_size != int(expected_size):
                _logger.warning("payload size mismatch for key %s in %s; "
                                "treating cell as missing", key[:12], self.root)
                return None
            raw = path.read_bytes()
        except OSError:
            return None
        expected_sha = record.get("payload_sha256")
        if expected_sha is not None and key not in self._verified:
            if hashlib.sha256(raw).hexdigest() != expected_sha:
                _logger.warning("payload digest mismatch for key %s in %s; "
                                "treating cell as missing", key[:12], self.root)
                return None
        self._verified.add(key)
        return raw

    def __contains__(self, key: str) -> bool:
        """True when the payload and record exist *and* verify.

        A cell is present only when its record parses and its payload
        matches the size and SHA-256 digest the record pinned at write
        time — so a torn write, a truncation, or on-disk corruption of
        either file reads as "missing" (and is recomputed on resume),
        never crashed on.  Each payload is hashed at most once per store
        instance (repeat checks re-stat the size only), so a warm sweep
        verifies every cell exactly once.
        """
        record = self._read_record(key)
        if record is None:
            return False
        if key in self._verified:
            path = self._object_path(key)
            expected_size = record.get("payload_bytes")
            try:
                return expected_size is None or path.stat().st_size == int(expected_size)
            except OSError:
                return False
        return self._verified_payload(key, record) is not None

    def keys(self) -> Iterator[str]:
        """Iterate over the keys of every complete entry, sorted."""
        objects = self.root / "objects"
        for payload in sorted(objects.glob("*/*.pkl.gz")):
            key = payload.name[: -len(".pkl.gz")]
            if key in self:
                yield key

    def get(self, key: str):
        """Load and return the payload stored under *key*.

        Raises ``KeyError`` when the cell is absent — including when either
        file is torn or corrupted (verification failure, or a
        decompression/unpickling failure on bytes that matched their
        digest, e.g. a payload pickled by an incompatible version).  One
        disk read total: verification and decompression share the buffer.
        """
        record = self._read_record(key)
        if record is None:
            raise KeyError(f"no complete entry for key {key} in store {self.root}")
        raw = self._verified_payload(key, record)
        if raw is None:
            raise KeyError(f"no complete entry for key {key} in store {self.root}")
        try:
            with gzip.GzipFile(fileobj=io.BytesIO(raw), mode="rb") as handle:
                return pickle.load(handle)
        except Exception as error:
            # deliberately broad: the bytes already passed verification, so
            # any decode failure — zlib.error, UnpicklingError, the
            # ModuleNotFoundError/TypeError of an incompatible-version
            # pickle, ... — means the payload is unusable and the cell must
            # read as missing (recomputed), never crash the caller
            _logger.warning("undecodable payload for key %s in %s (%s); "
                            "treating cell as missing", key[:12], self.root, error)
            raise KeyError(f"undecodable payload for key {key} in store {self.root}") from error

    def record(self, key: str) -> dict:
        """The metadata record stored alongside *key*'s payload.

        Cheap by design — two stats and a JSON parse, no payload hashing —
        for presence listings like ``campaign status`` that must not read
        the whole store; callers needing full integrity use ``key in
        store`` or :meth:`get`.  Raises ``KeyError`` unless the record
        parses and the payload file exists with the pinned byte size (so
        torn and truncated cells still read as missing here; same-size
        corruption is caught at payload-read time).
        """
        record = self._read_record(key)
        if record is None:
            raise KeyError(f"no complete entry for key {key} in store {self.root}")
        expected_size = record.get("payload_bytes")
        try:
            size = self._object_path(key).stat().st_size
        except OSError:
            raise KeyError(f"no complete entry for key {key} in store {self.root}") from None
        if expected_size is not None and size != int(expected_size):
            raise KeyError(f"torn payload for key {key} in store {self.root}")
        return record

    @staticmethod
    def _dump_payload(payload) -> bytes:
        """Pickle + gzip (``mtime=0``) a payload into reproducible bytes."""
        buffer = io.BytesIO()
        with gzip.GzipFile(
            fileobj=buffer, mode="wb", compresslevel=_PAYLOAD_COMPRESSLEVEL, mtime=0
        ) as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        return buffer.getvalue()

    @staticmethod
    def _replace_bytes(path: Path, payload_bytes: bytes) -> None:
        """Write bytes to *path* via same-directory temp file + ``os.replace``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        # per-writer unique temp name: concurrent writers of the same key
        # (identical content) must replace each other, never collide
        handle = tempfile.NamedTemporaryFile(
            "wb", dir=path.parent, prefix=path.name + ".", suffix=".tmp", delete=False
        )
        try:
            with handle:
                handle.write(payload_bytes)
            os.replace(handle.name, path)
        except BaseException:
            # the temp file may already be gone (os.replace consumed it
            # before failing, or a concurrent GC swept it); a failing unlink
            # must never mask the exception that actually broke the put
            with contextlib.suppress(OSError):
                os.unlink(handle.name)
            raise

    def put(self, key: str, payload, meta: Mapping | None = None) -> None:
        """Persist *payload* under *key*, atomically, payload before record.

        The gzip stream is written with ``mtime=0`` so equal payloads produce
        byte-identical objects — the store's files are as content-addressed
        as its keys.  The record pins the payload's byte size and SHA-256
        digest, which is what lets :meth:`__contains__` verify cells.
        """
        payload_bytes = self._dump_payload(payload)
        self._replace_bytes(self._object_path(key), payload_bytes)
        write_json_atomic(
            self._record_path(key),
            {
                "key": key,
                "repro_version": _repro_version(),
                "payload_bytes": len(payload_bytes),
                "payload_sha256": hashlib.sha256(payload_bytes).hexdigest(),
                **dict(meta or {}),
            },
        )

    def get_or_compute(
        self, key: str, compute: Callable[[], object], meta: Mapping | None = None
    ) -> Tuple[object, bool]:
        """Return ``(payload, was_cached)``, computing and storing on a miss.

        "Miss" includes a stored cell that fails verification *or*
        unpickling — anything :meth:`get` refuses to return is recomputed
        and overwritten, never crashed on.
        """
        try:
            return self.get(key), True
        except KeyError:
            pass
        started = time.perf_counter()
        payload = compute()
        seconds = time.perf_counter() - started
        self.put(key, payload, meta={"seconds": round(seconds, 6), **dict(meta or {})})
        return payload, False

    # -- checkpoints: generational durability for resident jobs -----------------

    #: Checkpoint generations retained per key beyond the newest one, so a
    #: checkpoint torn by a crash mid-replace still leaves a verified older
    #: generation to fall back to.
    CHECKPOINT_KEEP = 2

    def put_checkpoint(self, key: str, payload, *, seq: int, meta: Mapping | None = None) -> None:
        """Persist one checkpoint generation under ``checkpoints/<key>/``.

        Same discipline as :meth:`put` — reproducible gzip, temp-file +
        ``os.replace``, record pinning byte size and SHA-256 — but keyed by
        a monotonically increasing *seq* so multiple generations coexist:
        :meth:`latest_checkpoint` walks them newest-first and a torn or
        corrupted newest generation falls back to the previous one.  Older
        generations beyond :data:`CHECKPOINT_KEEP` are pruned.
        """
        if int(seq) < 0:
            raise ValueError(f"checkpoint seq must be >= 0, got {seq}")
        payload_path, record_path = self._checkpoint_paths(key, seq)
        payload_bytes = self._dump_payload(payload)
        self._replace_bytes(payload_path, payload_bytes)
        write_json_atomic(
            record_path,
            {
                "key": key,
                "seq": int(seq),
                "repro_version": _repro_version(),
                "payload_bytes": len(payload_bytes),
                "payload_sha256": hashlib.sha256(payload_bytes).hexdigest(),
                **dict(meta or {}),
            },
        )
        self._prune_checkpoints(key)

    def checkpoint_seqs(self, key: str) -> tuple[int, ...]:
        """Sequence numbers of the checkpoint generations on disk, ascending."""
        directory = self._checkpoint_dir(key)
        seqs = []
        for record in directory.glob("ckpt-*.json"):
            try:
                seqs.append(int(record.stem.split("-")[-1]))
            except ValueError:  # pragma: no cover - foreign file in the area
                continue
        return tuple(sorted(seqs))

    def latest_checkpoint(self, key: str) -> Tuple[int, object] | None:
        """Newest checkpoint generation that verifies, or ``None``.

        Walks the generations newest-first; one whose record does not
        parse, whose payload fails the size/SHA-256 pins, or whose bytes do
        not unpickle is **skipped with a WARNING** and the previous
        generation is tried — a torn write can cost at most the work since
        the prior checkpoint, never the ability to resume.
        """
        for seq in reversed(self.checkpoint_seqs(key)):
            payload_path, record_path = self._checkpoint_paths(key, seq)
            try:
                record = read_json(record_path)
                if not isinstance(record, dict):
                    raise ValueError("checkpoint record is not an object")
            except (OSError, ValueError):
                _logger.warning("unreadable checkpoint record seq=%d for key %s in %s; "
                                "trying previous generation", seq, key[:12], self.root)
                continue
            try:
                raw = payload_path.read_bytes()
            except OSError:
                _logger.warning("missing checkpoint payload seq=%d for key %s in %s; "
                                "trying previous generation", seq, key[:12], self.root)
                continue
            expected_size = record.get("payload_bytes")
            expected_sha = record.get("payload_sha256")
            if (expected_size is not None and len(raw) != int(expected_size)) or (
                expected_sha is not None and hashlib.sha256(raw).hexdigest() != expected_sha
            ):
                _logger.warning("corrupted checkpoint seq=%d for key %s in %s "
                                "(size/digest mismatch); trying previous generation",
                                seq, key[:12], self.root)
                continue
            try:
                with gzip.GzipFile(fileobj=io.BytesIO(raw), mode="rb") as handle:
                    return int(seq), pickle.load(handle)
            except Exception as error:
                _logger.warning("undecodable checkpoint seq=%d for key %s in %s (%s); "
                                "trying previous generation", seq, key[:12], self.root, error)
                continue
        return None

    def _prune_checkpoints(self, key: str) -> None:
        """Drop generations older than the newest :data:`CHECKPOINT_KEEP`."""
        seqs = self.checkpoint_seqs(key)
        for seq in seqs[: -self.CHECKPOINT_KEEP]:
            payload_path, record_path = self._checkpoint_paths(key, seq)
            with contextlib.suppress(OSError):
                record_path.unlink()
            with contextlib.suppress(OSError):
                payload_path.unlink()

    # -- leases: the store as a work queue --------------------------------------

    def acquire_lease(
        self, key: str, owner: str, *, ttl: float = DEFAULT_LEASE_TTL_SECONDS
    ) -> bool:
        """Claim *key* for *owner*; True when this worker now holds the lease.

        The happy path is one atomic ``O_CREAT | O_EXCL`` create: exactly
        one worker of a fleet wins a free key.  A lease already on disk
        blocks the claim while its heartbeat (file mtime) is younger than
        *ttl* seconds; once older, the holder is presumed dead and the
        lease is **taken over** via temp-file + ``os.replace``.  Takeover
        is last-writer-wins and re-verified by ownership read-back, so two
        workers racing for the same stale lease resolve to (at most) one
        holder — modulo the documented lost-lease race, which duplicates
        work but never corrupts the store.
        """
        path = self._lease_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = self._lease_payload(key, owner)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            info = self.lease_info(key, ttl=ttl)
            if info is None:
                # released between our existence check and read: retry the
                # exclusive create once rather than recursing forever
                try:
                    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    return False
            elif info["stale"]:
                _logger.info(
                    "taking over stale lease on %s (held by %s, heartbeat %.1fs ago)",
                    key[:12], info["owner"], info["age"],
                )
                handle = tempfile.NamedTemporaryFile(
                    "w", encoding="utf-8", dir=path.parent,
                    prefix=path.name + ".", suffix=".tmp", delete=False,
                )
                try:
                    with handle:
                        handle.write(payload)
                    os.replace(handle.name, path)
                except BaseException:
                    with contextlib.suppress(OSError):
                        os.unlink(handle.name)
                    raise
                # read back: if another stealer replaced after us, they won
                return self.refresh_lease(key, owner)
            else:
                return False
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
        return True

    @staticmethod
    def _lease_payload(key: str, owner: str) -> str:
        return json.dumps(
            {
                "key": key,
                "owner": owner,
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "acquired_at": round(time.time(), 3),
            },
            sort_keys=True,
        )

    def refresh_lease(self, key: str, owner: str) -> bool:
        """Bump the heartbeat of *owner*'s lease on *key*; False if lost.

        A worker heartbeats while computing so its claim never goes stale;
        a ``False`` return means the lease vanished or was taken over —
        the worker may finish its (now possibly duplicated) compute, since
        store writes are idempotent, but must not assume exclusivity.
        """
        path = self._lease_path(key)
        try:
            with open(path, encoding="utf-8") as handle:
                lease = json.load(handle)
        except (OSError, ValueError):
            return False
        if not isinstance(lease, dict) or lease.get("owner") != owner:
            return False
        try:
            os.utime(path, None)
        except OSError:  # pragma: no cover - released in the utime window
            return False
        return True

    def release_lease(self, key: str, owner: str) -> bool:
        """Drop *owner*'s lease on *key*; a foreign or absent lease is left alone."""
        path = self._lease_path(key)
        try:
            with open(path, encoding="utf-8") as handle:
                lease = json.load(handle)
        except (OSError, ValueError):
            return False
        if not isinstance(lease, dict) or lease.get("owner") != owner:
            return False
        with contextlib.suppress(OSError):
            path.unlink()
        return True

    def lease_info(
        self, key: str, *, ttl: float = DEFAULT_LEASE_TTL_SECONDS
    ) -> dict | None:
        """The live lease on *key*, or ``None`` when the key is unclaimed.

        Returns ``{"key", "owner", "pid", "host", "age", "stale"}`` where
        ``age`` is seconds since the last heartbeat and ``stale`` is the
        *ttl* verdict.  A lease file that cannot be parsed (torn takeover,
        dying disk) still reports, with ``owner="<unreadable>"`` — it
        occupies the claim slot, so fleets must be able to see and age it.
        """
        path = self._lease_path(key)
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            return None
        try:
            with open(path, encoding="utf-8") as handle:
                lease = json.load(handle)
            if not isinstance(lease, dict):
                raise ValueError("lease is not an object")
        except (OSError, ValueError):
            lease = {}
        return {
            "key": key,
            "owner": str(lease.get("owner", "<unreadable>")),
            "pid": lease.get("pid"),
            "host": str(lease.get("host", "")),
            "age": max(0.0, age),
            "stale": age > ttl,
        }

    def iter_leases(
        self, *, ttl: float = DEFAULT_LEASE_TTL_SECONDS
    ) -> Iterator[dict]:
        """Every lease currently on disk as :meth:`lease_info` dicts, sorted by key."""
        for path in sorted(self.root.glob("leases/*/*.lease")):
            info = self.lease_info(path.name[: -len(".lease")], ttl=ttl)
            if info is not None:
                yield info

    def gc_leases(self, *, ttl: float = DEFAULT_LEASE_TTL_SECONDS) -> int:
        """Sweep leases that no longer guard anything; returns the count removed.

        Two kinds are debris: a lease whose key is already **stored** (the
        worker persisted the cell, then died before releasing), and a lease
        whose heartbeat is **stale** by *ttl* (the worker died mid-compute —
        a resuming sweep would take it over anyway, this just tidies
        eagerly).  Fresh leases on missing keys are live claims and are
        never touched, so a fleet member can GC at exit without disturbing
        the rest of the fleet.
        """
        removed = 0
        for info in list(self.iter_leases(ttl=ttl)):
            if info["stale"] or info["key"] in self:
                with contextlib.suppress(OSError):
                    self._lease_path(info["key"]).unlink()
                    removed += 1
                    _logger.debug(
                        "collected %s lease on %s (owner %s)",
                        "stale" if info["stale"] else "released-late",
                        info["key"][:12], info["owner"],
                    )
        return removed

    # -- cached experiment tables ---------------------------------------------

    def cached_rows(
        self, experiment: str, params: Mapping, compute: Callable[[], list]
    ) -> Tuple[list, bool]:
        """Cache one experiment driver's row list under a content key.

        *params* must hold every result-determining argument of the driver
        (execution knobs excluded, exactly like
        :class:`~repro.campaigns.spec.RunSpec`); equal ``(experiment,
        params)`` pairs share one entry across invocations.
        """
        from repro.campaigns.spec import SPEC_FORMAT_VERSION

        # keyed on the result-semantics version (like campaign cells), not
        # the store-layout version: bumping SPEC_FORMAT_VERSION must retire
        # stale experiment rows too
        key = content_key(
            {"kind": "experiment", "format": SPEC_FORMAT_VERSION,
             "experiment": experiment, "params": dict(params)}
        )
        rows, cached = self.get_or_compute(
            key, compute, meta={"experiment": experiment, "params": dict(params)}
        )
        _logger.debug("experiment %s: %s", experiment, "cache hit" if cached else "computed")
        return rows, cached

    # -- campaign manifests ----------------------------------------------------

    def save_campaign(self, manifest: Mapping) -> Path:
        """Record a campaign manifest (name → expanded cells) in the store."""
        return write_json_atomic(self.campaign_path(str(manifest["name"])), dict(manifest))

    def load_campaign(self, name: str) -> dict:
        """Load a campaign manifest previously saved by :meth:`save_campaign`."""
        path = self.campaign_path(name)
        if not path.is_file():
            known = ", ".join(self.campaign_names()) or "none"
            raise KeyError(f"no campaign {name!r} in store {self.root} (known: {known})")
        return read_json(path)

    def campaign_names(self) -> tuple[str, ...]:
        """Names of every campaign recorded in the store, sorted."""
        campaigns = self.root / "campaigns"
        return tuple(sorted(p.stem for p in campaigns.glob("*.json")))
