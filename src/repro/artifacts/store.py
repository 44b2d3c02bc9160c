"""The unified content-addressed artifact store.

One keyed, checksummed, atomic-write API for everything the campaign
infrastructure persists — characterised models (ModelCache), snapshot
pages (PageStore), and campaign journals — so shard workers, the
coordinator and serving processes all share one cache, with no
possibility of key aliasing between consumers.

Layout (git-like, over any :class:`~repro.artifacts.backend.Backend`):

- ``objects/<aa>/<sha256-hex>`` — immutable blobs named by their own
  SHA-256.  Content addressing makes checksums free: a blob that does
  not hash back to its name is *quarantined* (moved aside with a
  ``.quarantined`` suffix so the corrupt bytes stay inspectable but can
  never be served again) and reported, never returned.
- ``refs/<namespace>/<key>`` — tiny mutable pointers mapping a caller's
  key to an object address.  Namespaces ("model-cache", "pages",
  "journals", ...) partition consumers; a key can never alias across
  namespaces.  Ref writes are atomic replaces, so concurrent writers
  are last-write-wins with no torn state — and because every consumer
  keys refs by a content hash of the *inputs*, concurrent writers of
  the same key carry identical payloads anyway.
- ``streams/<namespace>/<key>`` — append-oriented artifacts (run
  journals) that need a real local file for O_APPEND + fsync.  Only
  directory backends support streams; an S3-shaped backend would
  buffer locally and archive on close, which is exactly what
  :meth:`archive_stream` does at merge time.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.artifacts.backend import (
    Backend,
    LocalDirBackend,
    encode_key,
)

PathLike = Union[str, Path]

#: Suffix quarantined blobs/refs are renamed to.  Quarantined entries
#: are invisible to every read path but stay on disk for post-mortems.
QUARANTINE_SUFFIX = ".quarantined"


class ObjectCorruption(RuntimeError):
    """A stored object's bytes no longer hash to its address."""


class ArtifactIntegrityError(RuntimeError):
    """A ref exists but cannot be served (bad address, missing or
    corrupt object).  The offending pieces have been quarantined."""


def object_address(data: bytes) -> str:
    """The content address (SHA-256 hex) of a blob."""
    return hashlib.sha256(data).hexdigest()


def _object_key(address: str) -> str:
    return f"objects/{address[:2]}/{address}"


def _ref_key(namespace: str, key: str) -> str:
    if not namespace or "/" in namespace:
        raise ValueError(f"malformed namespace {namespace!r}")
    return f"refs/{namespace}/{key}"


class ArtifactStore:
    """Content-addressed objects plus per-namespace keyed refs.

    The store is safe to share between processes on one host (every
    mutation is an atomic write; objects are immutable) and between
    consumers (namespaces partition the key space).  ``stats`` counts
    this instance's traffic: hits, misses, corrupt objects quarantined.
    """

    def __init__(self, backend: Backend):
        self.backend = backend
        self._stats = {"hits": 0, "misses": 0, "writes": 0,
                       "corrupt": 0, "quarantined": 0}

    # -- construction helpers ----------------------------------------------------
    @classmethod
    def local(cls, root: PathLike) -> "ArtifactStore":
        return cls(LocalDirBackend(root))

    @property
    def local_root(self) -> Optional[Path]:
        """The backing directory, when the backend is a local one."""
        root = getattr(self.backend, "root", None)
        return Path(root) if root is not None else None

    # -- objects (immutable, content-addressed) ----------------------------------
    def put_object(self, data: bytes, target: str = "artifact") -> str:
        """Store a blob under its content address; returns the address.

        Idempotent: re-putting existing content is a no-op (the write
        is skipped, which is what makes concurrent identical writers
        cheap and conflict-free).
        """
        address = object_address(data)
        key = _object_key(address)
        if self.backend.get(key) is None:
            self.backend.put(key, data, target=target)
            self._stats["writes"] += 1
        return address

    def get_object(self, address: str) -> Optional[bytes]:
        """The blob at ``address``, or None if absent.

        Verification is intrinsic: bytes that do not hash back to the
        address are quarantined and raise :class:`ObjectCorruption` —
        corrupt artifacts are detected, never served.
        """
        key = _object_key(address)
        data = self.backend.get(key)
        if data is None:
            return None
        if object_address(data) != address:
            self._stats["corrupt"] += 1
            self._quarantine_key(key)
            raise ObjectCorruption(
                f"object {address} failed content verification")
        return data

    def object_path(self, address: str) -> Path:
        """Local path of an object (directory backends only)."""
        return self._local_backend().path_for(_object_key(address))

    # -- refs (mutable, namespaced keys) -----------------------------------------
    def put(self, namespace: str, key: str, data: bytes,
            target: str = "artifact") -> str:
        """Store ``data`` and point ``namespace/key`` at it."""
        address = self.put_object(data, target=target)
        self.backend.put(_ref_key(namespace, key),
                         (address + "\n").encode("ascii"), target=target)
        return address

    def resolve(self, namespace: str, key: str) -> Optional[str]:
        """The object address behind a ref, or None if absent.

        A ref whose contents are not a well-formed address counts as
        corrupt: it is quarantined and :class:`ArtifactIntegrityError`
        is raised.
        """
        raw = self.backend.get(_ref_key(namespace, key))
        if raw is None:
            return None
        address = raw.decode("ascii", "replace").strip()
        if len(address) != 64 or any(c not in "0123456789abcdef"
                                     for c in address):
            self._stats["corrupt"] += 1
            self.quarantine(namespace, key)
            raise ArtifactIntegrityError(
                f"ref {namespace}/{key} holds a malformed address")
        return address

    def get(self, namespace: str, key: str) -> Optional[bytes]:
        """The bytes behind ``namespace/key``; None if never stored.

        Integrity failures anywhere along the ref → object chain raise
        :class:`ArtifactIntegrityError` after quarantining the broken
        pieces, so callers can distinguish "not cached" (None) from
        "cached but rotted" (exception) — the latter is what cache
        layers count as *invalid* and recompute.
        """
        address = self.resolve(namespace, key)
        if address is None:
            self._stats["misses"] += 1
            return None
        try:
            data = self.get_object(address)
        except ObjectCorruption:
            self.quarantine(namespace, key)
            raise ArtifactIntegrityError(
                f"object behind {namespace}/{key} failed verification")
        if data is None:
            # Dangling ref: the object was quarantined or deleted.
            self._stats["corrupt"] += 1
            self.quarantine(namespace, key)
            raise ArtifactIntegrityError(
                f"ref {namespace}/{key} points at a missing object")
        self._stats["hits"] += 1
        return data

    def exists(self, namespace: str, key: str) -> bool:
        return self.backend.get(_ref_key(namespace, key)) is not None

    def delete(self, namespace: str, key: str) -> bool:
        return self.backend.delete(_ref_key(namespace, key))

    def list(self, namespace: str) -> Iterator[str]:
        """All keys with live refs in ``namespace``."""
        prefix = f"refs/{namespace}/"
        for key in self.backend.list_keys(prefix):
            if not key.endswith(QUARANTINE_SUFFIX):
                yield key[len(prefix):]

    def ref_path(self, namespace: str, key: str) -> Path:
        """Local path of a ref (directory backends only)."""
        return self._local_backend().path_for(_ref_key(namespace, key))

    # -- quarantine --------------------------------------------------------------
    def quarantine(self, namespace: str, key: str) -> bool:
        """Move a keyed entry (ref and, if resolvable, its object) aside.

        Quarantined files keep their bytes under a ``.quarantined``
        suffix — inspectable forever, servable never.  Returns True if
        anything was moved.
        """
        ref_key = _ref_key(namespace, key)
        raw = self.backend.get(ref_key)
        moved = False
        if raw is not None:
            address = raw.decode("ascii", "replace").strip()
            if len(address) == 64:
                moved |= self._quarantine_key(_object_key(address))
            moved |= self._quarantine_key(ref_key)
        if moved:
            self._stats["quarantined"] += 1
        return moved

    def _quarantine_key(self, key: str) -> bool:
        return self.backend.rename(key, key + QUARANTINE_SUFFIX)

    # -- streams (append-oriented artifacts: journals) ---------------------------
    def stream_path(self, namespace: str, key: str) -> Path:
        """A real local file path for an append-oriented artifact.

        Journals need O_APPEND + per-record fsync, which an object API
        cannot express; directory backends hand out a path under
        ``streams/`` instead.  The parent directory is created.
        """
        backend = self._local_backend()
        path = backend.root / "streams" / namespace / encode_key(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def list_streams(self, namespace: str, prefix: str = "") -> List[Path]:
        backend = self._local_backend()
        root = backend.root / "streams" / namespace
        if not root.is_dir():
            return []
        paths = [p for p in sorted(root.rglob("*"))
                 if p.is_file() and not (p.name.startswith(".")
                                         and p.name.endswith(".tmp"))]
        if prefix:
            # A "dir/" prefix is a whole-segment match: encode the key
            # part, keep the separator (encode_key rejects it).
            encoded = encode_key(prefix.rstrip("/"))
            if prefix.endswith("/"):
                encoded += "/"
            paths = [p for p in paths
                     if str(p.relative_to(root)).startswith(encoded)]
        return paths

    def archive_stream(self, namespace: str, key: str,
                       path: PathLike) -> str:
        """Freeze a finished stream into the content-addressed layer.

        Stores the file's bytes as an object and points
        ``namespace/key`` at it — how per-shard journals become
        immutable, checksummed merge inputs.
        """
        return self.put(namespace, key, Path(path).read_bytes(),
                        target="journal")

    # -- misc --------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return dict(self._stats)

    def _local_backend(self) -> LocalDirBackend:
        if not isinstance(self.backend, LocalDirBackend):
            raise NotImplementedError(
                "this operation needs a local filesystem backend "
                f"(got {type(self.backend).__name__}); S3-shaped "
                "backends would buffer streams locally and archive on "
                "close")
        return self.backend
