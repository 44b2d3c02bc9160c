"""Copy-on-write architectural snapshots: pages, state images, digests.

The checkpointing substrate of the campaign fast-forward engine
(:mod:`repro.campaign.fastforward`).  A snapshot captures everything a
deterministic execution needs to resume from a checkpoint boundary:

- **architectural state** — numpy arrays (register files, memory grids,
  workload tensors) and plain scalars, encoded as a :class:`StateImage`,
- **pages** — array bytes are split into fixed-size pages stored
  content-addressed in a :class:`PageStore`, so consecutive snapshots
  share every page that did not change between them (the copy-on-write
  economy: a checkpoint costs only its dirty pages),
- **digests** — :func:`state_digest` canonically hashes a state so two
  executions can be proven bit-identical at a boundary without holding
  both states.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.utils import durable

#: Page granularity of the content-addressed store.  Small enough that a
#: single dirty element does not re-store a whole large array, large
#: enough that page bookkeeping stays negligible.
PAGE_BYTES = 4096

#: State values that are not numpy arrays must be one of these plain
#: types (deterministically re-encodable, trivially copyable).
SCALAR_TYPES = (int, float, bool, str, type(None))


class SnapshotError(TypeError):
    """A state value cannot be captured in a snapshot."""


class PageCorruption(RuntimeError):
    """A page failed content verification (or vanished) on restore.

    Raised instead of silently reassembling rotted state: the
    fast-forward engine catches it, quarantines the affected snapshot
    boundary and falls back to a shallower snapshot or a full replay
    (see :meth:`repro.campaign.fastforward.SnapshotStore`).
    """


class PageStore:
    """Content-addressed storage of fixed-size byte pages.

    ``put`` splits a byte string into :data:`PAGE_BYTES` pages, stores
    each under its digest and returns the page keys; identical pages —
    within one snapshot or across snapshots — are stored once.  The
    store only ever grows; restore never mutates it, which is what makes
    one store safely shareable read-only across forked workers.

    By default pages live in memory only.  Given an
    :class:`~repro.artifacts.ArtifactStore`, the store writes through to
    the ``pages`` namespace and reads back misses, so snapshot pages
    built by one process (a shard worker, say) are deduplicated and
    reusable across every process sharing the same artifact directory.
    The in-memory dict then acts as a read cache; persistence failures
    degrade to memory-only (counted, never fatal).
    """

    NAMESPACE = "pages"

    def __init__(self, artifacts=None):
        self._pages: Dict[bytes, bytes] = {}
        self.artifacts = artifacts
        self.logical_bytes = 0   # bytes handed to put()
        self.stored_bytes = 0    # bytes actually kept (after dedup)
        self.persist_errors = 0  # artifact-store writes that failed
        self.backing_reads = 0   # misses served by the artifact store

    def __len__(self) -> int:
        return len(self._pages)

    def put(self, data: bytes) -> List[bytes]:
        """Store ``data`` paged; returns the page-key sequence."""
        keys: List[bytes] = []
        self.logical_bytes += len(data)
        for offset in range(0, len(data), PAGE_BYTES):
            page = data[offset:offset + PAGE_BYTES]
            key = hashlib.sha1(page).digest()
            if key not in self._pages:
                self._pages[key] = page
                self.stored_bytes += len(page)
                if self.artifacts is not None:
                    try:
                        self.artifacts.put(self.NAMESPACE, key.hex(),
                                           page, target="page")
                    except OSError:
                        self.persist_errors += 1
            keys.append(key)
        return keys

    def _fetch(self, key: bytes) -> Optional[bytes]:
        """A page from the artifact backing, or None."""
        if self.artifacts is None:
            return None
        try:
            page = self.artifacts.get(self.NAMESPACE, key.hex())
        except Exception:
            # Integrity failure: the store quarantined the rotted
            # object; for the restore path that is the same as missing.
            return None
        if page is not None:
            self.backing_reads += 1
            self._pages[key] = page
            self.stored_bytes += len(page)
        return page

    def get(self, keys: List[bytes], verify: bool = True) -> bytes:
        """Reassemble the byte string behind a page-key sequence.

        Content-addressing gives verification for free: every returned
        page must hash back to its key.  A page that is missing or does
        not verify (memory rot, or the chaos shim's injected page-rot)
        raises :class:`PageCorruption` — corrupt state is *detected*,
        never restored.  ``verify=False`` skips the hash for callers
        that re-verify the assembled state at a higher level.
        """
        hook = durable.get_fault_hook()
        chunks: List[bytes] = []
        for key in keys:
            page = self._pages.get(key)
            if page is None:
                page = self._fetch(key)
            if page is None:
                raise PageCorruption(
                    f"page {key.hex()} is missing from the store")
            page = hook.filter_page(key, page)
            if verify and hashlib.sha1(page).digest() != key:
                raise PageCorruption(
                    f"page {key.hex()} failed content verification")
            chunks.append(page)
        return b"".join(chunks)

    def stats(self) -> Dict[str, object]:
        saved = self.logical_bytes - self.stored_bytes
        return {
            "pages": len(self._pages),
            "logical_bytes": self.logical_bytes,
            "stored_bytes": self.stored_bytes,
            "dedup_saved_bytes": saved,
            "dedup_ratio": (saved / self.logical_bytes
                            if self.logical_bytes else 0.0),
            "persist_errors": self.persist_errors,
            "backing_reads": self.backing_reads,
        }


@dataclass(frozen=True)
class ArrayImage:
    """One numpy array captured into a page store."""

    dtype: str
    shape: Tuple[int, ...]
    pages: Tuple[bytes, ...]


@dataclass(frozen=True)
class StateImage:
    """An encoded state dict: arrays by page reference, scalars inline."""

    arrays: Dict[str, ArrayImage]
    scalars: Dict[str, object]

    @property
    def keys(self) -> List[str]:
        return sorted(list(self.arrays) + list(self.scalars))


def encode_state(store: PageStore, state: Dict[str, object]) -> StateImage:
    """Capture a state dict into ``store``; the live state stays untouched.

    Arrays are copied byte-for-byte (C order) into content-addressed
    pages; scalars (:data:`SCALAR_TYPES`, numpy scalars included) are
    normalised to plain Python values and stored inline.
    """
    arrays: Dict[str, ArrayImage] = {}
    scalars: Dict[str, object] = {}
    for name, value in state.items():
        if isinstance(value, np.ndarray):
            contiguous = np.ascontiguousarray(value)
            arrays[name] = ArrayImage(
                dtype=value.dtype.str,
                shape=tuple(value.shape),
                pages=tuple(store.put(contiguous.tobytes())),
            )
        else:
            scalars[name] = _plain_scalar(name, value)
    return StateImage(arrays=arrays, scalars=scalars)


def decode_state(store: PageStore, image: StateImage) -> Dict[str, object]:
    """Materialise a fresh, independently mutable state dict."""
    state: Dict[str, object] = {}
    for name, ref in image.arrays.items():
        flat = np.frombuffer(store.get(list(ref.pages)),
                             dtype=np.dtype(ref.dtype))
        state[name] = flat.reshape(ref.shape).copy()
    for name, value in image.scalars.items():
        state[name] = value
    return state


def _plain_scalar(name: str, value: object) -> object:
    """Normalise a scalar to a plain Python value, or refuse loudly."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, SCALAR_TYPES):
        return value
    raise SnapshotError(
        f"state entry {name!r} has unsupported type "
        f"{type(value).__name__}; snapshots hold numpy arrays and "
        f"plain scalars only"
    )


def state_digest(state: Dict[str, object]) -> str:
    """Canonical content hash of a state dict.

    Arrays hash dtype, shape and raw bytes; floats hash their IEEE-754
    bit pattern, so two states digest equal iff they are bit-identical —
    the soundness condition of the fast-forward early exit.
    """
    h = hashlib.sha1()
    for name in sorted(state):
        value = state[name]
        h.update(name.encode())
        h.update(b"\x00")
        if isinstance(value, np.ndarray):
            h.update(b"A")
            h.update(value.dtype.str.encode())
            h.update(repr(tuple(value.shape)).encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            value = _plain_scalar(name, value)
            if isinstance(value, bool):
                h.update(b"B" + (b"1" if value else b"0"))
            elif isinstance(value, float):
                h.update(b"F")
                h.update(np.float64(value).tobytes())
            elif isinstance(value, int):
                h.update(b"I" + repr(value).encode())
            elif isinstance(value, str):
                h.update(b"S" + value.encode())
            else:  # None
                h.update(b"N")
        h.update(b"\x01")
    return h.hexdigest()
