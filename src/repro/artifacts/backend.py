"""Storage backends for the unified artifact store.

A backend is a flat, S3-shaped byte namespace: string keys with ``/``
separators map to byte blobs, with exactly four verbs — ``get``,
``put``, ``delete``, ``list_keys`` — plus ``rename`` (used only for
quarantine, emulatable on object stores as copy+delete).  Everything
clever (content addressing, checksums, refs, quarantine policy) lives
one level up in :class:`repro.artifacts.ArtifactStore`; backends stay
dumb enough that an S3/GCS implementation is a straight transliteration
of the verbs onto a bucket client.

:class:`LocalDirBackend` is the production backend: every ``put`` is a
crash-consistent atomic write (temp + fsync + rename, via
:mod:`repro.utils.durable`) and opening a directory sweeps atomic-write
temp files orphaned by processes that died mid-write.
"""

from __future__ import annotations

import os
import urllib.parse
from pathlib import Path
from typing import Iterator, Optional, Protocol, Union

from repro.utils import durable

PathLike = Union[str, Path]

#: Characters allowed verbatim in an encoded key segment.  Everything
#: else is percent-encoded, which keeps the path↔key mapping injective
#: (no two keys can collide on disk) and directory-safe.
_SAFE = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_."


def encode_key(key: str) -> str:
    """Filesystem-safe, injective encoding of a backend key.

    ``/`` separates segments (kept, so hierarchical keys become real
    directories locally and prefixes on object stores); every other
    byte outside ``[A-Za-z0-9-_]`` is percent-encoded.  A leading dot
    in a segment is encoded too, so encoded names can never collide
    with the ``.{name}.{pid}.tmp`` atomic-write temp namespace.
    """
    if not key or key.startswith("/") or key.endswith("/") or "//" in key:
        raise ValueError(f"malformed artifact key {key!r}")
    segments = []
    for segment in key.split("/"):
        quoted = urllib.parse.quote(segment, safe=_SAFE)
        if quoted.startswith("."):
            quoted = "%2E" + quoted[1:]
        segments.append(quoted)
    return "/".join(segments)


def decode_key(encoded: str) -> str:
    return "/".join(urllib.parse.unquote(part)
                    for part in encoded.split("/"))


class Backend(Protocol):
    """The minimal byte-store verbs an artifact backend must speak."""

    def get(self, key: str) -> Optional[bytes]:
        """The blob behind ``key``, or None if absent/unreadable."""
        ...

    def put(self, key: str, data: bytes, target: str = "artifact") -> None:
        """Atomically (re)write ``key``.  ``target`` names the artifact
        class for the chaos fault hook."""
        ...

    def delete(self, key: str) -> bool:
        """Remove ``key``; True if something was removed."""
        ...

    def rename(self, key: str, new_key: str) -> bool:
        """Move a blob aside (quarantine); True on success."""
        ...

    def list_keys(self, prefix: str = "") -> Iterator[str]:
        """All keys under ``prefix`` (decoded), in sorted order."""
        ...


class LocalDirBackend:
    """Directory-backed backend with crash-consistent writes.

    Keys map to files under ``root`` through :func:`encode_key`.  Every
    ``put`` is atomic (temp + fsync + ``os.replace`` + directory
    fsync); opening the backend sweeps orphaned atomic-write temp files
    left by processes killed mid-write — the regression fixed here is
    that those ``.{name}.{pid}.tmp`` files used to accumulate forever.
    """

    def __init__(self, root: PathLike, sweep: bool = True):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.swept_tmps = 0
        if sweep:
            self.swept_tmps = self.sweep_orphans()

    def sweep_orphans(self) -> int:
        """Sweep orphaned temp files in every directory of the store."""
        removed = durable.sweep_orphan_tmps(self.root)
        for dirpath, _dirnames, _filenames in os.walk(self.root):
            if Path(dirpath) != self.root:
                removed += durable.sweep_orphan_tmps(dirpath)
        return removed

    def path_for(self, key: str) -> Path:
        return self.root / encode_key(key)

    def get(self, key: str) -> Optional[bytes]:
        try:
            return self.path_for(key).read_bytes()
        except OSError:
            return None

    def put(self, key: str, data: bytes, target: str = "artifact") -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        durable.atomic_write_bytes(path, data, target=target)

    def delete(self, key: str) -> bool:
        try:
            self.path_for(key).unlink()
            return True
        except OSError:
            return False

    def rename(self, key: str, new_key: str) -> bool:
        src = self.path_for(key)
        dst = self.path_for(new_key)
        try:
            dst.parent.mkdir(parents=True, exist_ok=True)
            os.replace(src, dst)
            return True
        except OSError:
            return False

    def list_keys(self, prefix: str = "") -> Iterator[str]:
        keys = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            base = Path(dirpath).relative_to(self.root)
            for name in filenames:
                if name.startswith(".") and name.endswith(".tmp"):
                    continue
                rel = str(base / name) if str(base) != "." else name
                key = decode_key(rel.replace(os.sep, "/"))
                if key.startswith(prefix):
                    keys.append(key)
        return iter(sorted(keys))
