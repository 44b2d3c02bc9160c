"""Persistence of characterised error-model artifacts.

The model-development phase (DTA characterisation) is the expensive half
of Fig. 2; these helpers serialise its products to JSON so the
application-evaluation phase can re-run campaigns without repeating it —
the same artifact-handoff structure the paper's toolflow uses between its
two phases.  JSON (not pickle) keeps artifacts inspectable and safe to
share.

Artifacts are written crash-consistently (temp file + fsync +
``os.replace`` via :mod:`repro.utils.durable`, so a kill mid-save never
leaves a truncated file) and carry a SHA-256 content checksum verified
on load — silent corruption raises :class:`ArtifactCorruption` instead
of loading rotted model data.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional, Union

from repro.errors.base import ErrorModel, Provenance
from repro.errors.da import DaModel
from repro.errors.ia import IaModel
from repro.errors.wa import WaModel
from repro.utils import durable

#: Current schema: version 2 added the ``provenance`` block (benchmark,
#: seed, samples, operating points); version 3 adds the ``checksum``
#: field (SHA-256 over the canonical model/provenance/payload dump,
#: verified on load).  Only version 3 loads: every cache key folds in
#: the version, so older artifacts are regenerated, never read.
_FORMAT_VERSION = 3
_SUPPORTED_VERSIONS = (3,)

#: Public alias: the characterization pipeline folds the artifact schema
#: version into its content-addressed cache key, so bumping the format
#: automatically invalidates every cached model.
FORMAT_VERSION = _FORMAT_VERSION

PathLike = Union[str, Path]


class ArtifactCorruption(ValueError):
    """An artifact's content checksum does not match its data."""


def _checksum(kind: str, provenance: Optional[dict],
              payload: dict) -> str:
    # Normalise through a JSON round trip first: non-string dict keys
    # become strings on save, and the checksum must compute identically
    # from the in-memory payload (save) and the re-parsed one (load).
    normalized = json.loads(json.dumps(
        {"model": kind, "provenance": provenance, "payload": payload}))
    blob = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _wrap(kind: str, payload: dict,
          provenance: Optional[Provenance] = None) -> dict:
    prov = provenance.to_dict() if provenance else None
    return {
        "format_version": _FORMAT_VERSION,
        "model": kind,
        "checksum": _checksum(kind, prov, payload),
        "provenance": prov,
        "payload": payload,
    }


def _unwrap(data: dict, expected_kind: str) -> dict:
    version = data.get("format_version")
    if version not in _SUPPORTED_VERSIONS:
        supported = ", ".join(str(v) for v in _SUPPORTED_VERSIONS)
        raise ValueError(
            f"unsupported artifact format version {version!r} "
            f"(supported: {supported}); re-run `repro characterize` to "
            f"regenerate the artifact"
        )
    kind = data.get("model")
    if kind != expected_kind:
        raise ValueError(
            f"artifact holds a {kind!r} model, expected {expected_kind!r}"
        )
    expected = _checksum(kind, data.get("provenance"), data["payload"])
    if data.get("checksum") != expected:
        raise ArtifactCorruption(
            f"artifact checksum mismatch for {kind!r} model: the file "
            f"was corrupted after it was written (expected {expected})"
        )
    return data["payload"]


def _encode(envelope: dict) -> bytes:
    return (json.dumps(envelope, indent=2) + "\n").encode("utf-8")


def _save(envelope: dict, path: PathLike, target: str) -> Path:
    # The JSON round-trip through ``durable`` is crash-consistent: a
    # kill at any instant leaves the old artifact or the new, whole one.
    return durable.atomic_write_bytes(Path(path), _encode(envelope),
                                      target=target)


def _attach_provenance(model: ErrorModel, data: dict) -> ErrorModel:
    raw = data.get("provenance")
    if raw:
        model.provenance = Provenance.from_dict(raw)
    return model


def model_kind(model: ErrorModel) -> str:
    """The artifact kind tag ("DA"/"IA"/"WA") of a model instance."""
    if isinstance(model, DaModel):
        return "DA"
    if isinstance(model, IaModel):
        return "IA"
    if isinstance(model, WaModel):
        return "WA"
    raise TypeError(f"cannot serialise a {type(model).__name__}")


def _payload(model: ErrorModel, kind: str) -> dict:
    if kind == "DA":
        return {"fixed_error_ratios": model.fixed_error_ratios,
                "injection_window": model.injection_window}
    if kind == "IA":
        return {"stats": model.to_dict(),
                "injection_window": model.injection_window}
    return model.to_dict()


def _build(kind: str, payload: dict):
    if kind == "DA":
        return DaModel(payload["fixed_error_ratios"],
                       injection_window=int(payload["injection_window"]))
    if kind == "IA":
        model = IaModel.from_dict(payload["stats"])
        model.injection_window = int(payload["injection_window"])
        return model
    return WaModel.from_dict(payload)


def dumps_model(model: ErrorModel) -> bytes:
    """Serialise a model to its checksummed artifact bytes.

    The byte-level twin of :func:`save_da`/:func:`save_ia`/
    :func:`save_wa`: same envelope, no filesystem — it is how models
    travel through the unified :class:`~repro.artifacts.ArtifactStore`
    (the ModelCache, and staged models shard workers load by ref).
    """
    kind = model_kind(model)
    return _encode(_wrap(kind, _payload(model, kind), model.provenance))


def model_digest(model: ErrorModel) -> Optional[str]:
    """SHA-256 of a model's :func:`dumps_model` bytes.

    A wrapper model (one with a ``base``, e.g. importance sampling)
    digests its base; a model with no artifact form digests to None.
    """
    try:
        blob = dumps_model(getattr(model, "base", model))
    except TypeError:
        return None
    return hashlib.sha256(blob).hexdigest()


def loads_model(blob: bytes, expected_kind: Optional[str] = None):
    """Parse artifact bytes back into a model, verifying the checksum.

    Rejects a kind mismatch when ``expected_kind`` is given; raises
    :class:`ArtifactCorruption` on checksum failure, ``ValueError`` on
    unsupported formats — exactly the :func:`load_any` contract.
    """
    data = json.loads(blob.decode("utf-8"))
    kind = data.get("model")
    if kind not in ("DA", "IA", "WA"):
        raise ValueError(f"unknown model kind {kind!r} in artifact")
    payload = _unwrap(data, expected_kind or kind)
    return _attach_provenance(_build(kind, payload), data)


def save_da(model: DaModel, path: PathLike,
            target: str = "store") -> Path:
    return _save(_wrap("DA", _payload(model, "DA"), model.provenance),
                 path, target)


def save_ia(model: IaModel, path: PathLike,
            target: str = "store") -> Path:
    return _save(_wrap("IA", _payload(model, "IA"), model.provenance),
                 path, target)


def save_wa(model: WaModel, path: PathLike,
            target: str = "store") -> Path:
    return _save(_wrap("WA", model.to_dict(), model.provenance), path,
                 target)


def load_any(path: PathLike):
    """Load whichever model kind the artifact holds."""
    return loads_model(Path(path).read_bytes())
