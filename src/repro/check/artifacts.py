"""The unified artifact envelope: versioned and checksummed.

Every artifact the toolflow persists — optimized strategies
(:mod:`repro.optimizer.serialize`), partition plans
(:mod:`repro.partition.plan`) and the strategy blob codegen embeds in
its HLS projects — travels in one JSON envelope::

    {
      "repro_artifact": "strategy",          # artifact kind
      "schema_version": 1,                   # envelope schema version
      "producer": "repro 1.1.0",             # who wrote it
      "payload_sha256": "ab12...",           # checksum of the payload
      "digests": {"network": "...", ...},    # identity of the inputs
      "payload": { ... }                     # the kind-specific body
    }

The checksum is computed over the payload's *canonical* JSON
(sorted keys, minimal separators), so reformatting is harmless but any
truncation or byte damage inside the payload is caught at load time.
Saves are atomic (temp file + ``os.replace``): a crash mid-write can
never leave a half-written artifact behind.

Loading is hardened end to end: every failure raises a precise
:class:`~repro.errors.ArtifactError` subclass carrying a stable error
code and the JSON path of the offending field — never a ``KeyError`` or
a ``UnicodeDecodeError``.  Files written before the envelope existed
(PR <= 4 bare payloads) load wrapped in a synthetic envelope; an
envelope of any other version than :data:`ENVELOPE_VERSION` is
rejected with ``E_VERSION``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import (
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactMismatchError,
    ArtifactSchemaError,
    ArtifactVersionError,
)
from repro.faults.process import (
    POINT_JOURNAL_APPENDED,
    POINT_JOURNAL_SYNCED,
    POINT_REPLACED,
    POINT_SYNCED,
    POINT_TEMP_WRITTEN,
    crash_point,
    fs_fsync,
    fs_write,
)

#: Current envelope schema version.
ENVELOPE_VERSION = 1

#: Envelope marker key; documents lacking it are pre-envelope payloads.
ENVELOPE_KEY = "repro_artifact"

#: Producer recorded when a pre-envelope file is migrated at load time.
LEGACY_PRODUCER = "pre-envelope"

# Stable error codes (documented in docs/validation.md).
E_IO = "E_IO"  # file unreadable
E_ENCODING = "E_ENCODING"  # bytes are not UTF-8 (bit-flip damage)
E_JSON = "E_JSON"  # text is not valid JSON (truncation)
E_DOC = "E_DOC"  # top-level value is not an object
E_FIELD_MISSING = "E_FIELD_MISSING"  # required field absent
E_FIELD_TYPE = "E_FIELD_TYPE"  # field present with the wrong type
E_FIELD_VALUE = "E_FIELD_VALUE"  # field well-typed but invalid
E_KIND = "E_KIND"  # artifact kind does not match expectation
E_VERSION = "E_VERSION"  # schema version this library does not read
E_CHECKSUM = "E_CHECKSUM"  # payload bytes do not match the checksum
E_LOCK = "E_LOCK"  # a file lock could not be acquired
E_NETWORK = "E_NETWORK"  # artifact belongs to a different network
E_DEVICE = "E_DEVICE"  # artifact references an unknown device
E_DRIFT = "E_DRIFT"  # recorded cost disagrees with the cost model


def _producer() -> str:
    from repro import __version__

    return f"repro {__version__}"


# -- atomic writes -----------------------------------------------------------


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path`` via a temp file + ``os.replace``.

    The content lands under the final name only once it is completely
    on disk, so a crash (or a concurrent reader) can never observe a
    truncated artifact.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent) or ".", prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            fs_write(handle, text, label=path.name)
            crash_point(POINT_TEMP_WRITTEN)
            fs_fsync(handle, label=path.name)
        crash_point(POINT_SYNCED)
        os.replace(tmp_name, path)
        crash_point(POINT_REPLACED)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


# -- digests -----------------------------------------------------------------


def payload_sha256(payload: dict) -> str:
    """SHA-256 of the payload's canonical JSON serialization."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def network_digest(network) -> str:
    """Stable structural digest of a :class:`~repro.nn.network.Network`.

    Covers the input spec and every layer's type, name and shape-relevant
    parameters (via its dataclass fields), so two structurally identical
    networks digest equal regardless of how they were constructed.
    """
    import dataclasses

    description = {"input": list(network.input_spec.shape), "layers": []}
    for info in network:
        layer = info.layer
        fields = {
            f.name: getattr(layer, f.name)
            for f in dataclasses.fields(layer)
        }
        description["layers"].append(
            {"type": type(layer).__name__, "fields": fields}
        )
    canonical = json.dumps(
        description, sort_keys=True, separators=(",", ":"),
        default=_dataclass_description,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _dataclass_description(value) -> dict:
    """A dataclass-valued layer field (an Inception module's channel
    spec) described like a layer: its type name and fields."""
    import dataclasses

    if not dataclasses.is_dataclass(value):
        raise TypeError(f"cannot digest a {type(value).__name__} field")
    return {
        "type": type(value).__name__,
        "fields": {
            f.name: getattr(value, f.name) for f in dataclasses.fields(value)
        },
    }


def device_digest(device) -> str:
    """Stable digest of an :class:`~repro.hardware.device.FPGADevice`."""
    r = device.resources
    return payload_sha256(
        {
            "name": device.name,
            "resources": [r.bram18k, r.dsp, r.ff, r.lut],
            "bandwidth_bytes_per_s": device.bandwidth_bytes_per_s,
            "frequency_hz": device.frequency_hz,
            "element_bytes": device.element_bytes,
            "max_fusion_depth": device.max_fusion_depth,
        }
    )


def fleet_digest(fleet) -> str:
    """Stable digest of a :class:`~repro.partition.fleet.DeviceFleet`."""
    return payload_sha256(
        {
            "devices": [device_digest(d) for d in fleet.devices],
            "links": [
                [link.bandwidth_bytes_per_s, link.latency_s]
                for link in fleet.links
            ],
        }
    )


# -- typed field access ------------------------------------------------------

_TYPE_NAMES = {
    dict: "object",
    list: "array",
    str: "string",
    int: "integer",
    float: "number",
    bool: "boolean",
}


def _describe_types(types: Tuple[type, ...]) -> str:
    return " or ".join(_TYPE_NAMES.get(t, t.__name__) for t in types)


def require(
    mapping,
    key: str,
    types: Union[type, Tuple[type, ...]],
    path: str = "$",
):
    """Fetch ``mapping[key]`` with a precise error on absence/mistyping.

    Raises:
        ArtifactSchemaError: ``E_FIELD_MISSING`` when the key is absent,
            ``E_FIELD_TYPE`` when the value has the wrong JSON type.
            The error's ``json_path`` names the field (``$.groups[0].range``).
    """
    if not isinstance(types, tuple):
        types = (types,)
    field_path = f"{path}.{key}"
    if not isinstance(mapping, dict):
        raise ArtifactSchemaError(
            E_FIELD_TYPE, path, f"expected object, found {type(mapping).__name__}"
        )
    if key not in mapping:
        raise ArtifactSchemaError(
            E_FIELD_MISSING, field_path, "required field is missing"
        )
    value = mapping[key]
    # bool is an int subclass; never accept it where a number is required.
    if isinstance(value, bool) and bool not in types:
        raise ArtifactSchemaError(
            E_FIELD_TYPE,
            field_path,
            f"expected {_describe_types(types)}, found boolean",
        )
    if not isinstance(value, types):
        raise ArtifactSchemaError(
            E_FIELD_TYPE,
            field_path,
            f"expected {_describe_types(types)}, "
            f"found {_TYPE_NAMES.get(type(value), type(value).__name__)}",
        )
    return value


def require_index(
    mapping, key: str, length: int, what: str, path: str = "$"
):
    """Fetch an integer field that must index into a ``length``-sized list."""
    value = require(mapping, key, int, path)
    if not 0 <= value < length:
        raise ArtifactSchemaError(
            E_FIELD_VALUE,
            f"{path}.{key}",
            f"{what} index {value} out of range [0, {length})",
        )
    return value


def require_enum(mapping, key: str, enum_cls, path: str = "$"):
    """Fetch a string field naming a member of ``enum_cls``."""
    raw = require(mapping, key, str, path)
    try:
        return enum_cls(raw)
    except ValueError:
        options = ", ".join(member.value for member in enum_cls)
        raise ArtifactSchemaError(
            E_FIELD_VALUE, f"{path}.{key}", f"{raw!r} is not one of: {options}"
        ) from None


# -- the envelope ------------------------------------------------------------


@dataclass(frozen=True)
class Envelope:
    """A validated artifact envelope, checksum already verified."""

    kind: str
    schema_version: int
    producer: str
    payload_sha256: str
    payload: dict
    digests: Dict[str, str] = field(default_factory=dict)
    source: Optional[Path] = None

    @property
    def is_legacy(self) -> bool:
        """True when this envelope was synthesized from a bare payload."""
        return self.producer == LEGACY_PRODUCER

    def expect_digest(self, name: str, value: str, what: str) -> None:
        """Check a recorded digest against the caller's object, if present.

        Legacy envelopes carry no digests; absent entries are skipped so
        pre-envelope files keep loading.
        """
        recorded = self.digests.get(name)
        if recorded is not None and recorded != value:
            raise ArtifactMismatchError(
                E_NETWORK if name == "network" else E_DEVICE,
                f"$.digests.{name}",
                f"artifact was produced for a different {what} "
                f"(digest {recorded[:12]}.. != {value[:12]}..)",
            )


def wrap_payload(
    kind: str, payload: dict, digests: Optional[Dict[str, str]] = None
) -> dict:
    """Build the envelope document for a payload."""
    return {
        ENVELOPE_KEY: kind,
        "schema_version": ENVELOPE_VERSION,
        "producer": _producer(),
        "payload_sha256": payload_sha256(payload),
        "digests": dict(digests or {}),
        "payload": payload,
    }


def save_artifact(
    path: Union[str, Path],
    kind: str,
    payload: dict,
    digests: Optional[Dict[str, str]] = None,
) -> Path:
    """Atomically write ``payload`` to ``path`` inside an envelope."""
    document = wrap_payload(kind, payload, digests)
    return atomic_write_text(path, json.dumps(document, indent=2) + "\n")


def _sniff_legacy_kind(document: dict) -> Optional[str]:
    """Infer the artifact kind of a pre-envelope bare payload."""
    if "stages" in document and "fleet" in document:
        return "partition_plan"
    if "groups" in document and "network" in document:
        return "strategy"
    return None


def parse_envelope(
    document,
    expected_kind: Optional[str] = None,
    source: Optional[Path] = None,
) -> Envelope:
    """Validate an in-memory envelope document (or legacy bare payload).

    Raises:
        ArtifactSchemaError / ArtifactVersionError / ArtifactMismatchError /
        ArtifactIntegrityError: With an error code and JSON path; see the
        module docstring.
    """
    if not isinstance(document, dict):
        raise ArtifactSchemaError(
            E_DOC, "$", f"expected a JSON object, found {type(document).__name__}"
        )
    if ENVELOPE_KEY not in document:
        # Pre-envelope artifact (PR <= 4): a bare payload.  Wrap it in a
        # synthetic envelope; the kind-specific loader still validates
        # every payload field.
        kind = _sniff_legacy_kind(document)
        if kind is None:
            raise ArtifactSchemaError(
                E_FIELD_MISSING,
                f"$.{ENVELOPE_KEY}",
                "not a repro artifact envelope and not a recognizable "
                "pre-envelope payload",
            )
        if expected_kind is not None and kind != expected_kind:
            raise ArtifactMismatchError(
                E_KIND,
                "$",
                f"expected a {expected_kind!r} artifact, found a "
                f"pre-envelope {kind!r} payload",
            )
        return Envelope(
            kind=kind,
            schema_version=0,
            producer=LEGACY_PRODUCER,
            payload_sha256=payload_sha256(document),
            payload=document,
            digests={},
            source=source,
        )

    kind = require(document, ENVELOPE_KEY, str)
    version = require(document, "schema_version", int)
    payload = require(document, "payload", dict)
    recorded_sha = require(document, "payload_sha256", str)
    producer = require(document, "producer", str)
    digests = require(document, "digests", dict) if "digests" in document else {}
    for name, value in digests.items():
        if not isinstance(value, str):
            raise ArtifactSchemaError(
                E_FIELD_TYPE, f"$.digests.{name}", "digest must be a string"
            )

    if expected_kind is not None and kind != expected_kind:
        raise ArtifactMismatchError(
            E_KIND,
            f"$.{ENVELOPE_KEY}",
            f"expected a {expected_kind!r} artifact, found {kind!r}",
        )

    actual_sha = payload_sha256(payload)
    if actual_sha != recorded_sha:
        raise ArtifactIntegrityError(
            E_CHECKSUM,
            "$.payload",
            f"payload checksum mismatch: recorded {recorded_sha[:12]}.., "
            f"computed {actual_sha[:12]}.. — the file is corrupted or was "
            "edited by hand",
        )
    if version != ENVELOPE_VERSION:
        raise ArtifactVersionError(
            E_VERSION,
            "$.schema_version",
            f"envelope version {version} is not the version this library "
            f"reads ({ENVELOPE_VERSION})",
        )
    return Envelope(
        kind=kind,
        schema_version=version,
        producer=producer,
        payload_sha256=actual_sha,
        payload=payload,
        digests=dict(digests),
        source=source,
    )


def load_envelope(
    path: Union[str, Path], expected_kind: Optional[str] = None
) -> Envelope:
    """Read and validate an artifact file.

    Every failure mode — unreadable file, non-UTF-8 bytes, truncated
    JSON, missing fields, checksum mismatch, wrong kind or version —
    raises the matching :class:`~repro.errors.ArtifactError` subclass.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ArtifactIntegrityError(E_IO, "$", f"cannot read {path}: {exc}")
    return parse_envelope_bytes(raw, expected_kind, source=path, name=path.name)


def parse_envelope_bytes(
    raw: bytes,
    expected_kind: Optional[str] = None,
    source: Optional[Path] = None,
    name: str = "artifact",
) -> Envelope:
    """Decode, parse and validate one serialized envelope.

    ``name`` says where the bytes came from in error messages (a file
    name, or a file name and line for one record of a log).
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ArtifactIntegrityError(
            E_ENCODING,
            "$",
            f"{name} is not UTF-8 (byte {exc.start}): the file is "
            "corrupted",
        )
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactIntegrityError(
            E_JSON,
            "$",
            f"{name} is not valid JSON (line {exc.lineno} column "
            f"{exc.colno}: {exc.msg}): the file is truncated or corrupted",
        )
    return parse_envelope(document, expected_kind=expected_kind, source=source)


def envelope_line(
    kind: str, payload: dict, digests: Optional[Dict[str, str]] = None
) -> str:
    """One envelope as a single JSONL line, newline included."""
    document = wrap_payload(kind, payload, digests)
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def append_envelope_line(
    path: Union[str, Path],
    kind: str,
    payload: dict,
    digests: Optional[Dict[str, str]] = None,
    points: Optional[Tuple[str, str]] = (
        POINT_JOURNAL_APPENDED, POINT_JOURNAL_SYNCED,
    ),
) -> Path:
    """Append one envelope as a single JSONL line (the journal format).

    Unlike :func:`save_artifact`, the file accumulates one envelope per
    line, so long-running producers (the sweep engine) can record each
    result as it lands.  Each line is independently checksummed; a crash
    mid-append damages at most the final line, which
    :func:`read_envelope_lines` detects and skips.  The line is
    ``fsync``ed before this returns.

    ``points`` are the crash points fired after the write and after the
    ``fsync`` (the journal's by default); ``None`` fires none, for a
    caller that marks its own steps.
    """
    path = Path(path)
    line = envelope_line(kind, payload, digests)
    # A crash (or torn write) can leave the final line without its
    # newline; appending straight after would weld the new record onto
    # the damaged tail and lose both.  Terminate any such tail first so
    # the damage stays confined to the one already-lost line.
    try:
        with open(path, "rb") as probe:
            probe.seek(-1, os.SEEK_END)
            needs_newline = probe.read(1) != b"\n"
    except (OSError, ValueError):
        needs_newline = False
    with open(path, "a", encoding="utf-8") as handle:
        if needs_newline:
            handle.write("\n")
        fs_write(handle, line, label=path.name)
        if points is not None:
            crash_point(points[0])
        fs_fsync(handle, label=path.name)
        if points is not None:
            crash_point(points[1])
    return path


def read_envelope_lines(
    path: Union[str, Path], expected_kind: Optional[str] = None
) -> Tuple[List[Envelope], int]:
    """Read a JSONL journal of envelopes, skipping damaged lines.

    Returns ``(envelopes, skipped)``: every line that parses and
    validates, plus the count of lines that did not (truncated tail
    after a crash, bit damage, checksum mismatch, wrong kind).  A
    missing file reads as empty — the journal's "nothing done yet"
    state.

    Raises:
        ArtifactIntegrityError: Only when the file exists but cannot be
            read at all (``E_IO``).
    """
    path = Path(path)
    if not path.exists():
        return [], 0
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise ArtifactIntegrityError(E_IO, "$", f"cannot read {path}: {exc}")
    envelopes: List[Envelope] = []
    skipped = 0
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            document = json.loads(line)
        except json.JSONDecodeError:
            skipped += 1
            continue
        try:
            envelopes.append(
                parse_envelope(document, expected_kind=expected_kind, source=path)
            )
        except ArtifactError:
            skipped += 1
    return envelopes, skipped


def describe_artifact(envelope: Envelope) -> str:
    """One human line about a validated envelope (``repro check``)."""
    bits = [envelope.kind]
    if envelope.is_legacy:
        bits.append("pre-envelope, migrated")
    else:
        bits.append(f"envelope v{envelope.schema_version}")
        bits.append(envelope.producer)
    network = envelope.payload.get("network")
    if isinstance(network, str):
        bits.append(f"network {network}")
    return ", ".join(bits)
