"""File formats: binary tensor container, pose documents, scene truth.

The tensor container is deliberately minimal so it can be parsed from any
language in a few lines. Byte layout (everything little-endian):

    offset  size  field
    0       4     magic "PTNS"
    4       2     format version, currently 1
    6       4     height
    10      4     width
    14      4     channels
    18      1     dtype code, 1 = 32-bit float
    19      4     payload length in bytes (= height*width*channels*4)
    23      ...   payload, channel-major, row-major within a channel

JSON documents are written with sorted keys and no whitespace so identical
content yields identical bytes.
"""

from __future__ import annotations

import json
import struct
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from typing import ClassVar

import numpy as np

from .errors import SchemaError, TensorFormatError
from .featuremaps import FeatureMaps, InputGeometry, _require_real
from .skeleton import NUM_KEYPOINTS, Keypoint, PoseSkeleton
from .synth import GroundTruthPerson, RenderConfig

TENSOR_MAGIC = b"PTNS"
TENSOR_VERSION = 1
_DTYPE_F32 = 1
_HEADER = struct.Struct("<4sHIIIBI")
TENSOR_HEADER_SIZE = _HEADER.size  # 23

POSE_SCHEMA_VERSION = 1
SCENE_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Tensor container
# ---------------------------------------------------------------------------

def tensor_bytes(maps: FeatureMaps) -> bytes:
    payload = np.ascontiguousarray(maps.data, dtype="<f4").tobytes()
    header = _HEADER.pack(TENSOR_MAGIC, TENSOR_VERSION,
                          maps.height, maps.width, maps.channels,
                          _DTYPE_F32, len(payload))
    return header + payload


def write_tensor(maps: FeatureMaps, path) -> None:
    with open(path, "wb") as fh:
        fh.write(tensor_bytes(maps))


def parse_tensor(buf: bytes) -> FeatureMaps:
    if len(buf) < TENSOR_HEADER_SIZE:
        raise TensorFormatError(
            "header", f"file is {len(buf)} bytes, header needs {TENSOR_HEADER_SIZE}"
        )
    magic, version, height, width, channels, dtype, payload_len = \
        _HEADER.unpack_from(buf)
    if magic != TENSOR_MAGIC:
        raise TensorFormatError("magic", f"expected {TENSOR_MAGIC!r}, got {magic!r}")
    if version != TENSOR_VERSION:
        raise TensorFormatError("version", f"unsupported version {version}")
    if min(height, width, channels) < 1:
        raise TensorFormatError("dimensions", "all dimensions must be >= 1")
    if dtype != _DTYPE_F32:
        raise TensorFormatError("dtype", f"unknown dtype code {dtype}")
    expected = height * width * channels * 4
    if payload_len != expected:
        raise TensorFormatError(
            "payload_length", f"header declares {payload_len} bytes, dims need {expected}"
        )
    actual = len(buf) - TENSOR_HEADER_SIZE
    if actual < expected:
        raise TensorFormatError("payload", f"truncated: {actual} of {expected} bytes")
    if actual > expected:
        raise TensorFormatError("payload", f"{actual - expected} trailing bytes")
    data = np.frombuffer(buf, dtype="<f4", count=expected // 4,
                         offset=TENSOR_HEADER_SIZE)
    try:
        return FeatureMaps(data.reshape(channels, height, width).astype(np.float32))
    except ValueError as exc:
        raise TensorFormatError("payload", str(exc)) from exc


def read_tensor(path) -> FeatureMaps:
    with open(path, "rb") as fh:
        return parse_tensor(fh.read())


# ---------------------------------------------------------------------------
# JSON helpers
# ---------------------------------------------------------------------------

def _dump_canonical(obj) -> bytes:
    # NaN and the infinities would become tokens that the readers reject.
    return (json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
            + "\n").encode("ascii")


def _load_document(buf: bytes, keys: tuple, version: int, what: str) -> dict:
    """The JSON object in ``buf``, with exactly ``keys`` and ``version`` as its
    ``schema_version``. Anything else, bad encodings (a ``ValueError``) and
    nesting too deep to parse included, raises ``SchemaError``."""
    try:
        obj = json.loads(buf)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    _require_keys(obj, keys, what)
    found = obj["schema_version"]
    if type(found) is not int or found != version:
        raise SchemaError(f"schema_version {found!r} not supported (expected {version})")
    return obj


def _require_keys(obj, keys: tuple, what: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be an object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    unknown = [k for k in obj if k not in keys]
    if missing:
        raise SchemaError(f"{what} is missing field(s) {missing}")
    if unknown:
        raise SchemaError(f"{what} has unknown field(s) {unknown}")


@contextmanager
def _record_rules():
    """Raise the ``ValueError`` of a record's own rule as ``SchemaError``."""
    try:
        yield
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Pose documents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoseDocument:
    """Decoded skeletons plus the geometry they were mapped through."""

    geometry: InputGeometry
    skeletons: tuple
    schema_version: ClassVar[int] = POSE_SCHEMA_VERSION


def _geometry_from_json(obj) -> InputGeometry:
    _require_keys(obj, tuple(f.name for f in fields(InputGeometry)), "geometry")
    return InputGeometry(**obj)


def pose_document_bytes(doc: PoseDocument) -> bytes:
    skeletons = []
    for sk in doc.skeletons:
        entries = []
        for kp in sk.keypoints:
            if kp is None:
                entries.append(None)
            else:
                entries.append({"kind": int(kp.kind), "x": float(kp.x),
                                "y": float(kp.y), "score": float(kp.score)})
        skeletons.append({"score": float(sk.score), "keypoints": entries})
    return _dump_canonical({
        "schema_version": doc.schema_version,
        "geometry": asdict(doc.geometry),
        "skeletons": skeletons,
    })


def write_poses(doc: PoseDocument, path) -> None:
    with open(path, "wb") as fh:
        fh.write(pose_document_bytes(doc))


def _skeleton_from_json(obj, index: int) -> PoseSkeleton:
    _require_keys(obj, ("score", "keypoints"), f"skeletons[{index}]")
    entries = obj["keypoints"]
    if not (isinstance(entries, list) and len(entries) == NUM_KEYPOINTS):
        raise SchemaError(
            f"skeletons[{index}].keypoints must hold exactly {NUM_KEYPOINTS} entries"
        )
    keypoints = []
    for slot, entry in enumerate(entries):
        if entry is None:
            keypoints.append(None)
            continue
        _require_keys(entry, ("kind", "x", "y", "score"),
                      f"skeletons[{index}].keypoints[{slot}]")
        kind = entry["kind"]
        if type(kind) is not int or kind != slot:
            raise SchemaError(
                f"skeletons[{index}].keypoints[{slot}] has kind {kind!r}, expected {slot}"
            )
        # Keypoint holds no rule of its own, since decode builds hundreds per frame.
        keypoints.append(Keypoint(id=-1, kind=kind, x=_require_real(entry["x"], "x"),
                                  y=_require_real(entry["y"], "y"),
                                  score=_require_real(entry["score"], "score")))
    present = sum(kp is not None for kp in keypoints)
    if present == 0:
        raise SchemaError(f"skeletons[{index}] has no keypoints")
    return PoseSkeleton(keypoints=tuple(keypoints),
                        score=_require_real(obj["score"], "score"),
                        num_keypoints=present)


def parse_poses(buf: bytes) -> PoseDocument:
    obj = _load_document(buf, ("schema_version", "geometry", "skeletons"),
                         POSE_SCHEMA_VERSION, "document")
    if not isinstance(obj["skeletons"], list):
        raise SchemaError("skeletons must be an array")
    with _record_rules():
        skeletons = tuple(_skeleton_from_json(sk, i) for i, sk in enumerate(obj["skeletons"]))
        return PoseDocument(geometry=_geometry_from_json(obj["geometry"]),
                            skeletons=skeletons)


def read_poses(path) -> PoseDocument:
    with open(path, "rb") as fh:
        return parse_poses(fh.read())


# ---------------------------------------------------------------------------
# Scene truth
# ---------------------------------------------------------------------------

def scene_truth_bytes(persons, cfg: RenderConfig) -> bytes:
    rows = []
    for person in persons:
        rows.append([
            None if pos is None else [float(pos[0]), float(pos[1])]
            for pos in person.keypoints
        ])
    return _dump_canonical({"schema_version": SCENE_SCHEMA_VERSION, **asdict(cfg),
                            "persons": rows})


def write_scene_truth(persons, cfg: RenderConfig, path) -> None:
    with open(path, "wb") as fh:
        fh.write(scene_truth_bytes(persons, cfg))


def read_scene_truth(path):
    """Returns ``(persons, render_config)``."""
    names = tuple(f.name for f in fields(RenderConfig))
    with open(path, "rb") as fh:
        obj = _load_document(fh.read(), ("schema_version", *names, "persons"),
                             SCENE_SCHEMA_VERSION, "scene truth")
    rows = obj["persons"]
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise SchemaError("persons must be an array of arrays")
    for i, row in enumerate(rows):
        for j, pos in enumerate(row):
            if not (pos is None or (isinstance(pos, list) and len(pos) == 2)):
                raise SchemaError(f"persons[{i}][{j}] must be [x, y] or null")
    with _record_rules():
        cfg = RenderConfig(**{name: obj[name] for name in names})
        return tuple(GroundTruthPerson(tuple(row)) for row in rows), cfg
