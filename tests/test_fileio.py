"""Binary tensor container and the JSON document schemas."""

import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posekit import (
    FeatureMaps,
    GroundTruthPerson,
    Keypoint,
    PoseDocument,
    PoseSkeleton,
    RenderConfig,
    compute_input_geometry,
    read_poses,
    read_scene_truth,
    read_tensor,
    write_poses,
    write_scene_truth,
    write_tensor,
)
from posekit.errors import SchemaError, TensorFormatError
from posekit.fileio import (
    TENSOR_HEADER_SIZE,
    parse_poses,
    parse_tensor,
    pose_document_bytes,
    scene_truth_bytes,
    tensor_bytes,
)
from posekit.skeleton import NUM_KEYPOINTS

# Canonical 1x1x1 file holding the value 0.5: 23-byte header + 4-byte payload.
GOLDEN_FILE = (
    b"PTNS"                      # magic
    b"\x01\x00"                  # version 1
    b"\x01\x00\x00\x00"          # height 1
    b"\x01\x00\x00\x00"          # width 1
    b"\x01\x00\x00\x00"          # channels 1
    b"\x01"                      # dtype code 1 = float32
    b"\x04\x00\x00\x00"          # payload length 4
    b"\x00\x00\x00\x3f"          # 0.5 little-endian
)


def _pack_header(magic=b"PTNS", version=1, h=1, w=1, c=1, dtype=1, payload_len=4):
    return struct.pack("<4sHIIIBI", magic, version, h, w, c, dtype, payload_len)


# ---------------------------------------------------------------------------
# Tensor container
# ---------------------------------------------------------------------------

def test_golden_file_bytes():
    maps = FeatureMaps(np.array([[[0.5]]], dtype=np.float32))
    blob = tensor_bytes(maps)
    assert len(blob) == TENSOR_HEADER_SIZE + 4 == 27
    assert blob == GOLDEN_FILE


def test_golden_file_parses_back():
    maps = parse_tensor(GOLDEN_FILE)
    assert (maps.channels, maps.height, maps.width) == (1, 1, 1)
    assert maps.data[0, 0, 0] == np.float32(0.5)


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(21)
    data = rng.standard_normal((5, 7, 11)).astype(np.float32)
    path = tmp_path / "maps.ptns"
    write_tensor(FeatureMaps(data), path)
    back = read_tensor(path)
    np.testing.assert_array_equal(back.data, data)
    assert back.data.dtype == np.float32


def test_non_contiguous_input_serializes_correctly():
    base = np.arange(4 * 6 * 8, dtype=np.float32).reshape(4, 6, 8)
    view = base[::2]  # stride trick: channels 0 and 2
    restored = parse_tensor(tensor_bytes(FeatureMaps(view)))
    np.testing.assert_array_equal(restored.data, view)


@pytest.mark.parametrize("blob, field", [
    (b"PT", "header"),
    (_pack_header(magic=b"XXXX") + b"\x00" * 4, "magic"),
    (_pack_header(version=2) + b"\x00" * 4, "version"),
    (_pack_header(h=0) + b"\x00" * 4, "dimensions"),
    (_pack_header(dtype=9) + b"\x00" * 4, "dtype"),
    (_pack_header(payload_len=8) + b"\x00" * 8, "payload_length"),
    (_pack_header() + b"\x00" * 2, "payload"),
    (_pack_header() + b"\x00" * 6, "payload"),
    (_pack_header() + struct.pack("<f", float("nan")), "payload"),
    (_pack_header() + struct.pack("<f", 3e38), "payload"),
    (_pack_header() + struct.pack("<f", -3e38), "payload"),
])
def test_malformed_tensors_report_the_faulty_field(blob, field):
    with pytest.raises(TensorFormatError) as err:
        parse_tensor(blob)
    assert err.value.field == field


def test_read_tensor_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        read_tensor(tmp_path / "absent.ptns")


# ---------------------------------------------------------------------------
# Pose documents
# ---------------------------------------------------------------------------

def _skeleton(slots: dict, score: float) -> PoseSkeleton:
    kps = []
    for kind in range(NUM_KEYPOINTS):
        pos = slots.get(kind)
        if pos is None:
            kps.append(None)
        else:
            kps.append(Keypoint(id=kind, kind=kind, x=pos[0], y=pos[1], score=pos[2]))
    return PoseSkeleton(tuple(kps), score, sum(p is not None for p in kps))


def _document() -> PoseDocument:
    geometry = compute_input_geometry(720, 1280, 256)
    sk1 = _skeleton({1: (10.5, 20.25, 0.9), 2: (12.0, 22.0, 0.8), 8: (11.0, 40.0, 0.7)}, 1.5)
    sk2 = _skeleton({0: (100.0, 50.0, 0.95), 14: (98.0, 48.0, 0.6)}, 0.9)
    return PoseDocument(geometry=geometry, skeletons=(sk1, sk2))


def test_pose_document_round_trip(tmp_path):
    doc = _document()
    path = tmp_path / "poses.json"
    write_poses(doc, path)
    back = read_poses(path)
    assert back.geometry == doc.geometry
    assert back.schema_version == doc.schema_version
    assert len(back.skeletons) == len(doc.skeletons)
    for orig, parsed in zip(doc.skeletons, back.skeletons):
        assert parsed.score == orig.score
        assert parsed.num_keypoints == orig.num_keypoints
        for kp_orig, kp_parsed in zip(orig.keypoints, parsed.keypoints):
            if kp_orig is None:
                assert kp_parsed is None
            else:
                assert (kp_parsed.kind, kp_parsed.x, kp_parsed.y, kp_parsed.score) == \
                    (kp_orig.kind, kp_orig.x, kp_orig.y, kp_orig.score)


def test_pose_document_schema_version_is_not_settable():
    # A document of another version would write but not read back.
    doc = _document()
    with pytest.raises(TypeError):
        PoseDocument(doc.geometry, doc.skeletons, schema_version=2)
    assert doc.schema_version == 1


def test_pose_document_bytes_are_canonical():
    doc = _document()
    blob = pose_document_bytes(doc)
    assert blob == pose_document_bytes(doc)
    obj = json.loads(blob)
    assert list(obj) == sorted(obj)
    assert obj["schema_version"] == 1
    assert len(obj["skeletons"][0]["keypoints"]) == NUM_KEYPOINTS


def test_empty_skeleton_list_round_trips():
    doc = PoseDocument(geometry=compute_input_geometry(256, 456, 256), skeletons=())
    assert parse_poses(pose_document_bytes(doc)).skeletons == ()


@settings(max_examples=100, deadline=None)
@given(sizes=st.tuples(st.integers(1, 4000), st.integers(1, 6000), st.integers(1, 1024)),
       numpy_ints=st.booleans())
def test_every_computed_geometry_round_trips(tmp_path_factory, sizes, numpy_ints):
    # NumPy sizes gave a geometry whose document could not be written.
    if numpy_ints:
        sizes = tuple(np.int64(n) for n in sizes)
    geometry = compute_input_geometry(*sizes)
    path = tmp_path_factory.mktemp("geometry") / "poses.json"
    write_poses(PoseDocument(geometry=geometry, skeletons=()), path)
    assert read_poses(path).geometry == geometry


def _valid_pose_obj() -> dict:
    return json.loads(pose_document_bytes(_document()))


def _number_literal(field: str, literal: str):
    """A mutation that puts the bare JSON ``literal`` in ``field`` of keypoint 1
    of skeleton 0, or in the skeleton's own score: ``"@" + literal`` here,
    unquoted before parsing."""
    def mutate(obj):
        skeleton = obj["skeletons"][0]
        target = skeleton if field == "skeleton score" else skeleton["keypoints"][1]
        target[field.split()[-1]] = "@" + literal
    return mutate


@pytest.mark.parametrize("mutate", [
    lambda obj: obj.pop("geometry"),
    lambda obj: obj.update(schema_version=99),
    lambda obj: obj.update(extra_field=1),
    lambda obj: obj["geometry"].pop("stride"),
    lambda obj: obj["geometry"].update(pad=[0, 0, 0]),
    lambda obj: obj["geometry"].update(stride="8"),
    lambda obj: obj.update(skeletons={}),
    lambda obj: obj["skeletons"][0].pop("score"),
    lambda obj: obj["skeletons"][0].update(keypoints=[None] * 3),
    lambda obj: obj["skeletons"][0]["keypoints"][1].update(kind=5),
    lambda obj: obj["skeletons"][0]["keypoints"][1].update(x="oops"),
    lambda obj: obj["skeletons"][0].update(keypoints=[None] * NUM_KEYPOINTS),
    # Pads that leave no image in the 256x456 input: decode mirrored every
    # keypoint through the first and divided by zero on the others.
    lambda obj: obj["geometry"].update(pad=[0, 0, 300, 0]),
    lambda obj: obj["geometry"].update(pad=[0, 0, 256, 0]),
    lambda obj: obj["geometry"].update(pad=[0, 0, 0, 456]),
    *(pytest.param(_number_literal(field, literal), id=f"{field}={literal}")
      for field in ("x", "y", "score", "skeleton score")
      for literal in ("NaN", "Infinity", "-Infinity", "1e400")),
])
def test_pose_schema_violations_are_rejected(mutate):
    obj = _valid_pose_obj()
    mutate(obj)
    with pytest.raises(SchemaError):
        parse_poses(re.sub(r'"@([^"]*)"', r"\1", json.dumps(obj)).encode())


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_pose_writer_refuses_what_the_reader_rejects(value):
    doc = PoseDocument(_document().geometry, (_skeleton({1: (10.5, 20.25, 0.9)}, value),))
    with pytest.raises(ValueError):
        pose_document_bytes(doc)


def test_pose_parse_rejects_non_json():
    with pytest.raises(SchemaError):
        parse_poses(b"{not json")


def test_pose_records_that_are_not_objects_are_rejected():
    with pytest.raises(SchemaError, match="^document must be an object, got list"):
        parse_poses(b"[]")
    obj = _valid_pose_obj()
    obj["skeletons"][1] = 7
    with pytest.raises(SchemaError, match=r"^skeletons\[1\] must be an object, got int"):
        parse_poses(json.dumps(obj).encode())


@pytest.mark.parametrize("buf", [b"\xff\xfe{", b"[" * 100_000],
                         ids=["bad-encoding", "deep-nesting"])
def test_malformed_json_is_a_schema_error_in_both_documents(tmp_path, buf):
    with pytest.raises(SchemaError, match="not valid JSON"):
        parse_poses(buf)
    path = tmp_path / "truth.json"
    path.write_bytes(buf)
    with pytest.raises(SchemaError, match="not valid JSON"):
        read_scene_truth(path)


# ---------------------------------------------------------------------------
# Scene truth
# ---------------------------------------------------------------------------

def _persons():
    slots_a = [None] * NUM_KEYPOINTS
    slots_a[1] = (10.0, 12.0)
    slots_a[2] = (13.0, 12.0)
    slots_b = [None] * NUM_KEYPOINTS
    slots_b[5] = (30.0, 8.0)
    return (GroundTruthPerson(tuple(slots_a)), GroundTruthPerson(tuple(slots_b)))


def test_scene_truth_round_trip(tmp_path):
    cfg = RenderConfig(map_height=32, map_width=57, sigma=2.0, limb_width=1.5, seed=42)
    path = tmp_path / "truth.json"
    write_scene_truth(_persons(), cfg, path)
    persons, parsed_cfg = read_scene_truth(path)
    assert parsed_cfg == cfg
    assert persons == _persons()


def test_scene_truth_round_trip_of_numpy_config_values(tmp_path):
    # NumPy integers made scene_truth_bytes raise "not JSON serializable".
    cfg = RenderConfig(np.int64(32), np.int64(57), sigma=np.float64(2.0), seed=np.int64(3))
    path = tmp_path / "truth.json"
    write_scene_truth(_persons(), cfg, path)
    assert read_scene_truth(path) == (_persons(), RenderConfig(32, 57, seed=3))


@pytest.mark.parametrize("mutate", [
    lambda obj: obj.pop("sigma"),
    lambda obj: obj.update(schema_version=3),
    lambda obj: obj.update(persons=[[None] * 5]),
    lambda obj: obj["persons"][0].__setitem__(1, [1.0]),
    lambda obj: obj.update(surplus=True),
    lambda obj: obj.update(persons={"0": []}),
    lambda obj: obj["persons"].append(3),
])
def test_scene_truth_schema_violations_are_rejected(tmp_path, mutate):
    cfg = RenderConfig(map_height=32, map_width=57)
    obj = json.loads(scene_truth_bytes(_persons(), cfg))
    mutate(obj)
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(SchemaError):
        read_scene_truth(path)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
                         ids=["nan", "inf", "-inf", "float-overflow", "int-overflow"])
@pytest.mark.parametrize("field", ["sigma", "limb_width", "x", "y"])
def test_scene_truth_rejects_non_finite_numbers(tmp_path, field, literal):
    # Python's json module reads NaN and Infinity as floats, 1e400 as inf,
    # and a 401-digit integer as an int that no float can hold.
    cfg = RenderConfig(map_height=32, map_width=57)
    obj = json.loads(scene_truth_bytes(_persons(), cfg))
    if field in ("x", "y"):
        obj["persons"][0][1][field == "y"] = "@"
    else:
        obj[field] = "@"
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(obj).replace('"@"', literal))
    with pytest.raises(SchemaError, match=f"^{field} "):
        read_scene_truth(path)


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("field", ["sigma", "limb_width"])
def test_scene_truth_rejects_non_positive_render_sizes(tmp_path, field, value):
    obj = json.loads(scene_truth_bytes(_persons(), RenderConfig(map_height=32, map_width=57)))
    obj[field] = value
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(SchemaError, match=f"^{field} must be positive"):
        read_scene_truth(path)
