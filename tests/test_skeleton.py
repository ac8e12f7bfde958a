"""The output records: written-out constructors that keep dataclass behaviour."""

import inspect
import pickle
from dataclasses import FrozenInstanceError, asdict, fields, replace

import pytest

from posekit import (
    Keypoint,
    PoseDocument,
    PoseSkeleton,
    compute_input_geometry,
    read_poses,
    write_poses,
)
from posekit.skeleton import NUM_KEYPOINTS

_KEYPOINT = (7, 3, 10.5, 20.25, 0.875)
_SKELETON = (tuple(Keypoint(*_KEYPOINT) if k == 3 else None for k in range(NUM_KEYPOINTS)),
             1.25, 1)
RECORDS = [(Keypoint, _KEYPOINT), (PoseSkeleton, _SKELETON)]


@pytest.mark.parametrize("cls", [Keypoint, PoseSkeleton])
def test_record_init_takes_the_fields_in_order(cls):
    # The constructor is written by hand; it must not drift from the fields.
    params = inspect.signature(cls).parameters.values()
    assert [p.name for p in params] == [f.name for f in fields(cls)]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in params)


@pytest.mark.parametrize("cls, values", RECORDS)
def test_record_positional_and_keyword_construction_are_equal(cls, values):
    names = [f.name for f in fields(cls)]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert [getattr(by_keyword, name) for name in names] == list(values)
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


@pytest.mark.parametrize("cls, values", RECORDS)
def test_record_replace_asdict_hash_and_pickle(cls, values):
    record = cls(*values)
    assert replace(record) == record
    changed = replace(record, score=2.5)
    assert changed.score == 2.5 and changed != record
    assert [getattr(changed, f.name) for f in fields(cls) if f.name != "score"] == \
        [getattr(record, f.name) for f in fields(cls) if f.name != "score"]
    expected = dict(zip([f.name for f in fields(cls)], values))
    if cls is PoseSkeleton:
        expected["keypoints"] = tuple(None if kp is None else asdict(kp) for kp in values[0])
    assert asdict(record) == expected
    assert hash(record) == hash(cls(*values))
    assert len({record, cls(*values)}) == 1
    back = pickle.loads(pickle.dumps(record))
    assert back == record and hash(back) == hash(record)
    assert repr(record).startswith(f"{cls.__name__}({fields(cls)[0].name}=")


@pytest.mark.parametrize("cls, values", RECORDS)
def test_record_fields_are_frozen(cls, values):
    record = cls(*values)
    for f in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(record, f.name, values[0])
        with pytest.raises(FrozenInstanceError):
            delattr(record, f.name)
    assert record == cls(*values)


def test_pose_document_reads_back_equal(tmp_path):
    # The reader gives every keypoint id -1; all else is what was written.
    kps = tuple(Keypoint(-1, k, 10.5 + k, 20.25 - k, 0.5 + k / 64) if k % 3 else None
                for k in range(NUM_KEYPOINTS))
    doc = PoseDocument(compute_input_geometry(720, 1280, 256),
                       (PoseSkeleton(kps, 1.5, sum(kp is not None for kp in kps)),
                        PoseSkeleton(kps[:2] + (None,) * (NUM_KEYPOINTS - 2), 0.75, 1)))
    path = tmp_path / "poses.json"
    write_poses(doc, path)
    assert read_poses(path) == doc
