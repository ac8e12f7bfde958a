"""Body model shared by the decoder, the synthesizer, and the file formats.

18 keypoint kinds, 19 limb types. Part-affinity fields carry one (x, y)
vector field per limb type, so 38 channels total; heatmaps carry one channel
per kind plus a background channel at index 18.
"""

from __future__ import annotations

from dataclasses import dataclass

from .featuremaps import _require_integer, _require_real

KEYPOINT_NAMES = (
    "nose", "neck",
    "r_shoulder", "r_elbow", "r_wrist",
    "l_shoulder", "l_elbow", "l_wrist",
    "r_hip", "r_knee", "r_ankle",
    "l_hip", "l_knee", "l_ankle",
    "r_eye", "l_eye", "r_ear", "l_ear",
)

NUM_KEYPOINTS = len(KEYPOINT_NAMES)
BACKGROUND_CHANNEL = NUM_KEYPOINTS
NUM_HEATMAP_CHANNELS = NUM_KEYPOINTS + 1


# Each limb's from and to kinds, in limb id order.
_LIMB_KINDS = (
    (1, 2), (1, 5),            # neck to shoulders
    (2, 3), (3, 4),            # right arm
    (5, 6), (6, 7),            # left arm
    (1, 8), (8, 9), (9, 10),   # right leg
    (1, 11), (11, 12), (12, 13),  # left leg
    (1, 0),                    # neck to nose
    (0, 14), (14, 16),         # right eye, ear
    (0, 15), (15, 17),         # left eye, ear
    (2, 16), (5, 17),          # shoulder-to-ear cross links
)
NUM_LIMBS = len(_LIMB_KINDS)
NUM_PAF_CHANNELS = 2 * NUM_LIMBS


@dataclass(frozen=True)
class LimbType:
    """A directed connection between two keypoint kinds and its PAF channels.

    Valid by construction, else ``ValueError`` naming the limb id: the kinds
    are integers in 0..17 and the channels integers in 0..37, stored as
    ``int``. Both ends may be one kind.
    """

    id: int
    from_kind: int
    to_kind: int
    paf_x_channel: int
    paf_y_channel: int

    def __post_init__(self):
        for name, count in (("from_kind", NUM_KEYPOINTS), ("to_kind", NUM_KEYPOINTS),
                            ("paf_x_channel", NUM_PAF_CHANNELS),
                            ("paf_y_channel", NUM_PAF_CHANNELS)):
            what = f"limb {self.id!r} {name}"
            value = _require_integer(getattr(self, name), what, 0)
            if value >= count:
                raise ValueError(f"{what} must be in 0..{count - 1}, got {value}")
            object.__setattr__(self, name, value)


LIMBS = tuple(LimbType(i, a, b, 2 * i, 2 * i + 1) for i, (a, b) in enumerate(_LIMB_KINDS))


@dataclass(frozen=True, init=False)
class Keypoint:
    """A detected body part. Coordinates are continuous pixel positions.

    ``__init__`` is written out because decode builds one per skeleton
    keypoint per frame: the generated frozen one sets each field through
    ``object.__setattr__`` and took two to three times as long. It takes
    the same parameters, stores them as given, and the instance stays
    frozen. Writing ``__dict__`` gives each instance its own dict, so on
    Python 3.11 and 3.12 reading a field costs a little more; decode
    builds each record once and reads none.
    """

    id: int
    kind: int
    x: float
    y: float
    score: float

    def __init__(self, id: int, kind: int, x: float, y: float, score: float):
        d = self.__dict__
        d["id"] = id
        d["kind"] = kind
        d["x"] = x
        d["y"] = y
        d["score"] = score


@dataclass(frozen=True)
class LimbConnection:
    """A scored candidate connection between two keypoints of one limb type."""

    limb: LimbType
    from_kp: int
    to_kp: int
    affinity: float
    valid_ratio: float


@dataclass(frozen=True, init=False)
class PoseSkeleton:
    """An assembled person: one optional keypoint per kind, plus a score.

    ``score`` is the sum of keypoint scores and accepted connection
    affinities, normalized by the number of keypoints present.
    ``__init__`` is written out for the reason ``Keypoint`` gives.
    """

    keypoints: tuple  # 18 entries of Keypoint | None
    score: float
    num_keypoints: int

    def __init__(self, keypoints: tuple, score: float, num_keypoints: int):
        d = self.__dict__
        d["keypoints"] = keypoints
        d["score"] = score
        d["num_keypoints"] = num_keypoints

    def keypoint(self, kind: int) -> Keypoint | None:
        return self.keypoints[kind]

    def slot_pattern(self) -> tuple[bool, ...]:
        return tuple(kp is not None for kp in self.keypoints)


@dataclass(frozen=True)
class DecoderConfig:
    """Tuning knobs for the decoding pipeline."""

    upsample_factor: int = 4
    peak_threshold: float = 0.1
    paf_sample_count: int = 10
    paf_alignment_threshold: float = 0.05
    min_valid_ratio: float = 0.8
    min_keypoints: int = 3
    min_skeleton_score: float = 0.2

    def __post_init__(self):
        # Kept as int and float: NumPy numbers would not serialize into a JSON config digest.
        for name, minimum in (("upsample_factor", 1), ("paf_sample_count", 2),
                              ("min_keypoints", 1)):
            object.__setattr__(self, name, _require_integer(getattr(self, name), name, minimum))
        for name in ("peak_threshold", "paf_alignment_threshold", "min_skeleton_score",
                     "min_valid_ratio"):
            object.__setattr__(self, name, _require_real(getattr(self, name), name))
        if not 0.0 <= self.min_valid_ratio <= 1.0:
            raise ValueError(f"min_valid_ratio must be in [0, 1], got {self.min_valid_ratio}")
