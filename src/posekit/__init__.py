"""Bottom-up multi-person pose tooling.

Decoding of heatmap/PAF tensors into skeletons, synthetic ground-truth
scenes, analytic network complexity reports, stage benchmarks, and the file
formats tying them together.
"""

from .archcalc import (
    ArchSpec,
    ComplexityReport,
    LayerGroup,
    LayerSpec,
    builtin_backbone_variants,
    builtin_baseline_openpose,
    builtin_lightweight,
    conv7x7_replacement_block,
    evaluate,
    layer_flops,
    layer_params,
)
from .decoder import (
    assemble_skeletons,
    collect_limb_candidates,
    decode,
    extract_keypoints,
    group_limbs,
    score_connections,
)
from .errors import (
    DimensionMismatchError,
    GateFailureError,
    InvalidArchitectureError,
    PlacementInfeasibleError,
    SchemaError,
    TensorFormatError,
)
from .featuremaps import (
    STRIDE,
    FeatureMaps,
    InputGeometry,
    compute_input_geometry,
    resize_bilinear,
)
from .fileio import (
    PoseDocument,
    read_poses,
    read_scene_truth,
    read_tensor,
    write_poses,
    write_scene_truth,
    write_tensor,
)
from .skeleton import (
    KEYPOINT_NAMES,
    LIMBS,
    NUM_KEYPOINTS,
    NUM_LIMBS,
    DecoderConfig,
    Keypoint,
    LimbConnection,
    LimbType,
    PoseSkeleton,
)
from .synth import (
    GroundTruthPerson,
    RenderConfig,
    generate_scene,
    render_heatmaps,
    render_pafs,
)

__version__ = "0.13.0"

__all__ = [
    "ArchSpec", "ComplexityReport", "LayerGroup", "LayerSpec",
    "builtin_backbone_variants", "builtin_baseline_openpose",
    "builtin_lightweight", "conv7x7_replacement_block", "evaluate",
    "layer_flops", "layer_params",
    "assemble_skeletons", "collect_limb_candidates", "decode",
    "extract_keypoints", "group_limbs", "score_connections",
    "DimensionMismatchError", "GateFailureError", "InvalidArchitectureError",
    "PlacementInfeasibleError", "SchemaError", "TensorFormatError",
    "STRIDE", "FeatureMaps", "InputGeometry", "compute_input_geometry",
    "resize_bilinear",
    "PoseDocument", "read_poses", "read_scene_truth", "read_tensor",
    "write_poses", "write_scene_truth", "write_tensor",
    "KEYPOINT_NAMES", "LIMBS", "NUM_KEYPOINTS", "NUM_LIMBS", "DecoderConfig",
    "Keypoint", "LimbConnection", "LimbType", "PoseSkeleton",
    "GroundTruthPerson", "RenderConfig", "generate_scene", "render_heatmaps",
    "render_pafs",
    "__version__",
]
