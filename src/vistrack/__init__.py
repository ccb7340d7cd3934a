"""vistrack: deterministic tracking-by-association toolkit for video
instance segmentation outputs.

The package operates on serialized per-frame detections (boxes, masks,
class probabilities, appearance embeddings) and provides mask/box
geometry, embedding similarity and greedy identity assignment against a
memory bank, the contrastive embedding loss with analytic gradients
checked against finite differences, key/reference crop-pair sampling,
spatio-temporal IoU evaluation, track fusion, and a seeded synthetic
corpus generator. Every entry point is a pure function of its inputs and
configured seeds.
"""

from .association import (
    AssociationConfig,
    SimilarityKind,
    assign,
    similarity,
    track_video,
    track_video_with_trace,
)
from .contrastive import embed_loss, embed_loss_grad, gradient_check_suite
from .core import (
    CLUTTER,
    BBox,
    Detection,
    FrameDetections,
    RleMask,
    Track,
    TrackEntry,
    VideoGroundTruth,
    VideoMeta,
    bbox_of_mask,
    mask_iou,
    rle_decode,
    rle_encode,
)
from .errors import (
    ConfigError,
    ConfigInfeasible,
    CountsMismatch,
    DimensionMismatch,
    DuplicateInstanceId,
    EmptyInput,
    ImageTooSmall,
    NonFiniteInput,
    ParseError,
    SchemaError,
    ToolkitError,
    UnknownCategory,
    UnknownVideoId,
    VideoMismatch,
)
from .evaluation import EvalReport, Metrics, evaluate, id_switches, st_iou
from .fusion import FusionConfig, ScoreRule, fuse_tracks
from .pseudo_pair import (
    CropConfig,
    CropPairSample,
    CropView,
    CropWindow,
    ImageMeta,
    SourceAnnotation,
    make_pair,
    sample_crop,
    transform_annotations,
)
from .rng import SplitMix64
from .synth import SynthConfig, SynthCorpus, generate

__version__ = "0.1.0"
