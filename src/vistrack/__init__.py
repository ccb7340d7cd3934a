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

``import vistrack`` loads no submodule: each public name below (listed
in ``__all__``) is imported from its module on first use (PEP 562), so
that each command of the command line loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "association": (
        "AssociationConfig",
        "SimilarityKind",
        "assign",
        "similarity",
        "track_video",
        "track_video_with_trace",
    ),
    "contrastive": ("embed_loss", "embed_loss_grad", "gradient_check_suite"),
    "core": (
        "CLUTTER",
        "BBox",
        "Detection",
        "FrameDetections",
        "RleMask",
        "Track",
        "TrackEntry",
        "VideoGroundTruth",
        "VideoMeta",
        "bbox_of_mask",
        "mask_iou",
        "rle_decode",
        "rle_encode",
    ),
    "errors": ("ConfigError", "SchemaError", "ToolkitError"),
    "evaluation": ("EvalReport", "Metrics", "evaluate", "id_switches", "st_iou"),
    "fusion": ("FusionConfig", "ScoreRule", "fuse_tracks"),
    "pseudo_pair": (
        "CropConfig",
        "CropPairSample",
        "CropView",
        "CropWindow",
        "ImageMeta",
        "SourceAnnotation",
        "make_pair",
        "sample_crop",
        "transform_annotations",
    ),
    "rng": ("SplitMix64",),
    "synth": ("SynthConfig", "SynthCorpus", "generate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
