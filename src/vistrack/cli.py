"""Command-line front end.

Subcommands: track, eval, pseudopair, fuse, synth, losscheck. All file
outputs go through the deterministic writers in formats, so repeated
runs on identical inputs are byte-identical. Exit codes: 0 success,
1 I/O failure, else the raised ``ToolkitError``'s ``exit_code``: 2 an
input fault (``SchemaError``: a malformed file, or a video's length or
mask size that differs between files, which ``formats.load_results``
checks against ``eval``'s ground truth or ``fuse``'s earlier inputs),
3 a bad configuration value (``ConfigError``), 4 any other (an operation
contract broken by its operands; the commands check their inputs first).

Each command imports only the modules it runs: ``--help`` loads
``cli`` and ``errors``; ``eval`` adds ``formats``, ``core`` and
``evaluation``; ``track`` adds ``formats``, ``core`` and
``association``; ``fuse`` adds ``formats``, ``core``, ``evaluation``
and ``fusion``; ``pseudopair`` adds ``formats``, ``core``, ``rng`` and
``pseudo_pair``; ``synth`` adds ``formats``, ``core``, ``rng`` and
``synth``; ``losscheck`` adds ``core``, ``rng`` and ``contrastive``.
A config file also loads the module of each section it names.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import TYPE_CHECKING

from .errors import ConfigError, SchemaError, ToolkitError

if TYPE_CHECKING:
    from .evaluation import EvalReport

# The stage each command runs, by the module that defines it. Each is an
# attribute of this module, imported on its first lookup (PEP 562), and
# the commands call it through the module (``_cli.<stage>``):
# perfbench/layers.py times the stages by wrapping these attributes. Once
# the benchmark wraps each stage where it is defined, they can become
# plain imports inside the commands. ``synth`` runs ``generate_videos``,
# which yields each video as ``formats.save_detections`` asks for it, so
# generation time falls inside the writer's; the benchmark still wraps
# ``generate``, which no command calls now.
_STAGES = {
    "generate_videos": "synth",
    "track_video": "association",
    "evaluate": "evaluation",
    "fuse_tracks": "fusion",
    "make_pair": "pseudo_pair",
    "gradient_check_suite": "contrastive",
}
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _STAGES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_STAGES[name]}", __package__), name)
    globals()[name] = value  # later lookups find it without this call
    return value


GRAD_REL_BOUND = 1e-4
GRAD_ABS_BOUND = 1e-7


def _cmd_track(args) -> int:
    from . import formats

    cfg = formats.load_run_config(args.config)
    _, metas, results = formats.read_detections(
        args.detections, lambda frames, meta: _cli.track_video(frames, cfg.association, meta)
    )
    formats.save_results(results, args.out, {vid: meta.length for vid, meta in metas.items()})
    return 0


def _format_table(report: EvalReport) -> str:
    from .evaluation import MAX_DETECTIONS

    headers = ["category", "AP", "AP50", "AP75"] + [f"AR@{k}" for k in MAX_DETECTIONS]
    rows = []

    def fmt(m):
        if m is None:
            return ["-"] * (3 + len(MAX_DETECTIONS))
        return [f"{m.ap:.4f}", f"{m.ap50:.4f}", f"{m.ap75:.4f}"] + [f"{m.ar[k]:.4f}" for k in MAX_DETECTIONS]

    for c in sorted(report.per_category):
        rows.append([str(c)] + fmt(report.per_category[c]))
    rows.append(["overall"] + fmt(report.overall))
    widths = [max(len(r[i]) for r in rows + [headers]) for i in range(len(headers))]
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(v.rjust(w) for v, w in zip(r, widths)) for r in rows]
    return "\n".join(lines)


def _cmd_eval(args) -> int:
    from . import formats

    ground_truth = formats.load_annotations(args.gt)
    videos = {g.video_id: (g.length, [g.height, g.width]) for g in ground_truth}
    predictions = formats.load_results(args.results, videos)  # evaluate names an unknown video
    report = _cli.evaluate(predictions, ground_truth)
    formats.save_report(report, args.out)
    if args.table:
        print(_format_table(report))
    return 0


def _seed(seed: int) -> int:
    """A --seed value, which SplitMix64 takes in [0, 2**64)."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"--seed must lie in [0, 2**64), got {seed}")
    return seed


def _cmd_pseudopair(args) -> int:
    from . import formats
    from .pseudo_pair import ImageMeta, SourceAnnotation
    from .rng import SplitMix64

    rng = SplitMix64(_seed(args.seed))
    cfg = formats.load_run_config(args.config)
    ground_truth = formats.load_annotations(args.annotations)
    samples = []
    for g in ground_truth:  # in ascending video id
        for f in range(g.length):
            anns = [
                SourceAnnotation(
                    instance_id=t.track_id,
                    category_id=t.category_id,
                    bbox=t.entries[f].bbox,
                    mask=t.entries[f].mask,
                )
                for t in g.gt_tracks
                if f in t.entries
            ]
            if not anns:
                continue
            meta = ImageMeta(image_id=len(samples) + 1, width=g.width, height=g.height)
            try:
                samples.append(_cli.make_pair(meta, anns, cfg.crop, rng))
            except SchemaError as e:  # the image is too small to crop
                raise SchemaError(f"video {g.video_id}: {e}") from e
    formats.save_pairs(samples, args.out)
    return 0


def _cmd_fuse(args) -> int:
    from . import formats

    cfg = formats.load_run_config(args.config)
    weights = cfg.fusion.source_weights
    if weights is not None and len(weights) != len(args.inputs):
        raise ConfigError(
            f"{args.config}: config.fusion: source_weights has {len(weights)} weights, but --inputs names {len(args.inputs)} files"
        )
    videos: dict[int, tuple[int, list]] = {}  # each input must agree with those before it
    loaded = [formats.load_results(p, videos) for p in args.inputs]
    lengths = {vid: length for vid, (length, _) in videos.items()}
    merged = {}
    for vid in sorted(lengths):
        track_sets = [tracks.get(vid, []) for tracks in loaded]
        merged[vid] = _cli.fuse_tracks(track_sets, lengths[vid], cfg.fusion)
    formats.save_results(merged, args.out, lengths)
    return 0


def _cmd_synth(args) -> int:
    from dataclasses import replace

    from . import formats
    from .core import VideoMeta

    cfg = formats.load_run_config(args.config).synth
    if args.seed is not None:
        cfg = replace(cfg, rng_seed=args.seed)
    ground_truth, identity_key = [], {}

    def videos():  # each video's detections are written as soon as it is generated
        for gt, frames, identity in _cli.generate_videos(cfg):
            ground_truth.append(gt)
            identity_key.update(identity)
            yield gt.video_id, frames, VideoMeta(length=gt.length, height=gt.height, width=gt.width)

    made = []  # the directories this command creates, innermost first
    d = os.path.abspath(args.out_dir)
    while not os.path.exists(d):
        made.append(d)
        d = os.path.dirname(d)
    os.makedirs(args.out_dir, exist_ok=True)
    try:
        formats.save_detections(videos(), os.path.join(args.out_dir, "detections.json"), cfg.embedding_dim)
    except BaseException:  # a failed write leaves no file, and a config that fails leaves no directory
        for d in made:
            os.rmdir(d)
        raise
    formats.save_annotations(ground_truth, os.path.join(args.out_dir, "annotations.json"))
    formats.save_identity(identity_key, os.path.join(args.out_dir, "identity.json"))
    return 0


def _cmd_losscheck(args) -> int:
    if args.samples < 1:  # a check of no instances would print PASS
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")
    worst_rel, worst_abs = _cli.gradient_check_suite(samples=args.samples, seed=_seed(args.seed))
    ok = worst_rel <= GRAD_REL_BOUND and worst_abs <= GRAD_ABS_BOUND
    print(f"max relative error: {worst_rel:.3e} (bound {GRAD_REL_BOUND:.0e})")
    print(f"max absolute error near zero: {worst_abs:.3e} (bound {GRAD_ABS_BOUND:.0e})")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vistrack",
        description="Deterministic tracking-by-association toolkit for video instance segmentation outputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("track", help="associate per-frame detections into tracks")
    p.add_argument("--detections", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("eval", help="score tracks against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--table", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("pseudopair", help="sample key/reference crop pairs from annotations")
    p.add_argument("--annotations", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pseudopair)

    p = sub.add_parser("fuse", help="merge several results files into one")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("losscheck", help="finite-difference check of the embedding loss gradients")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_losscheck)

    return parser


def entrypoint(argv=None) -> int:
    # Every array here is small: OpenBLAS's pool of worker threads takes
    # longer to start than it saves. numpy is first imported after this
    # (see _numpy), and a value the user has set is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ToolkitError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
