"""Track one noisy synthetic corpus under each association setting and
score it against ground truth.

Varies the match threshold and the similarity kind and prints, per
setting, mAP, AP50, AP75, AR@1 and AR@10 plus the identity switches
counted against the corpus's identity key, holding the corpus fixed so
the numbers are comparable row to row.

Usage:
    python3 scripts/sweep_association.py --seed 42 --sigma 0.15 --dropout 0.15
"""

import argparse
import sys
import time

from vistrack import (
    AssociationConfig,
    ConfigError,
    SimilarityKind,
    SynthConfig,
    evaluate,
    generate,
    id_switches,
    track_video_with_trace,
)
from vistrack.core import VideoMeta


def run_setting(corpus, assoc):
    """The overall metrics, the total id switches and the number of
    switch-free videos of ``corpus`` tracked under ``assoc``."""
    predictions = {}
    switches = 0
    switch_free = 0
    for g in corpus.ground_truth:
        meta = VideoMeta(length=g.length, height=g.height, width=g.width)
        tracks, trace = track_video_with_trace(corpus.detections[g.video_id], assoc, meta)
        predictions[g.video_id] = tracks
        n = id_switches(corpus.detections[g.video_id], corpus.identity_key, g.video_id, trace)
        switches += n
        switch_free += n == 0
    return evaluate(predictions, corpus.ground_truth).overall, switches, switch_free


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--videos", type=int, default=10)
    ap.add_argument("--frames", type=int, default=20)
    ap.add_argument("--objects", type=int, default=4)
    ap.add_argument("--sigma", type=float, default=0.15, help="embedding noise")
    ap.add_argument("--dropout", type=float, default=0.15)
    ap.add_argument("--clutter", type=float, default=1.0)
    ap.add_argument(
        "--thresholds", type=float, nargs="+", default=[0.3, 0.4, 0.5, 0.6, 0.7]
    )
    args = ap.parse_args()

    t0 = time.perf_counter()
    try:  # a bad value exits 3 with its message, as the CLI does
        synth = SynthConfig(
            n_videos=args.videos,
            frames_per_video=args.frames,
            objects_per_video=args.objects,
            embedding_noise_sigma=args.sigma,
            detector_dropout=args.dropout,
            clutter_rate=args.clutter,
            rng_seed=args.seed,
        )
        settings = [
            AssociationConfig(match_threshold=thr, similarity_kind=kind)
            for kind in (SimilarityKind.BISOFTMAX, SimilarityKind.COSINE)
            for thr in args.thresholds
        ]
        corpus = generate(synth)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    n_vid = len(corpus.ground_truth)
    print(f"corpus: {n_vid} videos x {args.frames} frames x {args.objects} objects, seed {args.seed}")
    print(f"noise sigma {args.sigma}, dropout {args.dropout}, clutter rate {args.clutter}")
    print(
        f"{'similarity':>10}  {'threshold':>9}  {'mAP':>6}  {'AP50':>6}  {'AP75':>6}  {'AR@1':>6}  {'AR@10':>6}"
        f"  {'switches':>8}  {'switch-free':>11}"
    )
    for assoc in settings:
        m, switches, switch_free = run_setting(corpus, assoc)
        print(
            f"{assoc.similarity_kind.value:>10}  {assoc.match_threshold:>9.2f}  {m.ap:.4f}  {m.ap50:.4f}"
            f"  {m.ap75:.4f}  {m.ar[1]:.4f}  {m.ar[10]:.4f}  {switches:>8d}  {f'{switch_free}/{n_vid}':>11}"
        )
    print(f"wall time {time.perf_counter() - t0:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
