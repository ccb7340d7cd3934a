"""Sweep the association knobs over one noisy synthetic corpus.

Varies the match threshold and the similarity kind and prints mAP plus
identity-switch counts for each setting, holding the corpus fixed so the
numbers are comparable row to row.

Usage:
    python3 scripts/sweep_association.py --seed 42 --sigma 0.15 --dropout 0.15
"""

import argparse

from vistrack import (
    AssociationConfig,
    SimilarityKind,
    SynthConfig,
    evaluate,
    generate,
    id_switches,
    track_video_with_trace,
)
from vistrack.core import VideoMeta


def run_setting(corpus, assoc):
    predictions = {}
    switches = 0
    for g in corpus.ground_truth:
        meta = VideoMeta(length=g.length, height=g.height, width=g.width)
        tracks, trace = track_video_with_trace(corpus.detections[g.video_id], assoc, meta)
        predictions[g.video_id] = tracks
        switches += id_switches(corpus.detections[g.video_id], corpus.identity_key, g.video_id, trace)
    report = evaluate(predictions, corpus.ground_truth)
    return report.overall.ap, switches


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--videos", type=int, default=10)
    ap.add_argument("--frames", type=int, default=20)
    ap.add_argument("--sigma", type=float, default=0.15)
    ap.add_argument("--dropout", type=float, default=0.15)
    ap.add_argument("--clutter", type=float, default=1.0)
    ap.add_argument(
        "--thresholds", type=float, nargs="+", default=[0.3, 0.4, 0.5, 0.6, 0.7]
    )
    args = ap.parse_args()

    corpus = generate(
        SynthConfig(
            n_videos=args.videos,
            frames_per_video=args.frames,
            embedding_noise_sigma=args.sigma,
            detector_dropout=args.dropout,
            clutter_rate=args.clutter,
            rng_seed=args.seed,
        )
    )
    print(f"corpus seed {args.seed}: sigma {args.sigma}, dropout {args.dropout}, clutter {args.clutter}")
    print(f"{'similarity':>10}  {'threshold':>9}  {'mAP':>7}  {'switches':>8}")
    for kind in (SimilarityKind.BISOFTMAX, SimilarityKind.COSINE):
        for thr in args.thresholds:
            assoc = AssociationConfig(match_threshold=thr, similarity_kind=kind)
            ap_val, switches = run_setting(corpus, assoc)
            print(f"{kind.value:>10}  {thr:>9.2f}  {ap_val:>7.4f}  {switches:>8d}")


if __name__ == "__main__":
    main()
