"""End-to-end run on a synthetic corpus: generate detections with a known
identity key, associate them into tracks, score against ground truth, and
report per-video identity switches.

Usage:
    python3 scripts/run_synthetic_pipeline.py --seed 42 --dropout 0.1 --clutter 0.5
"""

import argparse
import time

from vistrack import (
    AssociationConfig,
    SynthConfig,
    evaluate,
    generate,
    id_switches,
    track_video_with_trace,
)
from vistrack.core import VideoMeta


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--videos", type=int, default=10)
    ap.add_argument("--frames", type=int, default=20)
    ap.add_argument("--objects", type=int, default=4)
    ap.add_argument("--sigma", type=float, default=0.05, help="embedding noise")
    ap.add_argument("--dropout", type=float, default=0.1)
    ap.add_argument("--clutter", type=float, default=0.5)
    args = ap.parse_args()

    cfg = SynthConfig(
        n_videos=args.videos,
        frames_per_video=args.frames,
        objects_per_video=args.objects,
        embedding_noise_sigma=args.sigma,
        detector_dropout=args.dropout,
        clutter_rate=args.clutter,
        rng_seed=args.seed,
    )
    t0 = time.perf_counter()
    corpus = generate(cfg)

    assoc = AssociationConfig()
    predictions = {}
    total_switches = 0
    switch_free = 0
    for g in corpus.ground_truth:
        meta = VideoMeta(length=g.length, height=g.height, width=g.width)
        tracks, trace = track_video_with_trace(corpus.detections[g.video_id], assoc, meta)
        predictions[g.video_id] = tracks
        n = id_switches(corpus.detections[g.video_id], corpus.identity_key, g.video_id, trace)
        total_switches += n
        switch_free += n == 0
    report = evaluate(predictions, corpus.ground_truth)
    dt = time.perf_counter() - t0

    n_vid = len(corpus.ground_truth)
    print(f"corpus: {n_vid} videos x {args.frames} frames x {args.objects} objects, seed {args.seed}")
    print(f"noise sigma {args.sigma}, dropout {args.dropout}, clutter rate {args.clutter}")
    m = report.overall
    print(f"mAP {m.ap:.4f}  AP50 {m.ap50:.4f}  AP75 {m.ap75:.4f}  AR@1 {m.ar[1]:.4f}  AR@10 {m.ar[10]:.4f}")
    print(f"identity switches: {total_switches} total, {switch_free}/{n_vid} videos switch-free")
    print(f"wall time {dt:.2f}s")


if __name__ == "__main__":
    main()
