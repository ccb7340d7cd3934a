"""Acceptance gate: nine end-to-end criteria, one test and one printed
PASS line per criterion. Tolerances are stated inline; none of them may
be loosened."""

import filecmp
import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from helpers import (
    best_matching,
    evaluate_brute,
    grid_st_iou,
    matching_margin,
    random_micro_corpus,
    track_from_grids,
    videos_with_id_switches,
)
from vistrack import (
    AssociationConfig,
    BBox,
    CropConfig,
    FusionConfig,
    ImageMeta,
    ScoreRule,
    SourceAnnotation,
    SplitMix64,
    SynthConfig,
    assign,
    embed_loss,
    evaluate,
    fuse_tracks,
    generate,
    gradient_check_suite,
    make_pair,
    rle_decode,
    rle_encode,
    st_iou,
)
from vistrack.cli import entrypoint
from vistrack.evaluation import IOU_THRESHOLDS
from vistrack.formats import save_pairs


def ok(line):
    print(f"criterion {line}: PASS", flush=True)


# ---------------------------------------------------------------------------
# 1. gradient finite-difference suite


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    worst_rel, worst_abs = gradient_check_suite(samples=100, seed=7)
    elapsed = time.perf_counter() - start
    assert worst_rel <= 1e-4
    assert worst_abs <= 1e-7
    assert elapsed < 5.0
    ok(f"1 (gradient suite: rel {worst_rel:.2e}, abs {worst_abs:.2e}, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. embedding-loss value fixtures


def test_criterion_2_loss_fixtures():
    v = (1.0, 0.0)
    assert embed_loss(v, [], []) == 0.0
    assert embed_loss(v, [(1.0, 0.0)], [(1.0, 0.0)]) == pytest.approx(
        math.log(2.0), abs=1e-12
    )
    # one positive at dot 2, one negative at dot 0
    got = embed_loss((2.0, 0.0), [(1.0, 0.0)], [(0.0, 1.0)])
    assert got == pytest.approx(math.log1p(math.exp(-2.0)), abs=1e-12)
    ok("2 (loss value fixtures at 1e-12)")


# ---------------------------------------------------------------------------
# 3. greedy association vs exhaustive optimum


def _greedy_pairs(scores, cfg):
    return {(i, j) for i, j in enumerate(assign(scores, cfg.match_threshold)) if j >= 0}


def test_criterion_3_association_oracle():
    rng = np.random.default_rng(5)
    cfg = AssociationConfig()
    checked = 0
    attempts = 0
    while checked < 200:
        attempts += 1
        assert attempts < 5000
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        scores = rng.uniform(0.05, 0.45, size=(n, m))
        for i, j in zip(range(min(n, m)), rng.permutation(m)[: min(n, m)]):
            scores[i, j] = rng.uniform(0.65, 0.95)
        _, oracle = best_matching(scores, cfg.match_threshold)
        if matching_margin(scores, oracle) <= 0.1:
            continue
        assert _greedy_pairs(scores, cfg) == oracle
        checked += 1
    ok(f"3 (greedy == optimal on {checked}/200 margin>0.1 instances)")


# ---------------------------------------------------------------------------
# 4. end-to-end synthetic tracking


def _pipeline_metrics(tmp_path, tag, synth_overrides):
    d = tmp_path / tag
    d.mkdir()
    cfg_path = d / "cfg.json"
    cfg_path.write_text(json.dumps({"synth": synth_overrides}))
    res = d / "results.json"
    rep = d / "report.json"
    assert entrypoint(["synth", "--config", str(cfg_path), "--seed", "42", "--out-dir", str(d)]) == 0
    assert entrypoint(["track", "--detections", str(d / "detections.json"), "--out", str(res)]) == 0
    assert (
        entrypoint(
            ["eval", "--gt", str(d / "annotations.json"), "--results", str(res), "--out", str(rep)]
        )
        == 0
    )
    return json.loads(rep.read_text())["overall"]


def test_criterion_4_end_to_end(tmp_path):
    start = time.perf_counter()
    noisy = {"embedding_noise_sigma": 0.05, "detector_dropout": 0.1, "clutter_rate": 0.5}
    overall = _pipeline_metrics(tmp_path, "noisy", noisy)
    assert overall["ap"] >= 0.90

    corpus = generate(SynthConfig(rng_seed=42, **noisy))
    bad = videos_with_id_switches(corpus, AssociationConfig())
    n_videos = len(corpus.ground_truth)
    assert (n_videos - bad) / n_videos >= 0.95

    clean = {"embedding_noise_sigma": 0.0, "detector_dropout": 0.0, "clutter_rate": 0.0}
    perfect = _pipeline_metrics(tmp_path, "clean", clean)
    assert perfect["ap"] == 1.0
    assert perfect["ap50"] == 1.0
    assert perfect["ap75"] == 1.0
    assert perfect["ar"] == {"1": 1.0, "10": 1.0}

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    ok(
        f"4 (noisy mAP {overall['ap']:.4f} >= 0.90, {n_videos - bad}/{n_videos} switch-free, "
        f"clean metrics all 1.0, {elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# 5. evaluator vs brute-force oracle


def test_criterion_5_evaluator_oracle():
    for seed in range(100):
        preds, gts = random_micro_corpus(seed)
        report = evaluate(preds, gts)
        brute = evaluate_brute(preds, gts, IOU_THRESHOLDS)
        for c, metrics in report.per_category.items():
            expected = brute[c]
            if metrics is None:
                assert expected is None
                continue
            assert abs(metrics.ap - expected["ap"]) <= 1e-9
            assert abs(metrics.ap50 - expected["ap50"]) <= 1e-9
            assert abs(metrics.ap75 - expected["ap75"]) <= 1e-9
            assert abs(metrics.ar[1] - expected["ar"][1]) <= 1e-9
            assert abs(metrics.ar[10] - expected["ar"][10]) <= 1e-9
        if report.overall is not None:
            assert abs(report.overall.ap - brute["overall"]["ap"]) <= 1e-9
    ok("5 (evaluator == brute force on 100 micro-corpora at 1e-9)")


# ---------------------------------------------------------------------------
# 6. spatio-temporal IoU


def test_criterion_6_st_iou():
    def square(y, x, side, h=8, w=8):
        g = np.zeros((h, w), dtype=bool)
        g[y : y + side, x : x + side] = True
        return g

    t = track_from_grids(1, 1, 0.9, {0: square(0, 0, 4), 2: square(2, 2, 3)})
    assert st_iou(t, t, 5) == 1.0

    a = track_from_grids(1, 1, 0.9, {0: square(0, 0, 4)})
    b = track_from_grids(2, 1, 0.9, {1: square(0, 0, 4)})
    assert st_iou(a, b, 5) == 0.0

    ten = np.zeros((4, 5), dtype=bool)
    ten[0:2, :] = True
    a = track_from_grids(1, 1, 0.9, {0: ten, 1: ten})
    b = track_from_grids(2, 1, 0.9, {0: ten})
    assert st_iou(a, b, 3) == pytest.approx(0.5, abs=1e-12)

    rng = np.random.default_rng(19)
    for _ in range(500):
        length = int(rng.integers(1, 6))
        h = w = 8

        def rand(tid):
            grids = {
                f: rng.random((h, w)) < rng.uniform(0.0, 0.8)
                for f in range(length)
                if rng.random() < 0.75
            }
            if not grids:
                grids[0] = np.zeros((h, w), dtype=bool)
            return track_from_grids(tid, 1, 0.5, grids)

        x, y = rand(1), rand(2)
        assert st_iou(x, y, length) == grid_st_iou(x, y, length, h, w)
    ok("6 (st_iou fixtures and 500 random pairs exact vs pixel counts)")


# ---------------------------------------------------------------------------
# 7. pseudo key-reference pairs


def _random_annotations(rng, width, height):
    out = []
    for k in range(int(rng.integers(1, 5))):
        w = int(rng.integers(4, max(5, width // 2)))
        h = int(rng.integers(4, max(5, height // 2)))
        x = int(rng.integers(0, width - w + 1))
        y = int(rng.integers(0, height - h + 1))
        grid = np.zeros((height, width), dtype=bool)
        patch = rng.random((h, w)) < 0.6
        patch[h // 2, w // 2] = True
        grid[y : y + h, x : x + w] = patch
        out.append(
            SourceAnnotation(
                instance_id=k + 1,
                category_id=int(rng.integers(1, 4)),
                bbox=BBox(float(x), float(y), float(w), float(h)),
                mask=rle_encode(grid),
            )
        )
    return out


def _pair_run(seed):
    np_rng = np.random.default_rng(seed)
    crop_rng = SplitMix64(seed)
    cfg = CropConfig()
    samples = []
    sources = []
    for image_id in range(1, 1001):
        width = int(np_rng.integers(40, 121))
        height = int(np_rng.integers(40, 121))
        anns = _random_annotations(np_rng, width, height)
        meta = ImageMeta(image_id=image_id, width=width, height=height)
        samples.append(make_pair(meta, anns, cfg, crop_rng))
        sources.append((meta, anns))
    return samples, sources


def test_criterion_7_pseudo_pairs(tmp_path):
    samples, sources = _pair_run(7)
    assert len(samples) == 1000
    for sample, (meta, anns) in zip(samples, sources):
        by_id = {a.instance_id: a for a in anns}
        for view in (sample.view_a, sample.view_b):
            win = view.window
            assert 0 <= win.x0 < win.x1 <= meta.width
            assert 0 <= win.y0 < win.y1 <= meta.height
            for ann in view.annotations:
                # boxes live in window-local coordinates and stay inside
                assert ann.bbox.x >= -1e-9 and ann.bbox.y >= -1e-9
                assert ann.bbox.x + ann.bbox.w <= win.width + 1e-9
                assert ann.bbox.y + ann.bbox.h <= win.height + 1e-9
                # cropped mask pixel count equals the window slice of the source
                src = rle_decode(by_id[ann.instance_id].mask)
                sliced = src[int(win.y0) : int(win.y1), int(win.x0) : int(win.x1)]
                assert rle_decode(ann.mask).sum() == sliced.sum()
        ids_a = [a.instance_id for a in sample.view_a.annotations]
        ids_b = [b.instance_id for b in sample.view_b.annotations]
        assert len(set(ids_a)) == len(ids_a) and len(set(ids_b)) == len(ids_b)
        pairs = sample.correspondence
        assert len({i for i, _ in pairs}) == len(pairs)
        assert len({j for _, j in pairs}) == len(pairs)
        matched_a = {ids_a[i] for i, _ in pairs}
        matched_b = {ids_b[j] for _, j in pairs}
        shared = set(ids_a) & set(ids_b)
        assert matched_a == matched_b == shared
        for i, j in pairs:
            assert ids_a[i] == ids_b[j]

    # full-image crops reproduce the inputs verbatim
    full_cfg = CropConfig(min_scale=1.0, max_scale=1.0)
    rng = SplitMix64(7)
    meta, anns = sources[0]
    full = make_pair(meta, anns, full_cfg, rng)
    assert list(full.view_a.annotations) == anns
    assert list(full.view_b.annotations) == anns

    # byte-identical regeneration
    again, _ = _pair_run(7)
    assert samples == again
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_pairs(samples, str(a))
    save_pairs(again, str(b))
    assert filecmp.cmp(a, b, shallow=False)
    ok("7 (1000 pairs: bounds, correspondence, mask counts, verbatim full crop, determinism)")


# ---------------------------------------------------------------------------
# 8. fusion


def test_criterion_8_fusion():
    def square(y, x, side):
        g = np.zeros((8, 8), dtype=bool)
        g[y : y + side, x : x + side] = True
        return g

    a = track_from_grids(1, 1, 0.9, {0: square(0, 0, 4)})
    b = track_from_grids(2, 2, 0.6, {1: square(3, 3, 4)})
    out = fuse_tracks([[a, b], [a, b]], 2, FusionConfig())
    assert len(out) == 2

    cfg = FusionConfig(score_rule=ScoreRule.MAX)
    once = fuse_tracks([[a, b]], 2, cfg)
    twice = fuse_tracks([once, once], 2, cfg)
    assert [(t.category_id, t.score, t.entries) for t in twice] == [
        (t.category_id, t.score, t.entries) for t in once
    ]

    hi = track_from_grids(1, 1, 0.9, {0: square(0, 0, 4)})
    lo = track_from_grids(1, 1, 0.7, {0: square(0, 0, 4)})
    merged = fuse_tracks([[hi], [lo]], 2, FusionConfig(score_rule=ScoreRule.MEAN))
    assert len(merged) == 1
    assert merged[0].score == 0.8
    ok("8 (fusion dedupe, Max idempotence, 0.9/0.7 -> 0.8 mean merge)")


# ---------------------------------------------------------------------------
# 9. determinism and formats


def test_criterion_9_determinism_and_formats(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    d1.mkdir()
    d2.mkdir()
    synth_cfg = tmp_path / "cfg.json"
    synth_cfg.write_text(json.dumps({"synth": {"clutter_rate": 0.5, "detector_dropout": 0.1}}))

    for d in (d1, d2):
        assert entrypoint(["synth", "--config", str(synth_cfg), "--seed", "11", "--out-dir", str(d)]) == 0
        det = str(d / "detections.json")
        ann = str(d / "annotations.json")
        assert entrypoint(["track", "--detections", det, "--out", str(d / "res.json")]) == 0
        assert (
            entrypoint(
                ["eval", "--gt", ann, "--results", str(d / "res.json"), "--out", str(d / "rep.json")]
            )
            == 0
        )
        assert (
            entrypoint(
                [
                    "fuse",
                    "--inputs",
                    str(d / "res.json"),
                    str(d / "res.json"),
                    "--out",
                    str(d / "fused.json"),
                ]
            )
            == 0
        )
        assert (
            entrypoint(["pseudopair", "--annotations", ann, "--seed", "4", "--out", str(d / "pairs.json")])
            == 0
        )
    for name in (
        "annotations.json",
        "detections.json",
        "identity.json",
        "res.json",
        "rep.json",
        "fused.json",
        "pairs.json",
    ):
        assert filecmp.cmp(d1 / name, d2 / name, shallow=False), name

    out1, out2 = io.StringIO(), io.StringIO()
    with redirect_stdout(out1):
        assert entrypoint(["losscheck", "--samples", "5", "--seed", "2"]) == 0
    with redirect_stdout(out2):
        assert entrypoint(["losscheck", "--samples", "5", "--seed", "2"]) == 0
    assert out1.getvalue() == out2.getvalue()

    # malformed RLE: counts that no longer sum to the raster size
    doc = json.loads((d1 / "detections.json").read_text())
    seg = None
    for frame in doc["videos"][0]["frames"]:
        for det in frame["detections"]:
            if det["segmentation"] is not None:
                seg = det["segmentation"]
                break
        if seg:
            break
    seg["counts"][0] += 3
    bad_rle = tmp_path / "bad_rle.json"
    bad_rle.write_text(json.dumps(doc))
    err = io.StringIO()
    with redirect_stderr(err):
        code = entrypoint(["track", "--detections", str(bad_rle), "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "sum" in err.getvalue()

    # embedding with the wrong dimension
    doc = json.loads((d1 / "detections.json").read_text())
    doc["videos"][0]["frames"][0]["detections"][0]["embedding"].append(0.0)
    bad_dim = tmp_path / "bad_dim.json"
    bad_dim.write_text(json.dumps(doc))
    err = io.StringIO()
    with redirect_stderr(err):
        code = entrypoint(["track", "--detections", str(bad_dim), "--out", str(tmp_path / "y.json")])
    assert code == 2
    assert "embedding_dim" in err.getvalue()
    ok("9 (subcommand determinism, golden round trips, exit-code-2 rejections)")
