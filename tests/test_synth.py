"""Synthetic corpus generator: determinism, embedding geometry,
identity bookkeeping, and occlusion/clutter semantics."""

import hashlib
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import reference_shape_mask, render_shape, state_before
from vistrack import (
    CLUTTER,
    ConfigError,
    SplitMix64,
    SynthConfig,
    bbox_of_mask,
    core,
    gradient_check_suite,
    rle_decode,
    rle_encode,
    generate,
    synth,
)
from vistrack.cli import entrypoint
from vistrack.rng import POISSON_MAX_MEAN
from vistrack.synth import _shape_mask


SMALL = SynthConfig(
    n_videos=2,
    frames_per_video=6,
    objects_per_video=3,
    canvas=(32, 32),
    embedding_dim=4,
    embedding_noise_sigma=0.05,
    rng_seed=11,
)


def test_generation_is_deterministic():
    a = generate(SMALL)
    b = generate(SMALL)
    assert a.ground_truth == b.ground_truth
    assert a.detections == b.detections
    assert a.identity_key == b.identity_key


def test_seed_changes_output():
    a = generate(SMALL)
    b = generate(SynthConfig(**{**SMALL.__dict__, "rng_seed": 12}))
    assert a.detections != b.detections


def test_shapes_and_counts():
    corpus = generate(SMALL)
    assert sorted(corpus.detections) == [1, 2]
    assert len(corpus.ground_truth) == 2
    for g in corpus.ground_truth:
        assert (g.width, g.height) == SMALL.canvas
        assert g.length == SMALL.frames_per_video
        assert len(g.gt_tracks) == SMALL.objects_per_video
        assert sorted(t.category_id for t in g.gt_tracks) == [1, 2, 3]
        assert g.category_set == [1, 2, 3]
        for t in g.gt_tracks:
            assert t.score == 1.0
            assert t.entries  # all-empty tracks are dropped, not emitted
        frames = corpus.detections[g.video_id]
        assert [fd.frame_index for fd in frames] == list(range(g.length))


def test_gt_bboxes_are_mask_tight():
    corpus = generate(SMALL)
    for g in corpus.ground_truth:
        for t in g.gt_tracks:
            for entry in t.entries.values():
                assert entry.mask is not None
                assert entry.bbox == bbox_of_mask(entry.mask)
                assert rle_decode(entry.mask).any()


def test_identity_key_covers_every_detection():
    cfg = SynthConfig(**{**SMALL.__dict__, "clutter_rate": 1.0, "detector_dropout": 0.2})
    corpus = generate(cfg)
    gt_by_vid = {g.video_id: {t.track_id: t for t in g.gt_tracks} for g in corpus.ground_truth}
    n_dets = 0
    n_clutter = 0
    for vid, frames in corpus.detections.items():
        for fd in frames:
            for d_idx in range(len(fd.detections)):
                n_dets += 1
                tid = corpus.identity_key[(vid, fd.frame_index, d_idx)]
                if tid == CLUTTER:
                    n_clutter += 1
                else:
                    track = gt_by_vid[vid][tid]
                    assert fd.frame_index in track.entries
    assert len(corpus.identity_key) == n_dets
    assert n_clutter > 0


def test_dropout_hides_gt_and_detection_together():
    cfg = SynthConfig(**{**SMALL.__dict__, "detector_dropout": 0.4, "rng_seed": 3})
    corpus = generate(cfg)
    for g in corpus.ground_truth:
        detected = {tid: set() for tid in (t.track_id for t in g.gt_tracks)}
        for fd in corpus.detections[g.video_id]:
            for d_idx in range(len(fd.detections)):
                tid = corpus.identity_key[(g.video_id, fd.frame_index, d_idx)]
                if tid != CLUTTER:
                    detected[tid].add(fd.frame_index)
        for t in g.gt_tracks:
            assert set(t.entries) == detected[t.track_id]


def test_zero_sigma_embeddings_are_scaled_bases():
    cfg = SynthConfig(**{**SMALL.__dict__, "embedding_noise_sigma": 0.0})
    corpus = generate(cfg)
    for vid, frames in corpus.detections.items():
        per_track = {}
        for fd in frames:
            for d_idx, det in enumerate(fd.detections):
                tid = corpus.identity_key[(vid, fd.frame_index, d_idx)]
                if tid == CLUTTER:
                    continue
                per_track.setdefault(tid, []).append(det.embedding)
        for embs in per_track.values():
            # noise-free repeats are bit-identical, with norm == scale
            assert all(e == embs[0] for e in embs)
            norm = float(np.linalg.norm(embs[0]))
            assert norm == pytest.approx(cfg.embedding_scale, rel=1e-12)


def test_distinct_objects_have_separated_directions():
    cfg = SynthConfig(**{**SMALL.__dict__, "embedding_noise_sigma": 0.0})
    corpus = generate(cfg)
    for vid, frames in corpus.detections.items():
        directions = {}
        for fd in frames:
            for d_idx, det in enumerate(fd.detections):
                tid = corpus.identity_key[(vid, fd.frame_index, d_idx)]
                if tid != CLUTTER:
                    v = np.asarray(det.embedding)
                    directions[tid] = v / np.linalg.norm(v)
        dirs = list(directions.values())
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                assert float(np.dot(dirs[i], dirs[j])) <= 0.3 + 1e-9


def test_detection_scores_and_probs():
    cfg = SynthConfig(**{**SMALL.__dict__, "clutter_rate": 0.8})
    corpus = generate(cfg)
    k = cfg.objects_per_video
    for vid, frames in corpus.detections.items():
        for fd in frames:
            for d_idx, det in enumerate(fd.detections):
                assert len(det.class_probs) == k + 1
                assert det.class_probs[det.category_id] == det.score
                assert det.mask is not None
                if corpus.identity_key[(vid, fd.frame_index, d_idx)] == CLUTTER:
                    assert 0.05 <= det.score <= 0.3
                    assert 1 <= det.category_id <= k
                else:
                    assert 0.6 <= det.score <= 0.95


def test_masks_stay_on_canvas():
    corpus = generate(SMALL)
    cw, ch = SMALL.canvas
    for frames in corpus.detections.values():
        for fd in frames:
            for det in fd.detections:
                if det.mask is not None:
                    assert (det.mask.height, det.mask.width) == (ch, cw)
                assert det.bbox.x >= 0 and det.bbox.y >= 0
                assert det.bbox.x + det.bbox.w <= cw
                assert det.bbox.y + det.bbox.h <= ch


def test_single_frame_video():
    cfg = SynthConfig(**{**SMALL.__dict__, "frames_per_video": 1})
    corpus = generate(cfg)
    for g in corpus.ground_truth:
        assert g.length == 1
        for t in g.gt_tracks:
            assert set(t.entries) == {0}


def test_six_objects_in_two_dims_is_infeasible():
    cfg = SynthConfig(
        n_videos=1,
        frames_per_video=2,
        objects_per_video=6,
        canvas=(32, 32),
        embedding_dim=2,
        rng_seed=0,
    )
    with pytest.raises(ConfigError, match="could not place 6 unit embeddings"):
        generate(cfg)


def test_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(objects_per_video=0)
    with pytest.raises(ConfigError):
        SynthConfig(objects_per_video=7)
    with pytest.raises(ConfigError):
        SynthConfig(canvas=(8, 64))
    for canvas in ((96,), (96, 96, 96)):
        with pytest.raises(ConfigError, match=r"\[width, height\]"):
            SynthConfig(canvas=canvas)
    with pytest.raises(ConfigError):
        SynthConfig(embedding_dim=1)
    with pytest.raises(ConfigError):
        SynthConfig(detector_dropout=1.0)
    with pytest.raises(ConfigError):
        SynthConfig(embedding_noise_sigma=-0.1)
    with pytest.raises(ConfigError):
        SynthConfig(clutter_rate=float("inf"))
    with pytest.raises(ConfigError):
        SynthConfig(embedding_scale=0.0)
    with pytest.raises(ConfigError):
        SynthConfig(n_videos=0)
    with pytest.raises(ConfigError):
        SynthConfig(frames_per_video=0)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_rng_rejects_a_seed_outside_64_bits(seed):
    """A seed is never reduced modulo 2**64, which would give -1 the
    stream of 2**64 - 1."""
    with pytest.raises(ValueError, match=f"got {seed}"):
        SplitMix64(seed)


def test_rng_takes_every_64_bit_seed():
    assert SplitMix64(0).next_u64() != SplitMix64(2**64 - 1).next_u64()


@pytest.mark.parametrize("seed", [1.5, True, np.bool_(True), "1"], ids=repr)
def test_rng_takes_only_integer_seeds(seed):
    """A float would fail on the first draw and a bool would pass for 0
    or 1; each is refused up front, with the seed named."""
    with pytest.raises(ValueError, match=f"seed {re.escape(repr(seed))}: expected an integer"):
        SplitMix64(seed)
    with pytest.raises(ValueError, match="expected an integer"):
        gradient_check_suite(samples=1, seed=seed)


def test_rng_takes_a_numpy_integer_seed():
    a, b = SplitMix64(np.int64(5)), SplitMix64(5)
    assert type(a.state) is int
    assert [a.next_u64() for _ in range(3)] == [b.next_u64() for _ in range(3)]


@pytest.mark.parametrize(
    "n_videos,seed",
    [(1, -1), (1, 2**64), (1, 2**64 - 1), (10, 2**64 - 10)],
)
def test_rng_seed_of_the_last_video_must_fit_64_bits(n_videos, seed):
    """Video v (1..n_videos) is seeded with rng_seed + v."""
    with pytest.raises(ConfigError, match=f"rng_seed .*got {seed}"):
        SynthConfig(n_videos=n_videos, rng_seed=seed)


@given(
    st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    st.integers(0, 64),
    st.sampled_from([1.0, 0.05, 0.3, 3.0, 1e-9, 0.0, -1.0]),
)
@example(2**64 - 1, 64, 1.0)  # the state wraps on the first draw
@example(0, 0, 1.0)
def test_gauss_many_equals_gauss_bit_for_bit(seed, n, sigma):
    batched, single = SplitMix64(seed), SplitMix64(seed)
    many = batched.gauss_many(n, sigma)
    one_by_one = [single.gauss(sigma) for _ in range(n)]
    assert many.dtype == np.float64 and many.shape == (n,)
    assert list(map(float.hex, many.tolist())) == list(map(float.hex, one_by_one))
    assert batched.state == single.state


# draws whose conversion to a float rounds: below, at and above a tie
# between two floats, and ties that round down to an even float
_ROUNDING_DRAWS = [2**53 + 1, 2**63 + 2**10, 2**63 + 2**10 + 1, 2**63 + 3 * 2**10, 2**64 - 2**11, 2**64 - 2**10 - 1]


@pytest.mark.parametrize(
    "z, k",
    # k = 1 is the radius draw, k = 2 the angle draw; the two top draws
    # round to 2**64, which both take as the largest float below 1
    [(z, 1) for z in _ROUNDING_DRAWS] + [(z, 2) for z in _ROUNDING_DRAWS + [2**64 - 2**10, 2**64 - 1]],
)
def test_gauss_many_rounds_each_draw_as_gauss_does(z, k):
    seed = state_before(z, k)
    assert float.hex(SplitMix64(seed).gauss_many(1, 0.5)[0]) == float.hex(SplitMix64(seed).gauss(0.5))


@pytest.mark.parametrize("z", [2**64 - 2**10, 2**64 - 1])
def test_a_top_draw_stays_below_one(z):
    """``z / 2**64`` rounds such a draw up to 1.0; as a radius draw it
    would take log(1 - 1.0)."""
    seed = state_before(z)
    assert SplitMix64(seed).next_float() == math.nextafter(1.0, 0.0)
    one = SplitMix64(seed).gauss()
    assert math.isfinite(one)
    assert float.hex(SplitMix64(seed).gauss_many(1)[0]) == float.hex(one)


def test_top_rng_seed_generates():
    cfg = SynthConfig(**{**SMALL.__dict__, "n_videos": 2, "rng_seed": 2**64 - 3})
    assert [g.video_id for g in generate(cfg).ground_truth] == [1, 2]


# ---------------------------------------------------------------------------
# Masks straight from the box, against the dense-canvas oracle


@st.composite
def shapes(draw):
    canvas_w = draw(st.integers(16, 300))
    canvas_h = draw(st.integers(16, 300))
    # _shape_mask's domain is h < canvas_h; a full width is in it. Thin
    # sides leave an ellipse's edge columns empty
    w = draw(st.one_of(st.integers(1, canvas_w), st.just(canvas_w), st.integers(1, 3)))
    h = draw(st.one_of(st.integers(1, canvas_h - 1), st.just(canvas_h - 1), st.integers(1, 3)))
    x = draw(st.integers(0, canvas_w - w))
    y = draw(st.integers(0, canvas_h - h))
    return draw(st.sampled_from(["rect", "ellipse"])), x, y, w, h, canvas_w, canvas_h


@given(shapes())
@example(("ellipse", 0, 7, 100, 2, 100, 16))  # thin and wide: empty edge columns
def test_shape_mask_matches_the_dense_canvas(args):
    mask, bbox = _shape_mask(*args)
    expected = rle_encode(render_shape(*args))
    assert mask == expected
    assert all(type(c) is int for c in mask.counts)
    assert bbox == bbox_of_mask(expected)
    assert all(type(v) is float for v in (bbox.x, bbox.y, bbox.w, bbox.h))


@st.composite
def one_size_at_many_places(draw):
    """A shape and size with up to five positions: all but the first
    call find its runs computed already."""
    shape, x, y, w, h, canvas_w, canvas_h = draw(shapes())
    places = draw(st.lists(st.tuples(st.integers(0, canvas_w - w), st.integers(0, canvas_h - h)), max_size=4))
    return shape, w, h, canvas_w, canvas_h, [(x, y), *places]


@given(one_size_at_many_places())
@example(("rect", 30, 6, 30, 40, [(0, 34), (0, 0), (0, 9)]))  # w == canvas_w
@example(("ellipse", 30, 6, 30, 40, [(0, 0), (0, 34)]))
@example(("rect", 9, 11, 50, 60, [(41, 49), (0, 0)]))  # bottom-right corner: no trailing zero-run
@example(("ellipse", 9, 11, 50, 60, [(41, 49), (0, 0)]))
@example(("ellipse", 100, 2, 100, 16, [(0, 7), (0, 0), (0, 14)]))  # thin: empty edge columns
def test_shape_mask_equals_the_encoder_at_each_position(args):
    """The runs computed once per shape and size and then shifted equal
    those encoded from the box at each position, run for run."""
    shape, w, h, canvas_w, canvas_h, places = args
    for x, y in places:
        mask, bbox = _shape_mask(shape, x, y, w, h, canvas_w, canvas_h)
        assert (mask, bbox) == reference_shape_mask(shape, x, y, w, h, canvas_w, canvas_h)
        assert all(type(c) is int for c in mask.counts)
        assert all(type(v) is float for v in (bbox.x, bbox.y, bbox.w, bbox.h))


@pytest.mark.parametrize("shape", ["rect", "ellipse"])
def test_a_shape_as_tall_as_the_canvas_is_refused(shape):
    """Outside _shape_mask's domain two columns' runs meet, and RleMask
    refuses the empty run between them rather than a wrong mask."""
    with pytest.raises(ValueError, match="internal zero"):
        _shape_mask(shape, 0, 0, 16, 20, 16, 20)


def test_thin_ellipse_leaves_its_edge_columns_empty():
    _, bbox = _shape_mask("ellipse", 0, 7, 100, 2, 100, 16)
    assert bbox.x > 0.0 and bbox.x + bbox.w < 100.0


def test_generate_draws_no_dense_mask(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("synth used a dense mask")

    for name in ("rle_encode", "rle_decode", "bbox_of_mask"):
        monkeypatch.setattr(core, name, dense)
        assert not hasattr(synth, name)
    corpus = generate(SynthConfig(**{**SMALL.__dict__, "clutter_rate": 1.0}))
    assert all(d.mask is not None for frames in corpus.detections.values() for fd in frames for d in fd.detections)


# sha256 of annotations.json, detections.json and identity.json, recorded
# from the dense-canvas encoder that this one replaced
_GOLDEN = {
    "default": (
        None,
        "8c548010739db1c9844d816bb612df2848b53161dbe1877b7a107e14535a6c32",
        "bf180d4bfb38ddcafebedbd265fc23a4f7eb4470fd78aa5b82ab68f730618ef8",
        "b24074f8bc830fc3d253707d045fcd996eb3a0f6d2a4d53bfa0a1e4a066f6d78",
    ),
    "clutter-dropout-64x128": (
        {"clutter_rate": 1.0, "detector_dropout": 0.2, "canvas": [64, 128]},
        "7a2df9538482061af96a50bcb0ca219e3515746e8b1157eb16d9843795e17766",
        "b274ea1591fa186f1f744a53e0eece17f3b5547347f0eb6689ccfd19cf193b43",
        "407b64395fd09247634749f6ad2772413f3f44861a6854a7a779117efa9c35ef",
    ),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_synth_files_golden_bytes(tmp_path, name):
    config, *digests = _GOLDEN[name]
    argv = ["synth", "--out-dir", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps({"synth": config}))
        argv += ["--config", str(tmp_path / "config.json")]
    assert entrypoint(argv) == 0
    files = ("annotations.json", "detections.json", "identity.json")
    assert [hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest() for f in files] == digests


def test_eval_golden_bytes(tmp_path, capsys):
    """sha256 of `eval`'s report.json and of its --table output after
    `track` on the clutter-dropout corpus."""
    (tmp_path / "config.json").write_text(json.dumps({"synth": _GOLDEN["clutter-dropout-64x128"][0]}))
    assert entrypoint(["synth", "--config", str(tmp_path / "config.json"), "--out-dir", str(tmp_path)]) == 0
    det, ann, res, report = (str(tmp_path / n) for n in ("detections.json", "annotations.json", "results.json", "report.json"))
    assert entrypoint(["track", "--detections", det, "--out", res]) == 0
    capsys.readouterr()
    assert entrypoint(["eval", "--gt", ann, "--results", res, "--out", report, "--table"]) == 0
    table = capsys.readouterr().out.encode()
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == (
        "4b57011f76b327cafe3feeed2acd8606b7b0670ac67560e266664f5615b01df5"
    )
    assert hashlib.sha256(table).hexdigest() == "84f8e438c23d8db2b45796208a28925dc766cb23f1688b1c2e8c5e53823787ae"


# ---------------------------------------------------------------------------
# Poisson means whose exp(-mean) is no longer a normal float


@pytest.mark.parametrize("lam", [math.nextafter(POISSON_MAX_MEAN, math.inf), 745.2, 800.0, 2000.0, 1e6, math.inf])
def test_poisson_refuses_a_mean_whose_exp_underflows(lam):
    """Knuth's product of uniforms can never fall below a subnormal or
    zero exp(-mean), so such means all gave counts near 748."""
    with pytest.raises(ValueError, match=r"Poisson mean must be at most 708\.396"):
        SplitMix64(1).poisson(lam)


def test_poisson_takes_the_largest_mean_whose_exp_is_normal():
    assert math.exp(-POISSON_MAX_MEAN) >= sys.float_info.min
    counts = [SplitMix64(seed).poisson(POISSON_MAX_MEAN) for seed in range(20)]
    assert 600 < sum(counts) / len(counts) < 820


@pytest.mark.parametrize("rate", [math.nextafter(POISSON_MAX_MEAN, math.inf), 5000.0])
def test_synth_refuses_a_clutter_rate_past_the_poisson_bound(tmp_path, rate):
    with pytest.raises(ConfigError, match=r"clutter_rate must be at most 708\.396"):
        SynthConfig(clutter_rate=rate)
    (tmp_path / "config.json").write_text(json.dumps({"synth": {"n_videos": 1, "frames_per_video": 2, "clutter_rate": rate}}))
    out = tmp_path / "out"
    assert entrypoint(["synth", "--config", str(tmp_path / "config.json"), "--out-dir", str(out)]) == 3
    assert not out.exists()


def test_synth_takes_the_largest_clutter_rate():
    cfg = SynthConfig(n_videos=1, frames_per_video=1, clutter_rate=POISSON_MAX_MEAN)
    assert len(generate(cfg).detections[1][0].detections) > 600
