"""In-process pass over the benchmark pipeline, for the per-layer numbers.

Runs the same command sequence as the CLI timing (workloads.commands)
through ``vistrack.cli.entrypoint`` in one process, each command three
times: a warm-up, plain, and traced, with the public functions of each
module, as the CLI and the library modules look them up, wrapped with
spans (stage calls) or accumulators (hot inner calls). Traced minus
plain time is the tracing overhead. Afterwards, untraced, it derives
the work counts and times the association ms/frame over the first and
second half of each video. Nothing under src/ is modified; the wrappers
live only in this process.

Run by run.py from the checkout root with the checkout's src on PYTHONPATH:

    python3 perfbench/layers.py --workload wide --seed 1 --work W --result R.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import statistics
import time
from bisect import bisect_left
from pathlib import Path

import vistrack.cli as cli
from vistrack import association, core, evaluation, formats, fusion, synth

from workloads import WORKLOADS, commands, write_configs

PREFIX_REPEATS = 3

# (module, attribute, span name): calls that make up a command's stages,
# recorded as spans with their parent.
STAGES = [
    (formats, "load_run_config", "formats.load_run_config"),
    (formats, "load_detections", "formats.load_detections"),
    (formats, "load_annotations", "formats.load_annotations"),
    (formats, "load_results", "formats.load_results"),
    (formats, "_read_json", "formats.json_parse"),
    (formats, "save_detections", "formats.save_detections"),
    (formats, "save_annotations", "formats.save_annotations"),
    (formats, "save_identity", "formats.save_identity"),
    (formats, "save_results", "formats.save_results"),
    (formats, "save_report", "formats.save_report"),
    (formats, "save_pairs", "formats.save_pairs"),
    (cli, "generate", "synth.generate"),
    (cli, "track_video", "association.track_video"),
    (cli, "evaluate", "evaluation.evaluate"),
    (cli, "fuse_tracks", "fusion.fuse_tracks"),
    (cli, "make_pair", "pseudo_pair.make_pair"),
    (cli, "gradient_check_suite", "contrastive.gradient_check"),
]
# Inner calls made thousands of times: only total time and call count.
HOT = [
    (evaluation, "st_iou", "evaluation.st_iou"),
    (fusion, "st_iou", "evaluation.st_iou"),
    (evaluation, "rle_intersection_area", "core.rle_intersection"),
    (core, "rle_intersection_area", "core.rle_intersection"),
    (synth, "bbox_of_mask", "core.bbox_of_mask"),
    (core, "rle_decode", "core.rle_decode"),
]


class Tracer:
    """Spans and counters kept in memory for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.stack: list[int] = []
        self.hot = {name: [0.0, 0] for _, _, name in HOT}  # name -> [seconds, calls]
        self.counts: dict[str, int] = {}
        self.unwrapped: list[str] = []  # listed names the program no longer has
        self._saved: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(idx)
        try:
            yield idx
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _stage(self, name, fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if name in ("fusion.fuse_tracks", "pseudo_pair.make_pair"):
                arguments = signature.bind(*args, **kwargs).arguments
                if "track_sets" in arguments:
                    self.count("fusion.pool_tracks", sum(len(ts) for ts in arguments["track_sets"]))
                if "annotations" in arguments:
                    self.count("pseudo_pair.instances_offered", len(arguments["annotations"]))
                    self.count("pseudo_pair.correspondences", len(result.correspondence))
            return result
        return wrapper

    def _hot(self, name, fn):
        acc = self.hot[name]

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[0] += time.perf_counter() - t0
                acc[1] += 1
        return wrapper

    def install(self) -> None:
        for table, make in ((STAGES, self._stage), (HOT, self._hot)):
            for module, attr, name in table:
                fn = getattr(module, attr, None)
                if fn is None:
                    self.unwrapped.append(f"{module.__name__}.{attr}")
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, make(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def children_total(self, parent: int) -> float:
        return sum(end - start for _, start, end, p in self.spans if p == parent)


def run_command(argv: list[str], out: Path, outputs: list[str]) -> dict:
    """One call of ``vistrack.cli.entrypoint``: wall seconds, exit code and
    the sha256 of its stdout and of each output file."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = cli.entrypoint(argv)
        wall = time.perf_counter() - t0
    digests = {"stdout": hashlib.sha256(buf.getvalue().encode()).hexdigest()}
    for name in outputs:
        digests[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    return {"s": wall, "exit": code, "sha256": digests}


def run_pipeline(work: Path, seed: int, synth_cfg: Path, alt_cfg: Path, tracer: Tracer) -> dict:
    """Each command three times in a row: a warm-up, so that one-time costs
    such as lazy imports land in neither timed call, then plain, then
    traced. The traced call also reports the sum of its stage spans."""
    out = {}
    for label, argv, outputs in commands(work, seed, synth_cfg, alt_cfg):
        rec = {"warm": run_command(argv, work, outputs), "plain": run_command(argv, work, outputs)}
        tracer.install()
        try:
            with tracer.span(label) as root:
                rec["traced"] = run_command(argv, work, outputs)
        finally:
            tracer.uninstall()
        rec["traced"]["stages_s"] = tracer.children_total(root)
        out[label] = rec
    return out


def prefix_curve(det_file) -> tuple[float, float]:
    """ms/frame of track_video over the first and the second half of each
    video, from timing the prefix of L/2 frames and the whole video."""
    cfg = formats.load_run_config(None).association
    halves, fulls = [], []
    frames_half = frames_full = 0
    for vid in sorted(det_file.videos):
        meta = det_file.metas[vid]
        frames_half += meta.length // 2
        frames_full += meta.length
    for _ in range(PREFIX_REPEATS):
        t_half = t_full = 0.0
        for vid in sorted(det_file.videos):
            frames, meta = det_file.videos[vid], det_file.metas[vid]
            head = [fd for fd in frames if fd.frame_index < meta.length // 2]
            t0 = time.perf_counter()
            association.track_video(head, cfg, meta)
            t1 = time.perf_counter()
            association.track_video(frames, cfg, meta)
            t2 = time.perf_counter()
            t_half += t1 - t0
            t_full += t2 - t1
        halves.append(t_half)
        fulls.append(t_full)
    t_half, t_full = statistics.median(halves), statistics.median(fulls)
    return 1000.0 * t_half / frames_half, 1000.0 * (t_full - t_half) / (frames_full - frames_half)


def association_counts(det_file) -> dict[str, int]:
    """Work counts of the default-config tracker, derived from its trace."""
    cfg = formats.load_run_config(None).association
    c = dict.fromkeys(("detections_kept", "matched", "spawned", "discarded", "score_cells"), 0)
    for vid in sorted(det_file.videos):
        frames = det_file.videos[vid]
        tracks, trace = association.track_video_with_trace(frames, cfg, det_file.metas[vid])
        first_seen: dict[int, int] = {}
        for (f, _), tid in trace.items():
            first_seen[tid] = min(f, first_seen.get(tid, f))
        starts = sorted(first_seen.values())
        kept_total = 0
        for fd in frames:
            kept = min(len(fd.detections), cfg.keep_top_n_per_frame)
            kept_total += kept
            # bank size before this frame = tracks spawned in earlier frames
            c["score_cells"] += kept * bisect_left(starts, fd.frame_index)
        c["detections_kept"] += kept_total
        c["spawned"] += len(tracks)
        c["matched"] += len(trace) - len(tracks)
        c["discarded"] += kept_total - len(trace)
    return {f"association.{k}": v for k, v in c.items()}


def traced_metrics(tracer: Tracer, work: Path, det_file) -> dict[str, float]:
    """Per-layer times and work counts of the traced pass (a name the
    program no longer has reads 0)."""
    m = {f"{name}_s": tracer.total(name) for _, _, name in STAGES}
    m.update({f"{name}_s": seconds for name, (seconds, _) in tracer.hot.items()})
    m["evaluation.st_iou_pairs"] = tracer.hot["evaluation.st_iou"][1]
    m["core.rle_intersections"] = tracer.hot["core.rle_intersection"][1]
    for name in ("fusion.pool_tracks", "pseudo_pair.instances_offered", "pseudo_pair.correspondences"):
        m[name] = tracer.counts.get(name, 0)
    m["formats.detections_bytes"] = (work / "detections.json").stat().st_size
    m["formats.results_bytes"] = (work / "results.json").stat().st_size
    m["core.mask_runs"] = sum(
        len(d.mask.counts)
        for frames in det_file.videos.values()
        for fd in frames
        for d in fd.detections
        if d.mask is not None
    )
    m.update(association_counts(det_file))
    return m


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True, help="directory for the configs and outputs")
    ap.add_argument("--result", required=True, help="JSON file to write")
    args = ap.parse_args()

    work = Path(args.work)
    synth_cfg, alt_cfg = write_configs(work, WORKLOADS[args.workload])
    tracer = Tracer()
    result = {"commands": run_pipeline(work, args.seed, synth_cfg, alt_cfg, tracer)}
    det_file = formats.load_detections(str(work / "detections.json"))
    metrics = traced_metrics(tracer, work, det_file)
    metrics["association.ms_per_frame_head"], metrics["association.ms_per_frame_tail"] = prefix_curve(det_file)
    result["metrics"] = metrics
    result["unwrapped"] = sorted(set(tracer.unwrapped))
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
