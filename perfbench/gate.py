"""In-process half of the benchmark's correctness gate, plus id switches.

For each corpus directory, tracks its detections.json with the library
(``track_video`` under the config the CLI uses when given none),
serializes the result with ``formats.save_results`` and reports whether
the bytes equal the CLI's results.json there. With ``--switches`` it
also counts id switches on the first corpus against its identity.json.

Run by run.py with the checkout's ``src`` on PYTHONPATH:

    python3 perfbench/gate.py --scratch S [--switches] CORPUS [CORPUS ...]

Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from vistrack import CLUTTER, formats, track_video, track_video_with_trace


def id_switches(frames, identity: dict, video_id: int, trace: dict) -> int:
    """Per ground-truth object, count changes of the assigned track id
    (CLEAR MOT convention; the definition of
    scripts/run_synthetic_pipeline.py::id_switches)."""
    seqs: dict[int, list[int]] = {}
    for fd in frames:
        for d_idx in range(len(fd.detections)):
            tid = identity[(video_id, fd.frame_index, d_idx)]
            if tid == CLUTTER:
                continue
            got = trace.get((fd.frame_index, d_idx))
            if got is not None:
                seqs.setdefault(tid, []).append(got)
    return sum(sum(1 for a, b in zip(s, s[1:]) if a != b) for s in seqs.values())


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("corpora", nargs="+", help="directories with detections.json and the CLI's results.json")
    ap.add_argument("--scratch", required=True, help="where the in-process results are written")
    ap.add_argument("--switches", action="store_true", help="count id switches on the first corpus")
    args = ap.parse_args()

    cfg = formats.load_run_config(None).association
    out = {"identical": []}
    for n, corpus in enumerate(map(Path, args.corpora)):
        det_file = formats.load_detections(str(corpus / "detections.json"))
        vids = sorted(det_file.videos)
        tracks = {vid: track_video(det_file.videos[vid], cfg, det_file.metas[vid]) for vid in vids}
        formats.save_results(tracks, args.scratch, {vid: det_file.metas[vid].length for vid in vids})
        out["identical"].append(Path(args.scratch).read_bytes() == (corpus / "results.json").read_bytes())
        if n == 0 and args.switches:
            identity = formats.load_identity(str(corpus / "identity.json"))
            switches = 0
            for vid in vids:
                _, trace = track_video_with_trace(det_file.videos[vid], cfg, det_file.metas[vid])
                switches += id_switches(det_file.videos[vid], identity, vid, trace)
            out["id_switches"] = switches
    print(json.dumps(out))


if __name__ == "__main__":
    main()
