"""Track one noisy synthetic corpus under each association setting and
score it against ground truth.

Every setting comes from a run-config file, read as ``vistrack`` reads
one (``formats.load_run_config``): each positional file gives one row,
tracked under its ``association`` section (no file gives one row at the
defaults), and ``--corpus`` gives the corpus through its ``synth``
section. ``--seed`` replaces the corpus's ``rng_seed``, as
``vistrack synth --seed`` does; given several seeds, every row runs on
the corpus of each.

Each row prints mAP, AP50, AP75, AR@1 and AR@10 plus the identity
switches counted against the corpus's identity key and the number of
switch-free videos; over several seeds, each column prints the median
and ``[min, max]``. A file that cannot be read exits 1, and any other
fault with its error type's exit code (a malformed file 2, a bad value
3), each with ``error: ...``, as the command line does.

Usage:
    python3 scripts/sweep_association.py defaults.json tuned.json --corpus corpus.json --seed 5 6 7
"""

import argparse
import statistics
import sys
import time
from dataclasses import replace

from vistrack import ToolkitError, evaluate, generate, id_switches, track_video_with_trace
from vistrack.core import VideoMeta
from vistrack.formats import load_run_config


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
    m = evaluate(predictions, corpus.ground_truth).overall
    return [m.ap, m.ap50, m.ap75, m.ar[1], m.ar[10], switches, switch_free]


def cell(values, fmt: str) -> str:
    """One value, or the median and [min, max] of several; the median of
    an integer column may fall halfway between two integers."""
    if len(values) == 1:
        return format(values[0], fmt)
    median = format(statistics.median(values), ".10g" if fmt == "d" else fmt)
    return f"{median} [{min(values):{fmt}}, {max(values):{fmt}}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("configs", nargs="*", help="run-config files, one row each, from their association section")
    ap.add_argument("--corpus", help="run-config file whose synth section sets the corpus")
    ap.add_argument("--seed", type=int, nargs="+", help="corpus seeds, each replacing synth.rng_seed")
    args = ap.parse_args()

    t0 = time.perf_counter()
    try:
        synth = load_run_config(args.corpus).synth
        synths = [replace(synth, rng_seed=s) for s in args.seed] if args.seed else [synth]
        settings = [(path, load_run_config(path).association) for path in args.configs]
        settings = settings or [("defaults", load_run_config(None).association)]
        corpora = [generate(s) for s in synths]
    except ToolkitError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(
        f"corpus: {synth.n_videos} videos x {synth.frames_per_video} frames x {synth.objects_per_video} objects,"
        f" seed {', '.join(str(s.rng_seed) for s in synths)}"
    )
    print(
        f"noise sigma {synth.embedding_noise_sigma}, dropout {synth.detector_dropout},"
        f" clutter rate {synth.clutter_rate}"
    )
    rows = [["config", "similarity", "threshold", "mAP", "AP50", "AP75", "AR@1", "AR@10", "switches", "switch-free"]]
    for name, assoc in settings:
        columns = list(zip(*(run_setting(corpus, assoc) for corpus in corpora)))
        rows.append(
            [name, assoc.similarity_kind.value, f"{assoc.match_threshold:.2f}"]
            + [cell(c, ".4f") for c in columns[:5]]
            + [cell(columns[5], "d"), f"{cell(columns[6], 'd')}/{synth.n_videos}"]
        )
    widths = [max(map(len, column)) for column in zip(*rows)]
    for row in rows:
        print("  ".join([row[0].ljust(widths[0])] + [v.rjust(w) for v, w in zip(row[1:], widths[1:])]))
    print(f"wall time {time.perf_counter() - t0:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
