#!/usr/bin/env python3
"""vistrack benchmark: wall time of each `python -m vistrack` subcommand,
output quality, and a per-module cost breakdown, on seeded corpora.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wide --seed 1 --seconds 35 --trace 0

The seed makes the corpora (``synth --seed``) and seeds pseudopair; the
program receives only the generated files. losscheck keeps its default
seed. Each subcommand runs as its own child process with the checkout's
``src`` on PYTHONPATH, one at a time (a closed loop with a single
client, no ``track --threads``). The pipeline

    synth -> track -> track (match_threshold 0.7) -> eval -> fuse -> pseudopair -> losscheck

is repeated until ``--seconds`` have passed (at least twice), and each
wall time is the median over the repeats.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a separate run, which times the CLI once more,
then runs the same pipeline in process (layers.py), each command plain
and with spans around each module's public functions.

Every call is one operation. It fails on a nonzero exit, on an output
whose sha256 differs from an earlier repeat in the run (the in-process
passes count as repeats), or, for the gate (gate.py), when the
library's own ``track_video`` + ``save_results`` bytes differ from the
CLI's results file. A record line with the run's configuration, machine
and every output digest precedes the final result line.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import QUALITY, TIMED, WORKLOADS, commands, write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_ITERATIONS = 2  # outputs must repeat byte for byte within a run
SETUP_REPEATS = 3
PROBE_REPEATS = 5
CHILD_TIMEOUT_S = 150
IMPORT_PROBE = "import time; t = time.perf_counter(); import vistrack.cli; print(time.perf_counter() - t)"


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Runs Python children one at a time and books every operation."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def fail(self, message: str) -> None:
        """Mark the latest operation failed."""
        self.failed_ops.add(self.attempted)
        self.failures.append(message)

    def digest(self, label: str, data: bytes) -> None:
        self.digest_hex(label, sha256(data))

    def digest_hex(self, label: str, digest: str) -> None:
        """Record an output digest; a different one under the same label fails."""
        if self.digests.setdefault(label, digest) != digest:
            self.fail(f"{label}: sha256 differs between repeats")

    def child(self, args: list[str]) -> tuple[float, float, int, bytes]:
        """Run ``python args``; return wall seconds, peak RSS in MB, exit code, stdout."""
        out_path = self.work / "child.stdout"
        with open(out_path, "wb") as out, open(self.work / "child.stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_bytes()

    def op(self, name: str, args: list[str]) -> tuple[float, float, bytes] | None:
        """One operation: a child that must exit 0. None when it failed."""
        self.attempted += 1
        wall, rss, code, stdout = self.child(args)
        if code != 0:
            stderr = (self.work / "child.stderr").read_text(errors="replace").strip().splitlines()
            self.fail(f"{name}: exit {code}: {stderr[-1] if stderr else ''}")
            return None
        return wall, rss, stdout

    def pipeline(self, tag: str, out: Path, seed: int, synth_cfg: Path, alt_cfg: Path,
                 only: tuple[str, ...] | None = None) -> dict[str, tuple[float, float]]:
        """Run the CLI pipeline into ``out``; digest every output under ``tag``.
        Returns {label: (wall seconds, peak RSS MB)} of the calls that succeeded."""
        out.mkdir(parents=True, exist_ok=True)
        timings = {}
        for label, argv, outputs in commands(out.relative_to(ROOT), seed, synth_cfg.relative_to(ROOT),
                                             alt_cfg.relative_to(ROOT)):
            if only is not None and label not in only:
                continue
            res = self.op(f"{tag}:{label}", ["-m", "vistrack", *argv])
            if res is None:
                continue
            wall, rss, stdout = res
            timings[label] = (wall, rss)
            self.digest(f"{tag}:{label}/stdout", stdout)
            for name in outputs:
                self.digest(f"{tag}:{label}/{name}", (out / name).read_bytes())
        return timings

    def gate(self, corpora: list[Path], switches: bool) -> int | None:
        """The in-process track_video gate on each corpus; with ``switches``,
        the id switches of the first one."""
        args = ["--scratch", str(self.work / "gate_results.json"), *map(str, corpora)]
        res = self.op("gate", [str(HERE / "gate.py"), *args, *(["--switches"] if switches else [])])
        if res is None:
            return None
        res = json.loads(res[2])
        for corpus, identical in zip(corpora, res["identical"]):
            if not identical:
                self.fail(f"gate: in-process track_video results differ from the CLI's {corpus / 'results.json'}")
        return res.get("id_switches")


def quality(runner: Runner, work: Path, seed: int, own_corpus: Path) -> dict:
    """`map` from the eval report and `id_switches` from the tracker trace,
    on the quality corpus of this seed; gates ``own_corpus`` too."""
    corpus = work / "quality"
    synth_cfg, alt_cfg = write_configs(work / "quality_cfg", QUALITY)
    runner.pipeline("quality", corpus, seed, synth_cfg, alt_cfg, only=("synth", "track", "eval"))
    switches = runner.gate([corpus, own_corpus], switches=True)
    report = corpus / "report.json"
    return {"map": json.loads(report.read_text())["overall"]["ap"] if report.exists() else None,
            "id_switches": switches}


def end_to_end(runner: Runner, args, work: Path) -> tuple[dict, dict]:
    synth_cfg, alt_cfg = write_configs(work, WORKLOADS[args.workload])
    setup = [res[0] for res in (runner.op("setup", ["-m", "vistrack", "--help"]) for _ in range(SETUP_REPEATS))
             if res]

    corpus = work / "corpus"
    samples: dict[str, list[float]] = {cmd: [] for cmd in TIMED}
    peaks: list[float] = []
    start = time.perf_counter()
    iterations = 0
    while iterations < MIN_ITERATIONS or time.perf_counter() - start < args.seconds:
        # the second tracker run only feeds fuse: its input repeats byte for byte
        timings = runner.pipeline(args.workload, corpus, args.seed, synth_cfg, alt_cfg,
                                  only=None if iterations == 0 else TIMED)
        for cmd in TIMED:
            if cmd in timings:
                samples[cmd].append(timings[cmd][0])
        peaks.append(max((rss for _, rss in timings.values()), default=0.0))
        iterations += 1

    q = quality(runner, work, args.seed, corpus)
    metrics = {"setup_s": statistics.median(setup) if setup else None}
    metrics.update({f"{cmd}_s": statistics.median(v) if v else None for cmd, v in samples.items()})
    metrics["peak_rss_mb"] = statistics.median(peaks)
    metrics.update(q)
    return metrics, {"iterations": iterations, "samples_s": samples, "setup_samples_s": setup,
                     "peak_rss_mb_samples": peaks}


def traced(runner: Runner, args, work: Path) -> tuple[dict, dict]:
    synth_cfg, alt_cfg = write_configs(work, WORKLOADS[args.workload])
    interp = [res[0] for res in (runner.op("interpreter", ["-c", "pass"]) for _ in range(PROBE_REPEATS)) if res]
    imports = [float(res[2]) for res in (runner.op("import", ["-c", IMPORT_PROBE]) for _ in range(PROBE_REPEATS))
               if res]
    interpreter_s = statistics.median(interp) if interp else None
    import_s = statistics.median(imports) if imports else None

    corpus = work / "corpus"
    rounds: list[dict[str, float]] = []
    unwrapped: set[str] = set()
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        walls = runner.pipeline(args.workload, corpus, args.seed, synth_cfg, alt_cfg,
                                only=None if not rounds else TIMED)
        pass_dir = work / "inproc"
        result_file = work / "inproc.json"
        if runner.op("layers.py", [str(HERE / "layers.py"), "--workload", args.workload, "--seed", str(args.seed),
                                   "--work", str(pass_dir.relative_to(ROOT)), "--result", str(result_file)]) is None:
            break
        trace = json.loads(result_file.read_text())
        # every in-process call is one more repeat of the CLI's outputs
        for label, rec in trace["commands"].items():
            for mode, call in rec.items():
                if call["exit"] != 0:
                    runner.fail(f"in-process {mode} {label}: exit {call['exit']}")
                for name, digest in call["sha256"].items():
                    runner.digest_hex(f"{args.workload}:{label}/{name}", digest)
        if any(cmd not in walls for cmd in TIMED) or interpreter_s is None or import_s is None:
            break
        m = dict(trace["metrics"])
        offered = m["pseudo_pair.instances_offered"]
        m["pseudo_pair.correspondence_ratio"] = m["pseudo_pair.correspondences"] / offered if offered else 0.0
        for cmd in TIMED:
            m[f"cli.{cmd}_unattributed_s"] = (
                walls[cmd][0] - interpreter_s - import_s - trace["commands"][cmd]["traced"]["stages_s"]
            )
        plain_total = sum(rec["plain"]["s"] for rec in trace["commands"].values())
        traced_total = sum(rec["traced"]["s"] for rec in trace["commands"].values())
        m["trace.overhead_s"] = traced_total - plain_total
        m["trace.overhead_share"] = (traced_total - plain_total) / plain_total
        unwrapped.update(trace["unwrapped"])
        rounds.append(m)

    runner.gate([corpus], switches=False)
    metrics = {"cli.interpreter_s": interpreter_s, "cli.import_s": import_s}
    for name in rounds[0] if rounds else ():
        metrics[name] = statistics.median(r[name] for r in rounds)
    return metrics, {"rounds": len(rounds), "round_metrics": rounds, "unwrapped": sorted(unwrapped),
                     "interpreter_samples_s": interp, "import_samples_s": imports}


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(), **versions}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "vistrack" / "__main__.py").is_file():
        print(f"error: no vistrack sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work)
    try:
        metrics, detail = (traced if args.trace else end_to_end)(runner, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    units = metric_units("per_layer" if args.trace else "end_to_end")
    missing = [name for name in units if metrics.get(name) is None]
    for name in missing:
        runner.fail(f"metric {name} could not be measured")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "synth_config": WORKLOADS[args.workload],
        "quality_synth_config": QUALITY,
        "machine": machine(),
        **detail,
        "digests": runner.digests,
        "failures": runner.failures,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    failed = len(runner.failed_ops)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(runner.attempted, failed, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name) or 0.0, "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
