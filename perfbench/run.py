"""Host-time benchmark of the DCS-ctrl simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload d2d-4k --seed 1 --seconds 20 --trace 0

Every number it reports is host time: what the simulator costs to run.
Simulated results (latencies, CPU utilization, throughput, digests,
fault counts) are the correctness oracle instead -- a speed-only change
must leave them identical -- and are hashed into ``sim_stats_sha256``.

``--trace 0`` repeats set-up + timed ops in rounds for ``--seconds`` and
prints the end-to-end metrics, scaled to the reference host's speed
measured between rounds (``calibration.py``).  ``--trace 1`` times untraced rounds for
the ratio bases, then profiles the same ops twice with cProfile and
prints the per-layer metrics; the two profiled passes must give
identical exact counts.  The last line of output is one JSON object;
the run record goes to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
# Untraced rounds timed in a traced run, as the base of its ratios.
BASE_SECONDS = 2.0
# Fewest set-ups whose median is ``setup_s``.
SETUP_SAMPLES = 3
TOP_FUNCTIONS = 30
# Every timing is CPU time of this process: the benchmark is single
# threaded, and on a shared host CPU time leaves out the time other
# tenants hold the core, which moves wall-clock time by a fifth.  The
# end-to-end timings are then scaled to the reference host's speed
# (see calibration.py).
CLOCK = time.process_time

EXACT_COUNTS = ("sim.events", "sim.processes", "net.checksum16_calls",
                "pcie.dma_calls", "memory.region_calls", "faults.injected",
                "faults.retries", "faults.aborts", "metrics.rows",
                "trace.spans")


@dataclass
class RoundResult:
    """What one round measured and what it simulated."""

    setup_s: float
    wall_s: float = 0.0
    # Reference seconds per CPU second of this host around the round.
    scale: float = 1.0
    op_s: List[float] = field(default_factory=list)
    payload: int = 0
    attempted: int = 0
    failed: int = 0
    fingerprint: str = ""
    counts: Dict[str, int] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)


def run_round(workload, seed: int, profiler=None) -> RoundResult:
    """Set up one round, then time (or profile) its steps."""
    gc.collect()
    started = CLOCK()
    rnd = workload.setup(seed)
    result = RoundResult(setup_s=CLOCK() - started)

    def execute(step):
        began = CLOCK()
        if profiler is not None:
            profiler.enable()
        outcome = step.run()
        if profiler is not None:
            profiler.disable()
        elapsed = CLOCK() - began
        result.wall_s += elapsed
        result.payload += step.payload
        if step.per_op:
            result.op_s.append(elapsed)
        return outcome

    rnd.run(execute)
    result.attempted = rnd.attempted
    result.failed = rnd.failed
    result.fingerprint = rnd.fingerprint()
    result.counts = dict(rnd.counts)
    return result


def run_for(workload, seed: int, seconds: float) -> List[RoundResult]:
    """Rounds until the next one would end past ``seconds`` of wall-clock
    time (at least one).  The reference workload runs before the first
    round and after each, and each round's ``scale`` comes from the mean
    of the two runs around it."""
    started = time.perf_counter()
    rounds: List[RoundResult] = []
    before = calibration.seconds(CLOCK)
    while True:
        result = run_round(workload, seed)
        after = calibration.seconds(CLOCK)
        result.scale = 2 * calibration.REFERENCE_S / (before + after)
        before = after
        rounds.append(result)
        elapsed = time.perf_counter() - started
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def extra_setups(workload, seed: int, count: int) -> List[float]:
    """Time ``count`` more set-ups whose rounds are never run, so that
    ``setup_s`` is a median even when only one round fits."""
    times = []
    for _ in range(count):
        gc.collect()
        started = CLOCK()
        workload.setup(seed)
        times.append(CLOCK() - started)
    return times


def profile_round(workload, seed: int) -> RoundResult:
    profiler = cProfile.Profile()
    result = run_round(workload, seed, profiler)
    profiler.create_stats()
    result.stats = profiler.stats
    return result


def exact_counts(stats: dict, counts: Dict[str, int]) -> Dict[str, int]:
    """The profile's call counts the issue names, plus the planes'."""
    from attribution import call_count
    from repro.memory.region import MemoryRegion
    from repro.net.headers import checksum16
    from repro.pcie.switch import Fabric
    from repro.sim.kernel import Process, Simulator

    out = {
        "sim.events": call_count(stats, Simulator.step),
        "sim.processes": call_count(stats, Process.__init__),
        "net.checksum16_calls": call_count(stats, checksum16),
        "pcie.dma_calls": call_count(stats, Fabric.dma_read,
                                     Fabric.dma_write),
        "memory.region_calls": call_count(stats, MemoryRegion.read,
                                          MemoryRegion.write,
                                          MemoryRegion.contains),
    }
    out.update(counts)
    return out


def revision() -> str:
    """The git commit, or a hash of the sources outside a git checkout."""
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=30, check=True)
            return done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def reference_fingerprint(workload: str, seed: int):
    """The committed fingerprint for ``workload`` at ``seed``, if any."""
    reference = json.loads(REFERENCE.read_text())
    if seed != reference["seed"]:
        return None
    return reference["sim_stats_sha256"].get(workload)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds: List[RoundResult], setups: List[float],
               import_s: float) -> Dict[str, dict]:
    wall = statistics.median(r.wall_s * r.scale for r in rounds)
    setup = import_s + statistics.median(setups)
    payload_mib = rounds[0].payload / (1 << 20)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_s": metric(wall, "s"),
        "setup_s": metric(setup, "s"),
        "sim_mib_per_s": metric(payload_mib / wall, "MiB/s"),
        "peak_rss_mib": metric(rss_mib, "MiB"),
    }


def op_latency_lines(rounds: List[RoundResult]) -> List[str]:
    """op_ms.p50 / op_ms.p99 with their sample counts, where defined."""
    from summary import percentile

    samples = [s * r.scale * 1e3 for r in rounds for s in r.op_s]
    if not samples:
        return ["op_ms: not defined (the app interleaves its requests "
                "inside one simulation run)"]
    lines = []
    for label, fraction in (("p50", 0.50), ("p99", 0.99)):
        try:
            pct = percentile(samples, fraction)
        except ValueError as exc:
            lines.append(f"op_ms.{label}: not reported ({exc})")
            continue
        lines.append(f"op_ms.{label} {pct.value:.4f} ms "
                     f"(n={pct.count}, {pct.beyond} beyond)")
    return lines


def per_layer(passes: List[RoundResult], base_wall: float,
              repro_dir: str):
    """Per-layer metrics of the first traced pass, and any exact count
    on which the two passes disagree."""
    from attribution import LAYERS, OTHER, attribute

    metrics: Dict[str, dict] = {}
    exact = []
    for traced in passes:
        attributed = attribute(traced.stats, repro_dir)
        counts = exact_counts(traced.stats, traced.counts)
        counts.update({f"{layer}.calls_in": attributed.calls_in[layer]
                       for layer in LAYERS})
        exact.append(counts)
        if not metrics:
            first = attributed
            for layer in LAYERS + (OTHER,):
                metrics[f"{layer}.self_s"] = metric(first.self_s[layer], "s")
                metrics[f"{layer}.share"] = metric(first.share(layer),
                                                   "of_traced_s")
                if layer != OTHER:
                    metrics[f"{layer}.calls_in"] = metric(
                        first.calls_in[layer], "count")
            metrics["traced_s"] = metric(first.total_s, "s")
            metrics["trace_overhead"] = metric(
                traced.wall_s / base_wall, "x_wall_s")
            for name in EXACT_COUNTS:
                metrics[name] = metric(counts[name], "count")
            metrics["sim.events_per_s"] = metric(
                counts["sim.events"] / base_wall, "1/s")
    diffs = sorted(name for name in exact[0]
                   if exact[0][name] != exact[1].get(name))
    return metrics, [f"{name}: {exact[0][name]} != {exact[1][name]}"
                     for name in diffs]


def top_functions(stats: dict, repro_dir: str) -> List[list]:
    from attribution import layer_of

    ranked = sorted(stats.items(), key=lambda item: -item[1][2])
    return [[f"{os.path.basename(func[0])}:{func[1]}({func[2]})",
             layer_of(func, repro_dir) or "-", entry[1], entry[2]]
            for func, entry in ranked[:TOP_FUNCTIONS]]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the DCS-ctrl simulator.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC}/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    began = CLOCK()
    import repro
    import workloads
    import_s = CLOCK() - began
    repro_dir = os.path.dirname(repro.__file__)
    if Path(repro_dir).resolve() != (SRC / "repro").resolve():
        print(f"error: imported repro from {repro_dir}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    errors: List[str] = []
    if args.trace:
        rounds = run_for(workload, args.seed,
                         min(args.seconds, BASE_SECONDS))
        base_wall = statistics.median(r.wall_s for r in rounds)
        passes = [profile_round(workload, args.seed) for _ in range(2)]
        metrics, diffs = per_layer(passes, base_wall, repro_dir)
        errors += [f"traced passes disagree on {diff}" for diff in diffs]
        report_rounds = rounds + passes
        extra = {"base_wall_s": base_wall,
                 "top_functions": top_functions(passes[0].stats, repro_dir)}
    else:
        rounds = run_for(workload, args.seed, args.seconds)
        scale = statistics.median(r.scale for r in rounds)
        setups = [r.setup_s * r.scale for r in rounds]
        setups += [setup * scale for setup in extra_setups(
            workload, args.seed, SETUP_SAMPLES - len(setups))]
        metrics = end_to_end(rounds, setups, import_s * scale)
        report_rounds = rounds
        extra = {"import_s": import_s, "setups_s": setups,
                 "op_latency": op_latency_lines(rounds)}

    fingerprint = report_rounds[0].fingerprint
    attempted = sum(r.attempted for r in report_rounds)
    failed = sum(r.failed for r in report_rounds)
    for index, r in enumerate(report_rounds):
        if r.fingerprint != fingerprint:
            errors.append(f"round {index} simulated different results")
            failed += r.attempted - r.failed
    expected = reference_fingerprint(workload.name, args.seed)
    if expected is not None and fingerprint != expected:
        errors.append(f"sim_stats_sha256 {fingerprint} != reference "
                      f"{expected} for seed {args.seed}")
        failed = attempted
    correct = failed == 0 and not errors

    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds,
        "revision": revision(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "config": workload.config(args.seed),
        "rounds": [[r.setup_s, r.wall_s, r.scale] for r in report_rounds],
        "sim_stats_sha256": fingerprint,
        "reference": ("match" if expected == fingerprint else
                      "none for this seed" if expected is None else
                      "MISMATCH"),
        "attempted": attempted, "failed": failed, "errors": errors,
        "metrics": metrics, **extra,
    }
    print(f"perfbench {workload.name}: seed {args.seed}, trace "
          f"{args.trace}, revision {record['revision']}, python "
          f"{record['python']}, nproc {record['nproc']}")
    print(f"config {json.dumps(record['config'], sort_keys=True)}")
    print(f"rounds {len(report_rounds)}, ops {attempted}, failed_ops "
          f"{failed}")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    for line in extra.get("op_latency", ()):
        print(line)
    print(f"sim_stats_sha256 {fingerprint} (reference: "
          f"{record['reference']})")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    try:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / (f"{workload.name}-seed{args.seed}"
                          f"-trace{args.trace}.json")
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"warning: run record not written: {exc}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
