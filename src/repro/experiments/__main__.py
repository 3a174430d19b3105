"""Run reproduced tables and figures and print the results.

Usage::

    python -m repro.experiments                     # everything
    python -m repro.experiments --fast              # skip the app-scale runs
    python -m repro.experiments fig11 table1        # just these experiments
    python -m repro.experiments --trace out.json headline
                                                    # + Chrome/Perfetto trace
    python -m repro.experiments --trace-jsonl out.jsonl fig11
                                                    # + flat JSONL trace
    python -m repro.experiments --metrics out.csv headline
                                                    # + metrics time series
                                                    #   and a sim-top report

Trace output loads in https://ui.perfetto.dev (or chrome://tracing); the
schema is documented in ``docs/tracing.md``.  Metrics output is a flat
CSV (or JSONL with ``--metrics-jsonl``) documented in ``docs/metrics.md``;
when metrics are collected, a per-resource utilization summary
("sim-top") is printed after the runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import ExitStack

from repro.experiments import (run_faults, run_fig11, run_fig12_hdfs,
                               run_fig12_swift, run_fig13,
                               run_fig13_validate, run_fig3, run_fig8,
                               run_headline, run_sweep, run_table1,
                               run_table3, run_table4)
from repro.experiments import common, fig12
from repro.metrics import MetricsSession, render_top, write_csv
from repro.metrics import write_jsonl as write_metrics_jsonl
from repro.sim.session import section
from repro.trace import TraceSession, write_chrome, write_jsonl

# slug -> (display label, runner, fast?).  Slugs are the CLI names.
EXPERIMENTS = {
    "table1": ("Table I", run_table1, True),
    "table3": ("Table III", run_table3, True),
    "table4": ("Table IV", run_table4, True),
    "fig3": ("Fig 3", run_fig3, True),
    "fig8": ("Fig 8", run_fig8, True),
    "fig11": ("Fig 11", run_fig11, True),
    "sweep": ("Size sweep", run_sweep, True),
    "faults": ("Fault sweep", run_faults, False),
    "fig12a": ("Fig 12a", run_fig12_swift, False),
    "fig12b": ("Fig 12b", run_fig12_hdfs, False),
    "fig13": ("Fig 13", run_fig13, False),
    "fig13v": ("Fig 13 validated", run_fig13_validate, False),
    "headline": ("Headline", run_headline, False),
}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures.")
    parser.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                        help=f"subset to run: {', '.join(EXPERIMENTS)} "
                             "(default: all)")
    parser.add_argument("--fast", action="store_true",
                        help="skip the app-scale (Fig 12/13, headline) runs")
    parser.add_argument("--trace", metavar="OUT.json", default=None,
                        help="write a Chrome trace-event JSON "
                             "(Perfetto-loadable) of the run")
    parser.add_argument("--trace-jsonl", metavar="OUT.jsonl", default=None,
                        help="write a flat JSONL event stream of the run")
    parser.add_argument("--metrics", metavar="OUT.csv", default=None,
                        help="sample utilization metrics and write the "
                             "time series as CSV")
    parser.add_argument("--metrics-jsonl", metavar="OUT.jsonl", default=None,
                        help="write the sampled metrics as JSONL records")
    return parser.parse_args(argv)


def check_writable(kind: str, path: str | None) -> bool:
    """Fail fast on an unwritable output path.

    Creates (truncates) the file so a typo'd directory or a read-only
    target surfaces *before* spending minutes running experiments, not
    after.  Returns False (after printing to stderr) when unwritable.
    """
    if path is None:
        return True
    try:
        with open(path, "w", encoding="utf-8"):
            pass
    except OSError as exc:
        print(f"cannot write {kind} output {path}: {exc}", file=sys.stderr)
        return False
    return True


def main(argv: list[str]) -> int:
    opts = _parse(argv)
    unknown = [slug for slug in opts.experiments if slug not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; "
              f"choose from: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    if opts.experiments:
        slugs = opts.experiments
    else:
        slugs = [slug for slug, (_, _, fast) in EXPERIMENTS.items()
                 if fast or not opts.fast]

    for kind, path in (("trace", opts.trace), ("trace", opts.trace_jsonl),
                       ("metrics", opts.metrics),
                       ("metrics", opts.metrics_jsonl)):
        if not check_writable(kind, path):
            return 2

    # Runs made earlier in this process were made under other planes.
    fig12.app_run.cache_clear()
    common.send_run.cache_clear()
    tracing = opts.trace is not None or opts.trace_jsonl is not None
    session = TraceSession(label="experiments") if tracing else None
    sampling = opts.metrics is not None or opts.metrics_jsonl is not None
    metrics = MetricsSession(label="experiments") if sampling else None
    with ExitStack() as planes:
        for plane in (session, metrics):
            if plane is not None:
                planes.enter_context(plane)
        for slug in slugs:
            label, runner, _ = EXPERIMENTS[slug]
            start = time.time()
            with section(slug):
                result = runner()
            print(result.render())
            print(f"[{label} regenerated in {time.time() - start:.1f}s]\n")
    if session is not None:
        if opts.trace is not None:
            count = write_chrome(opts.trace, session)
            print(f"[trace: {count} events -> {opts.trace} "
                  "(load in ui.perfetto.dev)]")
        if opts.trace_jsonl is not None:
            write_jsonl(opts.trace_jsonl, session)
            print(f"[trace: JSONL -> {opts.trace_jsonl}]")
    if metrics is not None:
        if opts.metrics is not None:
            rows = write_csv(opts.metrics, metrics)
            print(f"[metrics: {rows} samples -> {opts.metrics}]")
        if opts.metrics_jsonl is not None:
            rows = write_metrics_jsonl(opts.metrics_jsonl, metrics)
            print(f"[metrics: {rows} samples -> {opts.metrics_jsonl}]")
        print()
        print(render_top(metrics, max_rows=40))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
