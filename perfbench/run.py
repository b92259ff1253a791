"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

Workloads (their sizes and rationale are in ``BENCHMARK.json``):

* ``serve-hot``   shipped HTTP server, n=5000 factored artifact, Zipf users;
* ``serve-cold``  shipped HTTP server, n=50000 factored artifact, uniform users;
* ``stream-refit`` fsynced stream ingest, warm factored refits and reads
  in one process, n=5000;
* ``fit-transfer`` the full SLAMPRED transfer fit, published and served.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics, the same five on every workload; with ``--trace 1`` a separate traced run
reports the per-layer metrics.  Wrong answers, errors and sheds count in
``failed``; any failure makes the command exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

from procs import ROOT, SRC_DIR, declared

WORKLOADS = ("serve-hot", "serve-cold", "stream-refit", "fit-transfer")

END_TO_END = ("setup_s", "read_p50_ms", "cpu_ms_per_op", "heldout_auc",
              "peak_rss_mb")
"""End-to-end metrics every workload gates on (the JSON result line).

Each workload measures each of them on its own system under test:

* ``read_p50_ms``: a top-k read of the served version from its scheduled
  send (over HTTP on serve-*; through the ``MicroBatcher`` beside ingest
  and refits on stream-refit, and of the freshly loaded transfer model
  on fit-transfer);
* ``cpu_ms_per_op``: CPU of the system under test per operation: per
  answered read (serve-*), per acked delta or read with the refits
  amortised over them (stream-refit), per graph-to-servable pass
  (fit-transfer);
* ``heldout_auc``: the served scores of held-out links against sampled
  non-links.
"""

NOT_GATED = {
    "serve-hot": ("read_p99_ms", "sustained_qps"),
    "serve-cold": ("read_p99_ms", "sustained_qps"),
    "stream-refit": ("read_p99_ms", "ack_p50_ms", "ack_p99_ms",
                     "delta_to_servable_p50_s", "served_auc"),
    "fit-transfer": ("graph_to_servable_s",),
}
"""Metrics measured and printed, but not gated on.

The result line must hold the same end-to-end metrics on every workload,
so a figure only one or two workloads have is printed here: the serving
ladder's ``sustained_qps``, stream-refit's freshness
(``delta_to_servable_p50_s``) and fit-transfer's ``graph_to_servable_s``.
Their costs are gated through ``cpu_ms_per_op`` of the same workload.
Tails and acks are too unsteady on a shared 2-core host: over five to
ten seeds their quartile spread reached 0.5-1.8 of the median (tails
follow host stalls; fsynced acks follow GIL hand-offs to the refit
thread), above the largest bound a gate may use (0.25).  ``served_auc``
is the AUC of the version served at the end of stream-refit; it follows
the wall-clock tick cadence, so it is not reproducible per seed
(``heldout_auc`` there is a cold refit's)."""

NOT_GATED_UNITS = {"read_p99_ms": "ms", "ack_p50_ms": "ms", "ack_p99_ms": "ms",
                   "served_auc": "ratio", "sustained_qps": "1/s",
                   "delta_to_servable_p50_s": "s", "graph_to_servable_s": "s"}


def run_workload(name, seed, seconds, trace, workdir, tiny=False):
    """Dispatch one workload; returns its metrics and tally (``checks.Tally.result``)."""
    if name in ("serve-hot", "serve-cold"):
        import serve

        return serve.run(name, seed, seconds, trace, workdir, tiny)
    if name == "stream-refit":
        import stream

        return stream.run(seed, seconds, trace, workdir, tiny)
    import fit

    return fit.run(seed, seconds, trace, workdir, tiny)


def result_line(metrics, attempted, failed, problems):
    """The JSON object the benchmark prints last."""
    spec = declared()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {
        "correct": failed == 0 and not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="SLAMPRED repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="smallest sizes, for the benchmark's own smoke tests",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"perfbench: the program's sources are missing ({SRC_DIR}/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        outcome = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir,
            args.tiny,
        )
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, attempted = outcome["metrics"], outcome["attempted"]
    failed, problems = outcome["failed"], outcome["problems"]
    reported = {name: metrics.pop(name) for name in NOT_GATED[args.workload]
                if name in metrics}
    if not args.trace and set(metrics) != set(END_TO_END):
        print(f"perfbench: {args.workload} measured {sorted(metrics)}, "
              f"not {sorted(END_TO_END)}", file=sys.stderr)
        return 1
    line = result_line(metrics, attempted, failed, problems)
    for problem in problems:
        print(f"perfbench: {problem}")
    if reported:
        print("perfbench: measured, not gated: " + ", ".join(
            f"{name}={value:.4f} {NOT_GATED_UNITS[name]}"
            for name, value in reported.items()))
    rate = failed / attempted if attempted else 1.0
    print(f"perfbench: {args.workload} seed={args.seed} attempted={attempted} "
          f"failed={failed} error_rate={rate:.6f}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
