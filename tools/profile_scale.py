#!/usr/bin/env python
"""Profile the event engine at big-cluster scale.

Runs named scenarios spanning 256/1024-node clusters and 1e5–1e6
queued jobs, reporting wall time and per-job cost for each.  With
``--profile`` each scenario additionally runs under :mod:`cProfile`
and prints the top functions by cumulative time — this is the harness
that located the ``used_cores`` / pending-rescan hot spots the
placement indexes now bypass.

Usage::

    PYTHONPATH=src python tools/profile_scale.py
    PYTHONPATH=src python tools/profile_scale.py --scenarios backlog_1m
    PYTHONPATH=src python tools/profile_scale.py --profile --top 15
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import time


def _run_scenario(n_nodes: int, n_jobs: int, gap_s: float, recorder: str) -> int:
    from repro.mapreduce.engine import ClusterEngine
    from repro.workloads.streams import poisson_job_stream

    cluster = ClusterEngine(n_nodes=n_nodes, recorder=recorder)
    for spec in poisson_job_stream(
        n_jobs, tuned=True, mean_interarrival_s=gap_s, job_ids_from=1
    ):
        cluster.submit(spec)
    cluster.run()
    assert len(cluster.results) == n_jobs
    return n_jobs


#: name -> (n_nodes, n_jobs, mean interarrival seconds)
SCENARIOS: dict[str, tuple[int, int, float]] = {
    # Saturated big clusters: placement pressure scales with node count.
    "steady_256": (256, 4_000, 0.2),
    "steady_1024": (1024, 8_000, 0.05),
    # Deep backlogs: the pending queue holds ~1e4-1e6 jobs for most of
    # the run, so pending membership/removal dominates.
    "backlog_100k": (64, 100_000, 0.01),
    "backlog_1m": (256, 1_000_000, 0.001),
}

#: backlog_1m takes minutes even post-fix; run it only when asked.
DEFAULT_SCENARIOS = ("steady_256", "steady_1024", "backlog_100k")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenarios",
        nargs="+",
        choices=sorted(SCENARIOS),
        default=list(DEFAULT_SCENARIOS),
        help="scenarios to run (default: all but backlog_1m)",
    )
    parser.add_argument(
        "--recorder",
        default="off",
        help="recorder mode for the cluster (off, full, streaming[:N]; "
        "default off)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run each scenario under cProfile and print hot functions",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=12,
        help="rows of cProfile output per scenario (default 12)",
    )
    args = parser.parse_args(argv)

    for name in args.scenarios:
        n_nodes, n_jobs, gap_s = SCENARIOS[name]
        print(
            f"{name}: {n_nodes} nodes, {n_jobs} jobs, "
            f"{gap_s * 1e3:.0f} ms mean gap, recorder={args.recorder}"
        )
        if args.profile:
            profiler = cProfile.Profile()
            t0 = time.perf_counter()
            profiler.runcall(
                _run_scenario, n_nodes, n_jobs, gap_s, args.recorder
            )
            elapsed = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            _run_scenario(n_nodes, n_jobs, gap_s, args.recorder)
            elapsed = time.perf_counter() - t0
        print(
            f"  {elapsed:.3f} s wall, {n_jobs / elapsed:,.0f} jobs/s, "
            f"{elapsed / n_jobs * 1e6:.1f} us/job"
        )
        if args.profile:
            stats = pstats.Stats(profiler)
            stats.sort_stats("cumulative").print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
