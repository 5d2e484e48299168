"""The repository benchmark: one command, every metric, checked outputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The benchmark warms the artifact
cache in ``.perfbench_state/`` (its own directory, git-ignored), builds
the workload's inputs from ``--seed``, and runs the workload's closed
loop for about ``--seconds`` seconds.  With ``--trace 0`` it reports the
end-to-end metrics of untraced episodes; with ``--trace 1`` it
alternates untraced and traced episodes and reports the per-layer
metrics (see README.md).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 when every output check passed, 1 when a check or the
determinism guard failed, 2 when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402  (the benchmark's own module)
from workloads import WORKLOADS  # noqa: E402

#: Set-up samples per run: this process plus fresh child processes.
SETUP_SAMPLES = 3
#: Child time limits: a cold artifact build takes ~20 s on a 2-vCPU host.
CHILD_TIMEOUT_S = {"warm": 800, "setup": 120}
STATE_DIR = ".perfbench_state"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Counts and results that must repeat exactly for one seed and code.
DETERMINISTIC = (
    "sim_edp", "regret_ratio", "mapreduce.events", "model.kernel_evals",
    "mapreduce.recontext_hits", "ml.predict_rows", "online.refits",
    "online.relearn_sweeps", "batch.lanes_per_call",
)


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--phase", choices=("run", "warm", "setup"), default="run",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _program_root() -> Path:
    """The checkout root; exits 2 when it holds no program source."""
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: no src/repro in the current directory; run from the "
              "root of a repository checkout", file=sys.stderr)
        raise SystemExit(2)
    return root


def _child(args, phase: str) -> dict:
    """Run this script in a fresh interpreter for one set-up phase."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--phase", phase]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S[phase], env=os.environ.copy())
    return json.loads(out.stdout.strip().splitlines()[-1])


def _warm() -> None:
    """Build every artifact the workloads load (slow only the first time)."""
    from repro.experiments.artifacts import get_components
    from repro.online.scenario import pipeline_components

    get_components("reptree")
    pipeline_components("reptree")


def _p99(values: list[float]) -> float:
    """99th percentile (inclusive interpolation; the value itself for one)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _code_hash(root: Path) -> str:
    """Digest of the program and benchmark sources (keys the guard)."""
    h = hashlib.sha256()
    for base in (root / "src" / "repro", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(f"{base.name}/{path.relative_to(base)}".encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _guard(root: Path, key: str, values: dict) -> list[str]:
    """Compare ``values`` with every earlier run of this seed and code."""
    path = root / STATE_DIR / "determinism.json"
    try:
        book = json.loads(path.read_text())
    except (OSError, ValueError):
        book = {}
    seen = book.setdefault(key, {})
    errors = [
        f"{name} = {value!r}, an earlier run of this seed gave {seen[name]!r}"
        for name, value in values.items()
        if name in seen and seen[name] != value
    ]
    if not errors:
        seen.update(values)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(book, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return errors


def _exact(rows) -> tuple[dict, list[str]]:
    """``rows`` of ``(seed, {name: value})`` must agree per seed; returns
    the agreed values (as ``repr`` strings) by seed, and any mismatches."""
    agreed: dict[int, dict] = {}
    errors = []
    for seed, values in rows:
        first = agreed.setdefault(seed, {})
        for name, value in values.items():
            text = repr(value)
            if first.setdefault(name, text) != text:
                errors.append(f"seed {seed}: {name} differs between episodes "
                              f"of one run: {text} vs {first[name]}")
    return agreed, errors


def _layer_metrics(tracer: Tracer, ep, wall: float) -> dict:
    """Per-layer metrics of one traced episode (see README.md)."""
    s = tracer.summarize(wall)
    c = tracer.counts
    tel = {}
    for eng in {id(e.telemetry): e.telemetry for e in tracer.engines}.values():
        for name in ("events", "stale_events", "recontext_hits",
                     "recontext_misses", "segments_recorded", "segments_retained"):
            tel[name] = tel.get(name, 0) + getattr(eng, name)
    get = ep.counts.get

    def ratio(a, b):
        return a / b if b else 0.0

    lanes = c["batch.lanes"]
    return {
        "service.requests": get("service.requests", 0),
        "service.accepted": get("service.accepted", 0),
        "service.rejected": get("service.rejected", 0),
        "service.parse_s": s.get("service.parse_s", 0.0),
        "service.admit_s": s.get("service.admit_s", 0.0),
        "service.self_s": s["service.self_s"],
        "core.schedule_calls": s.get("core.schedule_calls", 0),
        "core.schedule_s": s.get("core.schedule_s", 0.0),
        "core.predict_calls": s.get("core.predict_calls", 0),
        "core.predict_s": s.get("core.predict_s", 0.0),
        "core.pair_s": s.get("core.pair_s", 0.0),
        "core.profile_s": s.get("core.profile_s", 0.0),
        "core.self_s": s["core.self_s"],
        "ml.predict_rows": c["ml.predict_rows"],
        "ml.predict_s": s.get("ml.predict_s", 0.0),
        "ml.fit_calls": s.get("ml.fit_calls", 0),
        "ml.fit_rows": c["ml.fit_rows"],
        "ml.fit_s": s.get("ml.fit_s", 0.0),
        "ml.self_s": s["ml.self_s"],
        "mapreduce.run_s": s.get("mapreduce.run_self_s", 0.0),
        "mapreduce.events": tel.get("events", 0),
        "mapreduce.stale_events": tel.get("stale_events", 0),
        "mapreduce.live_event_ratio": ratio(
            tel.get("events", 0) - tel.get("stale_events", 0), tel.get("events", 0)),
        "mapreduce.placements": s.get("mapreduce.place_calls", 0),
        "mapreduce.place_s": s.get("mapreduce.place_s", 0.0),
        "mapreduce.first_fit_s": s.get("mapreduce.first_fit_s", 0.0),
        "mapreduce.pending_peak": tracer.pending_peak,
        "mapreduce.recontext_hits": tel.get("recontext_hits", 0),
        "mapreduce.recontext_misses": tel.get("recontext_misses", 0),
        "mapreduce.recontext_hit_rate": ratio(
            tel.get("recontext_hits", 0),
            tel.get("recontext_hits", 0) + tel.get("recontext_misses", 0)),
        "mapreduce.segments_recorded": tel.get("segments_recorded", 0),
        "mapreduce.segments_retained": tel.get("segments_retained", 0),
        "mapreduce.recorder_s": s.get("mapreduce.recorder_s", 0.0),
        "mapreduce.self_s": s["mapreduce.self_s"],
        "model.kernel_evals": s.get("model.kernel_calls", 0),
        "model.kernel_s": s.get("model.kernel_s", 0.0),
        "model.sweep_calls": s.get("model.sweep_calls", 0),
        "model.sweep_s": s.get("model.sweep_s", 0.0),
        "model.self_s": s["model.self_s"],
        "batch.scenarios": get("batch.scenarios", 0),
        "batch.batched_rate": ratio(get("batch.batched", 0), get("batch.scenarios", 0)),
        "batch.fallbacks": get("batch.fallbacks", 0),
        "batch.kernel_calls": c["batch.kernel_calls"],
        "batch.lanes_per_call": ratio(lanes, c["batch.kernel_calls"]),
        "batch.pack_s": s.get("batch.pack_s", 0.0),
        "batch.solve_s": s.get("batch.evaluate_self_s", 0.0),
        "batch.self_s": s["batch.self_s"],
        "online.decisions": get("online.decisions", 0),
        "online.updates": get("online.updates", 0),
        "online.refits": get("online.refits", 0),
        "online.refit_s": s.get("online.refit_s", 0.0),
        "online.partial_fit_s": s.get("online.partial_fit_s", 0.0),
        "online.relearn_sweeps": get("online.relearn_sweeps", 0),
        "online.tuned_hit_rate": ratio(get("online.tuned_hits", 0),
                                       get("online.decisions", 0)),
        "online.score_s": s.get("online.score_s", 0.0),
        "online.self_s": s["online.self_s"],
        "other_s": s["other_s"],
        "traced_wall_s": wall,
        "sim_edp": ep.sim_edp,
        "regret_ratio": ep.regret_ratio,
    }


def _unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name == "sim_edp":
        return "J.s"
    if name == "batch.lanes_per_call":
        return "lanes/call"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_rate", "_ratio")):
        return "ratio"
    return "count"


def _measure(workload, state, args):
    """Warm-up, then the timed episodes: whole panel passes untraced, or
    alternating untraced and traced episodes of panel entry 0."""
    # One discarded warm-up episode lets lazy one-time work (first-call
    # imports, process-wide caches) finish before anything is timed.
    warmup = workload.episode(state, 0, None)
    passes, traced, layer_rows, tracer = [], [], [], None
    step = warmup.wall_s * (2 if args.trace else workload.panel)
    start = perf_counter()
    while not passes or perf_counter() - start + step / 2 < args.seconds:
        if not args.trace:
            passes.append([workload.episode(state, k, None)
                           for k in range(workload.panel)])
            continue
        passes.append([workload.episode(state, 0, None)])
        tracer = Tracer()
        tracer.install()
        try:
            ep = workload.episode(state, 0, tracer)
        finally:
            tracer.unpatch()
        traced.append(ep)
        layer_rows.append(_layer_metrics(tracer, ep, ep.wall_s))
    return warmup, passes, traced, layer_rows, tracer


def main(argv=None) -> int:
    args = _args(argv)
    root = _program_root()
    state_dir = root / STATE_DIR
    (state_dir / "artifacts").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(state_dir / "artifacts")
    os.environ["REPRO_WORKERS"] = "1"
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload]

    if args.phase == "warm":
        _warm()
        print("{}")
        return 0
    if args.phase == "run" and workload.needs_artifacts:
        _child(args, "warm")

    t0 = perf_counter()
    state = workload.setup(args.seed)
    setup_samples = [perf_counter() - t0]
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_samples[0]}))
        return 0
    for _ in range(SETUP_SAMPLES - 1):
        setup_samples.append(_child(args, "setup")["setup_s"])

    warmup, passes, traced, layer_rows, tracer = _measure(workload, state, args)
    rss = _peak_rss_mb()
    untraced = [ep for p in passes for ep in p]
    episodes = [warmup] + untraced + traced

    errors = [e for ep in episodes for e in ep.errors]
    final_check = getattr(workload, "final_check", None)
    if final_check is not None:
        errors += final_check(state)
    rows = [(ep.seed, {"sim_edp": ep.sim_edp, "regret_ratio": ep.regret_ratio})
            for ep in episodes]
    rows += [(ep.seed, {name: row[name] for name in DETERMINISTIC})
             for ep, row in zip(traced, layer_rows)]
    exact, mismatch = _exact(rows)
    errors += mismatch
    code = _code_hash(root)
    for seed, values in sorted(exact.items()):
        errors += _guard(root, f"{code}/{args.workload}/{seed}", values)

    calls = [c for ep in untraced for c in ep.calls]
    p99 = _p99(calls)
    attempted = sum(ep.attempted for ep in episodes)
    failed = attempted - sum(ep.completed for ep in episodes)
    print(f"# {args.workload} seed={args.seed}: sub-seeds "
          f"{sorted(exact)}; {len(passes)} untraced pass(es), {len(traced)} "
          f"traced episode(s); {len(calls)} client calls, "
          f"{sum(c > p99 for c in calls)} beyond call_p99")
    print("# episode walls (s): untraced "
          + " ".join(f"{ep.wall_s:.3f}" for ep in untraced)
          + (" | traced " + " ".join(f"{ep.wall_s:.3f}" for ep in traced)
             if traced else ""))
    for seed, values in sorted(exact.items()):
        print(f"# seed {seed}: sim_edp={values['sim_edp']} "
              f"regret_ratio={values['regret_ratio']}")
    for e in errors:
        print(f"# CHECK FAILED: {e}")

    if args.trace:
        metrics = {
            name: statistics.median(row[name] for row in layer_rows)
            for name in layer_rows[0]
        }
        metrics["trace_overhead_s"] = (
            statistics.median(ep.wall_s for ep in traced)
            - statistics.median(ep.wall_s for ep in untraced)
        )
        out = {name: {"value": value, "unit": _unit(name)}
               for name, value in metrics.items()}
        tracer.dump(state_dir / "traces" / f"{args.workload}-seed{args.seed}.json.gz",
                    {"workload": args.workload, "seed": traced[-1].seed})
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": statistics.median(
                sum(ep.completed for ep in p) / sum(ep.wall_s for ep in p)
                for p in passes),
            "call_p50_ms": statistics.median(calls) * 1e3,
            "call_p99_ms": p99 * 1e3,
            "peak_rss_mb": rss,
        }
        out = {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
