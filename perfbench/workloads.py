"""The benchmark's four workloads.

Each workload is driven by one client in a closed loop: it makes one
call into the program, waits for it to return, then makes the next.
``setup(seed)`` builds the inputs (and, where the workload has one, the
service or engine) from the seed alone; ``episode(state, k, tracer)``
runs the timed closed loop once over the inputs of panel entry ``k``
and then checks the outputs outside the timed region.  The program
under test only ever sees the generated inputs.

A workload whose single input set is too small to give steady figures
draws a *panel* of ``panel`` input sets from sub-seeds ``seed * panel +
k``; one pass over the panel is the unit an untraced run measures.

Every ``repro`` import is inside a function, so importing this module
costs nothing and ``setup_s`` includes the program's own import time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

#: ecost_stream: requests per episode, their mean simulated gap, and
#: the request streams per panel.
STREAM_REQUESTS = 300
STREAM_GAP_S = 30.0
STREAM_PANEL = 4
#: fifo_backlog_mixed: arrivals per episode, their mean gap, nodes.
BACKLOG_JOBS = 20_000
BACKLOG_GAP_S = 0.01
BACKLOG_NODES = 64
#: online_drift: jobs per drift scenario, the challenger's window, and
#: the scenarios per panel.
DRIFT_JOBS = 32
DRIFT_WINDOW = 1536
DRIFT_PANEL = 4
#: scenario_sweep: scenarios drawn per seed, and the share of the draw
#: re-run on the event engine as the output check.  Each call evaluates
#: one shard of ``repro.shard.runner.SCENARIO_SHARD_SIZE`` scenarios,
#: the width the repository's sharded runner gives every call.
SWEEP_SCENARIOS = 65_536
SWEEP_CHECK_SHARE = 0.01
SWEEP_TOLERANCE = 1e-9


@dataclass
class Episode:
    """One timed pass of a workload's closed loop."""

    seed: int  # the sub-seed the episode's inputs came from
    wall_s: float  # host time of the closed loop (construction excluded)
    attempted: int  # requests, jobs or scenarios the client submitted
    completed: int  # of those, completed with a correct result
    calls: list[float]  # host seconds of each client call
    sim_edp: float  # simulated EDP (J*s); exact for a given seed
    regret_ratio: float = 0.0  # online_drift only
    counts: dict = field(default_factory=dict)  # work counts the program kept
    errors: list[str] = field(default_factory=list)  # failed output checks


def _timed(fn, tracer, name):
    """``fn`` as the client calls it: traced as span ``name`` if tracing."""
    return fn if tracer is None else tracer.wrap(name, fn)


def _fresh(state):
    """The object built during setup on first use, a new one after."""
    built = state.pop("next", None)
    return built if built is not None else state["new"]()


def sub_seeds(seed: int, panel: int) -> list[int]:
    """The panel's sub-seeds: disjoint for distinct ``seed`` values."""
    return [seed * panel + k for k in range(panel)]


# ------------------------------------------------------------ ecost_stream
class EcostStream:
    """A virtual-clock ECoST service ingesting a 3-tenant request stream."""

    needs_artifacts = True
    panel = STREAM_PANEL

    def setup(self, seed: int):
        from repro.service.config import ServiceConfig
        from repro.service.core import ClusterService
        from repro.service.requests import seeded_requests

        seeds = sub_seeds(seed, self.panel)
        streams = [
            seeded_requests(STREAM_REQUESTS, seed=s, mean_interarrival_s=STREAM_GAP_S)
            for s in seeds
        ]
        config = ServiceConfig(n_nodes=8, scheduler="ecost")
        state = {"seeds": seeds, "streams": streams,
                 "new": lambda: ClusterService(config)}
        state["next"] = state["new"]()
        return state

    def episode(self, state, k, tracer) -> Episode:
        service = _fresh(state)
        submit, drain = service.submit_request, service.drain
        if tracer is not None:
            # Request i's ack span carries id i; drain serves no one request.
            submit = tracer.wrap("service.submit", submit, who=lambda _: tracer.ack)
            drain = tracer.wrap("service.drain", drain, who=lambda _: None)
        requests = state["streams"][k]
        acks, calls = [], []
        start = perf_counter()
        for i, payload in enumerate(requests):
            if tracer is not None:
                tracer.ack = i
            t = perf_counter()
            acks.append(submit(payload))
            calls.append(perf_counter() - t)
        if tracer is not None:
            tracer.ack = None
        summary = drain()  # timed in wall_s; not an ack, so not a call
        wall = perf_counter() - start

        accepted = sum(1 for a in acks if a.get("ok") and a.get("accepted"))
        errors = []
        if accepted != len(requests):
            errors.append(f"{len(requests) - accepted} request(s) not ok+accepted")
        if summary["accepted"] != summary["completed"]:
            errors.append(
                f"drain: accepted {summary['accepted']} != completed "
                f"{summary['completed']}"
            )
        if summary["inflight"] != 0:
            errors.append(f"drain: {summary['inflight']} job(s) still inflight")
        return Episode(
            seed=state["seeds"][k],
            wall_s=wall,
            attempted=len(requests),
            completed=min(accepted, summary["completed"]),
            calls=calls,
            sim_edp=summary["energy_joules"] * summary["makespan"],
            counts={
                "service.requests": len(acks),
                "service.accepted": accepted,
                "service.rejected": sum(
                    1 for a in acks if a.get("ok") and not a.get("accepted")
                ),
            },
            errors=errors,
        )


# ------------------------------------------------------ fifo_backlog_mixed
class FifoBacklogMixed:
    """FIFO first-fit engine on a mixed atom/xeon roster, deep backlog."""

    needs_artifacts = False
    panel = 1

    def setup(self, seed: int):
        from repro.hardware.classes import roster_from_classes
        from repro.mapreduce.engine import ClusterEngine
        from repro.workloads.streams import poisson_job_stream

        jobs = list(
            poisson_job_stream(
                BACKLOG_JOBS,
                tuned=True,
                mean_interarrival_s=BACKLOG_GAP_S,
                job_ids_from=1,
                seed=seed,
            )
        )
        roster = roster_from_classes(("atom", "xeon") * (BACKLOG_NODES // 2))

        def new():
            return ClusterEngine(roster=roster, recorder="streaming")

        return {"seed": seed, "jobs": jobs, "new": new, "next": new()}

    def episode(self, state, k, tracer) -> Episode:
        cluster = _fresh(state)
        jobs = state["jobs"]
        # One client call: submit the whole stream, run it offline.
        start = perf_counter()
        for spec in jobs:
            cluster.submit(spec)
        cluster.run()
        wall = perf_counter() - start

        ids = sorted(r.spec.job_id for r in cluster.results)
        errors = []
        if ids != list(range(1, len(jobs) + 1)):
            errors.append(
                f"{len(ids)} completion(s) for {len(jobs)} job(s), "
                f"{len(set(ids))} distinct id(s)"
            )
        if len(cluster.pending) or any(n.running for n in cluster.nodes):
            errors.append("engine drained with unfinished jobs")
        return Episode(
            seed=state["seed"],
            wall_s=wall,
            attempted=len(jobs),
            completed=len(set(ids)),
            calls=[wall],
            sim_edp=cluster.edp(),
            errors=errors,
        )


# ------------------------------------------------------------ online_drift
class OnlineDrift:
    """The seeded drift scenario: shadow online STP, crash and recovery."""

    needs_artifacts = True
    panel = DRIFT_PANEL

    def setup(self, seed: int):
        # run_drift_scenario loads its pipeline artifacts itself, on every
        # call, so each episode includes that (warm-cache) load.
        from repro.online.scenario import run_drift_scenario

        return {"run": run_drift_scenario, "seeds": sub_seeds(seed, self.panel)}

    def episode(self, state, k, tracer) -> Episode:
        run = _timed(state["run"], tracer, "online.scenario")
        start = perf_counter()
        report = run(
            n_jobs=DRIFT_JOBS, seed=state["seeds"][k],
            stp_kwargs={"window": DRIFT_WINDOW},
        )
        wall = perf_counter() - start

        summary, counters = report.summary, report.counters
        online = {
            key: counters.get(f"online.{key}", 0)
            for key in ("decisions", "updates", "refits", "relearn_sweeps",
                        "tuned_hits")
        }
        errors = []
        if summary["completed"] != DRIFT_JOBS:
            errors.append(f"completed {summary['completed']} of {DRIFT_JOBS} jobs")
        if online["decisions"] <= 0:
            errors.append("no pairing decisions were scored")
        if online["relearn_sweeps"] <= 0:
            errors.append("no relearn sweeps ran")
        if report.champion_regret <= 0:
            errors.append("champion regret is not positive")
        return Episode(
            seed=state["seeds"][k],
            wall_s=wall,
            attempted=DRIFT_JOBS,
            completed=summary["completed"],
            calls=[wall],
            sim_edp=summary["energy_joules"] * summary["makespan"],
            regret_ratio=(
                report.challenger_regret / report.champion_regret
                if report.champion_regret > 0 else 0.0
            ),
            counts={f"online.{key}": value for key, value in online.items()},
            errors=errors,
        )


# ---------------------------------------------------------- scenario_sweep
class ScenarioSweep:
    """Batch-backend evaluation of a seeded draw of knob-grid scenarios."""

    needs_artifacts = False
    panel = 1

    def setup(self, seed: int):
        import numpy as np

        from repro.batch import evaluate_scenarios
        from repro.conformance.scenarios import Scenario, ScenarioJob
        from repro.shard.runner import SCENARIO_SHARD_SIZE
        from repro.utils.units import GB, GHZ, MB
        from repro.workloads.registry import ALL_APPS

        rng = np.random.default_rng(seed)
        n = SWEEP_SCENARIOS
        freqs = (1.2 * GHZ, 1.6 * GHZ, 2.0 * GHZ, 2.4 * GHZ)
        blocks = (64 * MB, 128 * MB, 256 * MB, 512 * MB)
        sizes = (1 * GB, 5 * GB, 10 * GB)
        # Columns: two jobs' knobs, job count, node count, roster.
        code = rng.integers(len(ALL_APPS), size=(n, 2)).tolist()
        freq = rng.integers(len(freqs), size=(n, 2)).tolist()
        block = rng.integers(len(blocks), size=(n, 2)).tolist()
        mappers = rng.integers(1, 9, size=(n, 2)).tolist()
        size = rng.integers(len(sizes), size=(n, 2)).tolist()
        n_jobs = rng.integers(1, 3, size=n).tolist()
        n_nodes = rng.integers(1, 3, size=n).tolist()
        roster = rng.integers(6, size=n).tolist()  # 0-3 none, 4 atom, 5 xeon
        scenarios = []
        for i in range(n):
            jobs = tuple(
                ScenarioJob(
                    code=ALL_APPS[code[i][k]],
                    data_bytes=sizes[size[i][k]],
                    frequency=freqs[freq[i][k]],
                    block_size=blocks[block[i][k]],
                    n_mappers=mappers[i][k],
                )
                for k in range(n_jobs[i])
            )
            if roster[i] >= 4:
                classes = ("atom",) if roster[i] == 4 else ("xeon",)
                scenarios.append(
                    Scenario(n_nodes=1, jobs=jobs, recorder="off", node_classes=classes)
                )
            else:
                scenarios.append(Scenario(n_nodes=n_nodes[i], jobs=jobs, recorder="off"))
        check = sorted(
            rng.choice(n, size=max(1, int(n * SWEEP_CHECK_SHARE)), replace=False).tolist()
        )
        return {"seed": seed, "scenarios": scenarios, "evaluate": evaluate_scenarios,
                "chunk": SCENARIO_SHARD_SIZE, "check": check}

    def episode(self, state, k, tracer) -> Episode:
        evaluate = _timed(state["evaluate"], tracer, "batch.evaluate")
        scenarios, chunk = state["scenarios"], state["chunk"]
        outcomes, calls = [], []
        start = perf_counter()
        for lo in range(0, len(scenarios), chunk):
            t = perf_counter()
            outcomes += evaluate(scenarios[lo:lo + chunk], backend="batch")
            calls.append(perf_counter() - t)
        wall = perf_counter() - start

        fallbacks = sum(1 for o in outcomes if o.fallback)
        errors = []
        if len(outcomes) != len(scenarios):
            errors.append(f"{len(outcomes)} outcome(s) for {len(scenarios)} scenarios")
        if fallbacks:
            errors.append(f"{fallbacks} scenario(s) fell back to the event engine")
        state["outcomes"] = outcomes
        return Episode(
            seed=state["seed"],
            wall_s=wall,
            attempted=len(scenarios),
            completed=len(outcomes) - fallbacks,
            calls=calls,
            sim_edp=sum(o.edp for o in outcomes),
            counts={
                "batch.scenarios": len(outcomes),
                "batch.batched": sum(1 for o in outcomes if o.backend == "batch"),
                "batch.fallbacks": fallbacks,
            },
            errors=errors,
        )

    def final_check(self, state) -> list[str]:
        """Re-run the seeded sample on the event engine (1e-9 relative)."""
        evaluate, scenarios = state["evaluate"], state["scenarios"]
        idx = state["check"]
        reference = evaluate([scenarios[i] for i in idx], backend="event")
        errors = []
        for i, ref in zip(idx, reference):
            got = state["outcomes"][i]
            for name in ("makespan", "total_energy", "edp"):
                a, b = getattr(got, name), getattr(ref, name)
                if abs(a - b) > SWEEP_TOLERANCE * max(abs(a), abs(b)):
                    errors.append(f"scenario {i}: batch {name} {a!r} != event {b!r}")
        return errors


WORKLOADS = {
    "ecost_stream": EcostStream(),
    "fifo_backlog_mixed": FifoBacklogMixed(),
    "online_drift": OnlineDrift(),
    "scenario_sweep": ScenarioSweep(),
}
