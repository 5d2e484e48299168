"""Metamorphic relation registry: named invariants under transformation.

Where the oracles of :mod:`repro.conformance.oracles` only cover
exactly-solvable scenario shapes, metamorphic relations constrain the
engine on *arbitrary* scenarios: transform the input in a way whose
effect on the output is known (relabel ids, add capacity, halve the
clock...) and assert the known effect — no closed form required.

Each relation is registered by name in :data:`RELATIONS` and reports a
:class:`RelationResult` that distinguishes "held", "violated" and "not
applicable to this scenario" (a gated relation that never applies is a
coverage bug, so results carry applicability explicitly rather than
silently passing).

The registered relations:

``permute-job-ids``
    Relabelling jobs (same work, same arrival order, different ids)
    leaves makespan, aggregate energy and the per-job energy multiset
    byte-identical.  Catches any id-dependent behaviour leaking into
    physics — hash ordering, cache keys, tie-breaks.
``zero-rate-fault-plan``
    Installing a fault injector with an *empty* plan is byte-identical
    to not installing one, down to per-node busy-time/energy internals.
``add-idle-node``
    Adding a node to a fault-free cluster never increases makespan
    under FIFO first-fit (capacity monotonicity).
``halve-block-size``
    Halving the HDFS block size exactly doubles the split count (when
    the input divides the block) and never decreases per-wave
    scheduling overhead.
``double-frequency-pipeline``
    Doubling the clock at fixed work halves the core-pipeline compute
    seconds (:attr:`~repro.model.costmodel.ScalarJobMetrics.pipeline_seconds`)
    — the memory-stall share must not shrink with it.  Gated on the
    doubled frequency existing in the DVFS table and the job staying
    off the memory wall at both clocks.
``recorder-equivalence``
    The interval recorder is observability, not physics: ``full``,
    ``streaming`` and ``off`` recorders produce byte-identical results.
``swap-equal-classes``
    Naming every node's class explicitly — when the classes are all the
    default hardware — is byte-identical to not naming them, and equal
    node specs always collapse to one class tag regardless of object
    identity or roster position.  Pins the homogeneous fast path: a
    roster of equal nodes must take today's untagged cache keys.
``upgrade-node-class``
    Upgrading node 0 from ``atom`` to ``xeon`` on a fault-free
    single-job scenario never increases makespan (the Xeon is strictly
    faster on every resource axis), and the *sign* of the EDP change
    must match the closed-form oracle's sign — EDP itself is not
    monotone (the Xeon draws far more power), so the relation pins
    direction agreement, not direction.
``skew-zero-uniform``
    Re-apportioning every job's input through the data-skew knob at
    ``skew = 0`` is the identity: same integer byte vector, equal
    scenario, byte-identical engine run.  At ``skew > 0`` the grand
    total is still preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping

from repro.conformance.scenarios import Scenario, run_scenario
from repro.hardware.node import ATOM_C2758
from repro.mapreduce.engine import ClusterEngine
from repro.model.costmodel import standalone_metrics_scalar
from repro.utils.units import GHZ, MB
from repro.workloads.registry import get_app
from repro.workloads.skew import skew_data_bytes

#: Tolerance for relations that compare two *different* evaluation
#: orders of the same arithmetic (exact relations compare with ==).
_PIPELINE_REL_TOL = 1e-12

#: Makespan slack for the capacity-monotonicity relation: placement on
#: the larger cluster is a different event trajectory, so equality is
#: only up to accumulated ulps.
_MONOTONE_REL_TOL = 1e-9

#: Block sizes the studied HDFS configurations allow (bytes).
_VALID_BLOCKS = frozenset(int(b * MB) for b in (64, 128, 256, 512, 1024))


@dataclass(frozen=True)
class RelationResult:
    """Outcome of one relation check on one scenario."""

    name: str
    applicable: bool
    failures: tuple[str, ...] = ()

    @property
    def held(self) -> bool:
        return self.applicable and not self.failures

    def describe(self) -> str:
        if not self.applicable:
            return f"{self.name}: not applicable"
        if self.failures:
            return f"{self.name}: VIOLATED ({'; '.join(self.failures)})"
        return f"{self.name}: held"


def _not_applicable(name: str) -> RelationResult:
    return RelationResult(name=name, applicable=False)


def _result(name: str, failures: list[str]) -> RelationResult:
    return RelationResult(name=name, applicable=True, failures=tuple(failures))


# ------------------------------------------------------------- relations
def _rel_permute_job_ids(scenario: Scenario) -> RelationResult:
    name = "permute-job-ids"
    base = run_scenario(scenario)
    n = len(scenario.jobs)
    # Reverse the id assignment (and shift it, so every id changes even
    # for n=1 and the palindromic middle of odd n).
    permuted_ids = [100 + n - i for i in range(n)]
    permuted = run_scenario(scenario, job_ids=permuted_ids)
    failures = []
    if permuted.makespan != base.makespan:
        failures.append(
            f"makespan {base.makespan!r} -> {permuted.makespan!r} under id relabelling"
        )
    if permuted.total_energy != base.total_energy:
        failures.append(
            f"total_energy {base.total_energy!r} -> {permuted.total_energy!r}"
        )
    if permuted.edp != base.edp:
        failures.append(f"edp {base.edp!r} -> {permuted.edp!r}")
    base_e = sorted(e for _l, _n2, _s, _f, e in base.rows)
    perm_e = sorted(e for _l, _n2, _s, _f, e in permuted.rows)
    if base_e != perm_e:
        failures.append("per-job energy multiset changed under id relabelling")
    return _result(name, failures)


def _rel_zero_rate_fault_plan(scenario: Scenario) -> RelationResult:
    name = "zero-rate-fault-plan"
    healthy = scenario.without_faults()
    bare = run_scenario(healthy, install_injector=False)
    instrumented = run_scenario(healthy, install_injector=True)
    failures = []
    if instrumented.makespan != bare.makespan:
        failures.append(
            f"makespan {bare.makespan!r} != {instrumented.makespan!r} with empty injector"
        )
    if instrumented.total_energy != bare.total_energy:
        failures.append(
            f"total_energy {bare.total_energy!r} != {instrumented.total_energy!r}"
        )
    if instrumented.rows != bare.rows:
        failures.append("completion rows differ with an empty injector installed")
    bare_nodes = bare.cluster.conformance_snapshot()["nodes"]
    inst_nodes = instrumented.cluster.conformance_snapshot()["nodes"]
    for b, i in zip(bare_nodes, inst_nodes):
        for key in ("busy_seconds", "busy_energy"):
            if b[key] != i[key]:
                failures.append(
                    f"node {b['node_id']} {key} {b[key]!r} != {i[key]!r}"
                )
    return _result(name, failures)


def _rel_add_idle_node(scenario: Scenario) -> RelationResult:
    name = "add-idle-node"
    if scenario.fault_events:
        # Fault plans address nodes by id; growing the cluster changes
        # which nodes the schedule hits, so the comparison is invalid.
        return _not_applicable(name)
    if scenario.heterogeneous:
        # Class-oblivious first-fit can move a job from "queue behind a
        # fast node" to "run now on a slow node", which legitimately
        # lengthens the makespan — capacity monotonicity only holds
        # when the added capacity is not slower than what exists.
        return _not_applicable(name)
    base = run_scenario(scenario)
    grown = run_scenario(scenario.with_nodes(scenario.n_nodes + 1))
    failures = []
    slack = _MONOTONE_REL_TOL * max(abs(base.makespan), 1.0)
    if grown.makespan > base.makespan + slack:
        failures.append(
            f"makespan grew {base.makespan!r} -> {grown.makespan!r} "
            f"after adding an idle node"
        )
    return _result(name, failures)


def _rel_halve_block_size(scenario: Scenario) -> RelationResult:
    name = "halve-block-size"
    failures = []
    applicable = False
    for job in scenario.jobs:
        half = job.block_size // 2
        if half not in _VALID_BLOCKS or job.data_bytes % job.block_size:
            continue
        applicable = True
        profile = get_app(job.code).profile
        coarse = standalone_metrics_scalar(
            profile, job.data_bytes, job.frequency, job.block_size, job.n_mappers
        )
        fine = standalone_metrics_scalar(
            profile, job.data_bytes, job.frequency, half, job.n_mappers
        )
        if fine.n_tasks != 2.0 * coarse.n_tasks:
            failures.append(
                f"{job.code}: splits {coarse.n_tasks:g} -> {fine.n_tasks:g} "
                f"when halving block {job.block_size} (expected exact doubling)"
            )
        if fine.t_overhead < coarse.t_overhead:
            failures.append(
                f"{job.code}: scheduling overhead shrank {coarse.t_overhead!r} -> "
                f"{fine.t_overhead!r} with more splits"
            )
        if fine.waves < coarse.waves:
            failures.append(
                f"{job.code}: wave count shrank {coarse.waves:g} -> {fine.waves:g}"
            )
    if not applicable:
        return _not_applicable(name)
    return _result(name, failures)


def _rel_double_frequency_pipeline(scenario: Scenario) -> RelationResult:
    name = "double-frequency-pipeline"
    node = ATOM_C2758
    membw = node.membw.achievable_bw
    valid_freqs = set(node.frequencies)
    failures = []
    applicable = False
    for job in scenario.jobs:
        doubled = 2.0 * job.frequency
        if doubled not in valid_freqs:
            continue
        profile = get_app(job.code).profile
        slow = standalone_metrics_scalar(
            profile, job.data_bytes, job.frequency, job.block_size, job.n_mappers
        )
        fast = standalone_metrics_scalar(
            profile, job.data_bytes, doubled, job.block_size, job.n_mappers
        )
        # Off the memory wall at both clocks: the fixed-point CPU
        # inflation is exactly 1 iff demanded DRAM bandwidth stays
        # under capacity, and only then is the pipeline term pure 1/f.
        if slow.mem_demand >= membw or fast.mem_demand >= membw:
            continue
        applicable = True
        want = slow.pipeline_seconds / 2.0
        got = fast.pipeline_seconds
        err = abs(want - got) / max(abs(want), 1e-300)
        if err > _PIPELINE_REL_TOL:
            failures.append(
                f"{job.code}: pipeline seconds {slow.pipeline_seconds!r} at "
                f"{job.frequency / GHZ:g} GHz -> {got!r} at {doubled / GHZ:g} GHz "
                f"(expected half, rel_err={err:.3e})"
            )
    if not applicable:
        return _not_applicable(name)
    return _result(name, failures)


def _rel_recorder_equivalence(scenario: Scenario) -> RelationResult:
    name = "recorder-equivalence"
    base = run_scenario(replace(scenario, recorder="full"))
    failures = []
    for mode in ("streaming", "off"):
        other = run_scenario(replace(scenario, recorder=mode))
        if other.makespan != base.makespan:
            failures.append(f"recorder={mode}: makespan {other.makespan!r} differs")
        if other.total_energy != base.total_energy:
            failures.append(
                f"recorder={mode}: total_energy {other.total_energy!r} differs"
            )
        if other.rows != base.rows:
            failures.append(f"recorder={mode}: completion rows differ")
    return _result(name, failures)


def _rel_swap_equal_classes(scenario: Scenario) -> RelationResult:
    name = "swap-equal-classes"
    if scenario.node_classes:
        # Already annotated: the explicit-vs-implicit comparison below
        # needs the unannotated scenario as its baseline.
        return _not_applicable(name)
    base = run_scenario(scenario)
    annotated = run_scenario(
        replace(scenario, node_classes=("atom",) * scenario.n_nodes)
    )
    failures = []
    if annotated.makespan != base.makespan:
        failures.append(
            f"makespan {base.makespan!r} -> {annotated.makespan!r} "
            f"under explicit default-class annotation"
        )
    if annotated.total_energy != base.total_energy:
        failures.append(
            f"total_energy {base.total_energy!r} -> {annotated.total_energy!r}"
        )
    if annotated.rows != base.rows:
        failures.append("completion rows differ under default-class annotation")
    if annotated.cluster.heterogeneous or any(annotated.cluster.node_class_tags):
        failures.append(
            f"equal classes tagged {annotated.cluster.node_class_tags!r} "
            f"(expected all zero)"
        )
    # Equality, not identity: a roster of *distinct but equal* spec
    # objects in any position order must still collapse to one class.
    twin = replace(ATOM_C2758)
    assert twin is not ATOM_C2758
    swapped = ClusterEngine(
        roster=tuple(
            (twin, ATOM_C2758)[i % 2] for i in range(scenario.n_nodes)
        )
    )
    if swapped.heterogeneous or any(swapped.node_class_tags):
        failures.append(
            f"equal-but-distinct specs tagged {swapped.node_class_tags!r} "
            f"(expected all zero)"
        )
    return _result(name, failures)


def _rel_upgrade_node_class(scenario: Scenario) -> RelationResult:
    name = "upgrade-node-class"
    if len(scenario.jobs) != 1 or scenario.fault_events or scenario.node_classes:
        return _not_applicable(name)
    from repro.conformance.oracles import oracle_expectation

    base_s = replace(scenario, node_classes=("atom",) * scenario.n_nodes)
    up_s = replace(
        scenario, node_classes=("xeon",) + ("atom",) * (scenario.n_nodes - 1)
    )
    base = run_scenario(base_s)
    up = run_scenario(up_s)
    failures = []
    slack = _MONOTONE_REL_TOL * max(abs(base.makespan), 1.0)
    if up.makespan > base.makespan + slack:
        failures.append(
            f"makespan grew {base.makespan!r} -> {up.makespan!r} "
            f"after upgrading node 0 atom -> xeon"
        )
    want_base = oracle_expectation(base_s)
    want_up = oracle_expectation(up_s)
    if want_base is not None and want_up is not None:
        tol = _MONOTONE_REL_TOL * max(abs(base.edp), abs(up.edp), 1.0)

        def sign(delta: float) -> int:
            return 0 if abs(delta) <= tol else (1 if delta > 0 else -1)

        got = sign(up.edp - base.edp)
        want = sign(want_up.edp - want_base.edp)
        if got != want:
            failures.append(
                f"EDP moved {'up' if got > 0 else 'down' if got < 0 else 'flat'} "
                f"({base.edp!r} -> {up.edp!r}) but the oracle says "
                f"{'up' if want > 0 else 'down' if want < 0 else 'flat'} "
                f"({want_base.edp!r} -> {want_up.edp!r})"
            )
    return _result(name, failures)


def _rel_skew_zero_uniform(scenario: Scenario) -> RelationResult:
    name = "skew-zero-uniform"
    sizes = tuple(j.data_bytes for j in scenario.jobs)
    failures = []
    rebuilt_sizes = skew_data_bytes(sizes, skew=0.0)
    if rebuilt_sizes != sizes:
        failures.append(
            f"skew=0 re-apportionment changed bytes {sizes!r} -> {rebuilt_sizes!r}"
        )
    rebuilt = scenario.with_jobs(
        replace(job, data_bytes=s) for job, s in zip(scenario.jobs, rebuilt_sizes)
    )
    if rebuilt != scenario:
        failures.append("scenario not equal after skew=0 round-trip")
    base = run_scenario(scenario)
    other = run_scenario(rebuilt)
    if other.makespan != base.makespan:
        failures.append(
            f"makespan {base.makespan!r} != {other.makespan!r} after skew=0 round-trip"
        )
    if other.total_energy != base.total_energy:
        failures.append(
            f"total_energy {base.total_energy!r} != {other.total_energy!r}"
        )
    if other.rows != base.rows:
        failures.append("completion rows differ after skew=0 round-trip")
    # The skewed counterpoint: redistribution conserves the grand total.
    skewed = skew_data_bytes(sizes, skew=1.2, seed=11)
    if sum(skewed) != sum(sizes):
        failures.append(
            f"skew=1.2 lost bytes: {sum(sizes)} -> {sum(skewed)}"
        )
    return _result(name, failures)


#: The registry: relation name -> check callable.
RELATIONS: Mapping[str, Callable[[Scenario], RelationResult]] = {
    "permute-job-ids": _rel_permute_job_ids,
    "zero-rate-fault-plan": _rel_zero_rate_fault_plan,
    "add-idle-node": _rel_add_idle_node,
    "halve-block-size": _rel_halve_block_size,
    "double-frequency-pipeline": _rel_double_frequency_pipeline,
    "recorder-equivalence": _rel_recorder_equivalence,
    "swap-equal-classes": _rel_swap_equal_classes,
    "upgrade-node-class": _rel_upgrade_node_class,
    "skew-zero-uniform": _rel_skew_zero_uniform,
}


def get_relation(name: str) -> Callable[[Scenario], RelationResult]:
    """Look up a registered relation by name."""
    try:
        return RELATIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown relation {name!r}; registered: {', '.join(sorted(RELATIONS))}"
        ) from None


def check_relations(
    scenario: Scenario, names: Iterable[str] | None = None
) -> list[RelationResult]:
    """Run the named relations (default: all) against one scenario."""
    selected = list(RELATIONS) if names is None else list(names)
    return [get_relation(n)(scenario) for n in selected]
