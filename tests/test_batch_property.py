"""Property-based guarantees of the SoA batch layer.

Three properties, each over many generated cases (hypothesis when
available, seeded ``parametrize`` fallback otherwise, matching
``test_invariants_property.py``):

* ``ScenarioBatch`` pack → unpack is the identity on any scenario mix
  the fuzzer can generate (including fault plans and recorder modes);
* a batch of one ``ProfileSoA`` lane through the array cost kernel is
  *bit-identical* to the scalar kernel — same floats, not just close
  ones;
* a ``ProfileSoA`` lane grid reproduces the ``AppProfile`` grid sweep
  exactly (solo and pair), and a scenario solved alone equals its
  outcome inside a mixed batch bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.batch import ProfileSoA, ScenarioBatch, evaluate_scenarios
from repro.conformance.fuzzer import generate_scenario
from repro.hardware.node import ATOM_C2758
from repro.model.config import config_grid, pair_config_grid
from repro.model.costmodel import (
    pair_metrics,
    standalone_metrics,
    standalone_metrics_scalar,
)
from repro.model.sweep import sweep_pair, sweep_solo
from repro.utils.units import GHZ, MB
from repro.workloads.base import AppInstance
from repro.workloads.registry import ALL_APPS, get_app

try:
    from hypothesis import given
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on bare boxes only
    HAVE_HYPOTHESIS = False

pytestmark = pytest.mark.batch

_FREQUENCIES = (1.2 * GHZ, 1.6 * GHZ, 2.0 * GHZ, 2.4 * GHZ)
_BLOCKS = (64 * MB, 128 * MB, 256 * MB, 512 * MB)


def seeded_cases(n: int):
    """Hypothesis integers when available, seeded parametrize otherwise."""

    def deco(fn):
        if HAVE_HYPOTHESIS:
            return given(case_seed=st.integers(min_value=0, max_value=2**31 - 1))(fn)
        return pytest.mark.parametrize("case_seed", range(n))(fn)

    return deco


def _lane(value) -> float:
    """First lane of a (1,)-or-scalar kernel output, as a float."""
    return float(np.asarray(value).reshape(-1)[0])


# ---------------------------------------------------- pack round-trip
@seeded_cases(40)
def test_pack_unpack_identity(case_seed):
    scenario = generate_scenario(random.Random(f"pack:{case_seed}"))
    batch = ScenarioBatch.from_scenarios([scenario])
    [restored] = batch.scenarios()
    assert restored.n_nodes == scenario.n_nodes
    assert restored.jobs == scenario.jobs
    assert restored.recorder == scenario.recorder
    assert restored.fault_events == scenario.fault_events


@seeded_cases(20)
def test_pack_unpack_identity_mixed_widths(case_seed):
    rng = random.Random(f"mix:{case_seed}")
    scenarios = [
        generate_scenario(random.Random(f"mix:{case_seed}:{i}"))
        for i in range(rng.randint(2, 6))
    ]
    batch = ScenarioBatch.from_scenarios(scenarios)
    assert batch.width == max(len(s.jobs) for s in scenarios)
    for original, restored in zip(scenarios, batch.scenarios()):
        assert restored == original or (
            restored.n_nodes == original.n_nodes
            and restored.jobs == original.jobs
            and restored.fault_events == original.fault_events
        )


# ------------------------------------------- kernel batch-of-1 parity
@seeded_cases(40)
def test_soa_kernel_batch_of_one_is_bit_identical_to_scalar(case_seed):
    rng = random.Random(f"kernel:{case_seed}")
    profile = get_app(rng.choice(ALL_APPS)).profile
    data = float(rng.randint(1, 10_000)) * MB
    freq = rng.choice(_FREQUENCIES)
    block = rng.choice(_BLOCKS)
    mappers = float(rng.randint(1, ATOM_C2758.n_cores))
    mpki_scale = rng.uniform(1.0, 3.0)
    disk_scale = rng.uniform(1.0, 2.0)
    extra = float(rng.randint(0, 4))

    want = standalone_metrics_scalar(
        profile, data, freq, block, mappers,
        mpki_scale=mpki_scale, disk_traffic_scale=disk_scale,
        extra_streams=extra,
    )
    got = standalone_metrics(
        ProfileSoA.from_profiles([profile]),
        np.array([data]), np.array([freq]), np.array([block]),
        np.array([mappers]),
        mpki_scale=np.array([mpki_scale]),
        disk_traffic_scale=np.array([disk_scale]),
        extra_streams=np.array([extra]),
    )
    for f in dataclasses.fields(want):
        assert _lane(getattr(got, f.name)) == getattr(want, f.name), (
            f"kernel field {f.name} not bit-identical"
        )


# ------------------------------------------- lane grids and batch mixes
def _assert_fields_identical(x, y, path=""):
    """Every field equal bit for bit on every lane.

    Fields that depend on the profile and data size alone are 0-d on
    the ``AppProfile`` grid and per-lane on the ``ProfileSoA`` one, so
    values compare after broadcasting.
    """
    for f in dataclasses.fields(x):
        xa, ya = getattr(x, f.name), getattr(y, f.name)
        if dataclasses.is_dataclass(xa):
            _assert_fields_identical(xa, ya, path + f.name + ".")
            continue
        xa, ya = np.asarray(xa), np.asarray(ya)
        assert xa.dtype == ya.dtype, path + f.name
        assert bool(np.all(xa == ya)), f"grid field {path + f.name} diverged"


@seeded_cases(15)
def test_profile_soa_lane_grid_matches_app_profile_grid(case_seed):
    rng = random.Random(f"sweep:{case_seed}")
    inst_a, inst_b = (
        AppInstance(
            get_app(rng.choice(ALL_APPS)),
            float(rng.randint(1, 8)) * 1024 * MB,
        )
        for _ in range(2)
    )

    f, b, m = config_grid(ATOM_C2758)
    lanes = np.zeros(len(f), dtype=np.intp)
    soa_a = ProfileSoA.from_profiles([inst_a.profile]).take(lanes)
    solo = standalone_metrics(soa_a, inst_a.data_bytes, f, b, m)
    _assert_fields_identical(sweep_solo(inst_a).metrics, solo)

    f1, b1, m1, f2, b2, m2 = pair_config_grid(ATOM_C2758)
    lanes = np.zeros(len(f1), dtype=np.intp)
    pa = ProfileSoA.from_profiles([inst_a.profile]).take(lanes)
    pb = ProfileSoA.from_profiles([inst_b.profile]).take(lanes)
    pair = pair_metrics(
        pa, inst_a.data_bytes, f1, b1, m1, pb, inst_b.data_bytes, f2, b2, m2
    )
    _assert_fields_identical(sweep_pair(inst_a, inst_b).metrics, pair)


@seeded_cases(30)
def test_batch_of_one_is_bit_identical_to_mixed_batch(case_seed):
    rng = random.Random(f"backend:{case_seed}")
    scenarios = [
        generate_scenario(random.Random(f"backend:{case_seed}:{i}"))
        for i in range(rng.randint(2, 6))
    ]
    whole = evaluate_scenarios(scenarios, backend="batch")
    for scenario, w in zip(scenarios, whole):
        [alone] = evaluate_scenarios([scenario], backend="batch")
        assert alone == w, scenario.to_source()
