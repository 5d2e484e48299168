"""The benchmark's traced run wraps named program entry points.

``perfbench/spans.py`` patches functions, methods and constructors by
name for one traced episode and restores them afterwards.  Renaming or
deleting one of those names breaks the benchmark, not the program, so
this test installs the tracer in tier-1: a missing name fails here, and
every patched attribute must come back exactly as it was.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_install_wraps_named_hooks_and_unpatch_restores_them():
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        patches = list(tracer._patches)
        wrapped = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in patches}
        for hook in [
            ("repro.mapreduce.engine", "standalone_metrics_scalar"),
            ("repro.mapreduce.engine", "colocation_context_scalar"),
            ("repro.mapreduce.engine", "make_recorder"),
            ("repro.model.sweep", "sweep_pair"),
            ("repro.model.sweep", "sweep_solo"),
            ("ScenarioBatch", "from_scenarios"),
            ("ClusterEngine", "first_fit_node"),
        ]:
            assert hook in wrapped, f"benchmark hook {hook} no longer wrapped"
        for owner, attr, raw in patches:
            assert _current(owner, attr) is not raw, (owner, attr)
    finally:
        tracer.unpatch()
    assert not tracer._patches
    for owner, attr, raw in patches:
        assert _current(owner, attr) is raw, f"{owner!r}.{attr} not restored"
