"""Outside-in span tracing for the benchmark's traced run.

The benchmark never edits the program: :class:`Tracer` wraps the public
entry points of each layer (functions, methods, constructors) for the
duration of one traced episode and restores every original afterwards.
A span records its name, start, end, parent span, the request whose job
it works on, and the client call (ack) in progress when it opened; spans
stay in memory and are written out once, when the benchmark ends.

Span names are ``<layer>.<entry>``; a layer's *self time* is the time
its spans cover minus the time their child spans cover, so the layer
self times plus ``other_s`` (wall time no span covers) add up to the
episode's wall time.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("service", "core", "ml", "mapreduce", "model", "batch", "online")

# Span record fields (a list per span, mutated in place on exit).
_NAME, _START, _END, _PARENT, _REQ, _ACK, _NESTED = range(7)


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open = Counter()
        #: Index of the client's ``submit_request`` call in progress.
        self.ack: int | None = None
        #: ``id(obj) -> (obj, request)`` for the job instances and STP
        #: descriptors of each request (the object is kept so that a
        #: reused ``id`` cannot match).
        self._jobs: dict[int, tuple[object, int]] = {}
        #: Work counts recorded at the wrapped boundaries.
        self.counts: Counter = Counter()
        self.pending_peak = 0
        #: Engines constructed while tracing (their telemetry is read
        #: at the end of the episode).
        self.engines: list = []
        self._patches: list[tuple[object, str, object]] = []

    # --------------------------------------------------------- requests
    def bind(self, obj, request) -> None:
        """Mark ``obj`` (a job instance or descriptor) as ``request``'s."""
        if request is not None:
            self._jobs[id(obj)] = (obj, request)

    def request_of(self, obj):
        entry = self._jobs.get(id(obj))
        return entry[1] if entry is not None and entry[0] is obj else None

    # ------------------------------------------------------------ spans
    def wrap(self, name: str, fn, note=None, before=None, who=None, whose=None):
        """``fn`` recorded as span ``name``; ``before(args)`` and
        ``note(args, result)`` may record work counts around each call.

        The span's request is ``who(args)`` when given, else
        ``whose(result)`` once the call returns, else its parent's."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, open_names = self.spans, self._stack, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1] if stack else -1
            if who is not None:
                request = who(args)
            else:
                request = spans[parent][_REQ] if parent >= 0 else None
            rec = [nid, 0.0, 0.0, parent, request, self.ack, open_names[nid] > 0]
            stack.append(len(spans))
            spans.append(rec)
            open_names[nid] += 1
            rec[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                open_names[nid] -= 1
                stack.pop()
            if whose is not None:
                rec[_REQ] = whose(result)
            if note is not None:
                note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def note_pending(self, cluster) -> None:
        n = len(cluster.pending)
        if n > self.pending_peak:
            self.pending_peak = n

    # ---------------------------------------------------------- patches
    def patch(self, owner, attr: str, name: str, note=None, before=None,
              who=None, whose=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`unpatch`."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, note, before, who, whose))
        else:
            new = self.wrap(name, raw, note, before, who, whose)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def observe(self, owner, attr: str, note) -> None:
        """Call ``note(args, result)`` after each ``owner.attr`` call,
        without a span, until :meth:`unpatch`."""
        raw = owner.__dict__[attr]

        def observed(*args, **kwargs):
            result = raw(*args, **kwargs)
            note(args, result)
            return result

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, observed)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def install(self) -> None:
        """Wrap every layer's public entry points (see README.md)."""
        import repro.core.controller as controller
        import repro.mapreduce.engine as engine
        import repro.service.core as service_core
        from repro.batch.pack import ScenarioBatch
        from repro.core.pairing import PairingPolicy
        from repro.core.wait_queue import WaitQueue
        from repro.ml.reptree import REPTree
        from repro.model import sweep
        from repro.online.shadow import PairScorer
        from repro.online.stp import OnlineSTP
        from repro.service.admission import AdmissionController
        from repro.service.requests import JobRequest

        counts = self.counts
        ECoST = controller.ECoSTController
        request_of = self.request_of
        cluster_wide = lambda args: None  # noqa: E731  (no one request's)
        try:
            # Request ids: the job a request builds is that request's, and
            # so is every STP descriptor the controller derives from it.
            self.observe(JobRequest, "build_spec",
                         lambda args, spec: self.bind(spec.instance, self.ack))
            self.observe(ECoST, "_descriptor", lambda args, d: self.bind(
                d, request_of(args[1].instance)))
            self.observe(ECoST, "_running_descriptor", lambda args, d: d and self.bind(
                d, request_of(args[1].running[0].spec.instance)))

            # service: the request edge (spans inherit the ack's request).
            self.patch(service_core, "parse_request", "service.parse")
            self.patch(AdmissionController, "decide", "service.admit")

            # core: controller callback, STP predict, pairing, profiling.
            self.patch(ECoST, "_schedule", "core.schedule",
                       before=lambda args: self.note_pending(args[1]),
                       who=cluster_wide)

            def pair_requests(args):
                a, b = request_of(args[1]), request_of(args[2])
                if a is None or b is None or a == b:
                    return b if a is None else a
                return (a, b)

            for module in _stp_modules():
                for cls in vars(module).values():
                    if (isinstance(cls, type) and cls.__module__ == module.__name__
                            and "predict_configs" in cls.__dict__):
                        self.patch(cls, "predict_configs", "core.predict",
                                   who=pair_requests)

            def chosen(qa):
                return None if qa is None else request_of(qa.instance)

            self.patch(WaitQueue, "select", "core.pair", whose=chosen)
            self.patch(PairingPolicy, "choose_partner", "core.pair", whose=chosen)
            self.patch(controller, "profile_features", "core.profile",
                       who=lambda args: request_of(args[0]))

            # ml: the regression tree behind the STP.
            def on_predict(args, _result):
                counts["ml.predict_rows"] += len(args[1])

            def on_fit(args, _result):
                counts["ml.fit_rows"] += len(args[2])

            self.patch(REPTree, "predict", "ml.predict", on_predict)
            self.patch(REPTree, "fit", "ml.fit", on_fit)

            # mapreduce: engine entry points, placement, recorder.
            engines = self.engines
            original_init = engine.ClusterEngine.__init__

            def engine_init(obj, *args, **kwargs):
                original_init(obj, *args, **kwargs)
                engines.append(obj)

            self._patches.append((engine.ClusterEngine, "__init__", original_init))
            engine.ClusterEngine.__init__ = engine_init
            for entry in ("submit", "advance_until", "inject_arrival", "wake_now",
                          "drain_events", "run"):
                self.patch(engine.ClusterEngine, entry, "mapreduce.run",
                           who=cluster_wide)

            def on_cluster(args):
                self.note_pending(args[0])

            self.patch(engine.ClusterEngine, "place", "mapreduce.place",
                       before=on_cluster,
                       who=lambda args: request_of(args[1].instance))
            self.patch(engine.ClusterEngine, "first_fit_node",
                       "mapreduce.first_fit", before=on_cluster)
            make_recorder = engine.make_recorder

            def traced_recorder(mode):
                rec = make_recorder(mode)
                rec.record = self.wrap("mapreduce.recorder", rec.record)
                return rec

            self._patches.append((engine, "make_recorder", make_recorder))
            engine.make_recorder = traced_recorder

            # model: the scalar cost kernel as the engine calls it, and
            # the grid sweeps wherever they were imported by name.
            for fn in ("colocation_context_scalar", "standalone_metrics_scalar"):
                self.patch(engine, fn, "model.kernel")
            for fn in ("sweep_pair", "sweep_solo"):
                original = getattr(sweep, fn)
                for module in list(sys.modules.values()):
                    if (getattr(module, "__name__", "").startswith("repro.")
                            and getattr(module, fn, None) is original):
                        self.patch(module, fn, "model.sweep")

            # batch: SoA packing (solve time is the evaluate span's self time).
            def on_pack(args, _result):
                counts["batch.kernel_calls"] += 1
                counts["batch.lanes"] += len(args[1])

            self.patch(ScenarioBatch, "from_scenarios", "batch.pack", on_pack)

            # online: refits, incremental updates, shadow scoring.
            self.patch(OnlineSTP, "refit", "online.refit")
            self.patch(OnlineSTP, "partial_fit", "online.partial_fit")
            self.patch(PairScorer, "score", "online.score")
        except BaseException:
            self.unpatch()
            raise

    # ------------------------------------------------------- aggregation
    def summarize(self, wall_s: float) -> dict[str, float]:
        """Per span name: ``<name>_s`` (inclusive, outermost spans only),
        ``<name>_self_s`` and ``<name>_calls``; per layer ``<layer>.self_s``;
        and ``other_s``, the wall time no root span covers."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[_PARENT] >= 0:
                child[rec[_PARENT]] += rec[_END] - rec[_START]
        incl: Counter = Counter()
        calls: Counter = Counter()
        self_s: Counter = Counter()
        covered = 0.0
        names = self.names
        for i, rec in enumerate(spans):
            name = names[rec[_NAME]]
            dur = rec[_END] - rec[_START]
            self_s[name] += dur - child[i]
            if not rec[_NESTED]:
                incl[name] += dur
                calls[name] += 1
            if rec[_PARENT] < 0:
                covered += dur
        out = {f"{n}_s": incl[n] for n in names}
        out.update({f"{n}_self_s": self_s[n] for n in names})
        out.update({f"{n}_calls": calls[n] for n in names})
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for n, v in self_s.items() if n.partition(".")[0] == layer
            )
        out["other_s"] = wall_s - covered
        return out

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span once (gzip JSON; times in µs from the first)."""
        t0 = self.spans[0][_START] if self.spans else 0.0
        payload = {
            **meta,
            "fields": ["name", "start_us", "end_us", "parent", "request", "ack"],
            "spans": [
                [self.names[r[_NAME]], round((r[_START] - t0) * 1e6, 3),
                 round((r[_END] - t0) * 1e6, 3), r[_PARENT], r[_REQ], r[_ACK]]
                for r in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _stp_modules():
    import repro.core.stp
    import repro.online.shadow
    import repro.online.stp

    return (repro.core.stp, repro.online.stp, repro.online.shadow)
