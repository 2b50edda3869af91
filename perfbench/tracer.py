"""Outside-in tracer: spans recorded around calls *into* each homoeoid layer.

Most callers bind a layer's functions into their own namespace
(``from .mc import derive_stream, rng_stream, mc_mean`` appears in seven
modules) or call them through a module alias (``geo.annulus_contains``), so
patching the defining module alone misses nearly every call.  :class:`Tracer`
therefore rebinds, in every *other* module's namespace:

* each public function of a traced layer to a span-recording wrapper;
* each module alias of a traced layer (``geo``) to a proxy module whose
  public functions are wrapped and whose other attributes are the originals.

Calls inside one module are left alone, because wrapping hot kernels such as
``defining_value`` inside ``geometry`` inflates the workload it measures.  The
exceptions are in ``HOME_PATCHED``: entry points whose callers sit in the
same module and which each run at least one Monte-Carlo estimate per call.
``maximal.Field.__call__``, the samplers that ``reference_shell_sampler``
returns and the ``sample_fn`` that ``mc_mean`` receives are wrapped as well.

Spans live in memory as parallel lists (name, start, end, parent) and assume
one thread: run traced passes with ``HOMOEOID_THREADS=1`` so that a span's
parent is the span below it on the single stack.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("geometry", "mc", "volumes", "multiplicity", "maximal", "knapp", "cli")

HOME_PATCHED = {
    "volumes": ("reference_shell_sampler", "intersection_volume"),
    "multiplicity": ("overlap_l2",),
    "maximal": ("annulus_average",),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(array) -> int:
    return int(np.prod(np.shape(array)[:-1]))


def _count_points(index, name):
    def probe(counts, args, kwargs, result):
        counts["points"] += _points(_arg(args, kwargs, index, name))

    return probe


def _count_samples(counts, args, kwargs, result):
    counts["samples"] += int(_arg(args, kwargs, 1, "n_samples"))


def _count_sampler_points(counts, args, kwargs, result):
    counts["points"] += int(_arg(args, kwargs, 1, "m"))


def _count_cluster(counts, args, kwargs, result):
    counts["accepted"] += result.accepted
    counts["requested"] += result.requested


def _count_drawn(counts, args, kwargs, result):
    counts["samples"] += result.n_samples


def _count_survivors(counts, args, kwargs, result):
    counts["survivors"] += int(np.sum(result.survivors))
    counts["drawn"] += len(result) * result.m


def _count_artifact_bytes(counts, args, kwargs, result):
    counts["bytes"] += sum(p.stat().st_size for p in Path(result).iterdir() if p.is_file())


PROBES = {
    "geometry.jacobian_gram_norm": _count_points(1, "omega"),
    "geometry.annulus_contains": _count_points(1, "points"),
    "mc.mc_mean": _count_samples,
    "volumes.shell_sample": _count_sampler_points,
    "volumes.low_jacobian_cluster": _count_cluster,
    "multiplicity.overlap_l2": _count_drawn,
    "maximal.field_eval": _count_points(1, "points"),
    "knapp.shell_partial_sums": _count_survivors,
    "cli.write_artifacts": _count_artifact_bytes,
}


class Tracer:
    """Span recorder that installs itself into the homoeoid namespaces.

    ``extra_modules`` are further caller namespaces to patch, such as the
    benchmark's own workload module.  ``install`` and ``remove`` must pair;
    ``remove`` restores every binding to the object it replaced.
    """

    def __init__(self, extra_modules=()):
        self._extra = tuple(extra_modules)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self._stack = [-1]
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        for seq in (self.span_name, self.span_start, self.span_end, self.span_parent):
            seq.clear()
        self.counts.clear()
        del self._stack[1:]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, *, probe=None, adapt_args=None, adapt_result=None):
        """``fn`` recording one span called ``name`` per call."""
        name_id = self._name_id(name)
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if adapt_args is not None:
                args = adapt_args(args)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None:
                probe(counts[name], args, kwargs, result)
            if adapt_result is not None:
                result = adapt_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark itself, e.g. one workload unit."""
        name_id = self._name_id(name)
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        try:
            yield
        finally:
            self.span_end[idx] = time.perf_counter()
            self._stack.pop()

    # -- installation --------------------------------------------------------

    def _layer_wrappers(self, layers):
        """Wrapper per public function of each layer, keyed by ``id(original)``."""
        wrappers = {}
        for layer_name, module in layers.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{layer_name}.{attr}"
                wrappers[id(obj)] = self.wrap(name, obj, **self._special(name))
        return wrappers

    def _special(self, name: str) -> dict:
        options = {"probe": PROBES.get(name)}
        if name == "mc.mc_mean":
            wrap_callback = lambda fn: self.wrap("mc.sample_fn", fn)
            options["adapt_args"] = lambda args: (wrap_callback(args[0]), *args[1:])
        elif name == "volumes.reference_shell_sampler":
            options["adapt_result"] = lambda sampler: self.wrap(
                "volumes.shell_sample", sampler, probe=PROBES["volumes.shell_sample"]
            )
        return options

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        layers = {name: sys.modules[f"homoeoid.{name}"] for name in LAYERS}
        wrappers = self._layer_wrappers(layers)
        proxies = {}
        for layer_name, module in layers.items():
            proxy = types.ModuleType(module.__name__, module.__doc__)
            proxy.__dict__.update(vars(module))
            for attr, obj in vars(module).items():
                if id(obj) in wrappers:
                    setattr(proxy, attr, wrappers[id(obj)])
            proxies[id(module)] = proxy

        targets = [m for key, m in sorted(sys.modules.items()) if key.startswith("homoeoid.")]
        for target in [*targets, *self._extra]:
            for attr, obj in list(vars(target).items()):
                if isinstance(obj, types.ModuleType):
                    if id(obj) in proxies and obj is not target:
                        self._patch(target, attr, proxies[id(obj)])
                elif id(obj) in wrappers and isinstance(obj, types.FunctionType):
                    home = obj.__module__ == target.__name__
                    layer = target.__name__.rpartition(".")[2]
                    if not home or attr in HOME_PATCHED.get(layer, ()):
                        self._patch(target, attr, wrappers[id(obj)])

        field = layers["maximal"].Field
        self._patch(
            field,
            "__call__",
            self.wrap("maximal.field_eval", field.__call__, probe=PROBES["maximal.field_eval"]),
        )

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------------

    def stats(self) -> "SpanStats":
        return SpanStats(self)

    def dump(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            **header,
            "names": self.names,
            "spans": {
                "name": self.span_name,
                "start": self.span_start,
                "end": self.span_end,
                "parent": self.span_parent,
            },
        }
        path.write_text(json.dumps(record, separators=(",", ":")) + "\n", encoding="utf-8")


class SpanStats:
    """Per-name totals of the recorded spans.

    ``busy`` sums span durations; ``self_time`` subtracts the time covered by
    direct children, which on a single stack never overlap.
    """

    def __init__(self, tracer: Tracer):
        name = np.asarray(tracer.span_name, dtype=np.int64)
        start = np.asarray(tracer.span_start)
        dur = np.asarray(tracer.span_end) - start
        parent = np.asarray(tracer.span_parent, dtype=np.int64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        size = len(tracer.names)
        self._ids = {n: i for i, n in enumerate(tracer.names)}
        self._calls = np.bincount(name, minlength=size)
        self._busy = np.bincount(name, weights=dur, minlength=size)
        self._self = np.bincount(name, weights=dur - child, minlength=size)
        self._counts = tracer.counts

    def calls(self, name: str) -> int:
        i = self._ids.get(name)
        return 0 if i is None else int(self._calls[i])

    def busy(self, name: str) -> float:
        i = self._ids.get(name)
        return 0.0 if i is None else float(self._busy[i])

    def self_time(self, name: str) -> float:
        i = self._ids.get(name)
        return 0.0 if i is None else float(self._self[i])

    def count(self, name: str, key: str) -> float:
        return float(self._counts.get(name, {}).get(key, 0))

    def ratio(self, name: str, num: str, den: str) -> float:
        d = self.count(name, den)
        return self.count(name, num) / d if d else 0.0

    def rate(self, name: str, key: str) -> float:
        """Count per second of busy time."""
        b = self.busy(name)
        return self.count(name, key) / b if b else 0.0

    def per_call(self, name: str, key: str) -> float:
        c = self.calls(name)
        return self.count(name, key) / c if c else 0.0


# name, unit, better, what it should move, value from the span statistics
LAYER_METRICS = (
    ("geometry.jacobian_gram_norm.points_per_s", "points/s", "higher",
     "wall_s on large-batch; never called in pair-scan",
     lambda s: s.rate("geometry.jacobian_gram_norm", "points")),
    ("geometry.jacobian_gram_norm.busy_s", "s", "lower", "wall_s on large-batch",
     lambda s: s.busy("geometry.jacobian_gram_norm")),
    ("geometry.annulus_contains.calls", "count", "lower", "wall_s on pair-scan",
     lambda s: s.calls("geometry.annulus_contains")),
    ("geometry.annulus_contains.points_per_call", "points/call", "higher",
     "wall_s on pair-scan; large-batch already makes 65k-point calls",
     lambda s: s.per_call("geometry.annulus_contains", "points")),
    ("geometry.annulus_contains.busy_s", "s", "lower", "wall_s on pair-scan",
     lambda s: s.busy("geometry.annulus_contains")),
    ("geometry.refinement_indicator.busy_s", "s", "lower", "wall_s on large-batch and pair-scan",
     lambda s: s.busy("geometry.refinement_indicator")),
    ("geometry.affine_map.calls", "count", "lower", "wall_s on pair-scan",
     lambda s: s.calls("geometry.affine_map")),
    ("mc.derive_stream.calls", "count", "lower", "wall_s on pair-scan",
     lambda s: s.calls("mc.derive_stream")),
    ("mc.derive_stream.busy_s", "s", "lower", "wall_s on pair-scan",
     lambda s: s.busy("mc.derive_stream")),
    ("mc.rng_stream.calls", "count", "lower", "wall_s on pair-scan",
     lambda s: s.calls("mc.rng_stream")),
    ("mc.rng_stream.busy_s", "s", "lower", "wall_s on pair-scan",
     lambda s: s.busy("mc.rng_stream")),
    ("mc.mc_mean.calls", "count", "lower", "wall_s on pair-scan",
     lambda s: s.calls("mc.mc_mean")),
    ("mc.mc_mean.samples", "count", "lower",
     "wall_s_2w on pair-scan and large-batch (chunk parallelism); must not change",
     lambda s: s.count("mc.mc_mean", "samples")),
    ("mc.mc_mean.self_s", "s", "lower",
     "wall_s on pair-scan; domination and divergence make one chunk per call, so "
     "wall_s_2w cannot help them",
     lambda s: s.self_time("mc.mc_mean")),
    ("volumes.shell_sample.calls", "count", "lower", "wall_s on pair-scan",
     lambda s: s.calls("volumes.shell_sample")),
    ("volumes.shell_sample.points_per_s", "points/s", "higher",
     "wall_s and peak_rss_mb on large-batch; little on pair-scan",
     lambda s: s.rate("volumes.shell_sample", "points")),
    ("volumes.low_jacobian_cluster.self_s", "s", "lower", "wall_s on large-batch",
     lambda s: s.self_time("volumes.low_jacobian_cluster")),
    ("volumes.low_jacobian_cluster.accept_ratio", "ratio", "higher",
     "nothing: accepted/requested must not change",
     lambda s: s.ratio("volumes.low_jacobian_cluster", "accepted", "requested")),
    ("volumes.intersection_volume.calls", "count", "lower", "wall_s on large-batch",
     lambda s: s.calls("volumes.intersection_volume")),
    ("volumes.intersection_volume.busy_s", "s", "lower", "wall_s and wall_s_2w on large-batch",
     lambda s: s.busy("volumes.intersection_volume")),
    ("multiplicity.overlap_l2.self_s", "s", "lower", "wall_s on pair-scan",
     lambda s: s.self_time("multiplicity.overlap_l2")),
    ("multiplicity.overlap_l2.busy_s", "s", "lower", "wall_s on pair-scan",
     lambda s: s.busy("multiplicity.overlap_l2")),
    ("multiplicity.overlap_l2.samples", "count", "lower", "wall_s on pair-scan",
     lambda s: s.count("multiplicity.overlap_l2", "samples")),
    ("multiplicity.direct_overlap_l2.busy_s", "s", "lower",
     "nothing under a pair-kernel change (the oracle stays independent); wall_s_2w on pair-scan",
     lambda s: s.busy("multiplicity.direct_overlap_l2")),
    ("maximal.field_eval.calls", "count", "lower", "wall_s on pair-scan",
     lambda s: s.calls("maximal.field_eval")),
    ("maximal.field_eval.points_per_s", "points/s", "higher",
     "wall_s on large-batch through l2-growth",
     lambda s: s.rate("maximal.field_eval", "points")),
    ("maximal.annulus_average.calls", "count", "lower", "wall_s on pair-scan",
     lambda s: s.calls("maximal.annulus_average")),
    ("maximal.annulus_average.busy_s", "s", "lower", "wall_s on pair-scan",
     lambda s: s.busy("maximal.annulus_average")),
    ("maximal.domination_check.busy_s", "s", "lower", "wall_s on pair-scan",
     lambda s: s.busy("maximal.domination_check")),
    ("maximal.l2_growth_scan.busy_s", "s", "lower", "wall_s on large-batch",
     lambda s: s.busy("maximal.l2_growth_scan")),
    ("knapp.shell_partial_sums.self_s", "s", "lower", "wall_s on pair-scan",
     lambda s: s.self_time("knapp.shell_partial_sums")),
    ("knapp.shell_partial_sums.survivor_ratio", "ratio", "higher",
     "nothing: survivors / (L*m) must not change",
     lambda s: s.ratio("knapp.shell_partial_sums", "survivors", "drawn")),
    ("cli.run_experiment.busy_s", "s", "lower", "wall_s on every workload",
     lambda s: s.busy("cli.run_experiment")),
    ("cli.write_artifacts.busy_s", "s", "lower", "wall_s on every workload",
     lambda s: s.busy("cli.write_artifacts")),
    ("cli.write_artifacts.bytes", "B", "lower", "nothing: artifact size must not change",
     lambda s: s.count("cli.write_artifacts", "bytes")),
)

OVERHEAD_METRIC = ("trace.overhead_s", "s", "lower",
                   "nothing: traced minus untraced wall_s, says how far to trust self times")


def layer_metrics(stats: SpanStats) -> dict[str, float]:
    return {name: float(fn(stats)) for name, _unit, _better, _moves, fn in LAYER_METRICS}


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
