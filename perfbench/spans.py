"""Spans around the public entry points of every aoa_auth module.

The spans are installed from outside the package: each entry point is
replaced by a timing wrapper in every namespace that holds it, and put back
afterwards, so the program's source is never edited.  A span records its
name, start, end, parent span and run id (the sweep it belongs to), plus the
work it did as counts taken from its arguments and result.  Spans stay in
memory until the benchmark run ends.

The names listed in ``entry_points`` are the layer boundaries the benchmark
reports; the first dotted component of a span name is its layer.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    run: int = 0
    counts: dict = field(default_factory=dict)


# Computed work of one ResponseGrid.costs_batch call on a (B x T) batch over a
# G-point grid.  Flops: the complex (B x T)(T x G) product at 8 real flops per
# multiply-add, then |.|^2 (3), the divide (1) and the subtraction (1) per
# output element.  Bytes: every array numpy materialises, counted once
# written and once read -- the conjugated (T x G) response copy, the inputs
# and the (B x G) complex product and its four real successors.
def _cost_work(args, kwargs, result):
    grid, ys = args[0], args[1]
    b, t = ys.shape
    g = len(grid.angles_deg)
    return {
        "cost_flop": 8 * b * t * g + 5 * b * g,
        "cost_bytes": 16 * b * t + 48 * t * g + 88 * b * g,
    }


def _frames(args, kwargs, result):
    return {"frames": len(args[1])}


def _train_work(args, kwargs, result):
    return {
        "train_samples": len(args[0]),
        "support_vectors": len(result.support_points),
        "degenerate_rho": int(result.degenerate_rho),
    }


def _decision_points(args, kwargs, result):
    return {"decision_points": int(getattr(args[1], "size", 1))}


def _csv_bytes(args, kwargs, result):
    return {"csv_bytes": os.path.getsize(args[0])}


def entry_points(aoa):
    """(span name, owner, attribute, count function) for every wrapped entry
    point; ``aoa`` is a namespace holding the imported aoa_auth modules."""
    return [
        ("cli.main", aoa.cli, "main", None),
        ("config.Scenario.from_file", aoa.config.Scenario, "from_file", None),
        ("config.Scenario.validate", aoa.config.Scenario, "validate", None),
        ("harness.run_auth_sweep", aoa.harness, "run_auth_sweep", None),
        ("harness.run_rmse_sweep", aoa.harness, "run_rmse_sweep", None),
        ("harness.write_manifest", aoa.harness, "write_manifest", None),
        ("harness.derive_trial_rng", aoa.harness, "derive_trial_rng", None),
        ("estimator.ResponseGrid.__init__", aoa.estimator.ResponseGrid, "__init__", None),
        ("estimator.ResponseGrid.estimate_batch", aoa.estimator.ResponseGrid, "estimate_batch", _frames),
        ("estimator.ResponseGrid.costs_batch", aoa.estimator.ResponseGrid, "costs_batch", _cost_work),
        ("ocsvm.train", aoa.ocsvm, "train", _train_work),
        ("ocsvm.OcsvmModel.decision", aoa.ocsvm.OcsvmModel, "decision", _decision_points),
        ("signal_model.ProbeSchedule.beam_gains", aoa.signal_model.ProbeSchedule, "beam_gains", None),
        ("signal_model.channel_amplitude", aoa.signal_model, "channel_amplitude", None),
        ("signal_model.noise_variance", aoa.signal_model, "noise_variance", None),
        ("signal_model.synthesize_observation", aoa.signal_model, "synthesize_observation", None),
        ("attacks.attack_pilots", aoa.attacks, "attack_pilots", None),
        ("metrics.ConfusionCounts.from_decisions", aoa.metrics.ConfusionCounts, "from_decisions", None),
        ("metrics.rmse", aoa.metrics, "rmse", None),
        ("metrics.write_metrics_csv", aoa.metrics, "write_metrics_csv", _csv_bytes),
    ]


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` bracket one
    traced sweep."""

    def __init__(self, aoa):
        self._aoa = aoa
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, name, 0.0, run=self.run)
            spans.append(span)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return wrapper

    def install(self, run: int) -> None:
        self.run = run
        modules = self._aoa.modules
        for name, owner, attr, count in entry_points(self._aoa):
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, count))
                else:
                    new = self._wrap(name, raw, count)
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            # a module-level function is also bound by name in every module
            # that imported it; replace each binding
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced sweep.

    A span's self time is its duration minus the part covered by its child
    spans.  ``refine_s``, ``self_s`` and a layer's plain ``.s`` are self times,
    so the layers' self times add up to the sweep; the other ``_s`` metrics
    are inclusive span time of the entry point they name.
    """
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    incl, self_t, calls, counts = defaultdict(float), defaultdict(float), Counter(), Counter()
    for s in spans:
        incl[s.name] += s.end - s.start
        self_t[s.name] += s.end - s.start - child[s.id]
        calls[s.name] += 1
        counts.update(s.counts)

    def layer(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix + "."))

    grid = "estimator.ResponseGrid."
    return {
        "estimator.grid_builds": calls[grid + "__init__"],
        "estimator.grid_build_s": incl[grid + "__init__"],
        "estimator.frames": counts["frames"],
        "estimator.batch_calls": calls[grid + "costs_batch"],
        "estimator.search_s": incl[grid + "estimate_batch"],
        "estimator.cost_s": incl[grid + "costs_batch"],
        "estimator.refine_s": self_t[grid + "estimate_batch"],
        "estimator.cost_gflop": counts["cost_flop"] / 1e9,
        "estimator.cost_gbytes": counts["cost_bytes"] / 1e9,
        "ocsvm.train_calls": calls["ocsvm.train"],
        "ocsvm.train_s": incl["ocsvm.train"],
        "ocsvm.train_samples": counts["train_samples"],
        "ocsvm.support_vectors": counts["support_vectors"],
        "ocsvm.degenerate_rho": counts["degenerate_rho"],
        "ocsvm.decision_points": counts["decision_points"],
        "ocsvm.decision_s": incl["ocsvm.OcsvmModel.decision"],
        "harness.streams": calls["harness.derive_trial_rng"],
        "harness.stream_s": incl["harness.derive_trial_rng"],
        "harness.self_s": layer("harness", self_t) - self_t["harness.derive_trial_rng"],
        "signal_model.calls": layer("signal_model", calls),
        "signal_model.s": layer("signal_model", self_t),
        "attacks.calls": layer("attacks", calls),
        "attacks.s": layer("attacks", self_t),
        "metrics.s": layer("metrics", self_t),
        "metrics.csv_bytes": counts["csv_bytes"],
        "config.s": layer("config", self_t),
        "cli.s": self_t["cli.main"],
    }


_UNITS = {
    "estimator.cost_gflop": "GFLOP_computed",
    "estimator.cost_gbytes": "GB_computed",
    "metrics.csv_bytes": "bytes",
    "trace_overhead": "ratio",
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric: names ending in ``_s`` or ``.s`` are
    seconds, the rest counts unless listed in ``_UNITS``."""
    if metric in _UNITS:
        return _UNITS[metric]
    return "s" if metric.endswith(("_s", ".s")) else "count"
