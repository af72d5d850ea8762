"""In-memory spans around calls into the layers of ``bnre``.

The program is not edited: :func:`tracing` replaces the names a module
calls through (``bnre.harness.train``, ``ClassifierNet.logits``, ...) with
wrappers that record a span (name, start, end, parent) and restores them on
exit. A layer's self time is its span minus the spans recorded directly
under it. :func:`per_layer` turns the spans of one or more operations into
the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field

import bnre.autodiff
import bnre.harness
import bnre.nets
import bnre.simulators
import bnre.training


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Recorder:
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else -1)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].children_s += span.end - span.start
            if on_result is not None:
                on_result(self, args, return_value)
            return return_value

        return traced

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value


def _count_regenerated(rec: Recorder, args, dataset) -> None:
    rec.count("simulators.regenerated", dataset.failures)


def _count_dataset_bytes(rec: Recorder, args, _) -> None:
    rec.count("simulators.dataset_bytes", os.path.getsize(args[1]))


# (owner, attribute, span name, result hook): every name through which the
# workloads reach a layer function, in the namespace the caller resolves it
_TARGETS = (
    (bnre.harness, "run_experiment", "harness.run_experiment", None),
    (bnre.harness, "evaluate_net", "harness.evaluate_net", None),
    (bnre.harness, "_write_outputs", "harness.write_tables", None),
    (bnre.harness, "_curve_to_csv", "harness.write_curve", None),
    (bnre.training.TrainHistory, "to_csv", "harness.write_history", None),
    (bnre.harness, "save_weights", "nets.save_weights", None),
    (bnre.harness, "generate_dataset", "simulators.generate_dataset", _count_regenerated),
    (bnre.simulators, "generate_dataset", "simulators.generate_dataset", _count_regenerated),
    (bnre.harness, "save_dataset", "simulators.save_dataset", _count_dataset_bytes),
    (bnre.simulators, "save_dataset", "simulators.save_dataset", _count_dataset_bytes),
    (bnre.harness, "load_dataset", "simulators.load_dataset", None),
    (bnre.simulators, "load_dataset", "simulators.load_dataset", None),
    (bnre.simulators, "draw_joint_sample", "simulators.draw", None),
    (bnre.simulators, "gillespie_run", "simulators.gillespie_run", None),
    (bnre.simulators, "substream", "rng.substream", None),
    (bnre.harness, "substream", "rng.substream", None),
    (bnre.harness, "train", "training.train", None),
    (bnre.training, "forward_on_tape", "nets.forward_on_tape", None),
    (bnre.training, "bnre_loss_var", "training.bnre_loss_var", None),
    (bnre.training, "bnre_loss", "training.bnre_loss", None),
    (bnre.training, "balance_statistic", "training.balance_statistic", None),
    (bnre.autodiff, "backward", "autodiff.backward", None),
    (bnre.training, "adam_step", "nets.adam_step", None),
    (bnre.nets.ClassifierNet, "logits", "nets.logits", None),
    (bnre.harness, "posterior_grid", "ratio.posterior_grid", None),
    (bnre.harness, "coverage_indicators", "diagnostics.coverage_indicators", None),
)


@contextlib.contextmanager
def tracing(recorder: Recorder):
    """Route the layer calls through ``recorder`` for the duration of the block."""
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in _TARGETS]
    try:
        for owner, attr, name, hook in _TARGETS:
            setattr(owner, attr, recorder.wrap(name, owner.__dict__[attr], hook))
        yield recorder
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def per_layer(recorders: list[Recorder], import_s: float, overhead_s: float,
              artifact_bytes: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics averaged over the traced operations.

    ``*_s`` totals are per operation, ``*_calls`` and counts per operation,
    ``*_ms`` and ``*_us`` per call; the training step metrics are per step.
    """
    n_ops = len(recorders)
    spans = [(s, rec.spans[s.parent].name if s.parent >= 0 else "")
             for rec in recorders for s in rec.spans]

    def select(name, parent=None):
        return [s for s, p in spans if s.name == name and parent in (None, p)]

    def total(name, parent=None):
        return sum(s.duration for s in select(name, parent))

    def per_call(name, scale, parent=None):
        chosen = select(name, parent)
        return sum(s.duration for s in chosen) * scale / len(chosen) if chosen else 0.0

    def counter(name):
        return sum(rec.counters.get(name, 0.0) for rec in recorders) / n_ops

    steps = len(select("nets.adam_step", "training.train"))
    epochs = len(select("training.bnre_loss", "training.train"))
    validation = sum(total(n, "training.train") for n in
                     ("nets.logits", "training.bnre_loss", "training.balance_statistic"))
    train = total("training.train")
    grid_calls = len(select("ratio.posterior_grid"))
    persist = sum(total(n) for n in ("nets.save_weights", "harness.write_history",
                                     "harness.write_curve", "harness.write_tables"))

    def per_step(name):
        return total(name, "training.train") * 1e3 / steps if steps else 0.0

    return {
        "training.train_s": (train / n_ops, "s"),
        "training.steps": (steps / n_ops, "count"),
        "training.step_ms": ((train - validation) * 1e3 / steps if steps else 0.0, "ms"),
        "training.validation_ms_per_epoch": (validation * 1e3 / epochs if epochs else 0.0, "ms"),
        "nets.forward_on_tape_ms": (per_step("nets.forward_on_tape"), "ms"),
        "training.bnre_loss_var_ms": (per_step("training.bnre_loss_var"), "ms"),
        "autodiff.backward_ms": (per_step("autodiff.backward"), "ms"),
        "nets.adam_step_ms": (per_step("nets.adam_step"), "ms"),
        "ratio.posterior_grid_calls": (grid_calls / n_ops, "count"),
        "ratio.posterior_grid_ms": (per_call("ratio.posterior_grid", 1e3), "ms"),
        "nets.logits_grid_ms": (total("nets.logits", "ratio.posterior_grid") * 1e3 / grid_calls
                                if grid_calls else 0.0, "ms"),
        "diagnostics.coverage_indicators_us": (per_call("diagnostics.coverage_indicators", 1e6), "us"),
        "harness.evaluate_net_s": (total("harness.evaluate_net") / n_ops, "s"),
        "harness.evaluate_net_self_s": (sum(s.self_s for s in select("harness.evaluate_net")) / n_ops, "s"),
        "simulators.generate_dataset_s": (total("simulators.generate_dataset") / n_ops, "s"),
        "simulators.draw_ms": (per_call("simulators.draw", 1e3), "ms"),
        "simulators.gillespie_run_calls": (len(select("simulators.gillespie_run")) / n_ops, "count"),
        "simulators.gillespie_run_ms": (per_call("simulators.gillespie_run", 1e3), "ms"),
        "simulators.regenerated": (counter("simulators.regenerated"), "count"),
        "rng.substream_calls": (len(select("rng.substream")) / n_ops, "count"),
        "rng.substream_us": (per_call("rng.substream", 1e6), "us"),
        "simulators.save_dataset_ms": (per_call("simulators.save_dataset", 1e3), "ms"),
        "simulators.load_dataset_ms": (per_call("simulators.load_dataset", 1e3), "ms"),
        "simulators.dataset_bytes": (counter("simulators.dataset_bytes"), "bytes"),
        "nets.save_weights_ms": (per_call("nets.save_weights", 1e3), "ms"),
        "harness.persist_ms": (persist * 1e3 / n_ops, "ms"),
        "harness.artifact_bytes": (artifact_bytes, "bytes"),
        "harness.run_experiment_self_s": (sum(s.self_s for s in select("harness.run_experiment")) / n_ops, "s"),
        "setup.import_s": (import_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
