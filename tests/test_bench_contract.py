"""The benchmark tracer in perfbench/spans.py wraps layer functions by name.

It looks each target up through ``owner.__dict__``, counts training steps
and epochs from the spans of ``adam_step`` and ``bnre_loss`` under ``train``,
and times the grid forward as the ``logits`` spans under ``posterior_grid``.
A refactor that renames, moves or stops calling one of those names would
break every traced benchmark run; these tests catch it first.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

import bnre.harness
from bnre.nets import ClassifierNet
from bnre.simulators import generate_dataset, get_benchmark
from bnre.training import TrainConfig

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    name = "perfbench_spans"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, SPANS_PATH)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses resolve their module by name
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_every_traced_name_resolves_in_its_owner():
    spans = _load_spans()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in spans._TARGETS if attr not in owner.__dict__]
    assert not missing


def test_traced_training_counts_steps_and_epochs():
    spans = _load_spans()
    benchmark = get_benchmark("tractable1d")
    dataset = generate_dataset(benchmark, 256, seed=0)
    config = TrainConfig(epochs=2, batch_size=32, hidden_units=8, seed=0)
    recorder = spans.Recorder()
    with spans.tracing(recorder):
        bnre.harness.train(benchmark, dataset, config)  # the name the harness calls
    n_train = len(dataset) - round(config.validation_fraction * len(dataset))
    steps = config.epochs * math.ceil(n_train / (config.batch_size // 2))
    metrics = spans.per_layer([recorder], 0.0, 0.0, 0.0)
    assert metrics["training.steps"][0] == steps
    assert metrics["training.step_ms"][0] > 0.0
    assert metrics["training.validation_ms_per_epoch"][0] > 0.0


def test_traced_evaluation_times_one_grid_forward_per_test_pair():
    spans = _load_spans()
    benchmark = get_benchmark("mg1")
    test_set = generate_dataset(benchmark, 3, seed=0, namespace="test")
    net = ClassifierNet.initialize(benchmark.classifier_input_dim(), 2, 8,
                                   np.random.default_rng(0))
    recorder = spans.Recorder()
    with spans.tracing(recorder):
        bnre.harness.evaluate_net(net, benchmark, test_set)  # the name execute_run calls
    grids = [i for i, s in enumerate(recorder.spans) if s.name == "ratio.posterior_grid"]
    assert len(grids) == len(test_set)
    for i in grids:
        children = [s.name for s in recorder.spans if s.parent == i]
        assert children == ["nets.logits"]
    metrics = spans.per_layer([recorder], 0.0, 0.0, 0.0)
    assert metrics["ratio.posterior_grid_calls"][0] == len(test_set)
    assert metrics["nets.logits_grid_ms"][0] > 0.0
