"""The benchmark in perfbench/ traces library callables by name. These tests
fail when a rename or a new call path in the library would leave one of
those names pointing at nothing, or at code that training no longer runs.
"""

import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

from unicom import training
from unicom.data import SyntheticSpec, synth_conflict_dataset
from unicom.losses import LossConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import layers  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("target", layers.TARGETS, ids=lambda t: t.name)
def test_every_target_resolves_to_a_callable(target):
    # `owner` is "module" or "module:Class".
    module_name, _, class_name = target.owner.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    assert callable(getattr(owner, target.attr, None))


def traced_train_spans(r3):
    data, _ = synth_conflict_dataset(SyntheticSpec(true_classes=4, per_class=6, dim=8, seed=0))
    cfg = training.TrainConfig(epochs=1, batch_size=8, loss=LossConfig(r1=0.5, r2=0.5, r3=r3))
    recorder = spans.Recorder()
    with recorder.install(layers.TARGETS):
        result = training.train(data, cfg)
    return result.steps, Counter(span.name for span in recorder.spans)


def test_selection_step_is_traced():
    steps, counts = traced_train_spans(r3=None)
    assert steps == 3
    assert counts["losses.make_selection_plan"] == steps
    assert counts["losses.selection_backward"] == steps


def test_dropout_step_is_traced():
    steps, counts = traced_train_spans(r3=0.3)
    assert steps == 3
    assert counts["losses.make_selection_plan"] == steps
    assert counts["losses.selection_backward"] == steps
