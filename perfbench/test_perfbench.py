"""Tests of the benchmark's own code: span arithmetic, patching, metric names.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import json
import sys
import types

import layers
import run
from spans import Recorder, Span, Target, patched, self_times


def _span(name, start, end, parent):
    return Span(name, start, end, parent, run_id=0)


def test_self_time_with_nested_and_back_to_back_children():
    spans = [
        _span("pass", 0, 100, None),
        _span("a", 10, 30, 0),
        _span("b", 30, 50, 0),  # starts where a ends
        _span("a.inner", 12, 20, 1),  # nested in a: counted against a only
        _span("c", 70, 80, 0),
    ]
    assert self_times(spans) == [100 - 20 - 20 - 10, 20 - 8, 20, 8, 10]


def test_self_time_clips_children_and_counts_overlap_once():
    spans = [
        _span("parent", 0, 100, None),
        _span("x", 10, 40, 0),
        _span("y", 30, 50, 0),  # overlaps x by 10
        _span("z", 90, 120, 0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == 100 - 40 - 10


def test_recorder_wraps_every_lookup_site_and_restores_them():
    def leaf(x):
        return x + 1

    def outer(x):
        return caller.leaf_alias(x) * 2

    home = types.ModuleType("unicom._perfbench_home")
    caller = types.ModuleType("unicom._perfbench_caller")
    home.leaf, home.outer = leaf, outer
    caller.leaf_alias = leaf
    sys.modules[home.__name__] = home
    sys.modules[caller.__name__] = caller
    try:
        recorder = Recorder()
        targets = [
            Target(home.__name__, "outer", "outer"),
            Target(home.__name__, "leaf", "leaf", note=lambda a, k, r: {"arg": a[0]}),
        ]
        with recorder.install(targets), recorder.span("pass"):
            assert home.outer(1) == 4
        assert home.leaf is leaf and caller.leaf_alias is leaf and home.outer is outer
        names = [(s.name, s.parent) for s in recorder.spans]
        assert names == [("pass", None), ("outer", 0), ("leaf", 1)]
        assert recorder.spans[2].notes == {"arg": 1}
        assert all(s.end >= s.start for s in recorder.spans)
    finally:
        del sys.modules[home.__name__], sys.modules[caller.__name__]


def test_patched_restores_after_an_exception():
    home = types.ModuleType("unicom._perfbench_raise")
    home.f = lambda: 1
    original = home.f
    sys.modules[home.__name__] = home
    try:
        try:
            with patched(home.__name__, "f", lambda fn: lambda: 2):
                assert home.f() == 2
                raise RuntimeError
        except RuntimeError:
            pass
        assert home.f is original
    finally:
        del sys.modules[home.__name__]


def test_benchmark_json_lists_the_workloads_and_metrics_run_py_reports():
    run.import_library()
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    traced = list(layers.summarize([], [])) + ["trace.pipeline_s", "trace.overhead_s"]
    assert traced == [name for name, _, _ in layers.PER_LAYER]
