"""Unit tests of the benchmark's own helpers.

    python3 -m pytest bench/test_bench.py -q
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from report import Tally, percentile, self_time, tail, union_length, valid_metric_name
from tracing import WRAPPED, Span, Tracer, count_nodes, layer_metrics
from workloads import REFERENCE_S, HostSpeed

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "name", ["setup_s", "autodiff.nodes_per_step", "walks.pwp_loss.self_ms_per_step", "0-b", "a" * 64]
)
def test_valid_metric_names(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "ms/step", "naïve", "a" * 65, "x\n"])
def test_invalid_metric_names(name):
    assert not valid_metric_name(name)


def test_p90_needs_ten_samples_above_it():
    assert percentile(list(range(99)), 90) is None
    samples = list(range(100))
    assert percentile(samples, 90) == 89
    assert sum(1 for s in samples if s > percentile(samples, 90)) == 10


def test_tail_falls_back_to_p75_then_none():
    assert tail(list(range(100))) == (90, 89)
    assert tail(list(range(40))) == (75, 29)
    assert tail(list(range(39))) is None
    assert percentile([], 50) is None


def test_percentile_ignores_input_order():
    assert percentile(list(range(200, 0, -1)), 90) == 180


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert union_length([(-5, 2), (9, 15)], 0, 10) == 3
    assert union_length([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_covered_part_once():
    # children overlap each other and one sticks out past the parent's end
    assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 5.0), (8.0, 12.0)]) == pytest.approx(4.0)
    assert self_time(0.0, 10.0, []) == 10.0


def _tracer(spans):
    tracer = Tracer()
    tracer.spans.extend(spans)
    return tracer


def test_layer_metrics_self_time_on_hand_built_spans():
    # pwp_loss [0, 10) holds pwp_target [1, 3) and adjacency [4, 8); times in seconds
    spans = [
        Span("walks.pwp_loss", 0.0, 10.0, -1, 1, "timed"),
        Span("walks.pwp_target", 1.0, 3.0, 0, 1, "timed"),
        Span("walks.adjacency", 4.0, 8.0, 0, 1, "timed"),
        Span("walks.pwp_loss", 20.0, 21.0, -1, 2, "setup"),
    ]
    out = layer_metrics(_tracer(spans), timed_units=2, step_marks=[])
    assert out["walks.pwp_loss.self_ms_per_step"] == pytest.approx(1000.0 * 4.0 / 2)
    assert out["walks.pwp_target.ms_per_step"] == pytest.approx(1000.0 * 2.0 / 2)
    assert out["walks.pwp_loss.calls"] == 2
    assert out["layers_failed"] == 0


def test_step_self_time_excludes_root_spans_inside_each_step():
    spans = [
        Span("slots.encode", 0.5, 1.5, -1, 1, "timed"),
        Span("autodiff.backward", 1.5, 2.5, -1, 1, "timed"),
        Span("slots.encode", 3.2, 3.6, -1, 2, "timed"),
    ]
    # two episodes: steps [0, 3) and [3, 4) in the first, none in the second
    out = layer_metrics(_tracer(spans), timed_units=3, step_marks=[[0.0, 3.0, 4.0], [9.0]])
    assert out["train.step.calls"] == 2
    assert out["train.step.self_ms"] == pytest.approx(1000.0 * ((3.0 - 2.0) + (1.0 - 0.4)) / 2)


def test_failed_spans_are_counted():
    spans = [Span("metrics.kmeans", 0.0, 1.0, -1, 0, "post", failed=True)]
    assert layer_metrics(_tracer(spans), 1, [])["layers_failed"] == 1


def test_tally_counts_failed_fraction():
    tally = Tally()
    assert tally.failed_frac == 0.0
    tally.ops(7)
    assert tally.check(True, "fine")
    assert not tally.check(False, "broken")
    assert (tally.attempted, tally.failed) == (9, 1)
    assert tally.failed_frac == pytest.approx(1 / 9)
    assert tally.failures == ["broken"]


def test_host_speed_factor_uses_the_mean_of_the_bracketing_samples():
    speed = HostSpeed()
    assert speed.factor(REFERENCE_S, REFERENCE_S) == 1.0
    # the host ran at half the reference speed on average: times are halved
    assert speed.factor(REFERENCE_S, 3 * REFERENCE_S) == pytest.approx(0.5)


def test_count_nodes_counts_shared_parents_once():
    leaf = SimpleNamespace(_parents=())
    left = SimpleNamespace(_parents=(leaf,))
    right = SimpleNamespace(_parents=(leaf,))
    loss = SimpleNamespace(_parents=(left, right))
    assert count_nodes(loss) == 4


@pytest.fixture
def slotwalks_modules(monkeypatch):
    if not (SRC / "slotwalks").is_dir():
        pytest.skip("no src/slotwalks next to the benchmark")
    monkeypatch.syspath_prepend(str(SRC))
    import slotwalks  # noqa: F401

    return sys.modules


def test_tracer_patches_every_calling_namespace_and_restores(slotwalks_modules):
    targets = [
        (slotwalks_modules[mod], name.rsplit(".", 1)[1]) for name, mods in WRAPPED.items() for mod in mods
    ]
    originals = [getattr(mod, attr) for mod, attr in targets]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(mod, attr) is not orig for (mod, attr), orig in zip(targets, originals))
    finally:
        tracer.remove()
    assert all(getattr(mod, attr) is orig for (mod, attr), orig in zip(targets, originals))


def test_traced_call_through_train_namespace_records_spans(slotwalks_modules):
    import numpy as np

    train = slotwalks_modules["slotwalks.train"]
    tracer = Tracer()
    tracer.install()
    try:
        cfg = train.TrainConfig(num_slots=2, input_dim=4, slot_dim=8, walk_dim=8, total_steps=1,
                                warmup_steps=0, batch_size=2)
        scenes = [slotwalks_modules["slotwalks.data"].Scene(features=np.random.default_rng(i).normal(size=(6, 4)))
                  for i in range(2)]
        train.train(scenes, cfg)
    finally:
        tracer.remove()
    for name in ("slots.encode", "walks.total_loss", "walks.wpw_loss", "walks.pwp_loss",
                 "walks.pwp_target", "walks.adjacency", "autodiff.backward", "train.adamw_step"):
        assert tracer.calls(name) > 0, name
    assert tracer.node_counts and tracer.node_counts[0] > 0
    nested = [s for s in tracer.spans if s.name == "walks.pwp_target"]
    assert all(tracer.spans[s.parent].name == "walks.pwp_loss" for s in nested)
