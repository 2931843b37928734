"""Tests for mask inference, task evaluators, and PGM output."""

import numpy as np
import pytest

from slotwalks import infer
from slotwalks.data import Scene, SceneConfig, generate_scene
from slotwalks.errors import ConfigError, DataFormatError, DegenerateInputError, ShapeError, UndefinedMetricError
from slotwalks.infer import (
    evaluate_discovery,
    evaluate_foreground,
    foreground_select,
    semantic_segment,
    slot_masks,
    write_mask_pgm,
)
from slotwalks.slots import SlotParams
from slotwalks.walks import WalkConfig, WalkProjection


def toy_model(num_slots=2, input_dim=8, slot_dim=8, dim=8, seed=0):
    params = SlotParams.create(num_slots, input_dim=input_dim, slot_dim=slot_dim, seed=seed)
    proj = WalkProjection.create(input_dim=input_dim, slot_dim=slot_dim, dim=dim, seed=seed + 1)
    cfg = WalkConfig()
    return params, proj, cfg


def read_pgm(path):
    raw = path.read_bytes()
    header, _, rest = raw.partition(b"255\n")
    magic, dims = header.split(b"\n", 1)
    w, h = map(int, dims.split())
    return magic, w, h, np.frombuffer(rest, dtype=np.uint8)


def stacked_scenes(height, width, classes, count, seed=0):
    cfg = SceneConfig(height=height, width=width, classes=classes, feature_dim=8, noise_std=0.1)
    return [generate_scene(cfg, seed=(seed, i)) for i in range(count)]


class TestSlotMasks:
    @pytest.mark.parametrize("height, width, classes", [(8, 8, 3), (24, 24, 7)])
    def test_stack_matches_per_scene_calls_bit_for_bit(self, height, width, classes):
        params, proj, cfg = toy_model(num_slots=classes)
        scenes = stacked_scenes(height, width, classes, count=5)
        soft, hard = slot_masks(np.stack([s.features for s in scenes]), params, proj, cfg, 3)
        for i, scene in enumerate(scenes):
            alone_soft, alone_hard = slot_masks(scene.features, params, proj, cfg, 3)
            assert np.array_equal(soft[i], alone_soft)
            assert np.array_equal(hard[i], alone_hard)

    def test_single_slot(self):
        params, proj, cfg = toy_model(num_slots=1)
        x = np.random.default_rng(0).normal(size=(10, 8))
        soft, hard = slot_masks(x, params, proj, cfg, iterations=2)
        assert np.array_equal(soft, np.ones((10, 1)))
        assert np.array_equal(hard, np.zeros(10, dtype=np.int64))

    def test_soft_rows_sum_to_one(self):
        params, proj, cfg = toy_model(num_slots=3)
        x = np.random.default_rng(1).normal(size=(12, 8))
        soft, _ = slot_masks(x, params, proj, cfg, iterations=3)
        assert np.max(np.abs(soft.sum(axis=1) - 1.0)) <= 1e-12

    def test_hard_labels_partition_cells(self):
        params, proj, cfg = toy_model(num_slots=4)
        x = np.random.default_rng(2).normal(size=(20, 8))
        soft, hard = slot_masks(x, params, proj, cfg, iterations=3)
        assert hard.shape == (20,)
        assert np.all((hard >= 0) & (hard < 4))
        assert np.array_equal(hard, np.argmax(soft, axis=1))

    def test_eval_inference_is_pure(self):
        params, proj, cfg = toy_model(num_slots=3)
        x = np.random.default_rng(3).normal(size=(9, 8))
        a = slot_masks(x, params, proj, cfg, iterations=3)
        b = slot_masks(x, params, proj, cfg, iterations=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestForegroundSelect:
    def test_exact_match_slot(self):
        hard = np.array([0, 0, 1, 1, 1])
        gt = np.array([0, 0, 1, 1, 1], bool)
        idx, mask = foreground_select(hard, 2, gt)
        assert idx == 1
        assert np.array_equal(mask, gt)

    def test_tie_goes_to_lowest_index(self):
        hard = np.array([0, 1, 0, 1])
        gt = np.array([True, True, False, False])  # both slots intersect once
        idx, _ = foreground_select(hard, 2, gt)
        assert idx == 0

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            hard = rng.integers(0, k, size=30)
            gt = rng.random(30) < 0.4
            idx, _ = foreground_select(hard, k, gt)
            overlaps = [np.count_nonzero((hard == j) & gt) for j in range(k)]
            best = max(range(k), key=lambda j: (overlaps[j], -j))
            assert idx == best


class TestTaskEvaluators:
    def test_foreground_report_columns(self):
        params, proj, cfg = toy_model()
        scenes = [generate_scene(SceneConfig(height=4, width=4, classes=2, feature_dim=8), seed=i) for i in range(3)]
        report = evaluate_foreground(scenes, params, proj, cfg, iterations=2)
        assert report.columns == ["miou", "dice"]
        assert len(report.rows) == 3
        assert set(report.summary) == {"miou", "dice"}

    def test_discovery_report(self):
        params, proj, cfg = toy_model(num_slots=3)
        scenes = [generate_scene(SceneConfig(height=4, width=4, classes=3, feature_dim=8), seed=i) for i in range(3)]
        report = evaluate_discovery(scenes, params, proj, cfg, iterations=2)
        assert report.columns == ["ari_fg"]
        assert len(report.rows) == 3

    def test_mixed_cell_counts_score_each_scene_as_alone(self):
        params, proj, cfg = toy_model(num_slots=3)
        scenes = stacked_scenes(4, 4, 3, count=3) + stacked_scenes(3, 5, 3, count=3, seed=1)
        for i, s in enumerate(scenes):
            s.name = f"{(i * 5) % 6:04d}.ocwf"  # the two sizes interleave in name order
        report = evaluate_discovery(scenes, params, proj, cfg, iterations=2)
        alone = {s.name: evaluate_discovery([s], params, proj, cfg, iterations=2).rows[0] for s in scenes}
        assert report.rows == [alone[name] for name in sorted(alone)]
        semantic = semantic_segment(scenes, params, proj, cfg, iterations=2, num_classes=3)
        reversed_order = semantic_segment(scenes[::-1], params, proj, cfg, iterations=2, num_classes=3)
        assert semantic.to_text() == reversed_order.to_text()

    def test_chunked_stacks_give_the_same_report(self, monkeypatch):
        params, proj, cfg = toy_model(num_slots=3)
        scenes = stacked_scenes(4, 4, 3, count=7)
        whole = evaluate_discovery(scenes, params, proj, cfg, iterations=2).to_text()
        monkeypatch.setattr(infer, "_STACK_CELLS", 3 * 16)  # three scenes per pass
        assert evaluate_discovery(scenes, params, proj, cfg, iterations=2).to_text() == whole

    def test_missing_labels_rejected(self):
        params, proj, cfg = toy_model()
        scene = Scene(features=np.random.default_rng(5).normal(size=(8, 8)))
        with pytest.raises(UndefinedMetricError):
            evaluate_foreground([scene], params, proj, cfg, iterations=2)
        with pytest.raises(UndefinedMetricError):
            evaluate_discovery([scene], params, proj, cfg, iterations=2)
        with pytest.raises(UndefinedMetricError):
            semantic_segment([scene], params, proj, cfg, 2, num_classes=2)

    @pytest.mark.parametrize(
        "evaluate, who",
        [
            (evaluate_foreground, "evaluate fg"),
            (evaluate_discovery, "evaluate discovery"),
            (lambda *args: semantic_segment(*args, num_classes=2), "semantic_segment"),
        ],
        ids=["fg", "discovery", "semantic"],
    )
    def test_missing_labels_error_names_the_file(self, evaluate, who):
        params, proj, cfg = toy_model()
        scenes = stacked_scenes(4, 4, 2, count=3)
        for i, s in enumerate(scenes):
            s.name = f"{i:04d}.ocwf"
        scenes[2].labels = None
        with pytest.raises(UndefinedMetricError, match=rf"^{who}: scene 0002\.ocwf has no ground-truth labels$"):
            evaluate(scenes, params, proj, cfg, 2)

    @pytest.mark.parametrize(
        "evaluate, who",
        [
            (evaluate_foreground, "evaluate fg"),
            (evaluate_discovery, "evaluate discovery"),
            (lambda *args: semantic_segment(*args, num_classes=2), "semantic_segment"),
        ],
        ids=["fg", "discovery", "semantic"],
    )
    def test_empty_scene_list_refused(self, evaluate, who):
        params, proj, cfg = toy_model()
        with pytest.raises(ConfigError, match=rf"^{who}: no scenes$"):
            evaluate([], params, proj, cfg, 2)

    @pytest.mark.parametrize(
        "evaluate, who",
        [
            (evaluate_foreground, "evaluate fg"),
            (evaluate_discovery, "evaluate discovery"),
            (lambda *args: semantic_segment(*args, num_classes=2), "semantic_segment"),
        ],
        ids=["fg", "discovery", "semantic"],
    )
    def test_non_finite_feature_names_the_scene_and_the_cell(self, evaluate, who):
        params, proj, cfg = toy_model()
        scenes = stacked_scenes(4, 4, 2, count=3)
        for i, s in enumerate(scenes):
            s.name = f"{i:04d}.ocwf"
        scenes[1].features[3, 5] = np.nan
        with pytest.raises(DegenerateInputError, match=rf"^{who}: scene 0001\.ocwf has a non-finite feature in cell 3$"):
            evaluate(scenes, params, proj, cfg, 2)

    @pytest.mark.parametrize(
        "evaluate",
        [evaluate_foreground, evaluate_discovery, lambda *args: semantic_segment(*args, num_classes=2)],
        ids=["fg", "discovery", "semantic"],
    )
    def test_feature_width_mismatch_names_the_scene_and_both_widths(self, evaluate):
        params, proj, cfg = toy_model(input_dim=8)
        scene = generate_scene(SceneConfig(height=2, width=2, classes=2, feature_dim=16), seed=0)
        scene.name = "a.ocwf"
        with pytest.raises(ConfigError, match=r"scene a\.ocwf has feature width 16, the model's input_dim is 8"):
            evaluate([scene], params, proj, cfg, 2)


class TestSemanticSegment:
    def test_single_class_dataset(self):
        params, proj, cfg = toy_model(num_slots=2)
        features = np.random.default_rng(6).normal(size=(16, 8))
        scenes = [Scene(features=features, labels=np.zeros(16, dtype=np.int64), name="s0")]
        report = semantic_segment(scenes, params, proj, cfg, iterations=2, num_classes=1)
        assert report.summary["iou"] == 1.0

    def test_too_few_pooled_vectors(self):
        params, proj, cfg = toy_model(num_slots=2)
        scene = generate_scene(SceneConfig(height=4, width=4, classes=2, feature_dim=8), seed=0)
        with pytest.raises(ConfigError):
            semantic_segment([scene], params, proj, cfg, iterations=2, num_classes=5)

    def test_pooled_vector_count_refused_before_any_forward_pass(self, monkeypatch):
        params, proj, cfg = toy_model(num_slots=2)
        scene = generate_scene(SceneConfig(height=4, width=4, classes=2, feature_dim=8), seed=0)

        def no_forward(*args, **kwargs):
            raise RuntimeError("encode called")

        monkeypatch.setattr(infer, "encode", no_forward)
        with pytest.raises(ConfigError, match=r"only 2 pooled vectors for 5 classes"):
            semantic_segment([scene], params, proj, cfg, iterations=2, num_classes=5)

    def test_report_with_an_empty_class_is_pinned(self):
        # labels use 3 of 4 classes; the empty cluster against the empty class 3 scores 1
        params, proj, cfg = toy_model(num_slots=3, seed=3)
        scenes = [generate_scene(SceneConfig(height=4, width=4, classes=3, feature_dim=8), seed=i) for i in range(3)]
        for i, s in enumerate(scenes):
            s.name = f"{i:04d}.ocwf"
        report = semantic_segment(scenes, params, proj, cfg, iterations=2, num_classes=4)
        assert report.to_text() == (
            "# task=semantic\n"
            "# assignment 0->2 1->3 2->0 3->1\n"
            "item\tiou\n"
            "class_0\t0.285714\n"
            "class_1\t0.272727\n"
            "class_2\t0.210526\n"
            "class_3\t1.000000\n"
            "mean\t0.442242\n"
        )

    def test_float_labels_score_as_their_integers(self):
        params, proj, cfg = toy_model(num_slots=3)
        scenes = stacked_scenes(4, 4, 3, count=3)
        as_float = [Scene(s.features, s.labels.astype(np.float64)) for s in scenes]
        expected = semantic_segment(scenes, params, proj, cfg, iterations=2, num_classes=3).to_text()
        assert semantic_segment(as_float, params, proj, cfg, iterations=2, num_classes=3).to_text() == expected

    def test_label_outside_classes_rejected(self):
        params, proj, cfg = toy_model(num_slots=2)
        scene = generate_scene(SceneConfig(height=4, width=4, classes=3, feature_dim=8), seed=0)
        scene.labels[5] = 7
        scene.name = "0003.ocwf"
        with pytest.raises(ConfigError, match=r"scene 0003\.ocwf has label 7 outside \[0, 3\)"):
            semantic_segment([scene], params, proj, cfg, iterations=2, num_classes=3)

    def test_order_invariance(self):
        params, proj, cfg = toy_model(num_slots=3)
        scenes = [
            generate_scene(SceneConfig(height=4, width=4, classes=3, feature_dim=8), seed=i)
            for i in range(4)
        ]
        for i, s in enumerate(scenes):
            s.name = f"{i:04d}.ocwf"
        forward = semantic_segment(scenes, params, proj, cfg, iterations=2, num_classes=3)
        backward = semantic_segment(scenes[::-1], params, proj, cfg, iterations=2, num_classes=3)
        assert forward.to_text() == backward.to_text()


class TestWriteMaskPgm:
    def test_all_zero_black(self, tmp_path):
        path = tmp_path / "zero.pgm"
        write_mask_pgm(np.zeros(12, dtype=np.int64), 3, 4, path, num_labels=1)
        magic, w, h, payload = read_pgm(path)
        assert magic == b"P5" and (w, h) == (4, 3)
        assert np.array_equal(payload, np.zeros(12, dtype=np.uint8))

    def test_binary_checkerboard(self, tmp_path):
        labels = np.array([0, 1] * 8)
        path = tmp_path / "check.pgm"
        write_mask_pgm(labels, 4, 4, path, num_labels=2)
        _, _, _, payload = read_pgm(path)
        assert np.array_equal(payload, np.array([0, 255] * 8, dtype=np.uint8))

    def test_payload_round_trip_scaled(self, tmp_path):
        labels = np.array([0, 1, 2, 3, 2, 1])
        path = tmp_path / "scaled.pgm"
        write_mask_pgm(labels, 2, 3, path, num_labels=4)
        _, _, _, payload = read_pgm(path)
        assert np.array_equal(payload, labels * (255 // 3))

    def test_label_overflow(self, tmp_path):
        with pytest.raises(DataFormatError):
            write_mask_pgm(np.array([0, 300]), 1, 2, tmp_path / "o.pgm", num_labels=301)

    def test_label_outside_range(self, tmp_path):
        with pytest.raises(DataFormatError):
            write_mask_pgm(np.array([0, 3]), 1, 2, tmp_path / "r.pgm", num_labels=2)

    def test_grid_mismatch(self, tmp_path):
        with pytest.raises(ShapeError):
            write_mask_pgm(np.zeros(5, dtype=int), 2, 3, tmp_path / "g.pgm")

    @pytest.mark.parametrize("height, width, cells", [(0, 3, 0), (-2, -3, 6)])
    def test_grid_without_cells(self, tmp_path, height, width, cells):
        with pytest.raises(ShapeError, match="has no cells"):
            write_mask_pgm(np.zeros(cells, dtype=int), height, width, tmp_path / "e.pgm", num_labels=1)
