"""Tests for scene generation and the .ocwf binary format."""

import struct
import warnings

import numpy as np
import pytest

from slotwalks.data import (
    FORMAT_VERSION,
    Scene,
    SceneConfig,
    class_means,
    generate_scene,
    load_dataset,
    read_feature_file,
    write_feature_file,
)
from slotwalks.errors import ConfigError, DataFormatError


class TestSceneConfig:
    def test_too_many_classes_for_grid(self):
        with pytest.raises(ConfigError):
            SceneConfig(height=2, width=2, classes=5)

    def test_negative_noise(self):
        with pytest.raises(ConfigError):
            SceneConfig(noise_std=-0.1)

    def test_unknown_layout(self):
        with pytest.raises(ConfigError):
            SceneConfig(layout="spiral")

    def test_negative_mean_seed(self):
        with pytest.raises(ConfigError, match="mean_seed must be >= 0"):
            SceneConfig(mean_seed=-1)

    @pytest.mark.parametrize("height, width, classes", [(-2, -3, 3), (-1, -1, 1)])
    def test_grid_below_one_cell_per_side(self, height, width, classes):
        with pytest.raises(ConfigError, match="must be at least 1x1"):
            SceneConfig(height=height, width=width, classes=classes)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf")])
    def test_noise_must_be_finite(self, noise):
        with pytest.raises(ConfigError, match="noise_std must be finite"):
            SceneConfig(noise_std=noise)

    @pytest.mark.parametrize("degrees", [float("nan"), float("inf"), float("-inf")])
    def test_separation_must_be_finite(self, degrees):
        with pytest.raises(ConfigError, match="mean_separation_deg must be finite"):
            SceneConfig(mean_separation_deg=degrees)


class TestGenerateScene:
    def test_single_class(self):
        cfg = SceneConfig(height=4, width=4, classes=1, feature_dim=8, noise_std=0.05)
        scene = generate_scene(cfg, seed=0)
        assert np.all(scene.labels == 0)
        spread = scene.features - scene.features.mean(axis=0)
        assert np.abs(spread).max() < 1.0  # all cells scatter around one mean

    def test_zero_noise_exact_means(self):
        cfg = SceneConfig(height=4, width=6, classes=3, feature_dim=16, noise_std=0.0)
        scene = generate_scene(cfg, seed=1)
        for c in range(3):
            block = scene.features[scene.labels == c]
            assert np.array_equal(block, np.tile(block[0], (len(block), 1)))
            # within-class cosine exactly 1
            sims = block @ block.T / np.outer(
                np.linalg.norm(block, axis=1), np.linalg.norm(block, axis=1)
            )
            assert np.allclose(sims, 1.0, atol=1e-12)

    def test_same_seed_bit_identical(self):
        cfg = SceneConfig()
        a, b = generate_scene(cfg, seed=42), generate_scene(cfg, seed=42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_class_means_shared_across_scenes(self):
        cfg = SceneConfig(noise_std=0.0)
        a = generate_scene(cfg, seed=1)
        b = generate_scene(cfg, seed=2)
        for c in range(cfg.classes):
            assert np.array_equal(a.features[a.labels == c][0], b.features[b.labels == c][0])
        other = SceneConfig(noise_std=0.0, mean_seed=9)
        c_scene = generate_scene(other, seed=1)
        assert not np.allclose(a.features[a.labels == 0][0], c_scene.features[c_scene.labels == 0][0])

    def test_class_means_are_shared_and_read_only(self):
        means = class_means(SceneConfig())
        assert class_means(SceneConfig()) is means
        with pytest.raises(ValueError):
            means[0, 0] = 1.0

    def test_all_classes_present(self):
        cfg = SceneConfig(height=8, width=8, classes=4)
        for seed in range(30):
            scene = generate_scene(cfg, seed=seed)
            assert set(np.unique(scene.labels)) == {0, 1, 2, 3}

    def test_voronoi_layout_covers_classes(self):
        cfg = SceneConfig(layout="voronoi-cells", classes=5)
        for seed in range(10):
            scene = generate_scene(cfg, seed=seed)
            assert len(np.unique(scene.labels)) == 5

    def test_infeasible_separation(self):
        # ten directions pairwise >= 60 degrees apart do not fit in the plane
        cfg = SceneConfig(height=4, width=4, classes=10, feature_dim=2)
        with pytest.raises(ConfigError):
            generate_scene(cfg, seed=0)

    def test_class_separation_statistics(self):
        """Mean within-class cosine beats between-class by >= 0.2 for mild noise."""
        for noise in (0.1, 0.25):
            cfg = SceneConfig(noise_std=noise)
            within, between = [], []
            for seed in range(100):
                scene = generate_scene(cfg, seed=(noise == 0.25, seed))
                f = scene.features / np.linalg.norm(scene.features, axis=1, keepdims=True)
                sims = f @ f.T
                same = scene.labels[:, None] == scene.labels[None, :]
                off_diag = ~np.eye(scene.n, dtype=bool)
                within.append(sims[same & off_diag].mean())
                between.append(sims[~same].mean())
            margin = np.mean(within) - np.mean(between)
            assert margin >= 0.2, (noise, margin)


class TestFeatureFile:
    def test_round_trip_bytes_stable(self, tmp_path):
        cfg = SceneConfig()
        scene = generate_scene(cfg, seed=7)
        first = tmp_path / "a.ocwf"
        second = tmp_path / "b.ocwf"
        write_feature_file(first, scene)
        loaded = read_feature_file(first)
        write_feature_file(second, loaded)
        assert first.read_bytes() == second.read_bytes()
        assert np.array_equal(loaded.labels, scene.labels)
        # float32 truncation happened exactly once
        assert np.array_equal(loaded.features, scene.features.astype(np.float32).astype(np.float64))

    def test_unlabeled_round_trip(self, tmp_path):
        scene = Scene(features=np.random.default_rng(0).normal(size=(5, 3)))
        path = tmp_path / "plain.ocwf"
        write_feature_file(path, scene)
        loaded = read_feature_file(path)
        assert loaded.labels is None
        assert loaded.features.shape == (5, 3)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ocwf"
        scene = generate_scene(SceneConfig(height=2, width=2, classes=1, feature_dim=2), 0)
        write_feature_file(path, scene)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="magic"):
            read_feature_file(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "ver.ocwf"
        scene = generate_scene(SceneConfig(height=2, width=2, classes=1, feature_dim=2), 0)
        write_feature_file(path, scene)
        raw = bytearray(path.read_bytes())
        raw[4] = FORMAT_VERSION + 1
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="version"):
            read_feature_file(path)

    def test_big_endian_flag_rejected(self, tmp_path):
        path = tmp_path / "be.ocwf"
        scene = generate_scene(SceneConfig(height=2, width=2, classes=1, feature_dim=2), 0)
        write_feature_file(path, scene)
        raw = bytearray(path.read_bytes())
        raw[17] = 1  # reserved endianness flag
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="endian"):
            read_feature_file(path)

    def test_truncated_payload(self, tmp_path):
        import struct

        path = tmp_path / "trunc.ocwf"
        header = struct.pack("<4sIIIBBH", b"OCWF", 1, 4, 8, 0, 0, 0)
        path.write_bytes(header + b"\0" * 100)  # needs 4*4*8 = 128 payload bytes
        with pytest.raises(DataFormatError, match="length"):
            read_feature_file(path)

    def test_non_finite_features_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "nan.ocwf"
        write_feature_file(path, Scene(features=np.ones((4, 3))))
        raw = bytearray(path.read_bytes())
        cell = len(raw) - 4 * 12 + 4 * 7  # float32 payload ends the file; cell 2, column 1
        raw[cell : cell + 4] = struct.pack("<f", np.nan)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match=r"nan\.ocwf: non-finite feature in cell 2"):
            read_feature_file(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39], ids=["nan", "inf", "-inf", "beyond-float32"])
    def test_write_refuses_a_feature_the_reader_would_refuse(self, tmp_path, value):
        features = np.ones((4, 3))
        features[2, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match=r"bad\.ocwf: feature in cell 2 is not a finite float32$"):
                write_feature_file(tmp_path / "bad.ocwf", Scene(features=features))
        assert list(tmp_path.iterdir()) == []

    def test_signalling_nan_rejected_without_a_warning(self, tmp_path):
        path = tmp_path / "snan.ocwf"
        write_feature_file(path, Scene(features=np.ones((4, 3))))
        raw = bytearray(path.read_bytes())
        cell = len(raw) - 4 * 12 + 4 * 5  # float32 payload ends the file; cell 1, column 2
        raw[cell : cell + 4] = struct.pack("<I", 0x7F800001)
        path.write_bytes(bytes(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match="non-finite feature in cell 1"):
                read_feature_file(path)

    def test_load_dataset_sorted(self, tmp_path):
        cfg = SceneConfig(height=2, width=2, classes=1, feature_dim=2)
        for name in ("0002.ocwf", "0000.ocwf", "0001.ocwf"):
            write_feature_file(tmp_path / name, generate_scene(cfg, seed=int(name[:4])))
        scenes = load_dataset(tmp_path)
        assert [s.name for s in scenes] == ["0000.ocwf", "0001.ocwf", "0002.ocwf"]

    def test_load_dataset_empty(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_dataset(tmp_path)
