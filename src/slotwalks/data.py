"""Synthetic labeled scenes and the .ocwf binary feature-file format.

A scene is a flat grid of H*W cells; each cell carries a feature vector
and a part label in [0, C). Features are drawn as "class mean direction
plus Gaussian noise", with the unit-sphere mean directions rejection
sampled so every pair is at least `mean_separation_deg` apart. Class 0
plays the background role in the foreground-extraction task.

The .ocwf file stores one scene: a fixed header, then the features as
little-endian float32, then optionally the labels as little-endian
uint32. In-memory float64 features are truncated to float32 on write, so
a file round-trips byte-for-byte once written.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataFormatError

MAGIC = b"OCWF"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIIIBBH")  # magic, version, n, dim, label flag, endian flag, pad

LAYOUTS = ("random-rectangles", "voronoi-cells")

_MAX_MEAN_DRAWS = 10_000
_MAX_LAYOUT_RETRIES = 100


@dataclass(frozen=True)
class SceneConfig:
    """Geometry of generated scenes.

    mean_seed fixes the class mean directions for every scene drawn with
    this config, mirroring a frozen feature extractor whose classes have
    consistent signatures across images; per-scene seeds only vary the
    layout and the noise.
    """

    height: int = 8
    width: int = 8
    classes: int = 3
    feature_dim: int = 32
    noise_std: float = 0.1
    layout: str = "random-rectangles"
    mean_separation_deg: float = 60.0
    mean_seed: int = 0

    def __post_init__(self):
        if self.classes < 1:
            raise ConfigError(f"SceneConfig: classes must be >= 1, got {self.classes}")
        if self.height * self.width < self.classes:
            raise ConfigError(
                f"SceneConfig: grid {self.height}x{self.width} cannot hold {self.classes} classes"
            )
        if self.noise_std < 0.0:
            raise ConfigError(f"SceneConfig: noise_std must be >= 0, got {self.noise_std}")
        if self.feature_dim < 1:
            raise ConfigError(f"SceneConfig: feature_dim must be >= 1, got {self.feature_dim}")
        if self.layout not in LAYOUTS:
            raise ConfigError(f"SceneConfig: unknown layout {self.layout!r}, expected one of {LAYOUTS}")


@dataclass
class Scene:
    """N x D features with optional per-cell part labels."""

    features: np.ndarray
    labels: np.ndarray | None = None
    name: str | None = None

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def group_by_cells(scenes: Sequence[Scene]) -> list[list[int]]:
    """Positions of the scenes grouped by cell count N, groups in order of first appearance.

    The scenes of one group stack into one B x N x D array.
    """
    groups: dict[int, list[int]] = {}
    for i, scene in enumerate(scenes):
        groups.setdefault(scene.n, []).append(i)
    return list(groups.values())


def _sample_mean_directions(cfg: SceneConfig, rng: np.random.Generator) -> np.ndarray:
    """Unit vectors with pairwise cosine below cos(mean_separation_deg)."""
    limit = math.cos(math.radians(cfg.mean_separation_deg))
    means: list[np.ndarray] = []
    for _ in range(_MAX_MEAN_DRAWS):
        cand = rng.normal(size=cfg.feature_dim)
        cand /= np.linalg.norm(cand)
        if all(float(np.dot(cand, m)) < limit for m in means):
            means.append(cand)
            if len(means) == cfg.classes:
                return np.stack(means)
    raise ConfigError(
        f"generate_scene: could not place {cfg.classes} mean directions"
        f" {cfg.mean_separation_deg} degrees apart in {cfg.feature_dim} dimensions"
    )


def _layout_rectangles(cfg: SceneConfig, rng: np.random.Generator) -> np.ndarray:
    labels = np.zeros((cfg.height, cfg.width), dtype=np.int64)
    for c in range(1, cfg.classes):
        r0, r1 = sorted(rng.integers(0, cfg.height, size=2))
        c0, c1 = sorted(rng.integers(0, cfg.width, size=2))
        labels[r0 : r1 + 1, c0 : c1 + 1] = c
    return labels.reshape(-1)


def _layout_voronoi(cfg: SceneConfig, rng: np.random.Generator) -> np.ndarray:
    n = cfg.height * cfg.width
    anchors = rng.choice(n, size=cfg.classes, replace=False)
    rows, cols = np.divmod(np.arange(n), cfg.width)
    a_rows, a_cols = np.divmod(anchors, cfg.width)
    d2 = (rows[:, None] - a_rows[None, :]) ** 2 + (cols[:, None] - a_cols[None, :]) ** 2
    return np.argmin(d2, axis=1).astype(np.int64)


def class_means(cfg: SceneConfig) -> np.ndarray:
    """The C x D unit mean directions shared by every scene of this config."""
    return _sample_mean_directions(cfg, np.random.default_rng((cfg.mean_seed, 0x4D45414E)))


def generate_scene(cfg: SceneConfig, seed) -> Scene:
    """Deterministic labeled scene for the given seed.

    Layouts that drop a class are retried with the next draw from the same
    stream, up to 100 attempts.
    """
    rng = np.random.default_rng(seed)
    means = class_means(cfg)
    paint = _layout_rectangles if cfg.layout == "random-rectangles" else _layout_voronoi
    labels = None
    for _ in range(_MAX_LAYOUT_RETRIES):
        cand = paint(cfg, rng)
        if len(np.unique(cand)) == cfg.classes:
            labels = cand
            break
    if labels is None:
        raise ConfigError(
            f"generate_scene: layout never covered all {cfg.classes} classes"
            f" in {_MAX_LAYOUT_RETRIES} attempts"
        )
    noise = rng.normal(scale=cfg.noise_std, size=(labels.size, cfg.feature_dim)) if cfg.noise_std > 0 else 0.0
    features = means[labels] + noise
    return Scene(features=np.asarray(features, dtype=np.float64), labels=labels)


def write_bytes_atomic(path, data: bytes) -> None:
    """Write data to a temporary file beside path, then rename it over path.

    A write that fails midway leaves any previous file at path intact and
    removes the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_feature_file(path, scene: Scene) -> None:
    """Write a scene as .ocwf; float64 features are truncated to float32."""
    n, dim = scene.features.shape
    has_labels = scene.labels is not None
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, n, dim, 1 if has_labels else 0, 0, 0)
    payload = scene.features.astype("<f4").tobytes()
    if has_labels:
        labels = np.asarray(scene.labels)
        if labels.shape != (n,):
            raise DataFormatError(f"write_feature_file: labels shape {labels.shape} != ({n},)")
        if labels.min() < 0 or labels.max() >= 2**32:
            raise DataFormatError("write_feature_file: labels do not fit in uint32")
        payload += labels.astype("<u4").tobytes()
    write_bytes_atomic(path, header + payload)


def read_feature_file(path) -> Scene:
    """Read an .ocwf file, validating magic, version, flags, and exact length."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise DataFormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, n, dim, label_flag, endian_flag, _pad = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    if n < 1 or dim < 1:
        raise DataFormatError(f"{path}: bad dimensions n={n}, dim={dim}")
    if label_flag not in (0, 1):
        raise DataFormatError(f"{path}: bad label flag {label_flag}")
    if endian_flag != 0:
        raise DataFormatError(f"{path}: big-endian flag is reserved and unsupported")
    expect = _HEADER.size + 4 * n * dim + (4 * n if label_flag else 0)
    if len(raw) != expect:
        raise DataFormatError(f"{path}: payload length {len(raw)} != expected {expect}")
    offset = _HEADER.size
    stored = np.frombuffer(raw, dtype="<f4", count=n * dim, offset=offset).reshape(n, dim)
    # checked before the cast: casting a signalling NaN raises a warning first
    finite = np.isfinite(stored).all(axis=1)
    if not finite.all():
        raise DataFormatError(f"{path}: non-finite feature in cell {int(np.argmin(finite))}")
    features = stored.astype(np.float64)
    labels = None
    if label_flag:
        offset += 4 * n * dim
        labels = np.frombuffer(raw, dtype="<u4", count=n, offset=offset).astype(np.int64)
    return Scene(features=features, labels=labels, name=Path(path).name)


def load_dataset(directory) -> list[Scene]:
    """All .ocwf files under `directory`, sorted by filename."""
    paths = sorted(Path(directory).glob("*.ocwf"))
    if not paths:
        raise DataFormatError(f"{directory}: no .ocwf files found")
    return [read_feature_file(p) for p in paths]
