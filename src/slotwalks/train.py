"""Deterministic training of the encoder and walk projections.

The optimizer is decoupled-weight-decay Adam with a linear warmup and an
exponential half-life decay of the learning rate, and global gradient-norm
clipping. Feature inputs are fixed; only the slot and projection
parameters receive updates.

All per-step randomness (batch choice, slot-noise draws) is derived from
(seed, step) counters, so a run is bit-reproducible and resuming from a
checkpoint continues the exact same stream.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import struct
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import autodiff as ad
from .data import Scene, check_feature_width, group_by_cells, write_bytes_atomic
from .errors import CompatibilityError, ConfigError, DataFormatError, ShapeError, TrainingDivergenceError
from .slots import SlotParams, encode
from .walks import WalkConfig, WalkProjection, total_loss

CHECKPOINT_MAGIC = b"OCWC"
CHECKPOINT_VERSION = 6
# a checkpoint starts: magic, version, sha256 of every byte after it
_CHECKPOINT_PREFIX = struct.Struct("<4sI32s")
# then: step, Adam step, config-text length; the config text; the arrays
_CHECKPOINT_SCALARS = struct.Struct("<QQI")

# Adam's moment decay rates and denominator floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# the fixed optimizer recipe: gradient-norm clip, weight decay, lr half-life
CLIP_NORM = 1.0
WEIGHT_DECAY = 0.01
LR_HALF_LIFE_STEPS = 100_000


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs; maps 1:1 onto the `key = value` config file."""

    num_slots: int
    input_dim: int
    slot_dim: int = 256
    iterations: int = 3
    walk_dim: int = 128
    tau: float = 0.1
    gamma: float = 0.7
    alpha: float = 1.0
    beta: float = 1.0
    base_lr: float = 0.0004
    warmup_steps: int = 200
    total_steps: int = 2000
    batch_size: int = 16
    seed: int = 0
    checkpoint_interval: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            # gamma = -inf means "no threshold"; WalkConfig checks gamma's range
            if isinstance(v, float) and not math.isfinite(v) and f.name != "gamma":
                raise ConfigError(f"TrainConfig: {f.name} must be finite, got {v}")
            if (isinstance(v, int) or f.name == "base_lr") and v < 0:
                raise ConfigError(f"TrainConfig: {f.name} must be >= 0, got {v}")
        for name in ("num_slots", "input_dim", "slot_dim", "walk_dim", "total_steps", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"TrainConfig: {name} must be >= 1, got {getattr(self, name)}")
        if self.warmup_steps > self.total_steps:
            raise ConfigError(
                f"TrainConfig: warmup_steps {self.warmup_steps} exceeds"
                f" total_steps {self.total_steps}"
            )
        self.walk()  # validates tau / gamma / alpha / beta

    def walk(self) -> WalkConfig:
        return WalkConfig(tau=self.tau, gamma=self.gamma, alpha=self.alpha, beta=self.beta)


# key -> int or float, the type its config line is parsed as
_KEY_TYPES = typing.get_type_hints(TrainConfig)


def format_config(cfg: TrainConfig) -> str:
    """Canonical `key = value` text: sorted keys, round-trippable values."""
    lines = []
    for f in sorted(dataclasses.fields(cfg), key=lambda f: f.name):
        v = getattr(cfg, f.name)
        lines.append(f"{f.name} = {v!r}" if isinstance(v, float) else f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def parse_config_text(text: str, source: str = "config") -> TrainConfig:
    """Parse `key = value` lines; `#` starts a comment, unknown or repeated keys are errors.

    Every error names `source`, including a value out of its legal range.
    """
    values: dict[str, object] = {}
    given_on: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"{source} line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = (part.strip() for part in line.partition("="))
        kind = _KEY_TYPES.get(key)
        if kind is None:
            raise DataFormatError(f"{source} line {lineno}: unknown key {key!r}")
        if key in given_on:
            raise DataFormatError(f"{source} line {lineno}: {key} repeats line {given_on[key]}")
        try:
            values[key] = kind(val)
        except ValueError:
            expects = "an integer" if kind is int else "a number"
            raise DataFormatError(f"{source} line {lineno}: {key} expects {expects}, got {val!r}") from None
        given_on[key] = lineno
    for required in ("num_slots", "input_dim"):
        if required not in values:
            raise DataFormatError(f"{source}: missing required key {required!r}")
    try:
        return TrainConfig(**values)  # type: ignore[arg-type]
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to base_lr, then halving every LR_HALF_LIFE_STEPS steps."""
    if step < 0:
        raise ConfigError(f"lr_at: step must be >= 0, got {step}")
    if step < cfg.warmup_steps:
        return cfg.base_lr * step / cfg.warmup_steps
    return cfg.base_lr * 0.5 ** ((step - cfg.warmup_steps) / LR_HALF_LIFE_STEPS)


def clip_grad_norm(
    grads: dict[str, np.ndarray], clip_norm: float, step: int | None = None
) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients so their global l2 norm is at most clip_norm."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if not np.isfinite(norm):
        where = f" at step {step}" if step is not None else ""
        raise TrainingDivergenceError(f"non-finite gradient norm{where}")
    if norm > clip_norm:
        factor = clip_norm / norm
        grads = {k: g * factor for k, g in grads.items()}
    return grads, norm


@dataclass
class OptimState:
    """Adam moment accumulators; shapes mirror the parameters."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "OptimState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimState,
    lr: float,
    weight_decay: float,
) -> None:
    """Bias-corrected Adam update with decay applied directly to the weights."""
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p -= lr * (update + weight_decay * p)


def _init_model(cfg: TrainConfig) -> tuple[SlotParams, WalkProjection]:
    """Freshly seeded parameters; their shapes are the ones a checkpoint of cfg holds."""
    return (
        SlotParams.create(cfg.num_slots, cfg.input_dim, cfg.slot_dim, seed=cfg.seed),
        WalkProjection.create(cfg.input_dim, cfg.slot_dim, cfg.walk_dim, seed=cfg.seed + 1),
    )


def _named_parameters(params: SlotParams, proj: WalkProjection) -> dict[str, np.ndarray]:
    out = {f"slots.{k}": v for k, v in params.named().items()}
    out.update({f"proj.{k}": v for k, v in proj.named().items()})
    return out


def _from_named(named: dict[str, Any]) -> tuple[SlotParams, WalkProjection]:
    """The inverse of _named_parameters."""
    fields: dict[str, dict[str, Any]] = {"slots": {}, "proj": {}}
    for name, value in named.items():
        prefix, _, field_name = name.partition(".")
        fields[prefix][field_name] = value
    return SlotParams(**fields["slots"]), WalkProjection(**fields["proj"])


@dataclass
class TrainResult:
    params: SlotParams
    proj: WalkProjection
    opt: OptimState
    config: TrainConfig
    steps_run: int
    # one _train_step record per step this call ran
    records: list[dict[str, float]] = field(default_factory=list)

    @property
    def losses(self) -> list[float]:
        return [r["loss"] for r in self.records]


def _batch_loss(
    scenes: Sequence[Scene],
    indices: np.ndarray,
    lifted_params: SlotParams,
    lifted_proj: WalkProjection,
    cfg: TrainConfig,
    step: int,
) -> ad.Node:
    """Mean scene loss of the batch, from one encode and one total_loss per group of equal-N scenes.

    Batch position pos draws its K x d standard-normal slot noise from
    (cfg.seed, step, pos), whatever group it falls in.
    """
    walk = cfg.walk()
    batch = [scenes[int(i)] for i in indices]
    shape = (cfg.num_slots, cfg.slot_dim)
    group_losses = []
    for group in group_by_cells(batch):
        x = ad.constant(np.stack([batch[pos].features for pos in group]))
        noise = [np.random.default_rng((cfg.seed, step, pos)).standard_normal(shape) for pos in group]
        slots_hat, _ = encode(x, lifted_params, cfg.iterations, np.stack(noise))
        group_losses.append(total_loss(x, slots_hat, lifted_proj, walk))
    return ad.mul(functools.reduce(ad.add, group_losses), 1.0 / len(indices))


def _train_step(
    scenes: Sequence[Scene],
    params: SlotParams,
    proj: WalkProjection,
    opt: OptimState,
    cfg: TrainConfig,
    step: int,
) -> tuple[dict[str, float], dict[str, np.ndarray]]:
    """One optimizer step on the batch drawn from (cfg.seed, step), updating params in place.

    Returns the step's record (`step`, the batch `loss`, the `lr` applied,
    and the gradient norm before and after clipping, `grad_norm` and
    `clipped_norm`) and the clipped gradients. The step's graph lives only
    inside this call: `ad.backward` frees each activation once its gradient
    has been pushed on.
    """
    rng = np.random.default_rng((cfg.seed, step))
    indices = rng.choice(len(scenes), size=cfg.batch_size, replace=cfg.batch_size > len(scenes))
    lifted_params, lifted_proj = params.lift(ad.leaf), proj.lift(ad.leaf)
    loss = _batch_loss(scenes, indices, lifted_params, lifted_proj, cfg, step)
    loss_value = float(loss.value[0, 0])
    if not np.isfinite(loss_value):
        raise TrainingDivergenceError(
            f"non-finite loss at step {step}, batch scenes {indices.tolist()}"
        )
    ad.backward(loss)
    grads = {name: node.grad for name, node in _named_parameters(lifted_params, lifted_proj).items()}
    grads, norm = clip_grad_norm(grads, CLIP_NORM, step)
    _, post_norm = clip_grad_norm(grads, np.inf)
    lr = lr_at(step, cfg)
    adamw_step(_named_parameters(params, proj), grads, opt, lr, WEIGHT_DECAY)
    return {"step": step, "loss": loss_value, "lr": lr, "grad_norm": norm, "clipped_norm": post_norm}, grads


def _open_trace(path: Path, start_step: int):
    """Open the trace for appending, once it holds only its lines for steps before start_step.

    The kept lines replace the trace atomically, so a failed write leaves it as it was.
    """
    try:
        lines = path.read_text().splitlines(keepends=True) if start_step > 0 and path.exists() else []
        kept = [line for line in lines if int(line.split("\t", 1)[0]) < start_step]
    except UnicodeDecodeError:
        raise DataFormatError(f"{path}: not UTF-8 text") from None
    except ValueError:
        raise DataFormatError(f"{path}: a line does not start with a step number") from None
    write_bytes_atomic(path, "".join(kept).encode())
    return open(path, "a")


def train(
    scenes: Sequence[Scene],
    cfg: TrainConfig,
    out_dir=None,
    resume=None,
) -> TrainResult:
    """Run the optimization loop over the dataset.

    When out_dir is given, writes `step<TAB>loss<TAB>lr` lines to
    out_dir/trace.txt (a resume keeps the lines of earlier steps, a fresh
    run none), out_dir/checkpoint.ocwc at the end, and numbered checkpoints
    every checkpoint_interval steps. `resume` may name a checkpoint whose
    config must equal cfg.
    """
    if not scenes:
        raise ConfigError("train: dataset is empty")
    for i, scene in enumerate(scenes):
        if scene.n < cfg.num_slots:
            raise ConfigError(f"train: scene {i} has {scene.n} cells, fewer than num_slots={cfg.num_slots}")
    check_feature_width(scenes, cfg.input_dim, "train")

    if resume is not None:
        ckpt = load_checkpoint(resume)
        if ckpt.config != cfg:
            raise CompatibilityError(
                "train: resume checkpoint was produced with a different configuration"
            )
        params, proj, opt, start_step = ckpt.params, ckpt.proj, ckpt.opt, ckpt.step
    else:
        params, proj = _init_model(cfg)
        opt = OptimState.for_params(_named_parameters(params, proj))
        start_step = 0

    out_path = Path(out_dir) if out_dir is not None else None
    trace = None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        trace = _open_trace(out_path / "trace.txt", start_step)

    result = TrainResult(params=params, proj=proj, opt=opt, config=cfg, steps_run=start_step)
    try:
        for step in range(start_step, cfg.total_steps):
            # hold the gradients until the next step's replace them: freed at once, they left the heap
            # top free for glibc to hand back and the next graph to fault in (train-toy steps +4-18%)
            record, grads = _train_step(scenes, params, proj, opt, cfg, step)
            result.records.append(record)
            result.steps_run = step + 1
            if trace is not None:
                trace.write(f"{record['step']}\t{record['loss']!r}\t{record['lr']!r}\n")
                trace.flush()
            if (
                out_path is not None
                and cfg.checkpoint_interval > 0
                and (step + 1) % cfg.checkpoint_interval == 0
                and step + 1 < cfg.total_steps
            ):
                save_checkpoint(
                    out_path / f"checkpoint_{step + 1:06d}.ocwc", params, proj, opt, step + 1, cfg
                )
    finally:
        if trace is not None:
            trace.close()
    if out_path is not None:
        save_checkpoint(out_path / "checkpoint.ocwc", params, proj, opt, result.steps_run, cfg)
    return result


@dataclass
class Checkpoint:
    params: SlotParams
    proj: WalkProjection
    opt: OptimState
    step: int
    config: TrainConfig


def _array_layout(cfg: TrainConfig) -> list[tuple[str, str, tuple[int, ...]]]:
    """(prefix, parameter name, shape) of each checkpoint array, in file order.

    Every parameter in _named_parameters order (prefix ""), then every
    first moment ("m."), then every second moment ("v."), each of the
    shape `SlotParams.shapes` and `WalkProjection.shapes` give for cfg.
    Nothing of the model's size is allocated.
    """
    slots = SlotParams.shapes(cfg.num_slots, cfg.input_dim, cfg.slot_dim)
    shapes = {f"slots.{k}": shape for k, shape in slots.items()}
    proj = WalkProjection.shapes(cfg.input_dim, cfg.slot_dim, cfg.walk_dim)
    shapes.update({f"proj.{k}": shape for k, shape in proj.items()})
    return [(prefix, name, shape) for prefix in ("", "m.", "v.") for name, shape in shapes.items()]


def save_checkpoint(path, params: SlotParams, proj: WalkProjection, opt: OptimState, step: int, cfg: TrainConfig) -> None:
    """Binary checkpoint: a fixed header, the config text, then headerless float64 arrays.

    Raises ShapeError, writing nothing, when an array's shape is not the one cfg gives.
    """
    tables = {"": _named_parameters(params, proj), "m.": opt.m, "v.": opt.v}
    cfg_text = format_config(cfg).encode()
    arrays = []
    for prefix, name, shape in _array_layout(cfg):
        arr = tables[prefix][name]
        if arr.shape != shape:
            raise ShapeError(
                f"{path}: blob {prefix + name!r} has shape {arr.shape}, the config gives {shape}"
            )
        arrays.append(arr.astype("<f8").tobytes())
    payload = _CHECKPOINT_SCALARS.pack(step, opt.step, len(cfg_text)) + cfg_text + b"".join(arrays)
    digest = hashlib.sha256(payload).digest()
    write_bytes_atomic(path, _CHECKPOINT_PREFIX.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, digest) + payload)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any damage, including a single changed byte, raises DataFormatError."""
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise DataFormatError(f"{path}: bad magic")
    start = _CHECKPOINT_PREFIX.size + _CHECKPOINT_SCALARS.size
    if len(raw) < start:
        raise DataFormatError(f"{path}: truncated at byte {len(raw)}, the header has {start}")
    _, version, digest = _CHECKPOINT_PREFIX.unpack_from(raw)
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    if hashlib.sha256(memoryview(raw)[_CHECKPOINT_PREFIX.size :]).digest() != digest:
        raise DataFormatError(f"{path}: sha256 checksum does not match the file's contents")
    step, opt_step, cfg_len = _CHECKPOINT_SCALARS.unpack_from(raw, _CHECKPOINT_PREFIX.size)
    try:
        cfg_text = raw[start : start + cfg_len].decode()
    except UnicodeDecodeError:
        raise DataFormatError(f"{path}: the embedded config is not valid UTF-8") from None
    cfg = parse_config_text(cfg_text, source=f"{path} embedded config")
    layout = _array_layout(cfg)
    start += cfg_len
    expected = start + 8 * sum(math.prod(shape) for _, _, shape in layout)
    if len(raw) != expected:
        raise DataFormatError(f"{path}: {len(raw)} bytes, the embedded config gives {expected}")

    tables: dict[str, dict[str, np.ndarray]] = {"": {}, "m.": {}, "v.": {}}
    for prefix, name, shape in layout:
        size = math.prod(shape)
        arr = np.frombuffer(raw, dtype="<f8", count=size, offset=start).reshape(shape)
        if not np.isfinite(arr).all():
            raise DataFormatError(f"{path}: blob {prefix + name!r} has a non-finite entry")
        tables[prefix][name] = arr.copy()
        start += 8 * size

    params, proj = _from_named(tables[""])
    opt = OptimState(m=tables["m."], v=tables["v."], step=opt_step)
    return Checkpoint(params=params, proj=proj, opt=opt, step=step, config=cfg)
