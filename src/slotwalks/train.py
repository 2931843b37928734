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
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .data import Scene, group_by_cells, write_bytes_atomic
from .errors import CompatibilityError, ConfigError, DataFormatError, TrainingDivergenceError
from .slots import SlotParams, encode
from .walks import WalkConfig, WalkProjection, total_loss

CHECKPOINT_MAGIC = b"OCWC"
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs; maps 1:1 onto the `key = value` config file."""

    num_slots: int
    input_dim: int
    slot_dim: int = 256
    attn_dim: int = 0  # 0 means "same as slot_dim", resolved below
    iterations: int = 3
    walk_dim: int = 128
    tau: float = 0.1
    gamma: float = 0.7
    alpha: float = 1.0
    beta: float = 1.0
    base_lr: float = 0.0004
    warmup_steps: int = 200
    total_steps: int = 2000
    decay_half_life_steps: int = 100_000
    clip_norm: float = 1.0
    batch_size: int = 16
    weight_decay: float = 0.01
    seed: int = 0
    checkpoint_interval: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            # gamma = -inf means "no threshold"; WalkConfig checks gamma's range
            if isinstance(v, float) and not math.isfinite(v) and f.name != "gamma":
                raise ConfigError(f"TrainConfig: {f.name} must be finite, got {v}")
            if isinstance(v, int) and v < 0:
                raise ConfigError(f"TrainConfig: {f.name} must be >= 0, got {v}")
        for name in ("num_slots", "input_dim", "slot_dim", "walk_dim", "total_steps", "batch_size",
                     "decay_half_life_steps"):
            if getattr(self, name) < 1:
                raise ConfigError(f"TrainConfig: {name} must be >= 1, got {getattr(self, name)}")
        if self.attn_dim == 0:
            object.__setattr__(self, "attn_dim", self.slot_dim)
        if self.warmup_steps > self.total_steps:
            raise ConfigError(
                f"TrainConfig: warmup_steps {self.warmup_steps} exceeds"
                f" total_steps {self.total_steps}"
            )
        if self.clip_norm <= 0.0:
            raise ConfigError(f"TrainConfig: clip_norm must be positive, got {self.clip_norm}")
        if self.base_lr < 0.0 or self.weight_decay < 0.0:
            raise ConfigError("TrainConfig: base_lr and weight_decay must be >= 0")
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


def config_hash(cfg: TrainConfig) -> bytes:
    return hashlib.sha256(format_config(cfg).encode()).digest()


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to base_lr, then exponential half-life decay."""
    if step < 0:
        raise ConfigError(f"lr_at: step must be >= 0, got {step}")
    if step < cfg.warmup_steps:
        return cfg.base_lr * step / cfg.warmup_steps
    return cfg.base_lr * 0.5 ** ((step - cfg.warmup_steps) / cfg.decay_half_life_steps)


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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

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
    bc1 = 1.0 - state.beta1**state.step
    bc2 = 1.0 - state.beta2**state.step
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        p -= lr * (update + weight_decay * p)


def _init_model(cfg: TrainConfig) -> tuple[SlotParams, WalkProjection]:
    """Freshly seeded parameters; their shapes are the ones a checkpoint of cfg holds."""
    return (
        SlotParams.create(cfg.num_slots, cfg.input_dim, cfg.slot_dim, cfg.attn_dim, seed=cfg.seed),
        WalkProjection.create(cfg.input_dim, cfg.slot_dim, cfg.walk_dim, seed=cfg.seed + 1),
    )


def _named_parameters(params: SlotParams, proj: WalkProjection) -> dict[str, np.ndarray]:
    out = {f"slots.{k}": v for k, v in params.named().items()}
    out.update({f"proj.{k}": v for k, v in proj.named().items()})
    return out


@dataclass
class TrainResult:
    params: SlotParams
    proj: WalkProjection
    opt: OptimState
    config: TrainConfig
    steps_run: int
    losses: list[float] = field(default_factory=list)
    lrs: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    clipped_norms: list[float] = field(default_factory=list)


def _batch_loss(
    scenes: Sequence[Scene],
    indices: np.ndarray,
    lifted_params: SlotParams,
    lifted_proj: WalkProjection,
    cfg: TrainConfig,
    step: int,
) -> ad.Node:
    """Mean scene loss of the batch, from one encode and one total_loss per group of equal-N scenes.

    Batch position pos draws its slot noise from (cfg.seed, step, pos).
    """
    walk = cfg.walk()
    batch = [scenes[int(i)] for i in indices]
    group_losses = []
    for group in group_by_cells(batch):
        x = ad.constant(np.stack([batch[pos].features for pos in group]))
        seeds = [(cfg.seed, step, pos) for pos in group]
        slots_hat, _ = encode(x, lifted_params, cfg.iterations, mode="train", seed=seeds)
        group_losses.append(total_loss(x, slots_hat, lifted_proj, walk))
    return ad.mul(functools.reduce(ad.add, group_losses), 1.0 / len(indices))


def _loss_and_grads(
    scenes: Sequence[Scene],
    indices: np.ndarray,
    params: SlotParams,
    proj: WalkProjection,
    cfg: TrainConfig,
    step: int,
) -> tuple[float, dict[str, np.ndarray]]:
    """The batch loss and its gradient per named parameter.

    The step's graph lives only inside this call, so it is freed before
    the next step builds its own.
    """
    lifted_params, lifted_proj = params.lift(ad.leaf), proj.lift(ad.leaf)
    loss = _batch_loss(scenes, indices, lifted_params, lifted_proj, cfg, step)
    loss_value = float(loss.value[0, 0])
    if not np.isfinite(loss_value):
        raise TrainingDivergenceError(
            f"non-finite loss at step {step}, batch scenes {indices.tolist()}"
        )
    ad.backward(loss)
    named = _named_parameters(lifted_params, lifted_proj)
    return loss_value, {name: node.grad for name, node in named.items()}


def _open_trace(path: Path, start_step: int):
    """Open the trace for writing, keeping only its lines for steps before start_step."""
    lines = path.read_text().splitlines(keepends=True) if start_step > 0 and path.exists() else []
    try:
        kept = [line for line in lines if int(line.split("\t", 1)[0]) < start_step]
    except ValueError:
        raise DataFormatError(f"{path}: a line does not start with a step number") from None
    trace = open(path, "w")
    trace.writelines(kept)
    return trace


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
    config hash must match cfg.
    """
    if not scenes:
        raise ConfigError("train: dataset is empty")
    for i, scene in enumerate(scenes):
        if scene.features.shape[0] < cfg.num_slots:
            raise ConfigError(
                f"train: scene {i} has {scene.features.shape[0]} cells,"
                f" fewer than num_slots={cfg.num_slots}"
            )
        if scene.features.shape[1] != cfg.input_dim:
            raise ConfigError(
                f"train: scene {i} has feature width {scene.features.shape[1]},"
                f" config says input_dim={cfg.input_dim}"
            )

    if resume is not None:
        ckpt = load_checkpoint(resume)
        if config_hash(ckpt.config) != config_hash(cfg):
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
            rng = np.random.default_rng((cfg.seed, step))
            replace = cfg.batch_size > len(scenes)
            indices = rng.choice(len(scenes), size=cfg.batch_size, replace=replace)

            loss_value, grads = _loss_and_grads(scenes, indices, params, proj, cfg, step)
            grads, norm = clip_grad_norm(grads, cfg.clip_norm, step)
            _, post_norm = clip_grad_norm(grads, np.inf)
            lr = lr_at(step, cfg)
            adamw_step(_named_parameters(params, proj), grads, opt, lr, cfg.weight_decay)

            result.losses.append(loss_value)
            result.lrs.append(lr)
            result.grad_norms.append(norm)
            result.clipped_norms.append(post_norm)
            result.steps_run = step + 1
            if trace is not None:
                trace.write(f"{step}\t{loss_value!r}\t{lr!r}\n")
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


def _pack_blob(name: str, arr: np.ndarray) -> bytes:
    nb = name.encode()
    return (
        struct.pack("<I", len(nb))
        + nb
        + struct.pack("<II", arr.shape[0], arr.shape[1])
        + arr.astype("<f8").tobytes()
    )


def _decode(data: bytes, source: str, what: str) -> str:
    try:
        return data.decode()
    except UnicodeDecodeError:
        raise DataFormatError(f"{source}: {what} is not valid UTF-8") from None


class _Reader:
    def __init__(self, raw: bytes, source: str):
        self.raw = raw
        self.pos = 0
        self.source = source

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise DataFormatError(f"{self.source}: truncated at byte {self.pos}")
        out = self.raw[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def blob(self) -> tuple[str, np.ndarray]:
        (nlen,) = self.unpack("<I")
        name = _decode(self.take(nlen), self.source, "a blob name")
        rows, cols = self.unpack("<II")
        data = np.frombuffer(self.take(8 * rows * cols), dtype="<f8")
        if not np.isfinite(data).all():
            raise DataFormatError(f"{self.source}: blob {name!r} has a non-finite entry")
        return name, data.reshape(rows, cols).copy()


def save_checkpoint(path, params: SlotParams, proj: WalkProjection, opt: OptimState, step: int, cfg: TrainConfig) -> None:
    """Binary checkpoint: magic, version, config hash + text, parameters, optimizer, step."""
    named = _named_parameters(params, proj)
    cfg_text = format_config(cfg).encode()
    out = [
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        config_hash(cfg),
        struct.pack("<Q", step),
        struct.pack("<I", len(cfg_text)),
        cfg_text,
        struct.pack("<I", len(named)),
    ]
    for name, arr in named.items():
        out.append(_pack_blob(name, arr))
    out.append(struct.pack("<Qddd", opt.step, opt.beta1, opt.beta2, opt.eps))
    for prefix, table in (("m", opt.m), ("v", opt.v)):
        for name in named:
            out.append(_pack_blob(f"{prefix}.{name}", table[name]))
    write_bytes_atomic(path, b"".join(out))


def load_checkpoint(path) -> Checkpoint:
    raw = Path(path).read_bytes()
    r = _Reader(raw, str(path))
    if r.take(4) != CHECKPOINT_MAGIC:
        raise DataFormatError(f"{path}: bad magic")
    (version,) = r.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    stored_hash = r.take(32)
    (step,) = r.unpack("<Q")
    (cfg_len,) = r.unpack("<I")
    cfg_bytes = r.take(cfg_len)
    if hashlib.sha256(cfg_bytes).digest() != stored_hash:
        raise CompatibilityError(f"{path}: config hash does not match embedded config")
    cfg_text = _decode(cfg_bytes, str(path), "the embedded config")
    cfg = parse_config_text(cfg_text, source=f"{path} embedded config")
    shapes = {k: a.shape for k, a in _named_parameters(*_init_model(cfg)).items()}
    (n_params,) = r.unpack("<I")
    if n_params != len(shapes):
        raise DataFormatError(
            f"{path}: {n_params} parameter blobs, the embedded config has {len(shapes)}"
        )

    def take(table: dict[str, np.ndarray], name: str, key: str, arr: np.ndarray) -> None:
        # with n_params == len(shapes), distinct known keys cover every parameter
        if key not in shapes or key in table:
            raise DataFormatError(f"{path}: blob {name!r} is not a parameter or repeats one")
        if arr.shape != shapes[key]:
            raise DataFormatError(
                f"{path}: blob {name!r} has shape {arr.shape},"
                f" the embedded config gives {shapes[key]}"
            )
        table[key] = arr

    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        name, arr = r.blob()
        take(arrays, name, name, arr)
    opt_step, beta1, beta2, eps = r.unpack("<Qddd")
    if not all(map(math.isfinite, (beta1, beta2, eps))):
        raise DataFormatError(
            f"{path}: non-finite optimizer scalar (beta1={beta1}, beta2={beta2}, eps={eps})"
        )
    m: dict[str, np.ndarray] = {}
    v: dict[str, np.ndarray] = {}
    for table, prefix in ((m, "m"), (v, "v")):
        for _ in range(n_params):
            name, arr = r.blob()
            if not name.startswith(prefix + "."):
                raise DataFormatError(f"{path}: optimizer blob {name!r} out of order")
            take(table, name, name[len(prefix) + 1 :], arr)
    if r.pos != len(raw):
        raise DataFormatError(f"{path}: {len(raw) - r.pos} trailing bytes")

    slot_fields = {k[len("slots.") :]: v for k, v in arrays.items() if k.startswith("slots.")}
    proj_fields = {k[len("proj.") :]: v for k, v in arrays.items() if k.startswith("proj.")}
    params = SlotParams(**slot_fields)
    proj = WalkProjection(**proj_fields)
    opt = OptimState(m=m, v=v, step=opt_step, beta1=beta1, beta2=beta2, eps=eps)
    return Checkpoint(params=params, proj=proj, opt=opt, step=step, config=cfg)
