"""Tests for the schedule, optimizer, training loop, checkpoints, and config text."""

import dataclasses
import functools
import hashlib
import io
import json
import os
import re
import struct
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from slotwalks import autodiff as ad
from slotwalks.data import SceneConfig, generate_scene, write_feature_file
from slotwalks.cli import _build_parser, _cmd_eval
from slotwalks.errors import (
    CompatibilityError,
    ConfigError,
    DataFormatError,
    DegenerateInputError,
    ShapeError,
    TrainingDivergenceError,
)
from slotwalks.infer import write_mask_pgm
from slotwalks.slots import encode
from slotwalks.train import (
    ADAM_EPS,
    OptimState,
    TrainConfig,
    _batch_loss,
    _from_named,
    _init_model,
    _named_parameters,
    adamw_step,
    clip_grad_norm,
    format_config,
    load_checkpoint,
    lr_at,
    parse_config_text,
    save_checkpoint,
    train,
)
from slotwalks.walks import total_loss

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def toy_config(**overrides) -> TrainConfig:
    base = dict(
        num_slots=2,
        input_dim=8,
        slot_dim=8,
        walk_dim=8,
        iterations=2,
        warmup_steps=5,
        total_steps=20,
        batch_size=4,
        base_lr=1e-3,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def toy_scenes(count=8, seed=0):
    cfg = SceneConfig(height=4, width=4, classes=2, feature_dim=8, noise_std=0.1)
    return [generate_scene(cfg, seed=(seed, i)) for i in range(count)]


class TestSchedule:
    def setup_method(self):
        self.cfg = toy_config(base_lr=0.0004, warmup_steps=5000, total_steps=250_000)

    def test_step_zero(self):
        assert lr_at(0, self.cfg) == 0.0

    def test_end_of_warmup(self):
        assert lr_at(5000, self.cfg) == 0.0004

    def test_one_half_life(self):
        assert abs(lr_at(5000 + 100_000, self.cfg) - 0.0002) <= 1e-18

    def test_continuity_at_warmup_boundary(self):
        left = lr_at(4999, self.cfg) + self.cfg.base_lr / 5000
        right = lr_at(5000, self.cfg)
        assert abs(left - right) <= 1e-15

    def test_monotone_rampup_then_decay(self):
        lrs = [lr_at(s, self.cfg) for s in range(0, 20000, 100)]
        peak = lrs.index(max(lrs))
        assert all(a <= b for a, b in zip(lrs[:peak], lrs[1 : peak + 1]))
        assert all(a >= b for a, b in zip(lrs[peak:], lrs[peak + 1 :]))

    def test_negative_step(self):
        with pytest.raises(ConfigError):
            lr_at(-1, self.cfg)


class TestClipGradNorm:
    def test_under_threshold_unchanged(self):
        grads = {"a": np.array([[0.3, 0.4]])}  # norm 0.5
        out, norm = clip_grad_norm(grads, 1.0)
        assert norm == 0.5
        assert np.array_equal(out["a"], grads["a"])

    def test_over_threshold_scaled(self):
        grads = {"a": np.array([[2.0, 0.0]]), "b": np.array([[0.0, 0.0]])}
        out, norm = clip_grad_norm(grads, 1.0)
        assert norm == 2.0
        assert np.allclose(out["a"], [[1.0, 0.0]], atol=1e-15)
        _, post = clip_grad_norm(out, np.inf)
        assert post <= 1.0 + 1e-9

    def test_zero_gradients(self):
        grads = {"a": np.zeros((2, 2))}
        out, norm = clip_grad_norm(grads, 1.0)
        assert norm == 0.0
        assert np.array_equal(out["a"], np.zeros((2, 2)))

    def test_nan_gradient_raises_with_step(self):
        grads = {"a": np.array([[np.nan]])}
        with pytest.raises(TrainingDivergenceError, match="step 7"):
            clip_grad_norm(grads, 1.0, step=7)


class TestAdamW:
    def test_zero_grad_zero_decay_keeps_params(self):
        params = {"w": np.array([[1.0, -2.0]])}
        state = OptimState.for_params(params)
        adamw_step(params, {"w": np.zeros((1, 2))}, state, lr=0.1, weight_decay=0.0)
        assert np.array_equal(params["w"], [[1.0, -2.0]])
        assert np.array_equal(state.m["w"], np.zeros((1, 2)))
        # with stored momentum the beta factors decay the moments toward zero
        state.m["w"][:] = 0.5
        state.v["w"][:] = 0.25
        adamw_step(params, {"w": np.zeros((1, 2))}, state, lr=0.0, weight_decay=0.0)
        assert np.allclose(state.m["w"], 0.45, atol=1e-15)
        assert np.allclose(state.v["w"], 0.25 * 0.999, atol=1e-15)

    def test_first_step_closed_form(self):
        g = 0.37
        params = {"w": np.array([[2.0]])}
        state = OptimState.for_params(params)
        adamw_step(params, {"w": np.array([[g]])}, state, lr=0.01, weight_decay=0.0)
        # after bias correction the first update is lr * g / (|g| + eps)
        expect = 2.0 - 0.01 * g / (abs(g) + ADAM_EPS)
        assert abs(params["w"][0, 0] - expect) <= 1e-12

    def test_decay_applied_to_old_weights(self):
        params = {"w": np.array([[4.0]])}
        state = OptimState.for_params(params)
        adamw_step(params, {"w": np.zeros((1, 1))}, state, lr=0.5, weight_decay=0.1)
        assert abs(params["w"][0, 0] - (4.0 - 0.5 * 0.1 * 4.0)) <= 1e-12


def scene_loss(scene, params, proj, cfg, seed):
    """One scene's loss on its own, as 2-D matrices, with slot noise drawn from seed."""
    x = ad.constant(scene.features)
    noise = np.random.default_rng(seed).standard_normal((cfg.num_slots, cfg.slot_dim))
    slots_hat, _ = encode(x, params, cfg.iterations, noise)
    return total_loss(x, slots_hat, proj, cfg.walk())


class TestBatchedLoss:
    def test_stack_loss_and_gradients_equal_the_sum_over_scenes(self):
        scenes = toy_scenes(count=5)
        cfg = toy_config()
        params, proj = (m.lift(ad.leaf) for m in _init_model(cfg))
        seeds = [(cfg.seed, 3, pos) for pos in range(5)]
        x = ad.constant(np.stack([s.features for s in scenes]))
        shape = (cfg.num_slots, cfg.slot_dim)
        noise = np.stack([np.random.default_rng(seed).standard_normal(shape) for seed in seeds])
        slots_hat, _ = encode(x, params, cfg.iterations, noise)
        stacked = total_loss(x, slots_hat, proj, cfg.walk())
        ad.backward(stacked)
        stacked_grads = {k: n.grad.copy() for k, n in _named_parameters(params, proj).items()}

        alone_params, alone_proj = (m.lift(ad.leaf) for m in _init_model(cfg))
        alone = [scene_loss(s, alone_params, alone_proj, cfg, seed) for s, seed in zip(scenes, seeds)]
        ad.backward(functools.reduce(ad.add, alone))
        assert abs(stacked.value[0, 0] - sum(a.value[0, 0] for a in alone)) <= 1e-12
        for name, node in _named_parameters(alone_params, alone_proj).items():
            assert np.allclose(stacked_grads[name], node.grad, rtol=1e-9, atol=1e-12), name

    def test_mixed_cell_counts_give_the_mean_of_scene_losses(self):
        small = toy_scenes(count=3)
        cfg_big = SceneConfig(height=5, width=4, classes=2, feature_dim=8, noise_std=0.1)
        scenes = small + [generate_scene(cfg_big, seed=(1, i)) for i in range(3)]
        indices = np.array([3, 0, 4, 1, 5, 3])
        cfg = toy_config()
        params, proj = (m.lift(ad.leaf) for m in _init_model(cfg))
        batched = _batch_loss(scenes, indices, params, proj, cfg, step=7).value[0, 0]
        alone = [
            scene_loss(scenes[i], params, proj, cfg, (cfg.seed, 7, pos)).value[0, 0]
            for pos, i in enumerate(indices)
        ]
        assert abs(batched - np.mean(alone)) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_parameter_gets_a_gradient(self, seed):
        cfg = toy_config(seed=seed)
        params, proj = (m.lift(ad.leaf) for m in _init_model(cfg))
        ad.backward(_batch_loss(toy_scenes(), np.arange(cfg.batch_size), params, proj, cfg, step=0))
        grads = {name: node.grad for name, node in _named_parameters(params, proj).items()}
        dead = {name: float(np.abs(g).max()) for name, g in grads.items() if np.abs(g).max() <= 1e-8}
        assert not dead, dead

    def test_stack_passes_finite_differences_with_three_widths(self, monkeypatch):
        # input, slot and walk widths all differ, so every shared weight of the
        # stack takes its gradient through a distinct, non-square product
        geometry = SceneConfig(height=2, width=3, classes=2, feature_dim=5, noise_std=0.1)
        scenes = [generate_scene(geometry, seed=(4, i)) for i in range(3)]
        cfg = TrainConfig(num_slots=2, input_dim=5, slot_dim=4, walk_dim=3, iterations=2, batch_size=3, seed=1)
        indices = np.array([2, 0, 1])
        params, proj = _init_model(cfg)
        # the pwp target is detached: its feature rows stay at the base point, as in gradcheck
        x = np.stack([scenes[i].features for i in indices])
        frozen_target = functools.partial(total_loss, pwp_frozen_feats=x @ proj.p_x)
        monkeypatch.setattr(sys.modules["slotwalks.train"], "total_loss", frozen_target)

        def make_loss(nodes):
            return _batch_loss(scenes, indices, *_from_named(nodes), cfg, step=3)

        errors = ad.check_gradients(make_loss, _named_parameters(params, proj))
        assert max(errors.values()) <= 1e-3, errors

    def test_train_accepts_mixed_cell_counts(self):
        cfg_big = SceneConfig(height=5, width=4, classes=2, feature_dim=8, noise_std=0.1)
        scenes = toy_scenes(count=4) + [generate_scene(cfg_big, seed=(1, i)) for i in range(4)]
        result = train(scenes, toy_config(total_steps=3, warmup_steps=1))
        assert result.steps_run == 3 and np.all(np.isfinite(result.losses))

    def test_step_graph_is_freed_before_the_next_is_built(self, monkeypatch):
        train_mod = sys.modules["slotwalks.train"]
        losses: list[weakref.ref] = []
        alive_at_encode: list[bool] = []
        backward, encode_fn = ad.backward, train_mod.encode

        def tracked_backward(loss):
            losses.append(weakref.ref(loss))
            return backward(loss)

        def checked_encode(*args, **kwargs):
            alive_at_encode.append(any(ref() is not None for ref in losses))
            return encode_fn(*args, **kwargs)

        monkeypatch.setattr(ad, "backward", tracked_backward)
        monkeypatch.setattr(train_mod, "encode", checked_encode)
        train(toy_scenes(), toy_config(total_steps=3, warmup_steps=1))
        assert len(losses) == 3
        assert alive_at_encode == [False, False, False]


class TestTrainLoop:
    def test_zero_lr_keeps_parameters(self):
        scenes = toy_scenes()
        cfg = toy_config(base_lr=0.0, total_steps=6, warmup_steps=0)
        result = train(scenes, cfg)
        fresh = train(scenes, dataclasses.replace(cfg, total_steps=1))
        # compare against a freshly initialized model: nothing moved
        for name, arr in result.params.named().items():
            assert np.array_equal(arr, fresh.params.named()[name])

    def test_loss_decreases_on_short_run(self):
        scenes = toy_scenes(count=12)
        cfg = toy_config(total_steps=150, warmup_steps=10, base_lr=3e-3)
        result = train(scenes, cfg)
        first = np.mean(result.losses[:10])
        last = np.mean(result.losses[-10:])
        assert last < first

    def test_three_cluster_run_halves_the_loss(self):
        """2000 steps on a 3-cluster dataset cut the loss by at least half.

        The grid is 3x3: the parts-whole-parts cross entropy is bounded
        below by the entropy of its correspondence target (about log of
        the class-block size), so small blocks are needed for a 50%
        drop of the total to be reachable at all.
        """
        scene_cfg = SceneConfig(height=3, width=3, classes=3, feature_dim=32, noise_std=0.1)
        scenes = [generate_scene(scene_cfg, seed=(0, i)) for i in range(100)]
        cfg = TrainConfig(
            num_slots=3, input_dim=32, slot_dim=64, walk_dim=64, iterations=3,
            warmup_steps=100, total_steps=2000, batch_size=16, seed=0,
        )
        result = train(scenes, cfg)
        assert result.losses[-1] < 0.5 * result.losses[0]

    def test_features_stay_frozen(self):
        scenes = toy_scenes()
        before = [s.features.copy() for s in scenes]
        train(scenes, toy_config(total_steps=5))
        for s, b in zip(scenes, before):
            assert np.array_equal(s.features, b)

    def test_bit_deterministic_runs(self, tmp_path):
        scenes = toy_scenes()
        cfg = toy_config(total_steps=10)
        train(scenes, cfg, out_dir=tmp_path / "a")
        train(scenes, cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "trace.txt").read_bytes() == (tmp_path / "b" / "trace.txt").read_bytes()
        assert (tmp_path / "a" / "checkpoint.ocwc").read_bytes() == (
            tmp_path / "b" / "checkpoint.ocwc"
        ).read_bytes()

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            train([], toy_config())

    def test_scene_smaller_than_slots_rejected(self):
        cfg = SceneConfig(height=1, width=2, classes=1, feature_dim=8)
        scenes = [generate_scene(cfg, seed=0)]
        with pytest.raises(ConfigError):
            train(scenes, toy_config(num_slots=3))

    def test_non_finite_feature_refused_before_the_first_step(self, monkeypatch):
        scenes = toy_scenes()
        scenes[3].features[5, 0] = np.inf
        steps = []
        monkeypatch.setattr(sys.modules["slotwalks.train"], "_train_step", lambda *args: steps.append(args))
        with pytest.raises(DegenerateInputError, match=r"^train: scene 3 has a non-finite feature in cell 5$"):
            train(scenes, toy_config(total_steps=2, warmup_steps=1))
        assert steps == []

    def test_divergent_loss_names_the_batch(self, monkeypatch):
        import sys

        train_mod = sys.modules["slotwalks.train"]

        def poisoned(*args, **kwargs):
            from slotwalks import autodiff as ad

            node = ad.constant([[1.0]])
            node.value = np.array([[np.nan]])
            return node

        monkeypatch.setattr(train_mod, "total_loss", poisoned)
        with pytest.raises(TrainingDivergenceError, match=r"step 0, batch scenes \["):
            train(toy_scenes(), toy_config(total_steps=2, warmup_steps=1))

    def test_resume_matches_uninterrupted(self, tmp_path):
        scenes = toy_scenes()
        cfg = toy_config(total_steps=16, checkpoint_interval=8)
        full = train(scenes, cfg, out_dir=tmp_path / "full")
        resumed = train(
            scenes, cfg, out_dir=tmp_path / "resumed",
            resume=tmp_path / "full" / "checkpoint_000008.ocwc",
        )
        assert resumed.losses == full.losses[8:]
        assert resumed.records == full.records[8:]
        for name, arr in resumed.params.named().items():
            assert np.array_equal(arr, full.params.named()[name])
        full_trace = (tmp_path / "full" / "trace.txt").read_text().splitlines()
        resumed_trace = (tmp_path / "resumed" / "trace.txt").read_text().splitlines()
        assert resumed_trace == full_trace[8:]

    def test_trace_lines_are_the_records(self, tmp_path):
        cfg = toy_config(total_steps=8, warmup_steps=3)
        result = train(toy_scenes(), cfg, out_dir=tmp_path)
        lines = (tmp_path / "trace.txt").read_text().splitlines()
        assert [r["step"] for r in result.records] == list(range(8))
        assert lines == [f"{r['step']}\t{r['loss']!r}\t{r['lr']!r}" for r in result.records]
        for r in result.records:
            assert set(r) == {"step", "loss", "lr", "grad_norm", "clipped_norm"}
            assert r["lr"] == lr_at(r["step"], cfg)
            assert json.loads(json.dumps(r)) == r

    def test_fresh_run_truncates_old_trace(self, tmp_path):
        scenes = toy_scenes()
        cfg = toy_config(total_steps=3, warmup_steps=1)
        train(scenes, cfg, out_dir=tmp_path)
        train(scenes, cfg, out_dir=tmp_path)
        assert len((tmp_path / "trace.txt").read_text().splitlines()) == 3

    def test_resume_in_place_keeps_one_line_per_step(self, tmp_path):
        scenes = toy_scenes()
        cfg = toy_config(total_steps=16, checkpoint_interval=8)
        train(scenes, cfg, out_dir=tmp_path)
        full_trace = (tmp_path / "trace.txt").read_text()
        train(scenes, cfg, out_dir=tmp_path, resume=tmp_path / "checkpoint_000008.ocwc")
        assert (tmp_path / "trace.txt").read_text() == full_trace

    def test_resume_rejects_malformed_trace_and_keeps_it(self, tmp_path):
        scenes = toy_scenes()
        cfg = toy_config(total_steps=8, checkpoint_interval=4)
        train(scenes, cfg, out_dir=tmp_path)
        (tmp_path / "trace.txt").write_text("not a trace line\n")
        with pytest.raises(DataFormatError, match="trace.txt"):
            train(scenes, cfg, out_dir=tmp_path, resume=tmp_path / "checkpoint_000004.ocwc")
        assert (tmp_path / "trace.txt").read_text() == "not a trace line\n"

    def test_resume_rejects_other_config(self, tmp_path):
        scenes = toy_scenes()
        cfg = toy_config(total_steps=8, checkpoint_interval=4)
        train(scenes, cfg, out_dir=tmp_path / "run")
        other = toy_config(total_steps=8, checkpoint_interval=4, tau=0.2)
        with pytest.raises(CompatibilityError):
            train(scenes, other, resume=tmp_path / "run" / "checkpoint_000004.ocwc")


class TestCheckpointFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        scenes = toy_scenes()
        cfg = toy_config(total_steps=3, warmup_steps=1)
        result = train(scenes, cfg)
        first = tmp_path / "a.ocwc"
        second = tmp_path / "b.ocwc"
        save_checkpoint(first, result.params, result.proj, result.opt, result.steps_run, cfg)
        ckpt = load_checkpoint(first)
        save_checkpoint(second, ckpt.params, ckpt.proj, ckpt.opt, ckpt.step, ckpt.config)
        assert first.read_bytes() == second.read_bytes()
        assert ckpt.step == 3
        assert ckpt.config == cfg

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ocwc"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(DataFormatError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_version_1_rejected(self, tmp_path, version):
        scenes = toy_scenes()
        cfg = toy_config(total_steps=2, warmup_steps=1)
        result = train(scenes, cfg)
        path = tmp_path / "v1.ocwc"
        save_checkpoint(path, result.params, result.proj, result.opt, 2, cfg)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", version)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match=f"unsupported version {version}"):
            load_checkpoint(path)

    def test_tampered_config_detected(self, tmp_path):
        scenes = toy_scenes()
        cfg = toy_config(total_steps=2, warmup_steps=1)
        result = train(scenes, cfg)
        path = tmp_path / "t.ocwc"
        save_checkpoint(path, result.params, result.proj, result.opt, 2, cfg)
        raw = bytearray(path.read_bytes())
        idx = raw.find(b"alpha = 1.0")
        assert idx > 0
        raw[idx : idx + 11] = b"alpha = 9.0"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match=r"t\.ocwc: sha256 checksum does not match"):
            load_checkpoint(path)


    def test_parameter_shape_checked_against_config(self, tmp_path):
        result = train(toy_scenes(), toy_config(num_slots=3, total_steps=1, warmup_steps=0))
        path = tmp_path / "k3.ocwc"
        cfg4 = toy_config(num_slots=4, total_steps=1, warmup_steps=0)
        with pytest.raises(ShapeError, match=r"k3\.ocwc: blob 'slots\.mu' has shape \(3, 8\), the config gives \(4, 8\)"):
            save_checkpoint(path, result.params, result.proj, result.opt, 1, cfg4)
        assert os.listdir(tmp_path) == []

    def test_moment_shape_must_match_parameter(self, tmp_path):
        cfg = toy_config(total_steps=1, warmup_steps=0)
        result = train(toy_scenes(), cfg)
        result.opt.v["proj.p_x"] = np.zeros((1, 8))
        path = tmp_path / "v.ocwc"
        with pytest.raises(ShapeError, match=r"v\.ocwc: blob 'v\.proj\.p_x' has shape \(1, 8\), the config gives \(8, 8\)"):
            save_checkpoint(path, result.params, result.proj, result.opt, 1, cfg)
        assert os.listdir(tmp_path) == []


    def test_config_hash_checked_before_parsing(self, tmp_path):
        path = _saved_checkpoint(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b"alpha = 1.0", b"alpha = x.0"))
        with pytest.raises(DataFormatError, match=r"c\.ocwc: sha256 checksum does not match"):
            load_checkpoint(path)

    def test_config_text_not_utf8_rejected_naming_the_file(self, tmp_path):
        path = _saved_checkpoint(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[60] = 0xFF
        raw[8:40] = hashlib.sha256(raw[40:]).digest()
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match=r"c\.ocwc: the embedded config is not valid UTF-8"):
            load_checkpoint(path)

    def test_wide_config_refused_before_anything_is_allocated(self, tmp_path):
        # a valid digest over config text that claims 1024-wide slots: the
        # file is far too short for them, which the load must find from the
        # widths alone, not by building a model of that size first
        path = _saved_checkpoint(tmp_path)
        raw = path.read_bytes()
        # config text length at bytes 56:60, the text from byte 60
        (cfg_len,) = struct.unpack_from("<I", raw, 56)
        text = raw[60 : 60 + cfg_len]
        wide = text.replace(b"slot_dim = 8\n", b"slot_dim = 1024\n")
        assert wide.count(b"1024") == 1
        body = raw[40:56] + struct.pack("<I", len(wide)) + wide + raw[60 + cfg_len :]
        path.write_bytes(raw[:8] + hashlib.sha256(body).digest() + body)
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match=r"c\.ocwc: \d+ bytes, the embedded config gives \d+"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize(
        "blob, array",
        [
            ("slots.w_q", lambda result: result.params.w_q),
            ("m.proj.p_s", lambda result: result.opt.m["proj.p_s"]),
            ("v.slots.mu", lambda result: result.opt.v["slots.mu"]),
        ],
        ids=["parameter", "first_moment", "second_moment"],
    )
    def test_non_finite_array_rejected_naming_the_blob(self, tmp_path, blob, array):
        path = _saved_checkpoint(tmp_path, lambda result: array(result).__setitem__((0, -1), np.nan))
        with pytest.raises(DataFormatError, match=rf"c\.ocwc: blob '{re.escape(blob)}' has a non-finite entry"):
            load_checkpoint(path)


# name -> (config, sha256 of its initial parameters as 0.10.0 drew them:
# little-endian float64, in _named_parameters order)
INITIAL_PARAMETERS = {
    "bench_k3": (
        TrainConfig(num_slots=3, input_dim=32, slot_dim=64, walk_dim=64),
        "87b2e4396a5a3460b37495c135af062c417c3ca98fc3cb9df5af2284b053f2b6",
    ),
    "width_1": (
        TrainConfig(num_slots=1, input_dim=1, slot_dim=1, walk_dim=1, seed=5),
        "5ddcb7cb607a61cdfc8e5a2e8e0508ec61d79b2deb15cfecaa19ba0951f8aeac",
    ),
}


@pytest.mark.parametrize("name", list(INITIAL_PARAMETERS))
def test_initial_parameters_are_pinned(name):
    # every width 1 makes each weight matrix the shape of a bias row, so an
    # init rule keyed on shape instead of name changes that digest
    cfg, expect = INITIAL_PARAMETERS[name]
    digest = hashlib.sha256()
    for arr in _named_parameters(*_init_model(cfg)).values():
        digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    assert digest.hexdigest() == expect


def _saved_checkpoint(tmp_path, change=lambda result: None):
    """A one-step checkpoint at tmp_path/c.ocwc; change(train result) edits it before the save."""
    cfg = toy_config(total_steps=1, warmup_steps=0)
    result = train(toy_scenes(), cfg)
    change(result)
    path = tmp_path / "c.ocwc"
    save_checkpoint(path, result.params, result.proj, result.opt, 1, cfg)
    return path


class _HalfWriteThenFail:
    """A file opened for writing that keeps half of the first write, then fails."""

    def __init__(self, f):
        self.f = f

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        self.f.flush()
        raise OSError(28, "No space left on device")

    def writelines(self, lines):
        self.write("".join(lines))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def _fail_writes(monkeypatch):
    """Make every file opened for writing fail as _HalfWriteThenFail does."""
    real_open = io.open

    def failing_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        return _HalfWriteThenFail(f) if "w" in mode else f

    monkeypatch.setattr(io, "open", failing_open)
    monkeypatch.setattr("builtins.open", failing_open)


@pytest.mark.parametrize("artifact", ["feature_file", "checkpoint", "report", "mask_pgm"])
def test_failed_write_keeps_previous_file(tmp_path, tmp_path_factory, monkeypatch, artifact):
    cfg = toy_config(total_steps=1, warmup_steps=0)
    result = train(toy_scenes(), cfg)
    scenes = toy_scenes(count=2)
    if artifact == "report":
        inputs = tmp_path_factory.mktemp("inputs")  # what the report's eval reads
        save_checkpoint(inputs / "c.ocwc", result.params, result.proj, result.opt, 1, cfg)
        write_feature_file(inputs / "0000.ocwf", scenes[0])

    def write(version):
        if artifact == "feature_file":
            write_feature_file(path, scenes[version])
        elif artifact == "checkpoint":
            save_checkpoint(path, result.params, result.proj, result.opt, version, cfg)
        elif artifact == "report":
            task = ("fg", "discovery")[version]
            _cmd_eval(_build_parser().parse_args(
                ["eval", "--data", str(inputs), "--checkpoint", str(inputs / "c.ocwc"),
                 "--task", task, "--report", str(path)]
            ))
        else:
            write_mask_pgm(scenes[version].labels, 4, 4, path, num_labels=2)

    path = tmp_path / "artifact"
    write(0)
    before = path.read_bytes()
    _fail_writes(monkeypatch)
    with pytest.raises(OSError, match="No space left"):
        write(1)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["artifact"]


def test_failed_resume_keeps_the_trace(tmp_path, monkeypatch):
    scenes = toy_scenes()
    cfg = toy_config(total_steps=6, checkpoint_interval=3)
    train(scenes, cfg, out_dir=tmp_path)
    before = (tmp_path / "trace.txt").read_text()
    assert len(before.splitlines()) == 6
    _fail_writes(monkeypatch)
    with pytest.raises(OSError, match="No space left"):
        train(scenes, cfg, out_dir=tmp_path, resume=tmp_path / "checkpoint_000003.ocwc")
    monkeypatch.undo()
    assert (tmp_path / "trace.txt").read_text() == before


class TestConfigText:
    def test_round_trip(self):
        cfg = toy_config(tau=0.07, gamma=float("-inf"), alpha=0.25)
        text = format_config(cfg)
        again = parse_config_text(text)
        assert again == cfg

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nnum_slots = 3\ninput_dim = 8  # trailing\n"
        cfg = parse_config_text(text)
        assert cfg.num_slots == 3 and cfg.input_dim == 8

    def test_malformed_line_reports_number(self):
        text = "num_slots = 3\ninput_dim 8\n"
        with pytest.raises(DataFormatError, match="line 2"):
            parse_config_text(text)

    def test_unknown_key_reports_number(self):
        text = "num_slots = 3\ninput_dim = 8\nlearning_rate = 0.1\n"
        with pytest.raises(DataFormatError, match="line 3"):
            parse_config_text(text)

    @pytest.mark.parametrize("key", ["attn_dim", "clip_norm", "weight_decay", "decay_half_life_steps"])
    def test_attention_width_is_an_unknown_key(self, key):
        # the attention width is the slot width, and the optimizer recipe is
        # fixed; a config may set none of them
        with pytest.raises(DataFormatError, match=rf"cfg line 3: unknown key '{key}'"):
            parse_config_text(f"num_slots = 3\ninput_dim = 8\n{key} = 8\n", source="cfg")

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
    def test_shipped_config_parses_and_round_trips(self, path):
        cfg = parse_config_text(path.read_text(), source=str(path))
        assert parse_config_text(format_config(cfg)) == cfg

    def test_bad_value_type(self):
        with pytest.raises(DataFormatError, match="integer"):
            parse_config_text("num_slots = three\ninput_dim = 8\n")

    def test_missing_required_key(self):
        with pytest.raises(DataFormatError, match="num_slots"):
            parse_config_text("input_dim = 8\n")

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(DataFormatError, match="cfg line 4: tau repeats line 3"):
            parse_config_text("num_slots = 3\ninput_dim = 8\ntau = 0.1\ntau = 0.5\n", source="cfg")

    @pytest.mark.parametrize(
        "line",
        ["tau = inf", "base_lr = nan", "base_lr = -0.1", "seed = -1", "slot_dim = -2", "slot_dim = 0", "walk_dim = 0"],
    )
    def test_out_of_range_value_names_the_source(self, line):
        with pytest.raises(ConfigError, match=r"^cfg: TrainConfig: \w+ must be"):
            parse_config_text(f"num_slots = 3\ninput_dim = 8\n{line}\n", source="cfg")

    def test_warmup_exceeding_total_rejected(self):
        with pytest.raises(ConfigError):
            toy_config(warmup_steps=100, total_steps=50)
