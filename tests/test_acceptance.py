"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines as
they happen. The toy-scale learning runs dominate the runtime (several
minutes); everything else is seconds.
"""

import itertools
import multiprocessing
import time

import numpy as np
import pytest

from slotwalks.cli import main
from slotwalks.data import SceneConfig, generate_scene, read_feature_file, write_feature_file
from slotwalks.gradcheck import full_model_errors, grouped_errors
from slotwalks.infer import evaluate_discovery, semantic_segment
from slotwalks.metrics import ari_fg, assign_classes, dice, miou
from slotwalks.slots import SlotParams, attention_step
from slotwalks.train import TrainConfig, load_checkpoint, lr_at, save_checkpoint, train
from slotwalks.walks import adjacency, pwp_target, wpw_loss

SCENE_CFG = SceneConfig(
    height=8, width=8, classes=3, feature_dim=32, noise_std=0.1, mean_separation_deg=60.0
)

TRAIN_SNIPPET = dict(
    num_slots=3, input_dim=32, slot_dim=64, walk_dim=64, iterations=3,
    tau=0.1, gamma=0.7, base_lr=0.0004, warmup_steps=100, total_steps=2000,
    batch_size=16,
)


def _toy_dataset():
    train_scenes = [generate_scene(SCENE_CFG, seed=(0, i)) for i in range(200)]
    eval_scenes = [generate_scene(SCENE_CFG, seed=(1, i)) for i in range(50)]
    for i, scene in enumerate(eval_scenes):
        scene.name = f"{i:04d}"
    return train_scenes, eval_scenes


def _run_and_score(alpha: float, beta: float, seed: int):
    train_scenes, eval_scenes = _toy_dataset()
    cfg = TrainConfig(alpha=alpha, beta=beta, seed=seed, **TRAIN_SNIPPET)
    result = train(train_scenes, cfg)
    walk = cfg.walk()
    disc = evaluate_discovery(eval_scenes, result.params, result.proj, walk, cfg.iterations)
    sem = semantic_segment(
        eval_scenes, result.params, result.proj, walk, cfg.iterations, num_classes=3
    )
    return disc.summary["ari_fg"], sem.summary["iou"], result


def _ablation_worker(args):
    alpha, beta, seed = args
    ari, _, _ = _run_and_score(alpha, beta, seed)
    return (alpha, beta, seed), ari


@pytest.fixture(scope="module")
def toy_run():
    """Criterion 4's training run, timed solo on one core."""
    start = time.monotonic()
    ari, iou, result = _run_and_score(1.0, 1.0, seed=0)
    elapsed = time.monotonic() - start
    return {"ari": ari, "iou": iou, "result": result, "elapsed": elapsed}


@pytest.fixture(scope="module")
def ablation_scores(toy_run):
    """Mean discovery score per loss configuration over three seeds."""
    jobs = [
        (alpha, beta, seed)
        for (alpha, beta) in ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0))
        for seed in (0, 1, 2)
        if not (alpha == 1.0 and beta == 1.0 and seed == 0)  # covered by toy_run
    ]
    scores = {(1.0, 1.0, 0): toy_run["ari"]}
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=2) as pool:
        for key, ari in pool.imap_unordered(_ablation_worker, jobs):
            scores[key] = ari
    means = {}
    for alpha, beta in ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0)):
        means[(alpha, beta)] = float(np.mean([scores[(alpha, beta, s)] for s in (0, 1, 2)]))
    return means


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    errors = full_model_errors(12, 3, 8, iterations=2, seed=0)
    elapsed = time.monotonic() - start
    grouped = grouped_errors(errors)
    assert set(grouped) == {"mu", "log_sigma", "qkv", "gru", "layer_norm", "p_x", "p_s"}
    worst = max(grouped.values())
    assert worst <= 1e-3, grouped
    assert elapsed < 60.0
    print(f"\nPASS criterion 1: gradcheck max relative error {worst:.2e} "
          f"over {len(errors)} parameters in {elapsed:.1f}s")


def test_criterion_2_stochasticity_invariants():
    rng = np.random.default_rng(0)
    worst_adj = worst_round = worst_attn = worst_target = 0.0
    for trial in range(1000):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, 5))
        n = int(rng.integers(max(2, k), 13))
        slots = rng.normal(size=(k, d))
        feats = rng.normal(size=(n, d))

        m_sx, m_xs = (m.value for m in adjacency(slots, feats, 0.1)[:2])
        worst_adj = max(
            worst_adj,
            np.abs(m_sx.sum(axis=1) - 1.0).max(),
            np.abs(m_xs.sum(axis=1) - 1.0).max(),
        )
        worst_round = max(
            worst_round,
            np.abs((m_sx @ m_xs).sum(axis=1) - 1.0).max(),
            np.abs((m_xs @ m_sx).sum(axis=1) - 1.0).max(),
        )

        params = SlotParams.create(k, input_dim=d, slot_dim=d, seed=trial)
        state = attention_step(feats, rng.normal(size=(k, d)), params)
        worst_attn = max(worst_attn, np.abs(state.attn.value.sum(axis=1) - 1.0).max())

        target = pwp_target(feats, 0.7)
        worst_target = max(worst_target, np.abs(target.sum(axis=1) - 1.0).max())
        assert np.all(np.diag(target) > 0.0)

    assert worst_adj <= 1e-12
    assert worst_round <= 1e-9
    assert worst_attn <= 1e-12
    assert worst_target <= 1e-12
    print(f"\nPASS criterion 2: 1000 instances; adjacency rows off by <= {worst_adj:.1e}, "
          f"round trips <= {worst_round:.1e}, attn <= {worst_attn:.1e}, "
          f"targets <= {worst_target:.1e}, all diagonals survive at gamma 0.7")


def test_criterion_3_loss_floor():
    rng = np.random.default_rng(1)
    for _ in range(20):
        feats = rng.normal(size=(int(rng.integers(2, 12)), 5))
        single = rng.normal(size=(1, 5))
        assert wpw_loss(*adjacency(single, feats, 0.1)[:2]).value[0, 0] == 0.0

    slots = np.eye(2, 6)
    x = np.vstack([np.tile(slots[0], (5, 1)), np.tile(slots[1], (5, 1))])
    x = x + rng.normal(scale=0.01, size=(10, 6))
    cluster_loss = float(wpw_loss(*adjacency(slots, x, 0.05)[:2]).value[0, 0])
    assert cluster_loss <= 1e-3
    print(f"\nPASS criterion 3: K=1 loss exactly 0 on 20 instances; "
          f"orthogonal clusters at tau 0.05 score {cluster_loss:.2e}")


def test_criterion_4_toy_scale_learning(toy_run, tmp_path, capsys):
    assert toy_run["ari"] >= 0.95
    assert toy_run["iou"] >= 0.90
    assert toy_run["elapsed"] < 600.0

    # the same numbers must come out of the eval CLI run on the checkpoint
    result = toy_run["result"]
    _, eval_scenes = _toy_dataset()
    holdout = tmp_path / "holdout"
    holdout.mkdir()
    for i, scene in enumerate(eval_scenes):
        write_feature_file(holdout / f"{i:04d}.ocwf", scene)
    ckpt = tmp_path / "checkpoint.ocwc"
    save_checkpoint(ckpt, result.params, result.proj, result.opt,
                    result.steps_run, result.config)
    report = tmp_path / "discovery.txt"
    assert main(["eval", "--data", str(holdout), "--checkpoint", str(ckpt),
                 "--task", "discovery", "--report", str(report)]) == 0
    capsys.readouterr()
    mean_line = report.read_text().strip().splitlines()[-1]
    cli_ari = float(mean_line.split("\t")[1])
    assert abs(cli_ari - toy_run["ari"]) <= 1e-6

    print(f"\nPASS criterion 4: 2000 steps in {toy_run['elapsed']:.0f}s; "
          f"held-out ARI-FG {toy_run['ari']:.4f} (>= 0.95), "
          f"semantic mean IoU {toy_run['iou']:.4f} (>= 0.90); eval CLI agrees")


def test_criterion_5_walk_direction_ablation(ablation_scores):
    both = ablation_scores[(1.0, 1.0)]
    wpw_only = ablation_scores[(1.0, 0.0)]
    pwp_only = ablation_scores[(0.0, 1.0)]
    assert both >= max(wpw_only, pwp_only) - 0.05
    print(f"\nPASS criterion 5: mean ARI-FG over 3 seeds; both {both:.4f} >= "
          f"max(wpw-only {wpw_only:.4f}, pwp-only {pwp_only:.4f}) - 0.05")


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(2)

    def ari_pair_oracle(a, b):
        n = len(a)
        n11 = n00 = n10 = n01 = 0
        for i in range(n):
            for j in range(i + 1, n):
                same_a, same_b = a[i] == a[j], b[i] == b[j]
                if same_a and same_b:
                    n11 += 1
                elif same_a:
                    n10 += 1
                elif same_b:
                    n01 += 1
                else:
                    n00 += 1
        den = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
        return 1.0 if den == 0 else 2.0 * (n11 * n00 - n10 * n01) / den

    worst_ari = 0.0
    for _ in range(200):
        pred = rng.integers(0, 5, size=20)
        gt = rng.integers(0, 4, size=20)
        fg = rng.random(20) < 0.7
        if not fg.any():
            fg[0] = True
        worst_ari = max(worst_ari, abs(ari_fg(pred, gt, fg) - ari_pair_oracle(pred[fg], gt[fg])))
    assert worst_ari <= 1e-12

    worst_assign = 0.0
    for _ in range(200):
        score = rng.random((5, 5))
        got = sum(score[r, c] for r, c in assign_classes(score))
        best = max(
            sum(score[i, p[i]] for i in range(5))
            for p in itertools.permutations(range(5))
        )
        worst_assign = max(worst_assign, abs(got - best))
    assert worst_assign <= 1e-12

    worst_dice = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 40))
        a, b = rng.random(n) < 0.5, rng.random(n) < 0.5
        m = miou(a, b)
        worst_dice = max(worst_dice, abs(dice(a, b) - 2.0 * m / (1.0 + m)))
    assert worst_dice <= 1e-12
    print(f"\nPASS criterion 6: 200-instance oracles; ARI off by <= {worst_ari:.1e}, "
          f"assignment <= {worst_assign:.1e}, dice identity <= {worst_dice:.1e}")


def test_criterion_7_determinism_and_persistence(tmp_path, capsys):
    data = tmp_path / "scenes"
    assert main(["gen", "--out", str(data), "--scenes", "8", "--grid", "4x4",
                 "--classes", "2", "--dim", "8", "--noise", "0.1", "--seed", "0"]) == 0
    cfg_text = (
        "num_slots = 2\ninput_dim = 8\nslot_dim = 8\nwalk_dim = 8\niterations = 2\n"
        "warmup_steps = 5\ntotal_steps = 30\nbatch_size = 4\nbase_lr = 0.003\n"
        "seed = 0\ncheckpoint_interval = 15\n"
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text)

    for name in ("a", "b"):
        assert main(["train", "--data", str(data), "--config", str(cfg_path),
                     "--out", str(tmp_path / name)]) == 0
    trace_a = (tmp_path / "a" / "trace.txt").read_bytes()
    assert trace_a == (tmp_path / "b" / "trace.txt").read_bytes()

    assert main(["train", "--data", str(data), "--config", str(cfg_path),
                 "--out", str(tmp_path / "resumed"),
                 "--resume", str(tmp_path / "a" / "checkpoint_000015.ocwc")]) == 0
    resumed = (tmp_path / "resumed" / "trace.txt").read_text().splitlines()
    full = trace_a.decode().splitlines()
    assert resumed == full[15:]
    assert (tmp_path / "resumed" / "checkpoint.ocwc").read_bytes() == (
        tmp_path / "a" / "checkpoint.ocwc"
    ).read_bytes()

    scene = read_feature_file(data / "0000.ocwf")
    write_feature_file(tmp_path / "copy.ocwf", scene)
    assert (tmp_path / "copy.ocwf").read_bytes() == (data / "0000.ocwf").read_bytes()

    ckpt = load_checkpoint(tmp_path / "a" / "checkpoint.ocwc")
    save_checkpoint(tmp_path / "copy.ocwc", ckpt.params, ckpt.proj, ckpt.opt, ckpt.step, ckpt.config)
    assert (tmp_path / "copy.ocwc").read_bytes() == (tmp_path / "a" / "checkpoint.ocwc").read_bytes()
    print("\nPASS criterion 7: identical traces, exact resume, bit-exact feature-file "
          "and checkpoint round trips")


def test_criterion_8_schedule_conformance(toy_run):
    full_scale = TrainConfig(
        num_slots=4, input_dim=32, base_lr=0.0004, warmup_steps=5000, total_steps=250_000,
    )
    assert lr_at(0, full_scale) == 0.0
    assert lr_at(5000, full_scale) == 0.0004
    left_limit = lr_at(4999, full_scale) + full_scale.base_lr / 5000
    assert abs(left_limit - lr_at(5000, full_scale)) <= 1e-15

    clipped = np.array([r["clipped_norm"] for r in toy_run["result"].records])
    assert clipped.max() <= 1.0 + 1e-9
    print(f"\nPASS criterion 8: lr(0)=0, lr(5000)=0.0004, boundary continuous; "
          f"post-clip norm max {clipped.max():.6f} over {len(clipped)} steps")
