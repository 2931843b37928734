"""The benchmark's workloads: train-toy, train-wide and eval-holdout.

Every input comes from the workload seed: the scene draws and the model
seed. The class mean directions stay those of `mean_seed = 0`, as in the
acceptance toy task: they stand for one frozen feature extractor, and
drawing them per seed doubled the seed-to-seed spread of the loss. The
train workloads hand the generated scenes to `train()` in memory:
writing hundreds of small files made their set-up time swing by half
between runs with the host's disk load. Their untimed held-out
evaluation, and eval-holdout, read `.ocwf` files back with
`load_dataset`, the way `slotwalks eval` does.

train-toy and train-wide repeat a fixed-length `train(..., out_dir=...)`
call (an episode) until the time budget is spent, so the loss does not
depend on how fast the host is, and every episode after the first must
reproduce the first one bit for bit. eval-holdout repeats the calls that
`slotwalks eval --task {fg,discovery,semantic}` makes.
"""

from __future__ import annotations

import resource
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from report import Tally, median, tail
from tracing import WRAPPED, StepClock, Tracer, layer_metrics, step_ms

BATCH = 16
TRAIN_SCENES = 200
HELDOUT_SCENES = 50
EVAL_SCENES = 200
FINAL_LOSS_STEPS = 10
EVAL_TASKS = ("fg", "discovery", "semantic")


def _mod(name: str):
    return sys.modules[f"slotwalks.{name}"]


@dataclass(frozen=True)
class Spec:
    """One workload's inputs; scene geometry fields map onto SceneConfig."""

    height: int
    width: int
    classes: int
    layout: str
    separation_deg: float
    episode_steps: int  # steps of one train() call
    warmup_steps: int
    setup_repeats: int
    heldout_scenes: int

    def geometry(self):
        return _mod("data").SceneConfig(
            height=self.height, width=self.width, classes=self.classes, feature_dim=32,
            noise_std=0.1, layout=self.layout, mean_separation_deg=self.separation_deg,
        )

    def model(self, seed: int):
        return _mod("train").TrainConfig(
            num_slots=self.classes, input_dim=32, slot_dim=64, walk_dim=64, iterations=3,
            tau=0.1, gamma=0.7, alpha=1.0, beta=1.0, batch_size=BATCH,
            total_steps=self.episode_steps, warmup_steps=self.warmup_steps, seed=seed,
        )


# train-toy: graph construction outweighs the arithmetic (N=64).
# train-wide: same graph size, but the N x N walk matrices dominate (N=576).
# eval-holdout: forward-only inference on toy geometry, plus both file formats.
SPECS = {
    "train-toy": Spec(8, 8, 3, "random-rectangles", 60.0, 100, 20, 5, HELDOUT_SCENES),
    "train-wide": Spec(24, 24, 7, "voronoi-cells", 45.0, 25, 5, 5, HELDOUT_SCENES),
    "eval-holdout": Spec(8, 8, 3, "random-rectangles", 60.0, 40, 10, 3, EVAL_SCENES),
}


# tracing phase of successive episodes or eval rounds, untraced and traced runs
_PHASES = {False: (None,), True: (None, "timed")}

# time of HostSpeed's reference computation at the speed timings are scaled to
REFERENCE_S = 0.1


class HostSpeed:
    """Times a fixed reference computation, to scale timings to one host speed.

    The speed of a shared host moves: between sets of runs minutes apart,
    the median training step moved by a third and more, beyond any bound
    the benchmark may set. The reference computation slows down with it. Every timed block (the set-ups, each
    episode, each eval round) is bracketed by two samples, and its times
    are multiplied by REFERENCE_S over their mean. The computation is the
    benchmark's own and never changes, so a change to slotwalks moves the
    scaled times as much as the raw ones. It mixes what a training step
    spends its time on: interpreted Python, numpy calls on 64 x 64 arrays,
    and products of 576 x 576 ones, the walk size of train-wide. Without
    the last part the scaled train-wide times moved against the raw ones.
    Its temporaries add about 10 MB to the peak memory of the runs whose
    own peak is small.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.normal(size=(64, 64))
        self._large = rng.normal(size=(576, 576))
        self.samples: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        s = 0
        for i in range(300_000):
            s += i * i % 7
        for _ in range(1500):
            y = np.exp(self._small @ self._small * 1e-3)
            y /= y.sum(axis=1, keepdims=True)
        for _ in range(4):
            y = np.exp(self._large @ self._large * 1e-3)
            y /= y.sum(axis=1, keepdims=True)
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def factor(self, before: float, after: float) -> float:
        """Scale for a block whose bracketing samples took before and after seconds."""
        return REFERENCE_S / ((before + after) / 2)


class Run:
    """State of one benchmark run: the tally, the step clock, the tracer and the host speed."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
        self.spec = SPECS[workload]
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tally = Tally()
        self.clock = StepClock()
        self.tracer = Tracer() if trace else None
        self.clock.tracer = self.tracer
        self.speed = HostSpeed()
        self.named: dict[str, tuple[float, str, str]] = {}
        self.contract: dict[str, float] = {}
        self.layers: dict[str, float] = {}

    def report(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.named[name] = (float(value), unit, note)

    def trace_phase(self, phase: str | None) -> None:
        """Tag the spans that follow with `phase`; None switches tracing off."""
        if self.tracer is None:
            return
        if phase is None:
            self.tracer.remove()
            return
        self.tracer.phase = phase
        if not self.tracer.installed:
            self.tracer.install()


def _same_arrays(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes() for k in a
    )


def _generate(run: Run, stream: int, count: int):
    generate = _mod("data").generate_scene
    geometry = run.spec.geometry()
    return [generate(geometry, (run.seed, stream, i)) for i in range(count)]


def _setup_repeated(run: Run, setup_once):
    """Run the set-up several times, each into a fresh directory; report the median.

    Every directory but the last is removed once used, so each repeat
    writes into a file system in the same state.
    """
    times, results = [], []
    before = run.speed.sample()
    for r in range(run.spec.setup_repeats):
        root = run.workdir / f"setup{r}"
        t0 = time.perf_counter()
        results.append(setup_once(root))
        times.append(time.perf_counter() - t0)
        if r + 1 < run.spec.setup_repeats and root.exists():
            shutil.rmtree(root)
    factor = run.speed.factor(before, run.speed.sample())
    run.report("setup_s", median(times) * factor, "s", f"median of {len(times)} set-ups, scaled")
    run.report("setup_s_raw", median(times), "s", "not scaled")
    return results


def _train_episode(run: Run, scenes, cfg, out: Path):
    """One timed train() call; the checks after it are not timed."""
    train = _mod("train")
    marks = run.clock.start_episode()
    t0 = time.perf_counter()
    result = train.train(scenes, cfg, out_dir=out)
    wall = time.perf_counter() - t0
    tally = run.tally
    tally.ops(result.steps_run + 1)  # steps plus the checkpoint write
    tally.check(all(np.isfinite(result.losses)), f"{out.name}: non-finite loss")
    ckpt = train.load_checkpoint(out / "checkpoint.ocwc")
    tally.ops(1)
    tally.check(
        ckpt.step == result.steps_run
        and ckpt.opt.step == result.opt.step
        and _same_arrays(ckpt.params.named(), result.params.named())
        and _same_arrays(ckpt.proj.named(), result.proj.named())
        and _same_arrays(ckpt.opt.m, result.opt.m)
        and _same_arrays(ckpt.opt.v, result.opt.v),
        f"{out.name}: checkpoint does not reload bit-identical",
    )
    lines = (out / "trace.txt").read_text().splitlines()
    tally.ops(1)
    tally.check(
        [float(line.split("\t")[1]) for line in lines] == result.losses,
        f"{out.name}: trace.txt does not hold the step losses",
    )
    return result, wall, marks


def _train_for(run: Run, scenes, cfg, phases):
    """At least two episodes, then more until starting another would overrun the budget.

    Episode i runs with tracing phase phases[i % len(phases)], so a traced
    run alternates untraced and traced episodes and host drift hits both.
    Returns one (phase, result, wall seconds, step marks, HostSpeed factor)
    tuple per episode.
    """
    episodes = []
    before = run.speed.sample()
    while True:
        phase = phases[len(episodes) % len(phases)]
        run.trace_phase(phase)
        result, wall, marks = _train_episode(run, scenes, cfg, run.workdir / f"episode{len(episodes)}")
        after = run.speed.sample()
        episodes.append((phase, result, wall, marks, run.speed.factor(before, after)))
        before = after
        spent = sum(e[2] for e in episodes)
        if len(episodes) >= 2 and spent * (len(episodes) + 1) / len(episodes) > run.seconds:
            return episodes


def run_train(run: Run) -> None:
    spec, seed, tally = run.spec, run.seed, run.tally

    def setup_once(root: Path):
        return _generate(run, 0, TRAIN_SCENES), _generate(run, 1, spec.heldout_scenes)

    run.trace_phase("setup")
    setups = _setup_repeated(run, setup_once)
    scenes, heldout = setups[-1]
    tally.check(
        all(np.array_equal(a.features, b.features) for a, b in zip(setups[0][0], scenes)),
        "set-up does not regenerate identical scenes",
    )
    cfg = spec.model(seed)

    episodes = _train_for(run, scenes, cfg, _PHASES[run.tracer is not None])
    results = [e[1] for e in episodes]
    first = results[0].losses
    for i, r in enumerate(results[1:], start=1):
        tally.check(r.losses == first, f"episode {i} loss differs from episode 0 (same seed)")
    plain = [e for e in episodes if e[0] is None]
    scenes_run = BATCH * sum(e[1].steps_run for e in plain)
    run.report("train_scenes_per_s", scenes_run / sum(e[2] * e[4] for e in plain),
               "scenes/s", f"{len(plain)} episodes, scaled")
    run.report("train_scenes_per_s_raw", scenes_run / sum(e[2] for e in plain), "scenes/s", "not scaled")
    samples = [ms * e[4] for e in plain for ms in step_ms(e[3])]
    _report_timing(run, "step_ms", samples)
    run.report("step_ms_p50_raw", median([ms for e in plain for ms in step_ms(e[3])]), "ms", "not scaled")
    run.report("final_loss", float(np.mean(first[-FINAL_LOSS_STEPS:])), "nats",
               f"mean of the last {FINAL_LOSS_STEPS} of {spec.episode_steps} steps")

    # the held-out scenes go through .ocwf files, as `slotwalks eval` reads them
    run.trace_phase("post")
    data = _mod("data")
    heldout_dir = run.workdir / "heldout"
    heldout_dir.mkdir()
    for i, scene in enumerate(heldout):
        data.write_feature_file(heldout_dir / f"{i:04d}.ocwf", scene)
    heldout = data.load_dataset(heldout_dir)
    last = results[-1]
    walk = cfg.walk()
    infer = _mod("infer")
    disc = infer.evaluate_discovery(heldout, last.params, last.proj, walk, cfg.iterations)
    sem = infer.semantic_segment(heldout, last.params, last.proj, walk, cfg.iterations,
                                 num_classes=spec.classes)
    tally.ops(4 * len(heldout))  # files written and read, scenes evaluated twice
    _check_report(tally, disc, len(heldout))
    _check_report(tally, sem, spec.classes)
    run.report("heldout_ari_fg", disc.summary["ari_fg"], "ARI", f"{len(heldout)} held-out scenes")
    run.report("heldout_sem_iou", sem.summary["iou"], "IoU", f"{spec.classes} classes")

    run.contract.update(
        setup_s=run.named["setup_s"][0],
        scenes_per_s=run.named["train_scenes_per_s"][0],
        op_ms_p50=run.named["step_ms_p50"][0],
        final_loss=run.named["final_loss"][0],
    )
    if run.tracer is not None:
        traced_marks = [e[3] for e in episodes if e[0] == "timed"]
        traced_ms = [ms * e[4] for e in episodes if e[0] == "timed" for ms in step_ms(e[3])]
        run.layers["trace_overhead_frac"] = median(traced_ms) / median(samples) - 1.0
        run.layers.update(layer_metrics(run.tracer, sum(len(m) for m in traced_marks), traced_marks))
        _self_check(run, run.layers["train.step.calls"] > 0)


def _check_report(tally: Tally, report, rows: int) -> None:
    lo = -1.0 if report.task == "discovery" else 0.0
    values = [v for _, row in report.rows for v in row.values()]
    tally.check(len(report.rows) == rows, f"{report.task} report has {len(report.rows)} rows, expected {rows}")
    tally.check(
        all(np.isfinite(v) and lo <= v <= 1.0 for v in values),
        f"{report.task} report has values outside [{lo}, 1]",
    )


def _eval_call(run: Run, task: str, ckpt_path: Path, data_dir: Path):
    """What `slotwalks eval --task TASK` does: load both files, then evaluate."""
    train, infer = _mod("train"), _mod("infer")
    ckpt = train.load_checkpoint(ckpt_path)
    scenes = _mod("data").load_dataset(data_dir)
    walk, iterations = ckpt.config.walk(), ckpt.config.iterations
    if task == "fg":
        report = infer.evaluate_foreground(scenes, ckpt.params, ckpt.proj, walk, iterations)
    elif task == "discovery":
        report = infer.evaluate_discovery(scenes, ckpt.params, ckpt.proj, walk, iterations)
    else:
        report = infer.semantic_segment(scenes, ckpt.params, ckpt.proj, walk, iterations,
                                        num_classes=run.spec.classes)
    return report, len(scenes)


def _eval_for(run: Run, ckpt_path: Path, data_dir: Path, phases):
    """Rounds of the three tasks, as many as the budget allows and at least two.

    Round i runs with tracing phase phases[i % len(phases)]. Returns one
    (phase, task, wall seconds, scenes, HostSpeed factor) tuple per call.
    """
    calls: list[tuple[str | None, str, float, int, float]] = []
    texts: dict[str, str] = {}
    rounds = 0
    before = run.speed.sample()
    while True:
        phase = phases[rounds % len(phases)]
        run.trace_phase(phase)
        round_calls = []
        for task in EVAL_TASKS:
            if run.tracer is not None:
                run.tracer.step = len(calls) + len(round_calls)
            t0 = time.perf_counter()
            report, n = _eval_call(run, task, ckpt_path, data_dir)
            wall = time.perf_counter() - t0
            round_calls.append((phase, task, wall, n))
            run.tally.ops(1 + 2 * n)  # checkpoint read, scene file reads, scenes evaluated
            _check_report(run.tally, report, run.spec.classes if task == "semantic" else n)
            text = report.to_text()
            run.tally.check(texts.setdefault(task, text) == text, f"{task} report differs between passes")
        after = run.speed.sample()
        calls.extend(c + (run.speed.factor(before, after),) for c in round_calls)
        before = after
        rounds += 1
        spent = sum(c[2] for c in calls)
        if rounds >= 2 and spent * (rounds + 1) / rounds > run.seconds:
            return calls


def run_eval(run: Run) -> None:
    spec, seed, tally = run.spec, run.seed, run.tally
    train = _mod("train")

    def setup_once(root: Path):
        heldout = root / "heldout"
        heldout.mkdir(parents=True)
        write = _mod("data").write_feature_file
        for i, scene in enumerate(_generate(run, 1, spec.heldout_scenes)):
            write(heldout / f"{i:04d}.ocwf", scene)
        tally.ops(spec.heldout_scenes)
        run.clock.start_episode()
        result = train.train(_generate(run, 0, TRAIN_SCENES), spec.model(seed), out_dir=root / "run")
        ckpt_path = root / "run" / "checkpoint.ocwc"
        tally.ops(result.steps_run + 2)  # steps, checkpoint write and read
        return result, ckpt_path, ckpt_path.read_bytes(), heldout

    run.trace_phase("setup")
    setups = _setup_repeated(run, setup_once)
    result, ckpt_path, ckpt_bytes, data_dir = setups[-1]
    for other, _, other_bytes, _ in setups[:-1]:
        tally.check(other.losses == result.losses, "set-up training loss differs between repeats")
        tally.check(other_bytes == ckpt_bytes, "set-up checkpoint differs between repeats")
    tally.check(all(np.isfinite(result.losses)), "set-up training has a non-finite loss")

    all_calls = _eval_for(run, ckpt_path, data_dir, _PHASES[run.tracer is not None])
    calls = [c for c in all_calls if c[0] is None]
    for task in EVAL_TASKS:
        mine = [c for c in calls if c[1] == task]
        run.report(f"eval_{task}_scenes_per_s", sum(c[3] for c in mine) / sum(c[2] * c[4] for c in mine),
                   "scenes/s", f"{len(mine)} calls, load included, scaled")
    scenes_run = sum(c[3] for c in calls)
    run.report("eval_scenes_per_s", scenes_run / sum(c[2] * c[4] for c in calls), "scenes/s", "scaled")
    run.report("eval_scenes_per_s_raw", scenes_run / sum(c[2] for c in calls), "scenes/s", "not scaled")
    _report_timing(run, "eval_call_ms", [1000.0 * c[2] * c[4] for c in calls])
    run.report("eval_call_ms_p50_raw", median([1000.0 * c[2] for c in calls]), "ms", "not scaled")
    run.report("final_loss", float(np.mean(result.losses[-FINAL_LOSS_STEPS:])), "nats",
               f"set-up training, mean of the last {FINAL_LOSS_STEPS} of {spec.episode_steps} steps")
    run.contract.update(
        setup_s=run.named["setup_s"][0],
        scenes_per_s=run.named["eval_scenes_per_s"][0],
        op_ms_p50=run.named["eval_call_ms_p50"][0],
        final_loss=run.named["final_loss"][0],
    )
    if run.tracer is not None:
        traced = [c for c in all_calls if c[0] == "timed"]
        run.layers["trace_overhead_frac"] = (
            median([c[2] * c[4] for c in traced]) / median([c[2] * c[4] for c in calls]) - 1.0
        )
        run.layers.update(layer_metrics(run.tracer, sum(c[3] for c in traced), []))
        _self_check(run, True)


def _report_timing(run: Run, name: str, samples: list[float]) -> None:
    """The median and the highest percentile with ten samples above it (p90 at best)."""
    n = len(samples)
    run.report(f"{name}_p50", median(samples), "ms", f"n={n}")
    highest = tail(samples)
    if highest is not None:
        run.report(f"{name}_p{highest[0]}", highest[1], "ms", f"n={n}")


def _self_check(run: Run, steps_ok: bool) -> None:
    """Fail the run when a wrapped layer recorded no calls: its wrapper sat on the wrong namespace."""
    for name in WRAPPED:
        run.tally.check(run.tracer.calls(name) > 0, f"traced layer {name} recorded no calls")
    run.tally.check(bool(run.tracer.node_counts), "no graph node counts were recorded")
    run.tally.check(steps_ok, "no complete training step was traced")


def finish(run: Run) -> None:
    run.report("host_reference_ms", 1000.0 * median(run.speed.samples), "ms",
               f"median of {len(run.speed.samples)} samples; {1000.0 * REFERENCE_S:g} ms at the reference speed")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.report("peak_rss_mb", peak, "MB", "ru_maxrss of the process")
    run.report("failed_frac", run.tally.failed_frac, "failed/attempted",
               f"{run.tally.failed} of {run.tally.attempted} operations")
    run.contract["peak_rss_mb"] = peak


RUNNERS = {"train-toy": run_train, "train-wide": run_train, "eval-holdout": run_eval}
