"""End-to-end tests of the command-line interface and its exit codes."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slotwalks
from slotwalks import autodiff as ad
from slotwalks.cli import main
from slotwalks.data import read_feature_file

TOY_CONFIG = """\
# toy run
num_slots = 2
input_dim = 8
slot_dim = 8
walk_dim = 8
iterations = 2
warmup_steps = 5
total_steps = 40
batch_size = 4
base_lr = 0.003
seed = 0
"""


def write_config(tmp_path, text=TOY_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def gen_data(tmp_path, capsys, scenes=8, noise="0.1", classes="2", seed="0"):
    data = tmp_path / "scenes"
    rc = main([
        "gen", "--out", str(data), "--scenes", str(scenes), "--grid", "4x4",
        "--classes", classes, "--dim", "8", "--noise", noise, "--seed", seed,
    ])
    assert rc == 0
    capsys.readouterr()
    return data


class TestGen:
    def test_writes_files_and_manifest(self, tmp_path, capsys):
        data = tmp_path / "out"
        rc = main(["gen", "--out", str(data), "--scenes", "3", "--grid", "4x4",
                   "--classes", "2", "--dim", "8", "--noise", "0.1", "--seed", "7"])
        assert rc == 0
        manifest = capsys.readouterr().out.strip().splitlines()
        assert len(manifest) == 3
        assert manifest[0].startswith("0000.ocwf\t16x8\tsha256:")
        scene = read_feature_file(data / "0000.ocwf")
        assert scene.n == 16 and scene.dim == 8

    def test_default_desk_scale(self, tmp_path, capsys):
        data = tmp_path / "desk"
        rc = main(["gen", "--out", str(data), "--scenes", "3"])  # grid/classes/dim defaults
        assert rc == 0
        manifest = capsys.readouterr().out.strip().splitlines()
        assert all(line.split("\t")[1] == "64x32" for line in manifest)
        scene = read_feature_file(data / "0002.ocwf")
        assert set(np.unique(scene.labels)) == {0, 1, 2}

    def test_single_class(self, tmp_path, capsys):
        data = tmp_path / "one"
        rc = main(["gen", "--out", str(data), "--scenes", "2", "--grid", "4x4",
                   "--classes", "1", "--dim", "8", "--noise", "0.0", "--seed", "0"])
        assert rc == 0
        scene = read_feature_file(data / "0001.ocwf")
        assert np.all(scene.labels == 0)

    def test_fixed_seed_identical_manifests(self, tmp_path, capsys):
        args = ["gen", "--scenes", "4", "--grid", "4x4", "--classes", "3",
                "--dim", "8", "--noise", "0.1", "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        first = capsys.readouterr().out
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_bad_grid_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--out", str(tmp_path), "--grid", "4by4"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_scene_count_must_be_positive(self, tmp_path, count):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--out", str(tmp_path / "x"), "--scenes", count])
        assert exc.value.code == 1

    @pytest.mark.parametrize("flag", ["--grid=-2x-3", "--noise=nan", "--noise=inf", "--separation=nan"])
    def test_invalid_scene_config_is_data_error(self, tmp_path, capsys, flag):
        rc = main(["gen", "--out", str(tmp_path / "x"), "--scenes", "1", flag])
        assert rc == 2
        assert "SceneConfig" in capsys.readouterr().err
        assert not list((tmp_path / "x").glob("*.ocwf"))

    def test_infeasible_separation_is_data_error(self, tmp_path, capsys):
        rc = main(["gen", "--out", str(tmp_path / "x"), "--scenes", "1", "--grid", "4x4",
                   "--classes", "10", "--dim", "2", "--noise", "0.1", "--seed", "0"])
        assert rc == 2


class TestTrain:
    def test_default_run_writes_outputs(self, tmp_path, capsys):
        data = gen_data(tmp_path, capsys)
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        rc = main(["train", "--data", str(data), "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        trace = (out / "trace.txt").read_text().splitlines()
        assert len(trace) == 40
        step, loss, lr = trace[0].split("\t")
        assert step == "0" and float(lr) == 0.0 and float(loss) > 0
        assert (out / "checkpoint.ocwc").exists()

    def test_alpha_zero_single_direction(self, tmp_path, capsys):
        data = gen_data(tmp_path, capsys)
        cfg = write_config(tmp_path, TOY_CONFIG + "alpha = 0.0\nbeta = 1.0\n", "ablate.cfg")
        out = tmp_path / "ablate"
        rc = main(["train", "--data", str(data), "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert (out / "checkpoint.ocwc").exists()

    def test_malformed_config_line(self, tmp_path, capsys):
        data = gen_data(tmp_path, capsys)
        cfg = write_config(tmp_path, "num_slots = 2\ninput_dim * 8\n", "bad.cfg")
        rc = main(["train", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        data = gen_data(tmp_path, capsys)
        cfg = write_config(tmp_path, TOY_CONFIG + "momentum = 0.9\n", "unk.cfg")
        rc = main(["train", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad", ["alpha = nan", "alpha = nan\nbeta = nan", "base_lr = nan", "checkpoint_interval = -5"]
    )
    def test_bad_value_rejected_naming_the_config_file(self, tmp_path, capsys, bad):
        data = gen_data(tmp_path, capsys)
        cfg = write_config(tmp_path, TOY_CONFIG + bad + "\n", "bad_value.cfg")
        rc = main(["train", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "bad_value.cfg" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_not_utf8_names_the_file(self, tmp_path, capsys):
        data = gen_data(tmp_path, capsys)
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(TOY_CONFIG.encode() + b"# \xff\n")
        rc = main(["train", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "binary.cfg: not UTF-8 text" in capsys.readouterr().err

    def test_resume_over_a_trace_not_utf8_names_the_trace(self, tmp_path, capsys):
        data = gen_data(tmp_path, capsys)
        short = TOY_CONFIG.replace("total_steps = 40", "total_steps = 6") + "checkpoint_interval = 3\n"
        cfg = write_config(tmp_path, short, "short.cfg")
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        (out / "trace.txt").write_bytes(b"0\t\xff\n")
        rc = main(["train", "--data", str(data), "--config", str(cfg), "--out", str(out),
                   "--resume", str(out / "checkpoint_000003.ocwc")])
        assert rc == 2
        assert "trace.txt: not UTF-8 text" in capsys.readouterr().err
        assert (out / "trace.txt").read_bytes() == b"0\t\xff\n"

    def test_resume_continues_trace(self, tmp_path, capsys):
        data = gen_data(tmp_path, capsys)
        cfg = write_config(tmp_path, TOY_CONFIG + "checkpoint_interval = 20\n", "resume.cfg")
        full = tmp_path / "full"
        rc = main(["train", "--data", str(data), "--config", str(cfg), "--out", str(full)])
        assert rc == 0
        capsys.readouterr()
        resumed = tmp_path / "resumed"
        rc = main(["train", "--data", str(data), "--config", str(cfg), "--out", str(resumed),
                   "--resume", str(full / "checkpoint_000020.ocwc")])
        assert rc == 0
        from_half = capsys.readouterr().out.splitlines()[0]
        full_lines = (full / "trace.txt").read_text().splitlines()
        resumed_lines = (resumed / "trace.txt").read_text().splitlines()
        assert resumed_lines == full_lines[20:]
        assert (full / "checkpoint.ocwc").read_bytes() == (resumed / "checkpoint.ocwc").read_bytes()
        rc = main(["train", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "done"),
                   "--resume", str(full / "checkpoint.ocwc")])
        assert rc == 0
        from_end = capsys.readouterr().out.splitlines()[0]
        final_loss = float(full_lines[-1].split("\t")[1])
        assert (from_half, from_end) == (
            f"trained 20 steps to step 40, final loss {final_loss:.6f}",
            "trained 0 steps: already at step 40",
        )

    def test_missing_data_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["train", "--data", str(tmp_path / "nope"), "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 2


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small checkpoint trained on clean two-class scenes."""
    root = tmp_path_factory.mktemp("cli_trained")
    data = root / "scenes"
    assert main(["gen", "--out", str(data), "--scenes", "8", "--grid", "4x4",
                 "--classes", "2", "--dim", "8", "--noise", "0.0", "--seed", "1"]) == 0
    cfg = root / "run.cfg"
    cfg.write_text(TOY_CONFIG.replace("total_steps = 40", "total_steps = 150"))
    out = root / "run"
    assert main(["train", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
    return data, out / "checkpoint.ocwc"


class TestEval:
    def test_fg_on_clean_data_perfect(self, trained, capsys):
        data, ckpt = trained
        rc = main(["eval", "--data", str(data), "--checkpoint", str(ckpt), "--task", "fg"])
        assert rc == 0
        out = capsys.readouterr().out
        mean_line = [l for l in out.splitlines() if l.startswith("mean")][0]
        _, miou_v, dice_v = mean_line.split("\t")
        assert float(miou_v) == 1.0 and float(dice_v) == 1.0

    def test_discovery_report_file(self, trained, tmp_path, capsys):
        data, ckpt = trained
        report = tmp_path / "disc.txt"
        rc = main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                   "--task", "discovery", "--report", str(report)])
        assert rc == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "# task=discovery"
        assert lines[-1].startswith("mean")

    def test_semantic_requires_classes(self, trained, capsys):
        data, ckpt = trained
        rc = main(["eval", "--data", str(data), "--checkpoint", str(ckpt), "--task", "semantic"])
        assert rc == 2

    def test_semantic_with_classes(self, trained, capsys):
        data, ckpt = trained
        rc = main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                   "--task", "semantic", "--classes", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# assignment" in out

    def test_missing_labels_is_task_error(self, trained, tmp_path, capsys):
        import numpy as np

        from slotwalks.data import Scene, write_feature_file

        data, ckpt = trained
        bare = tmp_path / "bare"
        bare.mkdir()
        write_feature_file(bare / "0000.ocwf", Scene(features=np.ones((16, 8))))
        rc = main(["eval", "--data", str(bare), "--checkpoint", str(ckpt), "--task", "fg"])
        assert rc == 2

    def test_feature_width_mismatch_names_the_scene_and_both_widths(self, trained, tmp_path, capsys):
        _, ckpt = trained
        wide = tmp_path / "wide"
        assert main(["gen", "--out", str(wide), "--scenes", "2", "--grid", "4x4",
                     "--classes", "2", "--dim", "16", "--seed", "0"]) == 0
        capsys.readouterr()
        rc = main(["eval", "--data", str(wide), "--checkpoint", str(ckpt), "--task", "fg"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "scene 0000.ocwf has feature width 16, the model's input_dim is 8" in err
        assert str(ckpt) in err and str(wide) in err

    def test_checkpoint_hash_mismatch(self, trained, tmp_path, capsys):
        data, ckpt = trained
        raw = bytearray(ckpt.read_bytes())
        idx = raw.find(b"tau = 0.1")
        raw[idx : idx + 9] = b"tau = 0.9"
        bad = tmp_path / "bad.ocwc"
        bad.write_bytes(bytes(raw))
        rc = main(["eval", "--data", str(data), "--checkpoint", str(bad), "--task", "fg"])
        assert rc == 2


class TestGradcheck:
    def test_defaults_pass(self, capsys):
        rc = main(["gradcheck", "--n", "8", "--k", "2", "--d", "5", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("mu\t")
        assert "OK" in out

    def test_impossible_tolerance_fails(self, capsys):
        rc = main(["gradcheck", "--n", "8", "--k", "2", "--d", "5", "--seed", "0",
                   "--tol", "1e-12"])
        assert rc == 3
        assert "FAIL" in capsys.readouterr().out

    def test_nan_gradient_error_fails(self, monkeypatch, capsys):
        finite_differences = ad.finite_difference_gradients

        def nan_in_w_k(make_loss, params):
            grads = finite_differences(make_loss, params)
            grads["slots.w_k"][0, 0] = np.nan
            return grads

        monkeypatch.setattr(ad, "finite_difference_gradients", nan_in_w_k)
        rc = main(["gradcheck", "--n", "6", "--k", "2", "--d", "4", "--seed", "5"])
        out = capsys.readouterr().out
        assert rc == 3
        assert "qkv\tinf" in out.splitlines() and "FAIL" in out

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.001"])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--n", "6", "--k", "2", "--d", "4", "--tol", tol])
        assert exc.value.code == 1

    def test_fixed_seed_reproducible_output(self, capsys):
        assert main(["gradcheck", "--n", "6", "--k", "2", "--d", "4", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["gradcheck", "--n", "6", "--k", "2", "--d", "4", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first


class TestUsage:
    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", "x"])
        assert exc.value.code == 1

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["explode"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "command, flag",
        [("gen", "--seed"), ("gen", "--mean-seed"), ("gradcheck", "--seed"), ("gradcheck", "--n")],
        ids=["gen-seed", "gen-mean-seed", "gradcheck-seed", "gradcheck-n"],
    )
    def test_negative_seed_or_size_is_usage_error_naming_the_flag(self, tmp_path, capsys, command, flag):
        out = ["--out", str(tmp_path / "x")] if command == "gen" else []
        with pytest.raises(SystemExit) as exc:
            main([command, *out, flag, "-1"])
        assert exc.value.code == 1
        assert f"argument {flag}: expected an integer >= " in capsys.readouterr().err

    def test_console_script_runs(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "slotwalks.cli", "gen", "--out", str(tmp_path / "d"),
             "--scenes", "1", "--grid", "2x2", "--classes", "1", "--dim", "4",
             "--noise", "0.0", "--seed", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("0000.ocwf")


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        assert slotwalks.__version__ == tomllib.load(f)["project"]["version"]
