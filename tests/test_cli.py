"""End-to-end command-line tests driven through subprocesses."""

import os
import subprocess
import sys

import numpy as np
import pytest

CLI = [sys.executable, "-m", "spherereg.cli"]


def run_cli(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          **kw)


def test_mesh_counts_order0():
    out = run_cli("mesh", "--order", "0")
    assert out.returncode == 0
    assert out.stdout.strip() == "vertices=12 edges=30 faces=20"


def test_mesh_counts_order3():
    out = run_cli("mesh", "--order", "3")
    assert out.returncode == 0
    assert out.stdout.strip() == "vertices=642 edges=1920 faces=1280"


def test_mesh_writes_file(tmp_path):
    path = tmp_path / "sphere.ico"
    out = run_cli("mesh", "--order", "1", "--out", str(path))
    assert out.returncode == 0
    from spherereg.mesh import read_ico

    sphere = read_ico(path)
    assert sphere.n_vertices == 42


def test_mesh_order_out_of_range():
    out = run_cli("mesh", "--order", "9")
    assert out.returncode == 1
    assert "usage" in out.stderr


IN_PROCESS_MAIN = ("import sys, numpy\n"
                   "from spherereg.cli import main\n"
                   "sys.exit(main(['--threads', '1', 'mesh', '--order', '0']))\n")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("pinned", [(), BLAS_VARS[:2]])
def test_threads_after_numpy_import_warns(pinned):
    # numpy is loaded before main() sees --threads, with the BLAS thread
    # variables unset or only partly pinned: one warning, same exit code
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update({var: "1" for var in pinned})
    out = subprocess.run([sys.executable, "-c", IN_PROCESS_MAIN],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert out.stdout.strip() == "vertices=12 edges=30 faces=20"
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning:")
    assert "MKL_NUM_THREADS=unset" in lines[0]


def test_negative_threads_is_a_usage_error():
    # 0 means no cap; a negative count is refused before any command runs
    out = run_cli("--threads", "-3", "mesh", "--order", "2")
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("error: --threads must be >= 0 (0 = no cap)\n"
                                 "usage: spherereg ")
    assert out.stderr.count("error") == 1
    assert run_cli("--threads", "0", "mesh", "--order", "0").returncode == 0


def test_threads_after_numpy_import_pinned_is_silent():
    # the benchmark's case: every BLAS variable pinned before numpy loads
    env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
    out = subprocess.run([sys.executable, "-c", IN_PROCESS_MAIN],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert out.stderr == ""
    # the command itself loads numpy after the cap is set
    assert run_cli("--threads", "2", "mesh", "--order", "0").stderr == ""


def test_synth_writes_cohort(tmp_path):
    out = run_cli("synth", "--order", "2", "--pairs", "2", "--seed", "7",
                  "--out", str(tmp_path / "data"))
    assert out.returncode == 0
    for i in range(2):
        for suffix in ("moving.sfm", "fixed.sfm", "truth.def"):
            assert (tmp_path / "data" / f"pair{i:04d}_{suffix}").exists()
    manifest = (tmp_path / "data" / "manifest.txt").read_text()
    assert len(manifest.strip().splitlines()) == 2


def test_synth_deterministic(tmp_path):
    for name in ("a", "b"):
        out = run_cli("--threads", "1", "synth", "--order", "2", "--pairs",
                      "1", "--seed", "3", "--out", str(tmp_path / name))
        assert out.returncode == 0
    a = (tmp_path / "a" / "pair0000_moving.sfm").read_bytes()
    b = (tmp_path / "b" / "pair0000_moving.sfm").read_bytes()
    assert a == b


def test_synth_zero_pairs(tmp_path):
    out = run_cli("synth", "--order", "2", "--pairs", "0", "--seed", "1",
                  "--out", str(tmp_path / "d"))
    assert out.returncode == 0
    assert (tmp_path / "d" / "manifest.txt").read_text() == ""


def test_synth_order_out_of_range(tmp_path):
    out = run_cli("synth", "--order", "7", "--pairs", "1", "--seed", "1",
                  "--out", str(tmp_path / "d"))
    assert out.returncode == 1


@pytest.mark.parametrize("flag, value, field", [
    ("--smoothness", "0", "smoothness"), ("--max-angle", "-1", "max_angle"),
    ("--components", "-1", "n_components"),
    ("--field-degree", "0", "field_degree"), ("--channels", "0", "n_channels"),
    ("--noise", "-1", "noise"), ("--seed", "-5", "seed"),
    ("--noise", "inf", "noise"), ("--max-angle", "inf", "max_angle"),
    ("--smoothness", "inf", "smoothness")])
def test_synth_rejects_settings_it_cannot_generate(tmp_path, capsys, flag,
                                                   value, field):
    from spherereg import cli

    code = cli.main(["synth", "--order", "1", "--pairs", "1", "--seed", "0",
                     "--out", str(tmp_path / "d"), flag, value])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: synthetic warp: {field} must be ")
    assert err.count("\n") == 1
    assert not (tmp_path / "d").exists()


def test_synth_checks_settings_without_pairs(tmp_path, capsys):
    # with no pair to make, the settings are still checked before --out
    # is created
    from spherereg import cli

    code = cli.main(["synth", "--order", "1", "--pairs", "0", "--seed", "-5",
                     "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: synthetic warp: seed must be >= 0")
    assert err.count("\n") == 1
    assert not (tmp_path / "d").exists()


def test_synth_write_failure_is_an_io_error(tmp_path, capsys):
    from spherereg import cli

    (tmp_path / "d" / "pair0000_moving.sfm").mkdir(parents=True)
    code = cli.main(["synth", "--order", "1", "--pairs", "1", "--seed", "0",
                     "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write: ") and err.count("\n") == 1
    assert str(tmp_path / "d" / "pair0000_moving.sfm") in err
    assert not (tmp_path / "d" / "manifest.txt").exists()


def test_synth_requires_seed(tmp_path):
    out = run_cli("synth", "--order", "2", "--pairs", "1",
                  "--out", str(tmp_path / "d"))
    # argparse's usage error takes the usage code, with one error line and
    # the subcommand's usage
    assert out.returncode == 1
    assert out.stderr.startswith(
        "error: the following arguments are required: --seed\n"
        "usage: spherereg synth ")
    assert out.stderr.count("error") == 1


def test_train_rejects_missing_config(tmp_path):
    out = run_cli("train", "--config", str(tmp_path / "nope.ini"),
                  "--out", str(tmp_path / "ckpt"), "--seed", "0")
    assert out.returncode == 1


def test_train_rejects_missing_manifest(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[data]\nmanifest = /nonexistent/manifest.txt\nseed = 0\n"
        "[stage.1]\ninput_order = 2\ncontrol_order = 1\nlabel_order = 2\n"
        "n_labels = 12\nfcb_channels = 4\nres_channels = 12\n"
    )
    out = run_cli("train", "--config", str(cfg),
                  "--out", str(tmp_path / "ckpt"), "--seed", "0")
    assert out.returncode == 1
    assert "manifest" in out.stderr


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny cohort trained end to end through the CLI."""
    root = tmp_path_factory.mktemp("cli_train")
    data = root / "data"
    out = run_cli("--threads", "1", "synth", "--order", "2", "--pairs", "8",
                  "--seed", "11", "--out", str(data))
    assert out.returncode == 0, out.stderr
    cfg = root / "run.ini"
    cfg.write_text(
        f"[data]\nmanifest = {data / 'manifest.txt'}\nseed = 5\n"
        "split = 0.75,0.125,0.125\n"
        "[stage.1]\ninput_order = 2\ncontrol_order = 1\nlabel_order = 2\n"
        "n_labels = 12\nfcb_channels = 4\nres_channels = 12\n"
        "epochs = 1\nlam_sm = 0.5\nrefine_steps = 5\nrefine_lr = 0.01\n"
    )
    ckpt = root / "ckpt"
    out = run_cli("--threads", "1", "train", "--config", str(cfg),
                  "--out", str(ckpt), "--seed", "5")
    assert out.returncode == 0, out.stderr
    return root, data, ckpt


def test_train_writes_checkpoints(trained):
    _, _, ckpt = trained
    for suffix in ("gmw", "arch", "cfg"):
        assert (ckpt / f"stage1.{suffix}").exists()
    trace = (ckpt / "stage1_trace.csv").read_text().splitlines()
    assert trace[0] == "epoch,train_loss,val_cc"
    assert len(trace) == 2


def test_register_and_eval_round_trip(trained, tmp_path):
    root, data, ckpt = trained
    warped = tmp_path / "warped.sfm"
    deform = tmp_path / "warp.def"
    out = run_cli("--threads", "1", "register",
                  "--moving", str(data / "pair0000_moving.sfm"),
                  "--fixed", str(data / "pair0000_fixed.sfm"),
                  "--ckpt", str(ckpt), "--out", str(warped),
                  "--deform", str(deform))
    assert out.returncode == 0, out.stderr
    report = dict(line.split(" = ") for line in
                  out.stdout.strip().splitlines())
    assert -1.0 <= float(report["cc.mean"]) <= 1.0
    assert float(report["areal.p95"]) >= 0.0

    sphere_path = tmp_path / "sphere.ico"
    assert run_cli("mesh", "--order", "2",
                   "--out", str(sphere_path)).returncode == 0
    out = run_cli("eval", "--fixed", str(data / "pair0000_fixed.sfm"),
                  "--warped", str(warped), "--sphere", str(sphere_path),
                  "--deform", str(deform))
    assert out.returncode == 0, out.stderr
    eval_report = dict(line.split(" = ") for line in
                       out.stdout.strip().splitlines())
    assert np.isclose(float(eval_report["cc.mean"]),
                      float(report["cc.mean"]))


def test_register_deterministic(trained, tmp_path):
    _, data, ckpt = trained
    blobs = []
    for name in ("r1", "r2"):
        warped = tmp_path / f"{name}.sfm"
        deform = tmp_path / f"{name}.def"
        out = run_cli("--threads", "1", "register",
                      "--moving", str(data / "pair0001_moving.sfm"),
                      "--fixed", str(data / "pair0001_fixed.sfm"),
                      "--ckpt", str(ckpt), "--out", str(warped),
                      "--deform", str(deform))
        assert out.returncode == 0, out.stderr
        blobs.append((warped.read_bytes(), deform.read_bytes(), out.stdout))
    assert blobs[0] == blobs[1]


def test_register_missing_checkpoint(tmp_path):
    out = run_cli("register", "--moving", "x.sfm", "--fixed", "y.sfm",
                  "--ckpt", str(tmp_path / "none"), "--out",
                  str(tmp_path / "o.sfm"))
    assert out.returncode in (1, 2)


def test_selftest_passes():
    out = run_cli("selftest")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "all self tests passed" in out.stdout


def test_train_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[data]\nmanifest = m.txt\nseed = 0\n"
        "[stage.1]\ninput_order = 2\ncontrol_order = 1\nlabel_order = 2\n"
        "n_labels = 12\nfcb_channels = 4\nres_channels = 12\ntypo_key = 3\n"
    )
    out = run_cli("train", "--config", str(cfg),
                  "--out", str(tmp_path / "ckpt"), "--seed", "0")
    assert out.returncode == 1
    assert out.stderr == f"error: {cfg} [stage.1]: unknown key 'typo_key'\n"


def _three_stages():
    from spherereg.pipeline import StageConfig

    base = dict(input_order=2, label_order=2, n_labels=12, fcb_channels=(4,),
                res_channels=(12,), n_kernels=3, refine_steps=3)
    return [StageConfig(control_order=0, lam_sm=0.9, **base),
            StageConfig(control_order=1, lam_sm=0.5, use_crf=False, **base),
            StageConfig(control_order=1, lam_sm=0.2, gamma=0.3, **base)]


@pytest.fixture(scope="module")
def three_stage_ckpt(tmp_path_factory):
    """Seed-initialized checkpoints of three stages and one order-2 pair."""
    from spherereg.mesh import write_sfm
    from spherereg.pipeline import SyntheticWarpSpec, StageModel, \
        generate_synthetic_pair, write_stage

    root = tmp_path_factory.mktemp("three_stages")
    ckpt = root / "ckpt"
    ckpt.mkdir()
    for k, stage in enumerate(_three_stages(), 1):
        write_stage(ckpt, k, stage, StageModel(stage, seed=k).store)
    moving, fixed, _ = generate_synthetic_pair(SyntheticWarpSpec(seed=4), 2)
    write_sfm(root / "moving.sfm", moving)
    write_sfm(root / "fixed.sfm", fixed)
    return root, ckpt


def _register(root, ckpt, name):
    out = run_cli("--threads", "1", "register",
                  "--moving", str(root / "moving.sfm"),
                  "--fixed", str(root / "fixed.sfm"), "--ckpt", str(ckpt),
                  "--out", str(root / f"{name}.sfm"),
                  "--deform", str(root / f"{name}.def"))
    return out


def test_register_loads_every_stage(three_stage_ckpt):
    from spherereg.pipeline import read_stages

    root, ckpt = three_stage_ckpt
    loaded = read_stages(str(ckpt))
    assert [stage for stage, _ in loaded] == _three_stages()
    out = _register(root, ckpt, "three")
    assert out.returncode == 0, out.stderr
    assert "cc.mean" in out.stdout


def test_register_reads_cfg_with_retired_keys(three_stage_ckpt, tmp_path):
    import shutil

    root, ckpt = three_stage_ckpt
    old = tmp_path / "old_ckpt"
    shutil.copytree(ckpt, old)
    for cfg in old.glob("*.cfg"):
        cfg.write_text(cfg.read_text().replace(
            "[stage]\n", "[stage]\ndeform_mode = soft\nr = 0\n"))
    new_out = _register(root, ckpt, "new")
    old_out = _register(root, old, "old")
    assert new_out.returncode == 0 and old_out.returncode == 0, \
        new_out.stderr + old_out.stderr
    assert old_out.stdout == new_out.stdout
    for suffix in ("sfm", "def"):
        assert (root / f"old.{suffix}").read_bytes() == \
            (root / f"new.{suffix}").read_bytes()


def test_register_rejects_incomplete_checkpoint(three_stage_ckpt, tmp_path):
    import shutil

    from spherereg.optim import ParamStore, read_gmw, write_gmw

    root, ckpt = three_stage_ckpt
    broken = tmp_path / "broken"
    shutil.copytree(ckpt, broken)
    gmw = broken / "stage2.gmw"
    store = read_gmw(gmw)
    dropped = sorted(store.names())[3:6]
    kept = ParamStore()
    for name in store.names():
        if name not in dropped:
            kept.add(name, store[name].value)
    write_gmw(gmw, kept)
    out = _register(root, broken, "broken")
    assert out.returncode == 1
    assert out.stderr == \
        f"error: {gmw}: missing parameter block {dropped[0]!r}\n"


def _register_in_process(root, ckpt, out, deform):
    from spherereg import cli

    return cli.main(["register", "--moving", str(root / "moving.sfm"),
                     "--fixed", str(root / "fixed.sfm"), "--ckpt", str(ckpt),
                     "--out", str(out), "--deform", str(deform)])


def test_register_reading_a_directory_is_an_io_error(three_stage_ckpt,
                                                     tmp_path, capsys):
    from spherereg import cli

    root, ckpt = three_stage_ckpt
    code = cli.main(["register", "--moving", str(tmp_path),
                     "--fixed", str(root / "fixed.sfm"), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "o.sfm")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["out", "deform"])
def test_register_checks_output_directories_first(three_stage_ckpt, tmp_path,
                                                  monkeypatch, capsys, flag):
    from spherereg import pipeline

    root, ckpt = three_stage_ckpt
    calls = []
    monkeypatch.setattr(pipeline, "register_pair",
                        lambda *args: calls.append(args))
    paths = {"out": tmp_path / "o.sfm", "deform": tmp_path / "o.def"}
    paths[flag] = tmp_path / "missing" / f"o.{flag}"
    code = _register_in_process(root, ckpt, paths["out"], paths["deform"])
    assert code == 2 and calls == []
    assert capsys.readouterr().err == \
        f"error: cannot write {paths[flag]}: no directory {tmp_path / 'missing'}\n"


def test_register_write_failure_is_an_io_error(three_stage_ckpt, tmp_path,
                                               capsys):
    root, ckpt = three_stage_ckpt
    (tmp_path / "taken.sfm").mkdir()
    code = _register_in_process(root, ckpt, tmp_path / "taken.sfm",
                                tmp_path / "o.def")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write: ") and err.count("\n") == 1


def test_register_requires_every_stage_cfg(three_stage_ckpt, tmp_path,
                                          capsys):
    import shutil

    root, ckpt = three_stage_ckpt
    partial = tmp_path / "partial"
    shutil.copytree(ckpt, partial)
    (partial / "stage2.cfg").unlink()
    code = _register_in_process(root, partial, tmp_path / "o.sfm",
                                tmp_path / "o.def")
    err = capsys.readouterr().err
    assert code == 2
    assert str(partial / "stage2.cfg") in err and err.count("\n") == 1
    assert not (tmp_path / "o.sfm").exists()


def test_register_rejects_gap_in_stages(three_stage_ckpt, tmp_path):
    import shutil

    root, ckpt = three_stage_ckpt
    gap = tmp_path / "gap"
    shutil.copytree(ckpt, gap)
    (gap / "stage2.arch").unlink()
    out = _register(root, gap, "gap")
    assert out.returncode == 1
    assert "stage2.arch" in out.stderr


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    """An order-2 sphere with fixed, warped and z maps, and an order-1 map."""
    from spherereg.mesh import SphericalFeatureMap, build_icosphere, \
        write_ico, write_sfm

    root = tmp_path_factory.mktemp("eval_inputs")
    rng = np.random.Generator(np.random.Philox(8))
    write_ico(root / "sphere.ico", build_icosphere(2))
    for name in ("fixed", "warped", "zmap"):
        write_sfm(root / f"{name}.sfm",
                  SphericalFeatureMap(2, 6.0 * rng.standard_normal(162)))
    write_sfm(root / "order1.sfm", SphericalFeatureMap(1, np.ones(42)))
    write_sfm(root / "two_channels.sfm",
              SphericalFeatureMap(2, np.ones((162, 2))))
    lines = (root / "zmap.sfm").read_text().splitlines(keepends=True)
    (root / "truncated.sfm").write_text("".join(lines[:100]))
    return root


def _eval(root, **paths):
    files = {"fixed": "fixed.sfm", "warped": "warped.sfm",
             "sphere": "sphere.ico", **paths}
    args = ["eval"]
    for flag, name in files.items():
        args += [f"--{flag}", str(root / name)]
    return run_cli(*args)


def _one_line_error(out):
    return out.stderr.startswith("error: ") and out.stderr.count("\n") == 1


def test_eval_reports_cluster_mass(eval_inputs):
    out = _eval(eval_inputs, zmap="zmap.sfm")
    assert out.returncode == 0, out.stderr
    assert "cluster_mass = " in out.stdout


def _eval_threshold(root, threshold):
    return run_cli("eval", "--fixed", str(root / "fixed.sfm"),
                   "--warped", str(root / "warped.sfm"),
                   "--sphere", str(root / "sphere.ico"),
                   "--zmap", str(root / "zmap.sfm"),
                   f"--threshold={threshold}")


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "-1"])
def test_eval_rejects_a_threshold_that_is_not_finite_and_nonnegative(
        eval_inputs, threshold):
    out = _eval_threshold(eval_inputs, threshold)
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.startswith("error: --threshold must be finite and "
                                 ">= 0\nusage: spherereg ")
    assert out.stderr.count("error") == 1


@pytest.mark.parametrize("command, message", [
    ("mesh", "mesh order must be between 0 and 8"),
    ("synth", "synth order must be between 0 and 6"),
    ("eval", "--threshold must be finite and >= 0"),
])
def test_range_errors_show_the_subcommand_usage(eval_inputs, tmp_path,
                                                command, message):
    # like argparse's own errors, a range check is followed by the usage
    # of the subcommand whose flag it checks (--threads alone is a
    # top-level flag)
    args = {"mesh": ["mesh", "--order", "9"],
            "synth": ["synth", "--order", "7", "--pairs", "1", "--seed", "1",
                      "--out", str(tmp_path / "d")]}
    out = (_eval_threshold(eval_inputs, "nan") if command == "eval"
           else run_cli(*args[command]))
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.startswith(
        f"error: {message}\nusage: spherereg {command} ")
    assert out.stderr.count("error") == 1
    assert not (tmp_path / "d").exists()


def test_eval_takes_a_zero_threshold(eval_inputs):
    out = _eval_threshold(eval_inputs, "0")
    assert out.returncode == 0, out.stderr
    assert "cluster_mass = " in out.stdout


def test_eval_missing_zmap_is_an_io_error(eval_inputs):
    out = _eval(eval_inputs, zmap="absent.sfm")
    assert out.returncode == 2
    assert _one_line_error(out) and "absent.sfm" in out.stderr


def test_eval_truncated_zmap_is_rejected(eval_inputs):
    out = _eval(eval_inputs, zmap="truncated.sfm")
    assert out.returncode == 1
    assert _one_line_error(out) and "truncated.sfm: line 101" in out.stderr


@pytest.mark.parametrize("flag", ["zmap", "fixed", "warped"])
def test_eval_rejects_map_at_another_order(eval_inputs, flag):
    out = _eval(eval_inputs, **{flag: "order1.sfm"})
    assert out.returncode == 1
    assert _one_line_error(out)
    assert out.stderr == (f"error: {eval_inputs / 'order1.sfm'}: order 1 "
                          f"does not match the order 2 of "
                          f"{eval_inputs / 'sphere.ico'}\n")


def test_eval_rejects_garbled_sphere_row(eval_inputs, tmp_path):
    lines = (eval_inputs / "sphere.ico").read_text().splitlines(True)
    lines[4] = "v 0.1 x 0.3\n"
    (tmp_path / "sphere.ico").write_text("".join(lines))
    out = _eval(eval_inputs, sphere=tmp_path / "sphere.ico")
    assert out.returncode == 1
    assert out.stderr == (f"error: {tmp_path / 'sphere.ico'}: line 5: "
                          "could not convert string to float: 'x'\n")


@pytest.mark.parametrize("edit, line, message", [
    # the order-2 sphere's 162 vertex rows are lines 2-163, its faces 164-
    (lambda lines: lines[:163], 164, "expected 3 columns after 'f'"),
    (lambda lines: lines[:200] + ["f nonsense\n"] + lines[201:], 201,
     "expected 3 columns after 'f'"),
    (lambda lines: lines[:200] + ["f 0 1 x\n"] + lines[201:], 201,
     "could not convert string to float: 'x'"),
    (lambda lines: lines[:200] + [lines[201]] + lines[201:], 201,
     "face differs from the canonical icosphere"),
])
def test_eval_rejects_truncated_or_garbled_faces(eval_inputs, tmp_path, edit,
                                                 line, message):
    lines = (eval_inputs / "sphere.ico").read_text().splitlines(True)
    (tmp_path / "sphere.ico").write_text("".join(edit(lines)))
    out = _eval(eval_inputs, sphere=tmp_path / "sphere.ico")
    assert out.returncode == 1
    assert out.stderr == (f"error: {tmp_path / 'sphere.ico'}: line {line}: "
                          f"{message}\n")


def test_eval_rejects_channel_mismatch(eval_inputs):
    out = _eval(eval_inputs, warped="two_channels.sfm")
    assert out.returncode == 1
    assert _one_line_error(out) and "two_channels.sfm: 2 channels" in out.stderr


# -- malformed inputs fail with one line before any work --------------------

@pytest.fixture
def small_cohort(tmp_path):
    """Three order-2 pairs and a one-stage run INI over them."""
    from spherereg.mesh import SphericalFeatureMap, write_sfm
    from spherereg.pipeline import PairEntry, write_manifest

    rng = np.random.Generator(np.random.Philox(12))
    entries = []
    for i in range(3):
        paths = [str(tmp_path / f"p{i}_{side}.sfm") for side in ("m", "f")]
        for path in paths:
            write_sfm(path, SphericalFeatureMap(2, rng.standard_normal(162)))
        entries.append(PairEntry(*paths))
    write_manifest(tmp_path / "manifest.txt", entries)
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        f"[data]\nmanifest = {tmp_path / 'manifest.txt'}\nseed = 0\n"
        "split = 0.6,0.4,0.0\n"
        "[stage.1]\ninput_order = 2\ncontrol_order = 1\nlabel_order = 2\n"
        "n_labels = 12\nfcb_channels = 4\nres_channels = 12\nepochs = 1\n")
    return tmp_path, cfg


def _corrupt_row(path, row, text):
    """Replace data row ``row`` (file line ``row + 2``) of a map."""
    lines = path.read_text().splitlines(keepends=True)
    lines[row + 1] = text + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("damage, line", [
    ("truncate", 42), ("inf", 8), ("nan", 100)])
def test_train_rejects_malformed_data(small_cohort, capsys, damage, line):
    from spherereg import cli

    root, cfg = small_cohort
    bad = root / "p1_f.sfm"
    if damage == "truncate":
        bad.write_text("".join(bad.read_text().splitlines(True)[:line - 1]))
    else:
        _corrupt_row(bad, line - 2, damage)
    code = cli.main(["train", "--config", str(cfg), "--out",
                     str(root / "ckpt"), "--seed", "0"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {bad}: line {line}: ")
    assert err.count("\n") == 1


def test_register_rejects_non_finite_moving(three_stage_ckpt, tmp_path,
                                            capsys):
    import shutil

    root, ckpt = three_stage_ckpt
    shutil.copy(root / "fixed.sfm", tmp_path / "fixed.sfm")
    shutil.copy(root / "moving.sfm", tmp_path / "moving.sfm")
    _corrupt_row(tmp_path / "moving.sfm", 17, "nan")
    code = _register_in_process(tmp_path, ckpt, tmp_path / "o.sfm",
                                tmp_path / "o.def")
    assert code == 1
    assert capsys.readouterr().err == \
        f"error: {tmp_path / 'moving.sfm'}: line 19: value is not finite\n"


def test_register_divergence_is_a_budget_error(three_stage_ckpt, tmp_path,
                                               capsys):
    # finite but huge values overflow the refinement loss: one line and
    # exit 3, as training reports divergence, not a traceback
    from spherereg.mesh import read_sfm, write_sfm

    root, ckpt = three_stage_ckpt
    for name in ("moving.sfm", "fixed.sfm"):
        fmap = read_sfm(root / name)
        fmap.values *= 1e200
        write_sfm(tmp_path / name, fmap)
    code = _register_in_process(tmp_path, ckpt, tmp_path / "o.sfm",
                                tmp_path / "o.def")
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: registration diverged: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "o.sfm").exists()


def test_register_divergence_prints_one_line_in_a_process(three_stage_ckpt,
                                                         tmp_path):
    # in a real process numpy's overflow warnings would reach stderr ahead
    # of the error; the diverged run must print the error line alone
    from spherereg.mesh import read_sfm, write_sfm

    root, ckpt = three_stage_ckpt
    for name in ("moving.sfm", "fixed.sfm"):
        fmap = read_sfm(root / name)
        fmap.values *= 1e200
        write_sfm(tmp_path / name, fmap)
    out = _register(tmp_path, ckpt, "o")
    assert out.returncode == 3
    assert out.stderr.startswith("error: registration diverged: ")
    assert out.stderr.count("\n") == 1
    assert not (tmp_path / "o.sfm").exists()


def test_register_shows_the_warnings_of_a_completed_run(three_stage_ckpt,
                                                        tmp_path):
    # the warnings held back while registering are shown when it completes
    from spherereg.mesh import read_sfm, write_sfm

    root, ckpt = three_stage_ckpt
    for name in ("moving.sfm", "fixed.sfm"):
        fmap = read_sfm(root / name)
        fmap.values[:] = 1.0
        write_sfm(tmp_path / name, fmap)
    with pytest.warns(UserWarning, match="zero-variance"):
        code = _register_in_process(tmp_path, ckpt, tmp_path / "o.sfm",
                                    tmp_path / "o.def")
    assert code == 0


@pytest.mark.parametrize("header, problem", [
    (b"\n", "garbled header of block 1"),
    (b"alpha two 3\n", "garbled header of block 1"),
    (b"alpha 2 3\n", "garbled header of block 1"),  # rank without its dims
    # far more bytes than the file holds
    (b"alpha 1 4000000000000\n", "truncated block 'alpha'"),
])
def test_register_rejects_garbled_gmw(three_stage_ckpt, tmp_path, capsys,
                                      header, problem):
    import shutil

    root, ckpt = three_stage_ckpt
    broken = tmp_path / "broken"
    shutil.copytree(ckpt, broken)
    gmw = broken / "stage2.gmw"
    first, rest = gmw.read_bytes().split(b"\n", 1)
    gmw.write_bytes(first + b"\n" + header + rest)
    code = _register_in_process(root, broken, tmp_path / "o.sfm",
                                tmp_path / "o.def")
    assert code == 1
    assert capsys.readouterr().err == f"error: {gmw}: {problem}\n"


def test_register_rejects_unparsable_arch_value(three_stage_ckpt, tmp_path,
                                                capsys):
    import shutil

    root, ckpt = three_stage_ckpt
    broken = tmp_path / "broken"
    shutil.copytree(ckpt, broken)
    arch = broken / "stage3.arch"
    arch.write_text(arch.read_text().replace("n_labels = 12", "n_labels = x"))
    code = _register_in_process(root, broken, tmp_path / "o.sfm",
                                tmp_path / "o.def")
    assert code == 1
    assert capsys.readouterr().err == \
        f"error: {arch}: bad value 'x' for key 'n_labels'\n"


@pytest.mark.parametrize("key, value", [("crf_iterations", "0"),
                                        ("lam_sm", "nan"),
                                        ("refine_lr", "inf")])
def test_register_rejects_a_bad_cfg_setting_naming_the_file(
        three_stage_ckpt, tmp_path, capsys, key, value):
    import re
    import shutil

    root, ckpt = three_stage_ckpt
    broken = tmp_path / "broken"
    shutil.copytree(ckpt, broken)
    cfg = broken / "stage2.cfg"
    cfg.write_text(re.sub(f"(?m)^{key} = .*$", f"{key} = {value}",
                          cfg.read_text()))
    code = _register_in_process(root, broken, tmp_path / "o.sfm",
                                tmp_path / "o.def")
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1
    assert err.startswith(f"error: {cfg} [stage]: bad value for key {key!r}")
    assert not (tmp_path / "o.sfm").exists()


def _text_input(kind, path):
    """Write a valid input of ``kind`` to ``path``; return its reader."""
    from spherereg import conv, mesh, pipeline, warp

    if kind == "sfm":
        mesh.write_sfm(path, mesh.SphericalFeatureMap(0, np.ones(12)))
        return mesh.read_sfm
    if kind == "def":
        warp.write_def(path, warp.identity_field(0))
        return warp.read_def
    if kind == "ico":
        mesh.write_ico(path, mesh.build_icosphere(0))
        return mesh.read_ico
    if kind == "manifest":
        path.write_text("m.sfm f.sfm\n")
        return pipeline.read_manifest
    stage = pipeline.desk_scale_stages()[1]
    if kind == "arch":
        conv.write_arch(path, stage.net_config())
        return conv.read_arch
    if kind == "cfg":
        pipeline.write_stage_cfg(path, stage)
        return pipeline.read_stage_cfg
    path.write_text("[data]\nmanifest = m.txt\nseed = 1\n[stage.1]\n"
                    "input_order = 2\ncontrol_order = 1\nlabel_order = 2\n"
                    "n_labels = 12\nfcb_channels = 4\nres_channels = 12\n")
    return pipeline.read_run_config


@pytest.mark.parametrize("kind", ["sfm", "def", "ico", "manifest", "ini",
                                  "arch", "cfg"])
def test_text_input_that_is_not_utf8_names_its_file(tmp_path, kind):
    # every text input the commands read; the commands exit 1 with the
    # reader's ValueError
    path = tmp_path / f"input.{kind}"
    read = _text_input(kind, path)
    read(path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff", 1))
    with pytest.raises(ValueError) as err:
        read(path)
    message = str(err.value)
    assert message.startswith(f"{path}: ") and "utf-8" in message
    assert "\n" not in message


def test_register_rejects_fixed_at_another_order(three_stage_ckpt, tmp_path,
                                                 monkeypatch, capsys):
    import shutil

    from spherereg import pipeline
    from spherereg.mesh import SphericalFeatureMap, write_sfm

    root, ckpt = three_stage_ckpt
    calls = []
    monkeypatch.setattr(pipeline, "register_pair",
                        lambda *args: calls.append(args))
    shutil.copy(root / "moving.sfm", tmp_path / "moving.sfm")
    write_sfm(tmp_path / "fixed.sfm", SphericalFeatureMap(3, np.ones(642)))
    code = _register_in_process(tmp_path, ckpt, tmp_path / "o.sfm",
                                tmp_path / "o.def")
    assert code == 1 and calls == []
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'fixed.sfm'}: order 3 does not match the "
        f"order 2 of {tmp_path / 'moving.sfm'}\n")


def test_register_rejects_channel_count_of_checkpoint(three_stage_ckpt,
                                                      tmp_path, monkeypatch,
                                                      capsys):
    from spherereg import pipeline
    from spherereg.mesh import SphericalFeatureMap, write_sfm

    root, ckpt = three_stage_ckpt
    calls = []
    monkeypatch.setattr(pipeline, "register_pair",
                        lambda *args: calls.append(args))
    for name in ("moving", "fixed"):
        write_sfm(tmp_path / f"{name}.sfm",
                  SphericalFeatureMap(2, np.ones((162, 2))))
    code = _register_in_process(tmp_path, ckpt, tmp_path / "o.sfm",
                                tmp_path / "o.def")
    assert code == 1 and calls == []
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'moving.sfm'}: 2 channels at order 2, but "
        f"{ckpt / 'stage1.arch'} expects 1 at order 2\n")


def test_train_rejects_data_that_misfits_a_stage(small_cohort, capsys):
    from spherereg import cli
    from spherereg.mesh import SphericalFeatureMap, write_sfm

    root, cfg = small_cohort
    write_sfm(root / "p2_m.sfm", SphericalFeatureMap(1, np.ones(42)))
    code = cli.main(["train", "--config", str(cfg), "--out",
                     str(root / "ckpt"), "--seed", "0"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {root / 'p2_m.sfm'}: 1 channels at order 1, but "
        f"[stage.1] of {cfg} expects 1 at order 2\n")
    assert not (root / "ckpt").exists()


@pytest.mark.parametrize("old, new, where, key", [
    ("epochs = 1\n", "epochs = 1\ngamma = 0\n", "[stage.1]", "gamma"),
    ("epochs = 1\n", "epochs = 1\ncrf_iterations = 0\n", "[stage.1]",
     "crf_iterations"),
    ("[stage.1]\n", "[crf]\niterations = 0\n[stage.1]\n", "[crf]",
     "iterations"),
    ("[stage.1]\n", "[crf]\ngamma = 0\n[stage.1]\n", "[crf]", "gamma"),
    ("split = 0.6,0.4,0.0", "split = 0.5,0.2,0.2", "[data]", "split"),
    ("split = 0.6,0.4,0.0", "split = 1.2,-0.2,0", "[data]", "split"),
    ("split = 0.6,0.4,0.0", "split = 0.6,0.4", "[data]", "split"),
    ("seed = 0\n", "seed = -3\n", "[data]", "seed")])
def test_train_rejects_settings_training_cannot_use(small_cohort, capsys, old,
                                                    new, where, key):
    from spherereg import cli

    root, cfg = small_cohort
    cfg.write_text(cfg.read_text().replace(old, new))
    code = cli.main(["train", "--config", str(cfg), "--out",
                     str(root / "ckpt"), "--seed", "0"])
    err = capsys.readouterr().err
    assert code == 1
    if where == "[crf]":
        # the CRF settings are stage keys: crf, crf_iterations and gamma
        assert err == f"error: {cfg}: unknown section [crf]\n"
    else:
        assert err.startswith(f"error: {cfg} {where}: bad value ")
        assert f"key {key!r}" in err and err.count("\n") == 1
    assert not (root / "ckpt").exists()


@pytest.mark.parametrize("pairs, split", [(0, "0.8,0.1,0.1"),
                                          (3, "0.1,0.9,0.0")])
def test_train_without_training_pairs_writes_nothing(small_cohort, capsys,
                                                     pairs, split):
    from spherereg import cli

    root, cfg = small_cohort
    manifest = root / "manifest.txt"
    manifest.write_text("".join(manifest.read_text().splitlines(True)[:pairs]))
    cfg.write_text(cfg.read_text().replace("split = 0.6,0.4,0.0",
                                           f"split = {split}"))
    code = cli.main(["train", "--config", str(cfg), "--out",
                     str(root / "ckpt"), "--seed", "0"])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {manifest}: no training pairs")
    assert split in err
    assert not (root / "ckpt").exists()


def test_train_seed_flag_is_checked_as_the_ini_seed(small_cohort, capsys):
    from spherereg import cli

    root, cfg = small_cohort
    code = cli.main(["train", "--config", str(cfg), "--out",
                     str(root / "ckpt"), "--seed", "-1"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "error: bad value for key 'seed': must be >= 0\n"
    assert not (root / "ckpt").exists()


def test_train_seed_defaults_to_the_ini_seed(small_cohort):
    from spherereg import cli

    root, cfg = small_cohort  # [data] seed = 0
    weights = {}
    for name, flags in (("ini", []), ("zero", ["--seed", "0"]),
                        ("one", ["--seed", "1"])):
        assert cli.main(["train", "--config", str(cfg), "--out",
                         str(root / name), *flags]) == 0
        weights[name] = (root / name / "stage1.gmw").read_bytes()
    assert weights["ini"] == weights["zero"] != weights["one"]


def test_register_reads_checkpoints_that_hold_crf_blocks(three_stage_ckpt,
                                                         tmp_path):
    # checkpoints written before the CRF weights became constants: the
    # .cfg lacks use_crf, and the .gmw of a stage with the CRF on holds
    # crf.omega and crf.mu at their defaults.  They register to the same
    # bytes, the CRF switch following from the blocks.
    import shutil

    from spherereg.pipeline import read_stages
    from spherereg.crf import default_weights
    from spherereg.optim import read_gmw, write_gmw

    root, ckpt = three_stage_ckpt
    old = tmp_path / "old_ckpt"
    shutil.copytree(ckpt, old)
    for k, stage in enumerate(_three_stages(), 1):
        cfg = old / f"stage{k}.cfg"
        cfg.write_text("".join(line for line in cfg.read_text()
                               .splitlines(True)
                               if not line.startswith("use_crf")))
        if stage.use_crf:
            store = read_gmw(old / f"stage{k}.gmw")
            omega, mu = default_weights(stage.control_order, stage.n_labels)
            store.add("crf.omega", omega)
            store.add("crf.mu", mu)
            write_gmw(old / f"stage{k}.gmw", store)
    assert [stage for stage, _ in read_stages(str(old))] == _three_stages()
    new_out = _register(root, ckpt, "new")
    old_out = _register(root, old, "old")
    assert new_out.returncode == 0 and old_out.returncode == 0, \
        new_out.stderr + old_out.stderr
    assert old_out.stdout == new_out.stdout
    for suffix in ("sfm", "def"):
        assert (root / f"old.{suffix}").read_bytes() == \
            (root / f"new.{suffix}").read_bytes()


# -- the exit-code policy --------------------------------------------------

# the module and name of each command's core call
CORE_CALLS = {"mesh": ("mesh", "build_icosphere"),
              "synth": ("pipeline", "generate_synthetic_pair"),
              "train": ("pipeline", "train_run"),
              "register": ("pipeline", "register_pair"),
              "eval": ("metrics", "metrics_report")}


def _command_line(command, request, tmp_path):
    """Arguments under which ``command`` reaches its core call."""
    if command == "mesh":
        return ["mesh", "--order", "1"]
    if command == "synth":
        return ["synth", "--order", "1", "--pairs", "1", "--seed", "0",
                "--out", str(tmp_path / "d")]
    if command == "train":
        root, cfg = request.getfixturevalue("small_cohort")
        return ["train", "--config", str(cfg), "--out", str(root / "ckpt")]
    if command == "register":
        root, ckpt = request.getfixturevalue("three_stage_ckpt")
        return ["register", "--moving", str(root / "moving.sfm"),
                "--fixed", str(root / "fixed.sfm"), "--ckpt", str(ckpt),
                "--out", str(tmp_path / "o.sfm")]
    root = request.getfixturevalue("eval_inputs")
    return ["eval", "--fixed", str(root / "fixed.sfm"),
            "--warped", str(root / "warped.sfm"),
            "--sphere", str(root / "sphere.ico")]


def _raise_from_core_call(monkeypatch, command, error):
    import importlib

    def fail(*args, **kwargs):
        raise error("raised by the core call")

    module, name = CORE_CALLS[command]
    monkeypatch.setattr(importlib.import_module(f"spherereg.{module}"), name,
                        fail)


@pytest.mark.parametrize("error, code", [(ValueError, 1), (OSError, 2),
                                         (RuntimeError, 3)])
@pytest.mark.parametrize("command", sorted(CORE_CALLS))
def test_main_turns_each_error_into_its_exit_code(command, error, code,
                                                  request, tmp_path,
                                                  monkeypatch, capsys):
    from spherereg import cli

    argv = _command_line(command, request, tmp_path)
    _raise_from_core_call(monkeypatch, command, error)
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith("raised by the core call\n")


def test_a_program_fault_keeps_its_traceback(monkeypatch, capsys):
    from spherereg import cli

    _raise_from_core_call(monkeypatch, "mesh", KeyError)
    with pytest.raises(KeyError, match="raised by the core call"):
        cli.main(["mesh", "--order", "1"])
    assert capsys.readouterr().err == ""
