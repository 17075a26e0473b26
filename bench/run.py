#!/usr/bin/env python3
"""The spherereg benchmark: user-path registration and training, timed end
to end, with an outside-in layer trace.

    python3 bench/run.py --workload register-o4 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Each run is one process, one BLAS thread, sequential and closed-loop.  The
last line of standard output is one JSON object; ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
See bench/README.md for why each workload and metric exists.
"""

import os

# ``spherereg --threads 1`` pins BLAS by environment, which only works
# before numpy is first imported; cli.main called in-process is too late.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402

import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

DEFAULT_SEED = 1
# never used while the benchmark was tuned; re-check claims on it
HOLDOUT_SEED = 4099
WEIGHTS_SEED = 123  # seed-initialized register checkpoints
TRAIN_SEED = 123  # ``spherereg train --seed``
PAIR_STRIDE = 10_000  # pair i of cohort seed s has warp seed s * stride + i
SETUP_REPEATS = 5
TRAIN_SPLIT = (0.6, 0.4, 0.0)
REPORT_KEYS = ("cc.mean", "areal.mean", "areal.max", "areal.p95",
               "areal.p98", "flipped_faces")


@dataclass(frozen=True)
class Workload:
    kind: str  # "register" or "train"
    order: int
    min_ops: int  # operations always run; quality is read from these
    refine_steps: tuple = ()  # per stage, register only
    epochs: tuple = ()  # per stage, train only; () keeps desk scale
    cohort: int = 0  # training pairs generated, train only


WORKLOADS = {
    "register-o4": Workload("register", 4, 3, refine_steps=(150, 40)),
    "register-o5": Workload("register", 5, 2, refine_steps=(20, 5)),
    "train-o4": Workload("train", 4, 1, cohort=10),
}

# tiny orders and counts: exercises every code path and the output schema
SMOKE = {
    "register-o4": Workload("register", 3, 1, refine_steps=(3, 2)),
    "register-o5": Workload("register", 3, 1, refine_steps=(2, 1)),
    "train-o4": Workload("train", 3, 1, epochs=(1, 1), cohort=5),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def import_program():
    if not os.path.isfile(os.path.join(SRC, "spherereg", "cli.py")):
        raise BenchError(f"no spherereg sources under {SRC}")
    sys.path.insert(0, SRC)
    import spherereg.cli  # noqa: F401
    import spherereg.pipeline  # noqa: F401  (imports every other layer)


def stage_configs(wl: Workload):
    from spherereg.pipeline import desk_scale_stages

    stages = [replace(s, input_order=wl.order)
              for s in desk_scale_stages(use_crf=True)]
    if wl.refine_steps:
        stages = [replace(s, refine_steps=n)
                  for s, n in zip(stages, wl.refine_steps)]
    if wl.epochs:
        stages = [replace(s, epochs=n) for s, n in zip(stages, wl.epochs)]
    return stages


def pair_paths(root, i):
    return tuple(os.path.join(root, f"pair{i:04d}_{tag}")
                 for tag in ("moving.sfm", "fixed.sfm"))


# -- set-up ----------------------------------------------------------------

_INI_KEYS = ("input_order", "control_order", "label_order", "n_labels",
             "fcb_channels", "res_channels", "in_channels", "n_kernels",
             "shared_fcbs", "gamma", "lam_sm", "lr", "epochs",
             "crf_iterations", "refine_steps", "refine_lr")


def _ini_value(value):
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return repr(value) if isinstance(value, float) else str(value)


def write_run_ini(path, wl: Workload, manifest):
    lines = ["[data]", f"manifest = {manifest}", f"seed = {TRAIN_SEED}",
             "split = " + ",".join(map(str, TRAIN_SPLIT))]
    for k, stage in enumerate(stage_configs(wl), 1):
        lines.append(f"[stage.{k}]")
        lines += [f"{key} = {_ini_value(getattr(stage, key))}"
                  for key in _INI_KEYS]
        lines.append(f"crf = {str(stage.use_crf).lower()}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def setup(wl: Workload, work):
    """Warm the program's caches and write what the first operation reads:
    seed-initialized stage checkpoints (register) or the run INI and
    manifest (train).  Returns the checkpoint directory or INI path."""
    from spherereg import conv, mesh, optim, pipeline, warp

    stages = stage_configs(wl)
    models = [pipeline.StageModel(s, seed=WEIGHTS_SEED) for s in stages]
    mesh.gradient_coefficients(wl.order)
    for s in stages:
        warp.upsample_deformation(warp.identity_field(s.control_order),
                                  mesh.build_icosphere(s.input_order))
    if wl.kind == "train":
        data = os.path.join(work, "data")
        os.makedirs(data, exist_ok=True)
        manifest = os.path.join(data, "manifest.txt")
        pipeline.write_manifest(manifest, [
            pipeline.PairEntry(*pair_paths(data, i)) for i in range(wl.cohort)])
        ini = os.path.join(work, "run.ini")
        write_run_ini(ini, wl, manifest)
        return ini
    ckpt = os.path.join(work, "ckpt")
    os.makedirs(ckpt, exist_ok=True)
    for k, (stage, model) in enumerate(zip(stages, models), 1):
        optim.write_gmw(os.path.join(ckpt, f"stage{k}.gmw"), model.store)
        conv.write_arch(os.path.join(ckpt, f"stage{k}.arch"),
                        stage.net_config())
        pipeline.write_stage_cfg(os.path.join(ckpt, f"stage{k}.cfg"), stage)
    for k in range(1, len(stages) + 1):
        optim.read_gmw(os.path.join(ckpt, f"stage{k}.gmw"))
    return ckpt


def setup_seconds(args):
    """Median wall time of fresh processes that start, import, warm up and
    write the checkpoint, each waited for before the next."""
    times = []
    for _ in range(SETUP_REPEATS):
        work = tempfile.mkdtemp(dir=WORK)
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--work", work]
        if args.smoke:
            cmd.append("--smoke")
        try:
            start = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, timeout=150,
                                  stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - start)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if done.returncode != 0:
            raise BenchError(f"set-up probe exited with {done.returncode}")
    return statistics.median(times)


# -- operations --------------------------------------------------------------

def operation(rec, op_id, shallow=False):
    """``rec.operation`` in a traced pass; nothing in an untraced one."""
    return rec.operation(op_id, shallow) if rec else contextlib.nullcontext()


def more_ops(done, times, wl: Workload, args, n_ops):
    """Whether the closed loop starts another operation: always until
    ``min_ops``, then until ``--seconds`` of operation time, or exactly
    ``n_ops`` when the traced pass replays an untraced one."""
    if n_ops is not None:
        return done < n_ops
    return done < wl.min_ops or sum(times) < args.seconds


def make_pair(wl: Workload, seed, i, root, rec=None):
    """Generate pair ``i`` of the cohort and write its maps (untimed)."""
    from spherereg import mesh, pipeline

    spec = pipeline.SyntheticWarpSpec(seed=seed * PAIR_STRIDE + i)
    with operation(rec, f"input-{i}", shallow=True):
        moving, fixed, _ = pipeline.generate_synthetic_pair(spec, wl.order)
    paths = pair_paths(root, i)
    mesh.write_sfm(paths[0], moving)
    mesh.write_sfm(paths[1], fixed)
    return paths


def call_cli(argv, rec, op_id):
    """One timed ``spherereg`` call; returns (exit code, stdout, seconds)."""
    from spherereg import cli

    out = io.StringIO()
    with operation(rec, op_id):
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            code = None
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


def parse_report(text):
    report = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            report[key.strip()] = float(value)
    return report


def check_registration(wl: Workload, code, stdout, warped_path, def_path):
    """Problems with one registered pair, and its quality record."""
    import numpy as np

    from spherereg import mesh, metrics, warp

    if code != 0:
        return [f"exit code {code}"], None
    problems = []
    warped = mesh.read_sfm(warped_path)
    if warped.sphere_order != wl.order:
        problems.append(f"warped map has order {warped.sphere_order}")
    if not np.all(np.isfinite(warped.values)):
        problems.append("warped map is not finite")
    field = warp.read_def(def_path)
    if field.order != wl.order:
        problems.append(f"deformation has order {field.order}")
    norm_err = np.abs(np.linalg.norm(field.endpoints, axis=1) - 1.0).max()
    if not norm_err <= 1e-9:
        problems.append(f"deformation endpoint off the sphere by {norm_err:g}")
    report = parse_report(stdout)
    absent = [k for k in REPORT_KEYS if k not in report]
    if absent:
        problems.append(f"report lacks {', '.join(absent)}")
    if problems:
        return problems, None
    stats = metrics.distortion_stats(mesh.build_icosphere(wl.order), field)
    return [], (report["cc.mean"], np.abs(stats.log2_areal),
                int(report["flipped_faces"]))


def check_training(wl: Workload, code, ckpt):
    """Problems with one training run, and the final stage's best
    validation CC from its trace CSV."""
    from spherereg import conv, optim

    if code != 0:
        return [f"exit code {code}"], None
    problems = []
    stages = stage_configs(wl)
    best = None
    for k, stage in enumerate(stages, 1):
        try:
            store = optim.read_gmw(os.path.join(ckpt, f"stage{k}.gmw"))
            arch = conv.read_arch(os.path.join(ckpt, f"stage{k}.arch"))
            with open(os.path.join(ckpt, f"stage{k}_trace.csv")) as fh:
                rows = fh.read().split()[1:]
        except (OSError, ValueError) as exc:
            problems.append(f"stage {k} checkpoint: {exc}")
            continue
        if arch != stage.net_config():
            problems.append(f"stage {k} architecture does not read back")
        if not store.names():
            problems.append(f"stage {k} checkpoint holds no weights")
        val = [float(row.split(",")[2]) for row in rows]
        if len(val) != stage.epochs:
            problems.append(f"stage {k} trace has {len(val)} epochs")
        best = max(val) if val else None
    if best is None or not math.isfinite(best):
        problems.append("no finite validation CC")
    return problems, (None if problems else best)


def register_pass(wl, args, work, rec=None, n_ops=None):
    """Set up, then register pairs while ``more_ops``.  Returns the per-pair
    times, quality records and failure count."""
    with operation(rec, "setup"):
        ckpt = setup(wl, work)
    times, quality, failed = [], [], 0
    i = 0
    while more_ops(i, times, wl, args, n_ops):
        moving, fixed = make_pair(wl, args.seed, i, work, rec)
        warped = os.path.join(work, f"pair{i:04d}_warped.sfm")
        deform = os.path.join(work, f"pair{i:04d}_warped.def")
        code, stdout, seconds = call_cli(
            ["--threads", "1", "register", "--moving", moving, "--fixed",
             fixed, "--ckpt", ckpt, "--out", warped, "--deform", deform],
            rec, f"pair-{i}")
        times.append(seconds)
        problems, record = check_registration(wl, code, stdout, warped,
                                              deform)
        if problems:
            failed += 1
            print(f"pair {i} failed: {'; '.join(problems)}", file=sys.stderr)
        elif i < wl.min_ops:
            quality.append(record)
        i += 1
    return times, quality, failed


def train_pass(wl, args, work, rec=None, n_ops=None):
    """Set up and generate the cohort, then run ``spherereg train`` while
    ``more_ops``.  Every run after the first must reproduce the first one's
    validation CC."""
    with operation(rec, "setup"):
        ini = setup(wl, work)
    data = os.path.join(work, "data")
    for i in range(wl.cohort):
        make_pair(wl, args.seed, i, data, rec)
    times, quality, failed = [], [], 0
    k = 0
    while more_ops(k, times, wl, args, n_ops):
        ckpt = os.path.join(work, f"ckpt{k}")
        code, _, seconds = call_cli(
            ["--threads", "1", "train", "--config", ini, "--out", ckpt,
             "--seed", str(TRAIN_SEED)], rec, f"train-{k}")
        times.append(seconds)
        problems, best = check_training(wl, code, ckpt)
        if not problems and quality and best != quality[0]:
            problems.append(f"validation CC {best!r} differs from the first "
                            f"run's {quality[0]!r}")
        if problems:
            failed += 1
            print(f"train run {k} failed: {'; '.join(problems)}",
                  file=sys.stderr)
        elif not quality:
            quality.append(best)
        shutil.rmtree(ckpt, ignore_errors=True)
        k += 1
    return times, quality, failed


def pairs_per_op(wl: Workload):
    """Pairs one operation processes: one registration, or one gradient
    step per training pair per epoch."""
    if wl.kind == "register":
        return 1
    from spherereg.pipeline import split_indices

    n_train = len(split_indices(wl.cohort, TRAIN_SEED, TRAIN_SPLIT)[0])
    return n_train * sum(s.epochs for s in stage_configs(wl))


def summarize_quality(wl: Workload, quality):
    """The (ungated) quality figures of the quality operations."""
    import numpy as np

    if wl.kind == "train":
        return {"cc.mean": quality[0]}
    pooled = np.concatenate([areal for _, areal, _ in quality])
    return {
        "cc.mean": float(np.mean([cc for cc, _, _ in quality])),
        "areal.p95": float(np.percentile(pooled, 95)),
        "flipped_faces": sum(flips for _, _, flips in quality),
    }


# -- one run ---------------------------------------------------------------

def measure(wl: Workload, args, work):
    """The result object of one run (without printing it)."""
    one_pass = register_pass if wl.kind == "register" else train_pass
    setup_s = None if args.trace else setup_seconds(args)
    plain = os.path.join(work, "plain")
    os.makedirs(plain)
    times, quality, failed = one_pass(wl, args, plain)
    correct = failed == 0 and len(quality) == wl.min_ops
    summary = summarize_quality(wl, quality) if correct else {}
    print(f"# {args.workload} seed={args.seed} ops={len(times)} "
          f"op_s={[round(t, 4) for t in times]} quality={summary}")
    if not args.trace:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_s.p50": (statistics.median(times), "s"),
            "pairs_per_s": (pairs_per_op(wl) * len(times) / sum(times),
                            "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        return result(correct, len(times), failed, metrics)

    # the traced pass repeats the same operations on the same inputs
    rec = spans.Recorder()
    undo = spans.install(rec)
    traced = os.path.join(work, "traced")
    os.makedirs(traced)
    try:
        t_times, t_quality, t_failed = one_pass(wl, args, traced, rec,
                                                n_ops=len(times))
    finally:
        spans.uninstall(undo)
    t_summary = summarize_quality(wl, t_quality) \
        if t_failed == 0 and len(t_quality) == wl.min_ops else {}
    if json.dumps(t_summary) != json.dumps(summary):
        correct = False
        print(f"traced quality {t_summary} differs from untraced {summary}",
              file=sys.stderr)
    missing = spans.missing_spans(rec, args.workload)
    if missing:
        correct = False
        print(f"spans that never fired: {', '.join(missing)}",
              file=sys.stderr)
    metrics = {name: (value, layer_unit(name))
               for name, value in spans.layer_metrics(rec).items()}
    metrics["trace.overhead_s"] = (sum(t_times) - sum(times), "s")
    metrics["quality.cc.mean"] = (t_summary.get("cc.mean", 0.0), "corr")
    metrics["quality.areal.p95"] = (t_summary.get("areal.p95", 0.0), "log2")
    metrics["quality.flipped_faces"] = (t_summary.get("flipped_faces", 0),
                                        "count")
    return result(correct and t_failed == 0, len(times) + len(t_times),
                  failed + t_failed, metrics)


def layer_unit(name):
    if name.endswith((".s", ".self_s")):
        return "s"
    return "bytes" if name.endswith(".dense_bytes") else "count"


def result(correct, attempted, failed, metrics):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run(args):
    wl = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    import_program()
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    try:
        out = measure(wl, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0


def smoke():
    """Run every workload at smoke size, untraced and traced, and check
    each result line against BENCHMARK.json.  Asserts no timing bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--smoke",
                 "--workload", workload, "--seconds", "0",
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{label}: exit {done.returncode}\n"
                                f"{done.stderr}")
                continue
            out = json.loads(lines[-1])
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: keys {sorted(out)}")
                continue
            if out["correct"] is not True or out["failed"] != 0 or \
                    not isinstance(out["attempted"], int) or \
                    out["attempted"] < 1:
                problems.append(f"{label}: {out['correct']=} "
                                f"{out['attempted']=} {out['failed']=}\n"
                                f"{done.stderr}")
            got = {k: m["unit"] for k, m in out["metrics"].items()
                   if isinstance(m.get("value"), (int, float))}
            if got != expected[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json"
                                f" in {sorted(set(got) ^ set(expected[trace]))}")
            print(f"{label}: attempted={out['attempted']} "
                  f"failed={out['failed']}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke failed" if problems else "smoke ok")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"cohort seed (default {DEFAULT_SEED}; "
                             f"holdout {HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="operation time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; without --workload, check every "
                             "workload's output schema")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload is None:
            if not args.smoke:
                parser.error("--workload is required")
            return smoke()
        if args.setup_probe:
            import_program()
            setup((SMOKE if args.smoke else WORKLOADS)[args.workload],
                  args.work)
            return 0
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
