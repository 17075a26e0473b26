"""Command-line interface: mesh generation, synthetic cohorts, training,
registration, evaluation, and the built-in self test.

Exit codes: 0 success; 1 a usage, config or data error (``ValueError``);
2 an I/O error (``OSError``); 3 divergence or an exceeded budget
(``FloatingPointError``, ``RuntimeError``).  Commands raise, and ``main``
alone turns an exception into its code and one ``error:`` line; any other
exception is a fault of the program and keeps its traceback.  A command
catches an error only to add words to it and raise it again.  A usage
error (a missing or malformed flag, or a value out of range) is a
``ValueError`` too: it exits 1 with its ``error:`` line and the usage
line.

``--threads 1`` pins the numerical libraries to one thread, which
guarantees bitwise-reproducible runs.  The cap is set through the
environment, which the BLAS reads when numpy is first imported: it acts in
the ``spherereg`` command, but a ``main()`` called in a process that has
already imported numpy runs with the threads that process has, and warns
when the process's thread variables differ from the request.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from dataclasses import replace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_BUDGET = 3


# the first three are the ones a BLAS reads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _set_threads(n: int) -> None:
    """Cap the numerical libraries at ``n`` threads.  The cap must be set
    before numpy (and its BLAS) is imported; when numpy is already loaded
    and a BLAS thread variable differs from ``n``, warn that the cap may
    not hold."""
    if "numpy" in sys.modules:
        differ = [f"{var}={os.environ.get(var, 'unset')}"
                  for var in THREAD_VARS[:3] if os.environ.get(var) != str(n)]
        if differ:
            print(f"warning: --threads {n} may not apply: numpy was loaded "
                  f"before it with {', '.join(differ)}", file=sys.stderr)
    for var in THREAD_VARS:
        os.environ[var] = str(n)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_mesh(args) -> int:
    from .mesh import build_icosphere, write_ico

    sphere = build_icosphere(args.order)
    v = sphere.n_vertices
    f = len(sphere.faces)
    e = v + f - 2  # Euler characteristic of the sphere
    if args.out:
        try:
            write_ico(args.out, sphere)
        except OSError as exc:
            raise OSError(f"cannot write {args.out}: {exc}") from None
    print(f"vertices={v} edges={e} faces={f}")
    return EXIT_OK


def cmd_synth(args) -> int:
    from .pipeline import PairEntry, SyntheticWarpSpec, \
        generate_synthetic_pair, write_manifest
    from .mesh import write_sfm
    from .warp import write_def

    # checked before anything is written, even when no pair is made
    spec = SyntheticWarpSpec(
        seed=args.seed, max_angle=args.max_angle,
        smoothness=args.smoothness, field_degree=args.field_degree,
        n_components=args.components, n_channels=args.channels,
        noise=args.noise,
    )
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create {args.out}: {exc}") from None
    entries = []
    try:
        for i in range(args.pairs):
            moving, fixed, truth = generate_synthetic_pair(
                replace(spec, seed=args.seed + i), args.order)
            paths = (os.path.join(args.out, f"pair{i:04d}_moving.sfm"),
                     os.path.join(args.out, f"pair{i:04d}_fixed.sfm"),
                     os.path.join(args.out, f"pair{i:04d}_truth.def"))
            write_sfm(paths[0], moving)
            write_sfm(paths[1], fixed)
            write_def(paths[2], truth)
            entries.append(PairEntry(*paths))
        write_manifest(os.path.join(args.out, "manifest.txt"), entries)
    except OSError as exc:
        raise OSError(f"cannot write: {exc}") from None
    print(f"wrote {args.pairs} pairs to {args.out}")
    return EXIT_OK


def _check_fit(maps, stages, where) -> None:
    """Raise ValueError naming the first of the (path, feature map) pairs
    ``maps`` whose order or channel count differs from a stage's, and that
    stage's ``where``."""
    for stage, place in zip(stages, where):
        for path, fmap in maps:
            if (fmap.sphere_order, fmap.channels) != \
                    (stage.input_order, stage.in_channels):
                raise ValueError(
                    f"{path}: {fmap.channels} channels at order "
                    f"{fmap.sphere_order}, but {place} expects "
                    f"{stage.in_channels} at order {stage.input_order}")


def cmd_train(args) -> int:
    from .mesh import read_sfm
    from .pipeline import read_manifest, read_run_config, train_run, \
        training_split

    cfg = read_run_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)  # checked as the INI seed is
    if not os.path.exists(cfg.manifest):
        raise ValueError(f"manifest not found: {cfg.manifest}")
    maps = []
    for e in read_manifest(cfg.manifest):
        for p in (e.moving_path, e.fixed_path):
            if not os.path.exists(p):
                raise ValueError(f"missing data file: {p}")
            maps.append((p, read_sfm(p)))
    _check_fit(maps, cfg.stages, [f"[stage.{k}] of {args.config}"
                                  for k in range(1, len(cfg.stages) + 1)])
    pairs = [(maps[i][1], maps[i + 1][1]) for i in range(0, len(maps), 2)]
    training_split(cfg, len(pairs))
    for k, stage in enumerate(cfg.stages, 1):
        print(f"stage {k}: control_order={stage.control_order} "
              f"n_labels={stage.n_labels} crf={stage.use_crf} "
              f"lam_sm={stage.lam_sm}")

    def log(rec):
        print(f"epoch {rec.epoch}: train_loss={rec.train_loss:.6f} "
              f"val_cc={rec.val_cc:.6f}", flush=True)

    try:
        train_run(cfg, pairs, args.out, log=log)
    except FloatingPointError as exc:
        raise FloatingPointError(f"training diverged: {exc}") from None
    print(f"checkpoints written to {args.out}")
    return EXIT_OK


def cmd_register(args) -> int:
    from .mesh import read_sfm, write_sfm
    from .metrics import write_met
    from .pipeline import read_stages, register_pair, stage_path
    from .warp import write_def

    for path in filter(None, (args.out, args.deform)):
        folder = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(folder):
            raise OSError(f"cannot write {path}: no directory {folder}")
    moving = read_sfm(args.moving)
    fixed = read_sfm(args.fixed)
    stages = read_stages(args.ckpt)
    if fixed.sphere_order != moving.sphere_order:
        raise ValueError(f"{args.fixed}: order {fixed.sphere_order} does not "
                         f"match the order {moving.sphere_order} of "
                         f"{args.moving}")
    _check_fit([(args.moving, moving), (args.fixed, fixed)],
               [stage for stage, _ in stages],
               [stage_path(args.ckpt, k, ".arch")
                for k in range(1, len(stages) + 1)])
    # numpy warnings are shown only if the registration completes, so a
    # divergence prints its one line alone
    with warnings.catch_warnings(record=True) as caught:
        try:
            field, warped, report = register_pair(stages, moving, fixed)
        except FloatingPointError as exc:
            raise FloatingPointError(f"registration diverged: {exc}") \
                from None
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    try:
        write_sfm(args.out, warped)
        if args.deform:
            write_def(args.deform, field)
    except OSError as exc:
        raise OSError(f"cannot write: {exc}") from None
    write_met(sys.stdout, report)
    return EXIT_OK


def cmd_eval(args) -> int:
    from .mesh import read_ico, read_sfm
    from .metrics import cluster_mass, distortion_stats, metrics_report, \
        vertex_areas, write_met
    from .warp import read_def

    fixed = read_sfm(args.fixed)
    warped = read_sfm(args.warped)
    sphere = read_ico(args.sphere)
    field = read_def(args.deform) if args.deform else None
    zmap = read_sfm(args.zmap) if args.zmap else None
    orders = [(args.fixed, fixed.sphere_order),
              (args.warped, warped.sphere_order)]
    if field is not None:
        orders.append((args.deform, field.order))
    if zmap is not None:
        orders.append((args.zmap, zmap.sphere_order))
    for path, order in orders:
        if order != sphere.order:
            raise ValueError(f"{path}: order {order} does not match the "
                             f"order {sphere.order} of {args.sphere}")
    if warped.channels != fixed.channels:
        raise ValueError(f"{args.warped}: {warped.channels} channels, but "
                         f"{args.fixed} has {fixed.channels}")
    stats = None if field is None else distortion_stats(sphere, field)
    cm = None
    if zmap is not None:
        areas = vertex_areas(sphere.vertices, sphere.faces)
        cm = cluster_mass(zmap, areas, threshold=args.threshold)
    report = metrics_report(fixed, warped, stats, cm)
    write_met(sys.stdout, report)
    return EXIT_OK


def cmd_selftest(args) -> int:
    import numpy as np

    from .autodiff import constant
    from .conv import NetConfig, RegistrationNet
    from .crf import CrfConfig, crf_forward, meanfield_reference
    from .mesh import barycentric_map, best_face, build_icosphere, \
        corner_rows, face_normals, longest_edge, nearest_vertex, vertex_count
    from .metrics import distortion_stats
    from .optim import ParamStore, check_registered_ops
    from .warp import DeformationField, build_label_space, control_grid, \
        identity_field, locate_warped_faces, resample_tensor

    failures = []

    def check(name, ok):
        print(f"{'ok' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    for k in range(5):
        check(f"icosphere order {k} counts",
              build_icosphere(k).n_vertices == vertex_count(k))
    sphere = build_icosphere(3)
    rng = np.random.Generator(np.random.Philox(0))
    q = rng.standard_normal((1000, 3))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    bmap = barycentric_map(sphere, q)
    recon = np.einsum("nk,nkd->nd", bmap.weights,
                      sphere.vertices[sphere.faces[bmap.face_index]])
    recon /= np.linalg.norm(recon, axis=1, keepdims=True)
    check("barycentric reconstruction",
          float(np.abs(recon - q).max()) < 1e-6)

    # jitter shears the mesh so that the one-ring of the nearest warped
    # vertex misses some queries and the search falls back to the two-ring
    ends = sphere.vertices + 0.05 * rng.standard_normal(sphere.vertices.shape)
    ends /= np.linalg.norm(ends, axis=1, keepdims=True)
    nearest = nearest_vertex(ends, sphere.vertices, longest_edge(3))
    dense = [np.argmax(ends @ v) for v in sphere.vertices]
    check("nearest warped vertex matches the dense search",
          np.array_equal(nearest, dense))
    normals = face_normals(*corner_rows(ends.T, sphere.faces))
    ring1 = best_face(normals, sphere.vertices,
                      sphere.vertex_faces[nearest])[1]
    faces, _ = locate_warped_faces(ends, sphere, sphere.vertices)
    score = best_face(normals, sphere.vertices, faces[:, None])[1]
    check("warped face location past the one-ring",
          bool((ring1 < -1e-9).any() and (score >= -1e-9).all()))
    # the identity warp's faces as a hint: on the jittered warp, which
    # folds, and on a fifth of its jitter, which covers the sphere once
    start, _ = locate_warped_faces(sphere.vertices, sphere, sphere.vertices)
    mild = sphere.vertices + 0.2 * (ends - sphere.vertices)
    mild /= np.linalg.norm(mild, axis=1, keepdims=True)
    check("warm face location matches the cold search", all(
        np.array_equal(locate_warped_faces(w, sphere, sphere.vertices,
                                           hint=start)[0],
                       locate_warped_faces(w, sphere, sphere.vertices)[0])
        for w in (ends, mild)))
    # a resampling without a hint walks from the identity warp's faces
    check("start-face walk matches the cold search", all(
        np.array_equal(resample_tensor(sphere.vertices, constant(w), 3)[1],
                       locate_warped_faces(w, sphere, sphere.vertices)[0])
        for w in (ends, mild)))

    errs = check_registered_ops(n_probes=10, seed=0)
    check("primitive gradient checks", max(errs.values()) < 1e-4)

    net_cfg = NetConfig(input_order=2, control_order=1, label_order=2,
                        n_labels=12, fcb_channels=(4, 4), res_channels=(8, 12),
                        in_channels=1, n_kernels=3)
    store = ParamStore()
    net = RegistrationNet(store, net_cfg, rng)
    values = rng.standard_normal((vertex_count(2), 1))
    leaf = RegistrationNet(store.constants(), net_cfg, rng).logits(
        values, values)
    check("network pass on constant weights returns a leaf",
          not leaf.requires_grad and leaf.parents == ()
          and np.array_equal(leaf.value, net.logits(values, values).value))

    cfg = CrfConfig(iterations=5)
    ok = True
    for seed in range(5):
        rng = np.random.Generator(np.random.Philox(seed))
        labels = build_label_space(control_grid(0), 2, 4)
        u = rng.standard_normal((12, 4))
        omega = rng.random((12, 12))
        mu = rng.standard_normal((4, 4))
        store = ParamStore()
        store.add("crf.omega", omega)
        store.add("crf.mu", mu)
        got, _ = crf_forward(u, labels, store, cfg)
        ref = meanfield_reference(u, labels, omega, mu, cfg)[-1]
        ok = ok and float(np.abs(got - ref).max()) <= 1e-12
    check("CRF staged vs naive oracle", ok)

    sphere1 = build_icosphere(1)
    ident = distortion_stats(sphere1, identity_field(1))
    check("identity distortion exactly zero",
          bool(np.all(ident.log2_areal == 0.0)
               and np.all(ident.log2_shape == 0.0)))
    stretch = distortion_stats(
        sphere1, DeformationField(1, 2.0 * sphere1.vertices))
    check("uniform stretch log2 areal = 2",
          bool(np.all(np.abs(stretch.log2_areal - 2.0) < 1e-9)))

    if failures:
        print(f"{len(failures)} self-test failure(s)")
        return EXIT_USAGE
    print("all self tests passed")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ValueError, with the
    usage line after the message, instead of exiting 2 (the I/O code)."""

    def error(self, message):
        raise ValueError(f"{message}\n{self.format_usage().rstrip()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spherereg",
        description="Spherical surface registration via discrete "
                    "deformation learning.",
    )
    parser.add_argument("--threads", type=int, default=0,
                        help="cap numerical worker threads (0 = no cap, 1 = "
                             "bitwise deterministic)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="generate an icosphere")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-angle", type=float, default=0.55)
    p.add_argument("--smoothness", type=float, default=1.2)
    p.add_argument("--field-degree", type=int, default=6)
    p.add_argument("--components", type=int, default=8)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--noise", type=float, default=0.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train registration stages")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="training seed (default: [data] seed of the INI)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("register", help="register one pair")
    p.add_argument("--moving", required=True)
    p.add_argument("--fixed", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--deform", default=None)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("eval", help="evaluate a registration")
    p.add_argument("--fixed", required=True)
    p.add_argument("--warped", required=True)
    p.add_argument("--sphere", required=True)
    p.add_argument("--deform", default=None)
    p.add_argument("--zmap", default=None)
    p.add_argument("--threshold", type=float, default=5.0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    p.set_defaults(func=cmd_selftest)
    for command in sub.choices.values():
        command.set_defaults(command_parser=command)
    return parser


def _validate(parser, args) -> None:
    """Range checks; an error shows the usage of the parser that owns the
    flag, as argparse's own errors do."""
    if args.threads < 0:
        parser.error("--threads must be >= 0 (0 = no cap)")
    command = args.command_parser
    if args.command == "mesh" and not 0 <= args.order <= 8:
        command.error("mesh order must be between 0 and 8")
    if args.command == "synth":
        if args.pairs < 0:
            command.error("pair count must be nonnegative")
        if not 0 <= args.order <= 6:
            command.error("synth order must be between 0 and 6")
    if args.command == "eval" and not 0 <= args.threshold < math.inf:
        command.error("--threshold must be finite and >= 0")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads > 0:
            _set_threads(args.threads)
        _validate(parser, args)
        return args.func(args)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)
    except (FloatingPointError, RuntimeError) as exc:
        return _fail(str(exc), EXIT_BUDGET)


if __name__ == "__main__":
    sys.exit(main())
