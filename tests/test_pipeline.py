"""Tests for synthetic data, stage models, training, and run configs."""

import weakref
from dataclasses import replace

import numpy as np
import pytest

from spherereg import autodiff as ad
from spherereg import mesh, pipeline, warp
from spherereg.mesh import SphericalFeatureMap, build_icosphere, write_sfm
from spherereg.metrics import cc_similarity, distortion_stats
from spherereg.optim import ParamStore
from spherereg.pipeline import (
    PairEntry,
    StageConfig,
    StageModel,
    SyntheticWarpSpec,
    desk_scale_stages,
    generate_synthetic_pair,
    read_manifest,
    read_run_config,
    read_stage_cfg,
    register_pair,
    split_indices,
    train_stage,
    write_manifest,
    write_stage_cfg,
)
from spherereg.warp import resample_moving


def _tiny_stage(**kw):
    base = dict(input_order=2, control_order=1, label_order=2, n_labels=12,
                fcb_channels=(4, 4), res_channels=(8, 12), n_kernels=3,
                epochs=2, lam_sm=0.05, use_crf=False)
    base.update(kw)
    return StageConfig(**base)


def _tiny_pairs(n, order=2, seed0=50):
    pairs = []
    for k in range(n):
        spec = SyntheticWarpSpec(seed=seed0 + k, max_angle=0.2,
                                 smoothness=0.8, field_degree=4,
                                 n_components=3)
        m, f, _ = generate_synthetic_pair(spec, order)
        pairs.append((m, f))
    return pairs


# -- synthetic pairs -------------------------------------------------------

def test_synthetic_zero_displacement_identical():
    spec = SyntheticWarpSpec(seed=7, n_components=0)
    moving, fixed, truth = generate_synthetic_pair(spec, 2)
    assert np.array_equal(moving.values, fixed.values)
    sphere = build_icosphere(2)
    assert np.array_equal(truth.endpoints, sphere.vertices)


def test_synthetic_truth_warp_recovers_fixed():
    spec = SyntheticWarpSpec(seed=8, max_angle=0.3)
    moving, fixed, truth = generate_synthetic_pair(spec, 3)
    warped = resample_moving(moving, truth, build_icosphere(3))
    _, cc = cc_similarity(fixed, warped.values)
    assert cc >= 1.0 - 1e-6


def test_synthetic_small_warp_distortion_bounded():
    sphere = build_icosphere(3)
    for seed in range(5):
        spec = SyntheticWarpSpec(seed=seed, max_angle=0.05)
        _, _, truth = generate_synthetic_pair(spec, 3)
        stats = distortion_stats(sphere, truth)
        assert stats.flipped_faces == 0
        assert np.percentile(np.abs(stats.log2_areal), 95) <= 0.5


def test_synthetic_deterministic():
    spec = SyntheticWarpSpec(seed=9, max_angle=0.4)
    a = generate_synthetic_pair(spec, 2)
    b = generate_synthetic_pair(SyntheticWarpSpec(seed=9, max_angle=0.4), 2)
    assert np.array_equal(a[0].values, b[0].values)
    assert np.array_equal(a[1].values, b[1].values)
    assert np.array_equal(a[2].endpoints, b[2].endpoints)


def test_synthetic_order_bound():
    with pytest.raises(ValueError):
        generate_synthetic_pair(SyntheticWarpSpec(seed=0), 7)


# -- training --------------------------------------------------------------

def test_split_indices_deterministic_partition():
    a = split_indices(20, seed=4)
    b = split_indices(20, seed=4)
    c = split_indices(20, seed=5)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))
    assert sorted(np.concatenate(a).tolist()) == list(range(20))
    assert len(a[0]) == 16 and len(a[1]) == 2 and len(a[2]) == 2


def test_train_stage_smoke_and_best_validation():
    pairs = _tiny_pairs(4)
    stage = _tiny_stage(epochs=3)
    store, trace = train_stage(stage, pairs[:3], pairs[3:], seed=0)
    assert len(trace) == 3
    assert all(np.isfinite(r.train_loss) for r in trace)
    # the returned store reproduces the best validation score in the trace
    model = StageModel(stage, store)
    _, warped = model.register(*pairs[3])
    _, cc = cc_similarity(pairs[3][1], warped.values)
    assert cc == pytest.approx(max(r.val_cc for r in trace), abs=1e-12)


def test_train_stage_deterministic():
    pairs = _tiny_pairs(3)
    stage = _tiny_stage(epochs=2)
    s1, t1 = train_stage(stage, pairs[:2], pairs[2:], seed=1)
    s2, t2 = train_stage(stage, pairs[:2], pairs[2:], seed=1)
    for name in s1.names():
        assert np.array_equal(s1[name].value, s2[name].value)
    assert [r.val_cc for r in t1] == [r.val_cc for r in t2]


def test_train_stage_without_validation_keeps_the_last_epoch():
    pairs = _tiny_pairs(3)
    stage = _tiny_stage(epochs=1)
    validated, _ = train_stage(stage, pairs[:2], pairs[2:], seed=6)
    store, trace = train_stage(stage, pairs[:2], [], seed=6)
    assert np.isnan(trace[0].val_cc)
    # validation only reads the weights, so one epoch's are the same
    init = StageModel(stage, seed=6).store
    assert store.names() == validated.names()
    assert all(np.array_equal(store[name].value, validated[name].value)
               for name in store.names())
    assert not all(np.array_equal(store[name].value, init[name].value)
                   for name in store.names())


def test_large_smoothness_keeps_warp_near_identity():
    pairs = _tiny_pairs(3)
    stage = replace(_tiny_stage(epochs=120, lam_sm=50.0), lr=5e-3)
    store, _ = train_stage(stage, pairs[:2], pairs[2:], seed=2)
    model = StageModel(stage, store)
    sphere = build_icosphere(2)
    field, _ = model.register(*pairs[0])
    stats = distortion_stats(sphere, field)
    assert np.percentile(np.abs(stats.log2_areal), 95) < 0.05


def test_register_pair_serial_stages():
    pairs = _tiny_pairs(3)
    stage = _tiny_stage(epochs=1)
    store, _ = train_stage(stage, pairs[:2], pairs[2:], seed=3)
    field, warped, report = register_pair([(stage, store)], *pairs[0])
    assert field.order == 2
    assert warped.values.shape == pairs[0][0].values.shape
    assert "cc.mean" in report and "areal.p95" in report


def test_register_pair_at_order_six():
    # seed-initialized desk-scale stages, 2 + 1 refine steps; one V x V
    # float array at order 6 would take 13 GB
    moving, fixed, _ = generate_synthetic_pair(SyntheticWarpSpec(seed=6), 6)
    stages = [replace(s, input_order=6, refine_steps=n)
              for s, n in zip(desk_scale_stages(), (2, 1))]
    trained = [(s, StageModel(s, seed=k).store) for k, s in enumerate(stages)]
    field, warped, report = register_pair(trained, moving, fixed)
    assert field.order == 6 and warped.sphere_order == 6
    assert np.isfinite(warped.values).all()
    assert np.abs(np.linalg.norm(field.endpoints, axis=1) - 1).max() < 1e-9
    assert -1.0 <= report["cc.mean"] <= 1.0


def _masked_pair(order, seed):
    """A synthetic pair whose moving map is masked where z >= 0.5, with its
    masked values set to 0, and the pair's true warp."""
    spec = SyntheticWarpSpec(seed=seed)
    moving, fixed, truth = generate_synthetic_pair(spec, order)
    mask = build_icosphere(order).vertices[:, 2] < 0.5
    values = np.where(mask[:, None], moving.values, 0.0)
    return SphericalFeatureMap(order, values, mask), fixed, truth


def test_refine_loss_scores_a_masked_map_over_its_warped_mask():
    # at the true warp the warped map equals the fixed map wherever its
    # warped face lies wholly inside the moving mask; scored over the
    # unwarped moving mask, which differs on 516 vertices, it reads -0.9337
    moving, fixed, truth = _masked_pair(4, 10001)
    model = StageModel(_tiny_stage(input_order=4, lam_sm=0.0), seed=0)
    model._endpoints = lambda logits, crf: ad.constant(truth.endpoints)
    loss, _ = model._loss(moving, fixed, None, crf=False)
    assert float(loss.value) == pytest.approx(-1.0, abs=1e-12)


def test_register_pair_scores_a_masked_map_over_its_warped_mask():
    moving, fixed, _ = _masked_pair(2, 10001)
    stage = _tiny_stage(refine_steps=3)
    _, warped, report = register_pair(
        [(stage, StageModel(stage, seed=0).store)], moving, fixed)
    assert warped.mask is not None and not warped.mask.all()
    _, over_mask = cc_similarity(fixed, warped, warped.mask)
    assert report["cc.mean"] == over_mask
    assert over_mask != cc_similarity(fixed, warped)[1]


def test_register_pair_order_mismatch():
    pairs = _tiny_pairs(1, order=3)
    stage = _tiny_stage(epochs=1)
    store = StageModel(stage, seed=0).store
    with pytest.raises(ValueError):
        register_pair([(stage, store)], *pairs[0])



def test_refined_logits_do_not_leak_into_the_next_pair():
    pairs = _tiny_pairs(2)
    stage = _tiny_stage(refine_steps=3, use_crf=True)
    model = StageModel(stage, seed=4)
    logits, _ = model.refine(*pairs[0])
    field, warped = model.register(*pairs[1])
    fresh_field, fresh_warped = StageModel(stage, seed=4).register(*pairs[1])
    assert np.array_equal(field.endpoints, fresh_field.endpoints)
    assert np.array_equal(warped.values, fresh_warped.values)
    assert logits.shape == (42, 12)
    # the refined scores act only where they are passed
    refined, _ = model.register(*pairs[0], logits)
    plain, _ = model.register(*pairs[0])
    assert not np.array_equal(refined.endpoints, plain.endpoints)


def _unfolding_stage(**kw):
    # labels one order finer than the input keep every warped face the
    # right way round, so the refine steps can use their hints
    return _tiny_stage(input_order=3, control_order=1, label_order=3,
                       lam_sm=1.0, use_crf=True, **kw)


def test_refine_hints_each_step_with_the_last_steps_faces(monkeypatch):
    pair = _tiny_pairs(1, order=3)[0]
    model = StageModel(_unfolding_stage(refine_steps=4), seed=4)
    model.register(*pair)  # builds the cached transfer maps
    cold, calls = [], []
    nearest, locate = mesh.nearest_vertex, warp.locate_warped_faces

    def count_nearest(points, queries, cell):
        cold.append(len(queries))
        return nearest(points, queries, cell)

    def count_locate(endpoints, sphere, queries, hint=None):
        before = sum(cold)
        found = locate(endpoints, sphere, queries, hint)
        calls.append((len(queries), hint is not None, sum(cold) - before))
        return found

    monkeypatch.setattr(mesh, "nearest_vertex", count_nearest)
    monkeypatch.setattr(warp, "locate_warped_faces", count_locate)
    model.refine(*pair)
    # the first step walks from the identity warp's faces
    assert calls[0] == (642, True, 0)
    hinted = calls[1:]
    assert len(hinted) == 3 and all(h for _, h, _ in hinted)
    assert sum(c for _, _, c in hinted) < 0.2 * sum(n for n, _, _ in hinted)


def _interpolation_weights(ends, sphere, faces):
    """The triple products that ``warp._interpolate_warped`` formed from
    the located faces before the search returned them: numpy sums over the
    three components of (3, V) rows."""
    corner_idx = sphere.faces[faces]
    a, b, c = (ends[corner_idx[:, k]].T for k in range(3))
    q = sphere.vertices.T
    return [(q * mesh.cross_rows(b, c)).sum(axis=0),
            (q * mesh.cross_rows(c, a)).sum(axis=0),
            (q * mesh.cross_rows(a, b)).sum(axis=0)]


def test_refine_warps_locate_warm_as_cold(monkeypatch):
    # every location of an order-4 refine run, each hinted (the first by
    # the identity warp's faces), and one of a folded warp, gives the cold
    # search's faces and the interpolation weights of those faces, bitwise
    pair = _tiny_pairs(1, order=4)[0]
    stage = _tiny_stage(input_order=4, control_order=1, label_order=3,
                        lam_sm=1.0, use_crf=True, refine_steps=6)
    seen = []
    locate = warp.locate_warped_faces

    def record(endpoints, sphere, queries, hint=None):
        if hint is not None:
            seen.append((endpoints.copy(), hint.copy()))
        return locate(endpoints, sphere, queries, hint)

    monkeypatch.setattr(warp, "locate_warped_faces", record)
    StageModel(stage, seed=4).refine(*pair)
    monkeypatch.undo()
    assert len(seen) == 6
    sphere = build_icosphere(4)
    folded = seen[-1][0].copy()
    # swapping a vertex with its neighbour turns their shared faces over
    folded[[0, sphere.nbr_pad[0, 1]]] = folded[[sphere.nbr_pad[0, 1], 0]]
    moved = 0
    for ends, hint in seen + [(folded, seen[-1][1])]:
        cold, _ = locate(ends, sphere, sphere.vertices)
        faces, w = locate(ends, sphere, sphere.vertices, hint)
        assert np.array_equal(faces, cold)
        expect = _interpolation_weights(ends, sphere, cold)
        assert all(np.array_equal(got, ref) for got, ref in zip(w, expect))
        moved += int((faces != hint).sum())
    assert moved > 0


def test_warm_final_resample_changes_nothing(monkeypatch):
    # register_pair hands each stage's last refine faces to the final
    # resampling; dropping that hint gives the same registration
    pair = _tiny_pairs(1, order=3)[0]
    stages = [_unfolding_stage(refine_steps=3),
              _tiny_stage(input_order=3, control_order=2, label_order=3,
                          lam_sm=1.0, use_crf=True, refine_steps=2)]
    stages = [(s, StageModel(s, seed=5).store) for s in stages]
    hints = []
    resample = pipeline.resample_moving

    def spy(moving, field, sphere, hint=None):
        hints.append(hint)
        return resample(moving, field, sphere, hint)

    monkeypatch.setattr(pipeline, "resample_moving", spy)
    warm = register_pair(stages, *pair)
    monkeypatch.setattr(pipeline, "resample_moving",
                        lambda moving, field, sphere, hint=None:
                        resample(moving, field, sphere))
    cold = register_pair(stages, *pair)
    assert len(hints) == 2 and all(h is not None for h in hints)
    assert np.array_equal(warm[0].endpoints, cold[0].endpoints)
    assert np.array_equal(warm[1].values, cold[1].values)
    assert warm[2] == cold[2]


def test_refining_one_pair_leaves_the_next_pairs_logits_alone():
    pairs = _tiny_pairs(2, order=3)
    stage = _unfolding_stage(refine_steps=3)
    model = StageModel(stage, seed=4)
    model.refine(*pairs[0])
    after, after_faces = model.refine(*pairs[1])
    alone, alone_faces = StageModel(stage, seed=4).refine(*pairs[1])
    assert np.array_equal(after, alone)
    assert np.array_equal(after_faces, alone_faces)


def test_refine_without_steps_returns_none():
    pairs = _tiny_pairs(1)
    assert StageModel(_tiny_stage(), seed=0).refine(*pairs[0]) == (None, None)


def test_desk_scale_tape_sizes():
    # tape nodes of a plain refine step, a CRF refine step and a training
    # step of the desk-scale first stage: a change that grows the tape
    # updates these counts and says why.  Each of the five mean-field
    # iterations is one node fewer than with the Gaussian kernel, whose
    # message read the partners' expected endpoints (a soft_deform_tensor
    # per iteration); the rotation message reads the label probabilities
    # alone, so 81 -> 76 and 249 -> 244.  The training step's 244 nodes
    # count no constant parent of a node that needs no gradient: the six
    # leaky_relu skip branches of the feature blocks (three blocks, two
    # paths) are built from constants, so they are leaves.  The two shared
    # blocks form each convolution's kernel weights once for both
    # surfaces: six weight nodes, not twelve
    moving, fixed, _ = generate_synthetic_pair(SyntheticWarpSpec(seed=10000),
                                               4)
    model = StageModel(desk_scale_stages()[0], seed=7)
    logits = ad.Tensor(model.net.logits(moving.values, fixed.values).value)
    sizes = [len(ad._toposort(model._loss(moving, fixed, logits, crf)[0]))
             for crf in (False, True)]
    sizes.append(len(ad._toposort(model.pair_loss(moving, fixed))))
    assert sizes == [10, 76, 244]


def _spy_on_losses(monkeypatch):
    """Wrap ``StageModel._loss``, through which every training and refine
    loss is built, to check that the previous loss (and so its tape) is
    gone when the next one starts; returns a weak reference per loss."""
    refs = []
    build = StageModel._loss

    def spy(self, *args, **kw):
        assert [ref() for ref in refs] == [None] * len(refs)
        loss, faces = build(self, *args, **kw)
        refs.append(weakref.ref(loss.value))
        return loss, faces

    monkeypatch.setattr(StageModel, "_loss", spy)
    return refs


def test_desk_scale_training_epoch_frees_each_step_tape(monkeypatch):
    pairs = [generate_synthetic_pair(SyntheticWarpSpec(seed=10000 + k), 4)[:2]
             for k in range(3)]
    refs = _spy_on_losses(monkeypatch)
    train_stage(replace(desk_scale_stages()[0], epochs=2), pairs[:2],
                pairs[2:], seed=3)
    assert len(refs) == 4 and [ref() for ref in refs] == [None] * 4


def test_refine_frees_each_step_tape(monkeypatch):
    # two plain steps, then two through the CRF decode
    monkeypatch.setattr(pipeline, "CRF_REFINE_STEPS", 2)
    moving, fixed, _ = generate_synthetic_pair(SyntheticWarpSpec(seed=10002),
                                               4)
    model = StageModel(replace(desk_scale_stages()[1], refine_steps=4),
                       seed=4)
    refs = _spy_on_losses(monkeypatch)
    model.refine(moving, fixed)
    assert len(refs) == 4 and [ref() for ref in refs] == [None] * 4


def test_desk_scale_training_steps_search_no_face(monkeypatch):
    # a training step and a validation registration of each desk-scale
    # stage locate every warped face by a walk from the identity warp's
    # faces: no query reaches the cold search
    moving, fixed, _ = generate_synthetic_pair(SyntheticWarpSpec(seed=10001),
                                               4)
    models = [StageModel(stage, seed=8) for stage in desk_scale_stages()]
    for model in models:
        model.register(moving, fixed)  # builds the cached transfer maps
    cold = []
    nearest = mesh.nearest_vertex
    monkeypatch.setattr(mesh, "nearest_vertex", lambda points, queries, cell:
                        cold.append(len(queries))
                        or nearest(points, queries, cell))
    for model in models:
        model.pair_loss(moving, fixed).backward()
        model.store.adam_step(model.stage.lr)
        model.register(moving, fixed)
    assert cold == []


def test_refine_and_register_run_the_network_off_the_tape(monkeypatch):
    from spherereg import conv

    passes = []
    logits = conv.RegistrationNet.logits

    def spy(net, *args):
        passes.append(logits(net, *args))
        return passes[-1]

    monkeypatch.setattr(conv.RegistrationNet, "logits", spy)
    pair = _tiny_pairs(1)[0]
    model = StageModel(_tiny_stage(refine_steps=2, use_crf=True), seed=3)
    flags = {name: model.store[name].requires_grad
             for name in model.store.names()}
    model.register(*pair, *model.refine(*pair))
    model.register(*pair)
    assert len(passes) == 2
    assert all(not p.requires_grad and p.parents == () and p.vjp is None
               for p in passes)
    for name in model.store.names():
        assert model.store[name].grad is None
        assert model.store[name].requires_grad == flags[name]


def test_constant_view_shares_the_block_arrays():
    store = StageModel(_tiny_stage(), seed=0).store
    view = store.constants()
    assert view.names() == store.names()
    for name in store.names():
        assert np.shares_memory(view[name].value, store[name].value)
        assert not view[name].requires_grad and store[name].requires_grad


def test_constant_view_taken_after_adam_step_sees_the_update():
    model = StageModel(_tiny_stage(), seed=0)
    before = model.store.constants()
    model.pair_loss(*_tiny_pairs(1)[0]).backward()
    model.store.adam_step(0.1)
    after = model.store.constants()
    for name in model.store.names():
        assert np.array_equal(after[name].value, model.store[name].value)
    assert not all(np.array_equal(before[name].value, after[name].value)
                   for name in model.store.names())


def test_constant_passes_match_the_tape_pass_bitwise(monkeypatch):
    # the passes off the tape do the tape pass's arithmetic: training
    # (its validation CC) and registration (its field) are unchanged, bit
    # for bit, when they run the network on the tape instead
    pairs = _tiny_pairs(3)
    stage = _tiny_stage(epochs=2, refine_steps=2, use_crf=True)

    def run():
        store, trace = train_stage(stage, pairs[:2], pairs[2:], seed=1)
        field, warped, _ = register_pair([(stage, store)], *pairs[2])
        return [r.val_cc for r in trace], field.endpoints, warped.values

    off_tape = run()
    monkeypatch.setattr(StageModel, "_constant_logits",
                        lambda self, m, f: self.net.logits(m.values, f.values))
    on_tape = run()
    assert off_tape[0] == on_tape[0]
    for a, b in zip(off_tape[1:], on_tape[1:]):
        assert a.tobytes() == b.tobytes()


def test_model_from_trained_store_leaves_it_untouched():
    stage = _tiny_stage(use_crf=True)
    trained = StageModel(stage, seed=5).store
    store = ParamStore()
    for name in trained.names():
        store.add(name, trained[name].value)
    names = store.names()
    model = StageModel(stage, store, seed=99)
    assert store.names() == names
    # seed-independent: the network reads the trained blocks
    for name in names:
        assert np.array_equal(model.store[name].value, store[name].value)
        assert model.store[name] is not store[name]


def test_crf_weights_are_constants_of_the_stage():
    stage = _tiny_stage(use_crf=True)
    model = StageModel(stage, seed=2)
    # the CRF adds no block: its weights are the stage's default_weights
    assert model.store.names() == StageModel(
        replace(stage, use_crf=False), seed=2).store.names()
    assert not any(name.startswith("crf.") for name in model.store.names())
    model.pair_loss(*_tiny_pairs(1)[0]).backward()
    assert all(model.store[name].grad is not None
               for name in model.store.names())


def test_model_from_incomplete_store_raises():
    stage = _tiny_stage()
    full = StageModel(stage, seed=0).store
    partial = ParamStore()
    for name in full.names():
        if not name.endswith("conv2.g"):
            partial.add(name, full[name].value)
    with pytest.raises(ValueError, match="missing parameter block"):
        StageModel(stage, partial)
    # the CRF needs no block of its own
    StageModel(replace(stage, use_crf=True), full)


def test_model_from_misshapen_store_raises():
    stage = _tiny_stage()
    store = StageModel(stage, seed=0).store
    bad = ParamStore()
    for name in store.names():
        value = store[name].value
        bad.add(name, value[:-1] if name == "cls.b0.conv1.b" else value)
    with pytest.raises(ValueError, match="cls.b0.conv1.b"):
        StageModel(stage, bad)

# -- manifest and run config -----------------------------------------------

def test_manifest_roundtrip(tmp_path):
    entries = [PairEntry("a.sfm", "b.sfm", "t.def"),
               PairEntry("c.sfm", "d.sfm")]
    path = tmp_path / "manifest.txt"
    write_manifest(path, entries)
    back = read_manifest(path)
    assert back == entries


def test_manifest_bad_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("only_one_field\n")
    with pytest.raises(ValueError):
        read_manifest(path)


def test_run_config_parsing(tmp_path):
    cfg_text = """
[data]
manifest = pairs/manifest.txt
seed = 11
split = 0.5,0.25,0.25

[stage.1]
input_order = 2
control_order = 1
label_order = 2
n_labels = 12
fcb_channels = 4,4
res_channels = 8,12
epochs = 7
lam_sm = 0.2
crf_iterations = 3
gamma = 0.4
"""
    path = tmp_path / "run.cfg"
    path.write_text(cfg_text)
    run = read_run_config(path)
    assert run.manifest == "pairs/manifest.txt"
    assert run.seed == 11
    assert run.ratios == (0.5, 0.25, 0.25)
    stage = run.stages[0]
    assert stage.epochs == 7
    assert stage.lam_sm == 0.2
    assert stage.gamma == 0.4
    assert stage.crf_iterations == 3
    assert stage.use_crf


def test_run_config_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[data]\nmanifest = m.txt\nseed = 1\n")
    with pytest.raises(ValueError):
        read_run_config(path)  # no stage sections
    path.write_text("[stage.1]\ninput_order = 2\n")
    with pytest.raises(ValueError):
        read_run_config(path)  # missing [data]
    with pytest.raises(ValueError):
        read_run_config(tmp_path / "missing.cfg")


def test_stage_config_validation():
    with pytest.raises(ValueError):
        _tiny_stage(label_order=1)  # not finer than control grid


def _stage_section(n, **extra):
    lines = [f"[stage.{n}]", "input_order = 2", "control_order = 1",
             "label_order = 2", "n_labels = 12", "fcb_channels = 4",
             "res_channels = 12"]
    lines += [f"{key} = {value}" for key, value in extra.items()]
    return "\n".join(lines) + "\n"


_DATA = "[data]\nmanifest = m.txt\nseed = 1\n"


def test_run_config_reads_any_number_of_stages(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(_DATA + _stage_section(3, epochs=3, crf="false")
                    + _stage_section(1, epochs=1)
                    + _stage_section(2, epochs=2, crf="false"))
    run = read_run_config(path)
    assert [s.epochs for s in run.stages] == [1, 2, 3]
    assert [s.use_crf for s in run.stages] == [True, False, False]


@pytest.mark.parametrize("text, named", [
    pytest.param(_DATA + _stage_section(1, typo_key=3), "'typo_key'",
                 id="unknown-stage-key"),
    pytest.param(_DATA + _stage_section(1, deform_mode="argmax"),
                 "'deform_mode'", id="deform-mode"),
    pytest.param(_DATA + _stage_section(1, r=0), "'r'", id="r"),
    pytest.param(_DATA + "pretrain_epochs = 3\n" + _stage_section(1),
                 "'pretrain_epochs'", id="pretrain-epochs"),
    pytest.param(_DATA + "[crf]\nenabled = false\n" + _stage_section(1),
                 "unknown section [crf]", id="unknown-crf-key"),
    pytest.param(_DATA + "[stage]\n" + _stage_section(1), "[stage]",
                 id="unknown-section"),
    pytest.param(_DATA + _stage_section(3), "[stage.1]", id="lone-stage-3"),
    pytest.param(_DATA + _stage_section(1) + _stage_section(3), "[stage.2]",
                 id="stage-gap"),
    pytest.param(_DATA + _stage_section(1, epochs="many"), "'epochs'",
                 id="bad-int"),
    pytest.param(_DATA + _stage_section(1, crf="maybe"), "'crf'",
                 id="bad-bool"),
    pytest.param(_DATA + _stage_section(1, lam_sm=-0.5), "lam_sm",
                 id="negative-smoothness"),
    pytest.param(_DATA + "[stage.1]\ninput_order = 2\n", "'control_order'",
                 id="missing-key"),
    pytest.param("[data]\nmanifest = m.txt\nseed = x\n" + _stage_section(1),
                 "[data]", id="bad-seed"),
    pytest.param("garbage\n", "run.ini", id="no-section-header"),
    pytest.param(_DATA + _stage_section(1).replace("fcb_channels = 4",
                                                   "fcb_channels = 0"),
                 "'fcb_channels'", id="zero-fcb-width"),
    pytest.param(_DATA + _stage_section(1)
                 .replace("fcb_channels = 4", "fcb_channels = 4,4")
                 .replace("res_channels = 12", "res_channels = 0,12"),
                 "'res_channels'", id="zero-res-width"),
    pytest.param(_DATA + _stage_section(1, n_kernels=0), "'n_kernels'",
                 id="zero-kernels"),
    pytest.param(_DATA + _stage_section(1, in_channels=0), "'in_channels'",
                 id="zero-in-channels"),
    pytest.param(_DATA + _stage_section(1)
                 .replace("control_order = 1", "control_order = 3")
                 .replace("label_order = 2", "label_order = 4"),
                 "'control_order'", id="control-finer-than-input"),
    pytest.param(_DATA + _stage_section(1)
                 .replace("control_order = 1", "control_order = -1")
                 .replace("label_order = 2", "label_order = 0"),
                 "'control_order'", id="negative-control-order"),
    pytest.param(_DATA + _stage_section(1).replace("label_order = 2",
                                                   "label_order = 9"),
                 "'label_order'", id="label-order-past-the-last-icosphere"),
    pytest.param(_DATA + _stage_section(1, lam_sm="nan"), "'lam_sm'",
                 id="nan-smoothness"),
    pytest.param(_DATA + _stage_section(1, lam_sm="inf"), "'lam_sm'",
                 id="inf-smoothness"),
    pytest.param(_DATA + _stage_section(1, lr="nan"), "'lr'", id="nan-lr"),
    pytest.param(_DATA + _stage_section(1, gamma="nan"), "'gamma'",
                 id="nan-gamma"),
    pytest.param(_DATA + _stage_section(1, refine_lr="inf"), "'refine_lr'",
                 id="inf-refine-lr"),
    pytest.param(_DATA + _stage_section(1, epochs=-1), "'epochs'",
                 id="negative-epochs"),
    pytest.param(_DATA + _stage_section(1, refine_steps=-1),
                 "'refine_steps'", id="negative-refine-steps"),
])
def test_run_config_rejects_unknown_and_malformed(tmp_path, text, named):
    path = tmp_path / "run.ini"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        read_run_config(path)
    message = str(err.value)
    assert str(path) in message and named in message
    assert "\n" not in message


def test_stage_cfg_round_trip_and_retired_keys(tmp_path):
    stage = _tiny_stage(gamma=0.3, lam_sm=0.7, refine_steps=4,
                        refine_lr=0.02, crf_iterations=2, use_crf=True)
    path = tmp_path / "stage1.cfg"
    write_stage_cfg(path, stage)
    written = read_stage_cfg(path)
    assert replace(_tiny_stage(), **written) == stage
    # checkpoints from before deform_mode and r were dropped still load
    path.write_text(path.read_text().replace(
        "[stage]\n", "[stage]\ndeform_mode = soft\nr = 0\n"))
    assert read_stage_cfg(path) == written


def test_readme_run_ini_parses(tmp_path):
    from pathlib import Path

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = readme.index("```ini\n") + len("```ini\n")
    path = tmp_path / "run.ini"
    path.write_text(readme[start:readme.index("```", start)])
    run = read_run_config(path)
    assert run.manifest == "data/manifest.txt" and run.seed == 123
    assert run.ratios == (0.8, 0.1, 0.1)
    assert run.stages == desk_scale_stages()
