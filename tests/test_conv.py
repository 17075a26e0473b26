"""Tests for the mixture-kernel surface convolutions and the networks."""

import numpy as np
import pytest

from spherereg import autodiff as ad
from spherereg import conv
from spherereg.conv import (
    Classifier,
    FcbBlock,
    FeatureExtractor,
    MoNetLayer,
    NetConfig,
    RegistrationNet,
    ResBlock,
    pseudo_coords,
    read_arch,
    tape_maxpool,
    tape_upsample,
    write_arch,
)
from spherereg.mesh import (
    SphericalFeatureMap,
    build_icosphere,
    pool_features,
    upsample_features,
    vertex_count,
)
from spherereg.optim import ParamStore, grad_check


# -- pseudo-coordinates ----------------------------------------------------

def test_pseudo_coords_shapes_and_padding():
    pc = pseudo_coords(2)
    sphere = build_icosphere(2)
    assert pc.offsets.shape == (162, 7, 2)
    # self slot and padded slots carry exactly zero
    assert np.all(pc.offsets[:, 0, :] == 0.0)
    assert np.all(pc.offsets[~sphere.nbr_mask] == 0.0)
    # counts include the center: 6 for the 12 pentagons, 7 elsewhere
    assert sorted(set(pc.counts.tolist())) == [6.0, 7.0]
    assert np.sum(pc.counts == 6.0) == 12


def test_pseudo_coords_match_direct_formula():
    # [DERIVED] recompute the offsets for an arbitrary non-polar vertex
    # from the definition: (theta_y - theta_x, wrap(phi_y - phi_x) sin theta_x)
    sphere = build_icosphere(2)
    pc = pseudo_coords(2)
    v = sphere.vertices
    x = 37
    assert abs(abs(v[x, 2]) - 1.0) > 1e-3  # not at a coordinate pole
    tx = np.arccos(v[x, 2])
    px = np.arctan2(v[x, 1], v[x, 0])
    for s, y in enumerate(sphere.nbr_pad[x]):
        if s == 0 or not sphere.nbr_mask[x, s]:
            continue
        ty = np.arccos(v[y, 2])
        py = np.arctan2(v[y, 1], v[y, 0])
        dphi = (py - px + np.pi) % (2 * np.pi) - np.pi
        assert pc.offsets[x, s, 0] == pytest.approx(ty - tx, abs=1e-12)
        assert pc.offsets[x, s, 1] == pytest.approx(dphi * np.sin(tx), abs=1e-12)


def test_pseudo_coords_bounded_by_edge_length():
    # offsets live on the tangent chart, so their norm is close to the
    # geodesic edge length (inflated near the poles by chart distortion,
    # but never more than pi)
    for order in (1, 3):
        pc = pseudo_coords(order)
        norms = np.linalg.norm(pc.offsets, axis=2)[
            build_icosphere(order).nbr_mask]
        assert norms[norms > 0].min() > 0
        assert norms.max() <= np.pi + 1e-9


def test_pseudo_coords_finite_everywhere():
    for order in range(5):
        assert np.all(np.isfinite(pseudo_coords(order).offsets))


# -- MoNet layer -----------------------------------------------------------

def _single_kernel_layer(sigma2=0.1, mu=(0.0, 0.0)):
    """A 1-kernel 1->1 layer with hand-set parameters and unit mixing."""
    store = ParamStore()
    rng = np.random.Generator(np.random.Philox(0))
    layer = MoNetLayer(store, "m", 1, 1, 1, 0.5, rng)
    store["m.mu"].value = np.array([list(mu)])
    lraw = np.zeros((1, 3))
    lraw[:, 0] = lraw[:, 2] = 0.5 * np.log(sigma2)
    store["m.lraw"].value = lraw
    store["m.g"].value = np.ones((1, 1, 1))
    return store, layer


def test_kernel_weights_isotropic_oracle():
    # [DERIVED] with Sigma = sigma^2 I and mean mu the weight is the plain
    # isotropic Gaussian of the offset
    store, layer = _single_kernel_layer(sigma2=0.07, mu=(0.1, -0.05))
    pc = pseudo_coords(1)
    w = layer.kernel_weights(pc).value[:, :, 0]
    d = pc.offsets - np.array([0.1, -0.05])
    expect = np.exp(-0.5 * (d**2).sum(axis=2) / 0.07)
    expect[~build_icosphere(1).nbr_mask] = 0.0
    assert np.allclose(w, expect, atol=1e-12)


def test_constant_field_convolution_oracle():
    # [DERIVED] constant input c with unit mixing: out_v = c * mean ring weight
    store, layer = _single_kernel_layer()
    pc = pseudo_coords(1)
    w = layer.kernel_weights(pc).value[:, :, 0]
    const = 3.25
    x = ad.constant(np.full((42, 1), const))
    out = layer.forward(pc, x).value[:, 0]
    assert np.allclose(out, const * w.sum(axis=1) / pc.counts, atol=1e-12)


def test_monet_channel_mismatch_rejected():
    store = ParamStore()
    rng = np.random.Generator(np.random.Philox(0))
    layer = MoNetLayer(store, "m", 3, 2, 4, 0.5, rng)
    with pytest.raises(ValueError):
        layer.forward(pseudo_coords(1), ad.constant(np.zeros((42, 5))))


def test_gaussian_weights_grad_check():
    # the fused kernel-weight node alone, in both the means and the factors
    pc = pseudo_coords(1)
    rng = np.random.Generator(np.random.Philox(8))
    store = ParamStore()
    store.add("mu", 0.1 * rng.standard_normal((4, 2)))
    store.add("lraw", conv._initial_lraw(4) + 0.1 * rng.standard_normal((4, 3)))
    probe = rng.standard_normal((42, 7, 4))

    def loss_fn(params):
        w = conv._gaussian_weights(pc, params["mu"], params["lraw"])
        return ad.sum_(w * probe)

    assert grad_check(loss_fn, store, n_probes=20, seed=9) < 1e-4


def test_monet_gradients_finite_difference():
    store = ParamStore()
    rng = np.random.Generator(np.random.Philox(7))
    layer = MoNetLayer(store, "m", 2, 3, 4, pseudo_coords(1).box, rng)
    x = rng.standard_normal((42, 2))
    probe = rng.standard_normal((42, 3))

    def loss_fn(params):
        out = layer.forward(pseudo_coords(1), ad.constant(x))
        return ad.sum_(out * probe)

    assert grad_check(loss_fn, store, n_probes=20, seed=1) < 1e-4


def test_aggregate_matches_unfused_composition():
    # [DERIVED] the aggregation node against the unfused form: ring gather,
    # mean over the ring, (V, J, 7) @ (V, 7, C_in) patches, mixing, bias
    for order in (1, 2, 3, 4):
        pc = pseudo_coords(order)
        rng = np.random.Generator(np.random.Philox(order))
        store = ParamStore()
        layer = MoNetLayer(store, "m", 3, 5, 4, pc.box, rng)
        store["m.b"].value = rng.standard_normal(5)
        x = rng.standard_normal((vertex_count(order), 3))
        out = layer.forward(pc, ad.constant(x)).value
        w = layer.kernel_weights(pc).value
        gathered = x[build_icosphere(order).nbr_pad] / pc.counts[:, None, None]
        patches = np.matmul(np.transpose(w, (0, 2, 1)), gathered)
        expect = patches.reshape(len(x), -1) @ \
            store["m.g"].value.reshape(12, 5) + store["m.b"].value
        assert np.abs(out - expect).max() < 1e-12


def test_aggregate_grad_check():
    # the aggregation node with the features, the kernel parameters, the
    # mixing and the bias all in the store
    pc = pseudo_coords(2)
    rng = np.random.Generator(np.random.Philox(12))
    store = ParamStore()
    layer = MoNetLayer(store, "m", 3, 2, 4, pc.box, rng)
    store["m.b"].value = rng.standard_normal(2)
    store.add("x", rng.standard_normal((vertex_count(2), 3)))
    probe = rng.standard_normal((vertex_count(2), 2))

    def loss_fn(params):
        out = conv._aggregate(pc, params["x"], layer.kernel_weights(pc),
                              params["m.g"], params["m.b"])
        return ad.sum_(out * probe)

    assert grad_check(loss_fn, store, n_probes=20, seed=13) < 1e-4


def test_aggregate_row_prefix_grad_check():
    # the same four parents over a row prefix: every VJP returns a
    # full-height gradient, and the features' gradient reaches rows
    # outside the prefix through the ring
    pc = pseudo_coords(2)
    rng = np.random.Generator(np.random.Philox(14))
    store = ParamStore()
    layer = MoNetLayer(store, "m", 3, 2, 4, pc.box, rng)
    store["m.b"].value = rng.standard_normal(2)
    store.add("x", rng.standard_normal((vertex_count(2), 3)))
    probe = rng.standard_normal((42, 2))

    def loss_fn(params):
        out = conv._aggregate(pc, params["x"], layer.kernel_weights(pc),
                              params["m.g"], params["m.b"], 42)
        return ad.sum_(out * probe)

    assert grad_check(loss_fn, store, n_probes=20, seed=15) < 1e-4


def test_ring_tables_read_only_and_reverse_complete():
    from spherereg.mesh import gradient_coefficients
    from spherereg.warp import _transfer_map

    for order in range(5):
        pc = pseudo_coords(order)
        # the cached tables every caller shares: the ring tables, the
        # icosphere's, the gradient stencil and the transfer map
        sphere = build_icosphere(order)
        bmap = _transfer_map(order, order + 1)
        for table in (pc.offsets, pc.counts, pc.quad, pc.pad,
                      sphere.vertices, sphere.faces, sphere.midpoint_edges,
                      sphere.nbr_pad, sphere.nbr_mask, sphere.nbr_rev,
                      sphere.vertex_faces,
                      gradient_coefficients(order), bmap.face_index,
                      bmap.weights):
            assert not table.flags.writeable
        with pytest.raises(ValueError):
            pc.quad[0, 0] = 1.0
        # every flat ring slot once, and row k maps back to every vertex
        ring = sphere.nbr_pad.ravel()
        n = vertex_count(order)
        assert np.array_equal(np.sort(sphere.nbr_rev.ravel()),
                              np.arange(7 * n))
        assert all(np.array_equal(ring[row], np.arange(n))
                   for row in sphere.nbr_rev)
        assert np.array_equal(
            pc.pad, np.flatnonzero(~build_icosphere(order).nbr_mask))


# -- tape-level transfers match the numpy references -----------------------

def test_tape_transfers_match_feature_ops():
    rng = np.random.Generator(np.random.Philox(3))
    vals = rng.standard_normal((vertex_count(2), 4))
    fmap = SphericalFeatureMap(2, vals)
    t = ad.constant(vals)
    assert np.array_equal(tape_upsample(t, 2).value,
                          upsample_features(fmap).values)
    assert np.array_equal(tape_maxpool(t, 2).value,
                          pool_features(fmap).values)


def test_resolution_transfers_grad_check():
    rng = np.random.Generator(np.random.Philox(17))
    store = ParamStore()
    store.add("x", rng.standard_normal((vertex_count(2), 3)))
    probe_up = rng.standard_normal((vertex_count(3), 3))
    probe_pool = rng.standard_normal((vertex_count(1), 3))

    def loss_fn(params):
        return ad.sum_(tape_upsample(params["x"], 2) * probe_up) + \
            ad.sum_(tape_maxpool(params["x"], 2) * probe_pool)

    assert grad_check(loss_fn, store, n_probes=20, seed=18) < 1e-4


# -- blocks ----------------------------------------------------------------

def test_fcb_block_shape_and_order():
    store = ParamStore()
    rng = np.random.Generator(np.random.Philox(5))
    blk = FcbBlock(store, "b0", 2, 3, 4, 3, 6, 4, rng)
    x = ad.constant(rng.standard_normal((vertex_count(2), 3)))
    raw = ad.constant(rng.standard_normal((vertex_count(1), 3)))
    out = blk.forward(x, raw)
    assert out.shape == (vertex_count(1), 6)
    with pytest.raises(ValueError):
        blk.forward(raw, raw)  # features at the wrong order


def test_shared_block_grad_check_with_both_surfaces():
    # one block run on two surfaces: each convolution's one kernel-weight
    # node takes the sum of both surfaces' cotangents
    store = ParamStore()
    rng = np.random.Generator(np.random.Philox(6))
    blk = FcbBlock(store, "s", 2, 3, 4, 3, 5, 4, rng)
    x = [rng.standard_normal((vertex_count(2), 3)) for _ in range(2)]
    raw = [rng.standard_normal((vertex_count(1), 3)) for _ in range(2)]
    probe = [rng.standard_normal((vertex_count(1), 5)) for _ in range(2)]

    def loss_fn(params):
        out = blk.forward_each([ad.constant(v) for v in x],
                               [ad.constant(v) for v in raw])
        return ad.sum_(out[0] * probe[0]) + ad.sum_(out[1] * probe[1])

    assert grad_check(loss_fn, store, n_probes=20, seed=16) < 1e-4
    # and the values are those of each surface run alone
    both = blk.forward_each([ad.constant(v) for v in x],
                            [ad.constant(v) for v in raw])
    for k in range(2):
        alone = blk.forward(ad.constant(x[k]), ad.constant(raw[k]))
        assert np.array_equal(both[k].value, alone.value)


def test_resblock_identity_skip_when_convs_zeroed():
    # [DERIVED] zeroing the mixing weights leaves LeakyReLU(x) of the skip
    store = ParamStore()
    rng = np.random.Generator(np.random.Philox(5))
    blk = ResBlock(store, "r0", 1, 3, 3, 4, rng)
    store["r0.conv1.g"].value[:] = 0.0
    store["r0.conv2.g"].value[:] = 0.0
    x = rng.standard_normal((42, 3))
    out = blk.forward(ad.constant(x)).value
    assert np.allclose(out, np.where(x > 0, x, 0.2 * x), atol=1e-15)


@pytest.mark.parametrize("c_in", [3, 5])
def test_resblock_row_prefix_grad_check(c_in):
    # a block cut to a row prefix, with an identity skip (3 -> 3) and a
    # projection skip (5 -> 3): the features' gradient reaches the rows
    # outside the prefix through the first convolution's ring
    store = ParamStore()
    rng = np.random.Generator(np.random.Philox(6))
    blk = ResBlock(store, "r0", 2, c_in, 3, 4, rng)
    store.add("x", rng.standard_normal((vertex_count(2), c_in)))
    probe = rng.standard_normal((42, 3))

    def loss_fn(params):
        return ad.sum_(blk.forward(params["x"], 42) * probe)

    assert grad_check(loss_fn, store, n_probes=20, seed=19) < 1e-4


def test_resblock_row_prefix_is_the_prefix_of_the_full_block():
    store = ParamStore()
    rng = np.random.Generator(np.random.Philox(7))
    for c_in in (3, 5):
        blk = ResBlock(store, f"r{c_in}", 2, c_in, 3, 4, rng)
        x = ad.constant(rng.standard_normal((vertex_count(2), c_in)))
        assert np.array_equal(blk.forward(x, 42).value,
                              blk.forward(x).value[:42])


def test_resblock_projection_created_only_when_needed():
    store = ParamStore()
    rng = np.random.Generator(np.random.Philox(5))
    ResBlock(store, "a", 1, 3, 3, 2, rng)
    assert "a.proj" not in store
    ResBlock(store, "b", 1, 3, 5, 2, rng)
    assert "b.proj" in store


# -- architecture config ---------------------------------------------------

def _tiny_cfg(**kw):
    base = dict(input_order=2, in_channels=2, fcb_channels=(4, 4),
                res_channels=(6, 10), control_order=1, label_order=2,
                n_labels=10, n_kernels=3, shared_fcbs=1)
    base.update(kw)
    return NetConfig(**base)


def test_netconfig_properties():
    cfg = _tiny_cfg()
    assert cfg.latent_order == 0


def test_netconfig_validation():
    with pytest.raises(ValueError):
        _tiny_cfg(res_channels=(6, 7))  # last width != n_labels
    with pytest.raises(ValueError):
        _tiny_cfg(fcb_channels=(4, 4, 4))  # latent below order 0
    with pytest.raises(ValueError):
        _tiny_cfg(res_channels=(6, 6, 10))  # does not return to input order
    with pytest.raises(ValueError):
        _tiny_cfg(label_order=1)  # label sphere not finer than control
    with pytest.raises(ValueError):
        _tiny_cfg(n_labels=200, res_channels=(6, 200))  # too many labels


def test_extractor_and_classifier_shapes():
    cfg = _tiny_cfg()
    store = ParamStore()
    rng = np.random.Generator(np.random.Philox(11))
    net = RegistrationNet(store, cfg, rng)
    v = vertex_count(cfg.input_order)
    moving = rng.standard_normal((v, cfg.in_channels))
    fixed = rng.standard_normal((v, cfg.in_channels))
    latent = net.extractor.forward(moving, fixed)
    assert latent.shape == (vertex_count(cfg.latent_order),
                            2 * cfg.fcb_channels[-1])
    logits = net.classifier.forward(latent)
    assert logits.shape == (vertex_count(cfg.control_order), cfg.n_labels)


def test_shared_blocks_share_parameters():
    cfg = _tiny_cfg(shared_fcbs=1)
    store = ParamStore()
    rng = np.random.Generator(np.random.Philox(11))
    FeatureExtractor(store, cfg, rng)
    names = store.names()
    # first block is per-path, second is shared
    assert any(n.startswith("fx.m.b0") for n in names)
    assert any(n.startswith("fx.f.b0") for n in names)
    assert any(n.startswith("fx.s.b1") for n in names)
    assert not any(n.startswith("fx.m.b1") for n in names)


def _path_by_path(extractor, moving, fixed):
    """The extractor's latent with every block run on one surface at a
    time, the moving path's blocks and then the fixed path's."""
    latents = []
    for path, values in (("m", moving), ("f", fixed)):
        out = ad.constant(values)
        for block in extractor.paths[path]:
            raw = values[:vertex_count(block.order - 1)]
            out = block.forward(out, ad.constant(raw))
        latents.append(out)
    return ad.concat(latents, axis=1)


def _desk_scale_nets(order):
    from dataclasses import replace

    from spherereg.pipeline import desk_scale_stages

    rng = np.random.Generator(np.random.Philox(21))
    for stage in desk_scale_stages():
        cfg = replace(stage, input_order=order).net_config()
        store = ParamStore()
        RegistrationNet(store, cfg, rng)
        yield cfg, store


def test_shared_blocks_form_kernel_weights_once_per_pass(monkeypatch):
    # a shared block is one object in both paths; its convolutions form
    # their kernel weights once for both surfaces, and the latent is the
    # one the surfaces give run alone, bitwise
    calls = []
    weights = conv._gaussian_weights
    monkeypatch.setattr(conv, "_gaussian_weights",
                        lambda *args: calls.append(1) or weights(*args))
    rng = np.random.Generator(np.random.Philox(22))
    counts = []
    for cfg, store in _desk_scale_nets(4):
        net = RegistrationNet(store, cfg, rng)
        paths = net.extractor.paths
        assert [m is f for m, f in zip(paths["m"], paths["f"])] == \
            [i >= len(paths["m"]) - cfg.shared_fcbs
             for i in range(len(paths["m"]))]
        moving, fixed = rng.standard_normal((2, vertex_count(4), 1))
        calls.clear()
        latent = net.extractor.forward(moving, fixed)
        net.classifier.forward(latent)
        counts.append(len(calls))
        assert np.array_equal(latent.value,
                              _path_by_path(net.extractor, moving,
                                            fixed).value)
    assert counts == [18, 10]


def test_order5_constant_pass_peaks_below_the_path_by_path_pass():
    # run in lockstep, a shared layer drops its kernel weights once both
    # surfaces have used them, and a convolution gathers its ring a block
    # at a time, so a constant pass of each desk-scale stage at order 5
    # peaks below the 33,028,845 and 18,341,622 bytes that the two stages'
    # passes took when every block ran one surface at a time with whole
    # ring gathers
    import tracemalloc

    rng = np.random.Generator(np.random.Philox(23))
    moving, fixed = rng.standard_normal((2, vertex_count(5), 1))
    peaks = []
    for cfg, store in _desk_scale_nets(5):
        net = RegistrationNet(store.constants(), cfg, None)
        net.logits(moving, fixed)  # builds the cached coordinate tables
        tracemalloc.start()
        try:
            net.logits(moving, fixed)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 33_028_845 and peaks[1] < 18_341_622


def _unpruned_logits(classifier, latent):
    """The classifier's logits with its last block run over every vertex
    and the control grid's rows sliced out afterwards."""
    x = latent
    for block in classifier.blocks:
        x = block.forward(x)
        if block is not classifier.blocks[-1] \
                or classifier.cfg.control_order > block.order:
            x = tape_upsample(x, block.order)
    return x.value[:vertex_count(classifier.cfg.control_order)]


@pytest.mark.parametrize("order", [3, 4, 5])
def test_classifier_computes_the_control_rows_of_an_unpruned_pass(order):
    # the last block computes only the control grid's rows, and they are
    # bitwise the rows an unpruned last block gives
    rng = np.random.Generator(np.random.Philox(24))
    moving, fixed = rng.standard_normal((2, vertex_count(order), 1))
    for cfg, store in _desk_scale_nets(order):
        net = RegistrationNet(store.constants(), cfg, None)
        latent = net.extractor.forward(moving, fixed)
        logits = net.classifier.forward(latent).value
        assert logits.shape == (vertex_count(cfg.control_order), cfg.n_labels)
        assert np.array_equal(logits, _unpruned_logits(net.classifier, latent))


def test_classifier_with_control_grid_at_the_input_order_upsamples():
    # a control grid at the input order lies above the last block, which
    # then runs in full and upsamples once, as before
    cfg = _tiny_cfg(control_order=2, label_order=3)
    store = ParamStore()
    rng = np.random.Generator(np.random.Philox(25))
    net = RegistrationNet(store, cfg, rng)
    moving, fixed = rng.standard_normal((2, vertex_count(2), 2))
    latent = net.extractor.forward(moving, fixed)
    logits = net.classifier.forward(latent).value
    assert logits.shape == (vertex_count(2), cfg.n_labels)
    assert np.array_equal(logits, _unpruned_logits(net.classifier, latent))


def test_last_classifier_convolution_emits_only_control_rows(monkeypatch):
    # in a constant pass and on the tape, each desk-scale stage's last
    # convolution forms the control grid's rows and no others
    heights = []
    aggregate = conv._aggregate

    def recording(*args):
        out = aggregate(*args)
        heights.append(out.shape[0])
        return out

    monkeypatch.setattr(conv, "_aggregate", recording)
    rng = np.random.Generator(np.random.Philox(26))
    moving, fixed = rng.standard_normal((2, vertex_count(4), 1))
    for cfg, store in _desk_scale_nets(4):
        for view in (store.constants(), store):
            heights.clear()
            logits = RegistrationNet(view, cfg, None).logits(moving, fixed)
            assert heights[-2:] == [vertex_count(3),
                                    vertex_count(cfg.control_order)]
            assert logits.requires_grad == (view is store)


def test_order5_stage1_constant_pass_peaks_below_the_row_extracting_pass():
    # the first desk-scale stage's last block forms 42 of its 642 rows, so
    # its order-5 constant pass peaks below the 21,550,509 bytes it took
    # when that block ran over every vertex and its rows were extracted
    import tracemalloc

    rng = np.random.Generator(np.random.Philox(23))
    moving, fixed = rng.standard_normal((2, vertex_count(5), 1))
    cfg, store = next(_desk_scale_nets(5))
    net = RegistrationNet(store.constants(), cfg, None)
    net.logits(moving, fixed)  # builds the cached coordinate tables
    tracemalloc.start()
    try:
        net.logits(moving, fixed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 21_550_509


def test_network_initialization_deterministic():
    cfg = _tiny_cfg()
    stores = []
    for _ in range(2):
        store = ParamStore()
        RegistrationNet(store, cfg, np.random.Generator(np.random.Philox(42)))
        stores.append(store)
    assert stores[0].names() == stores[1].names()
    for name in stores[0].names():
        assert np.array_equal(stores[0][name].value, stores[1][name].value)


def test_classifier_rejects_wrong_latent_order():
    cfg = _tiny_cfg()
    store = ParamStore()
    rng = np.random.Generator(np.random.Philox(1))
    cls = Classifier(store, cfg, rng)
    bad = ad.constant(np.zeros((42, 2 * cfg.fcb_channels[-1])))
    with pytest.raises(ValueError):
        cls.forward(bad)


def test_arch_roundtrip(tmp_path):
    cfg = _tiny_cfg()
    path = tmp_path / "net.arch"
    write_arch(path, cfg)
    back = read_arch(path)
    assert back == cfg


def test_arch_with_retired_gate_line_loads(tmp_path):
    # architecture files from before the unused fcb_gates line was dropped
    cfg = _tiny_cfg()
    path = tmp_path / "net.arch"
    write_arch(path, cfg)
    assert "fcb_gates" not in path.read_text()
    path.write_text(path.read_text() + "fcb_gates = A,B\n")
    assert read_arch(path) == cfg


def test_arch_missing_key_rejected(tmp_path):
    path = tmp_path / "bad.arch"
    path.write_text("input_order = 2\n")
    with pytest.raises(ValueError):
        read_arch(path)


def test_arch_value_error_names_the_key_the_file_holds(tmp_path):
    # the field is n_kernels; the file's key for it is kernels
    path = tmp_path / "net.arch"
    write_arch(path, _tiny_cfg())
    path.write_text(path.read_text().replace("kernels = 3", "kernels = 0"))
    with pytest.raises(ValueError, match=r"bad value for key 'kernels': "
                                         r"must be >= 1$"):
        read_arch(path)
