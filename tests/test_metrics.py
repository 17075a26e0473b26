"""Tests for the loss terms and the distortion/similarity measures."""

import io

import numpy as np
import pytest

from spherereg import autodiff as ad
from spherereg import mesh
from spherereg.mesh import (
    SphericalFeatureMap,
    build_icosphere,
    gradient_coefficients,
)
from spherereg.metrics import (
    GRAD_EPS,
    ClusterMassReport,
    cc_similarity,
    cluster_mass,
    deformation_gradients,
    distortion_stats,
    metrics_report,
    similarity_loss,
    smoothness_loss,
    total_loss,
    vertex_areas,
    write_met,
)
from spherereg.optim import ParamStore, grad_check
from spherereg.warp import DeformationField, identity_field


def _rotation(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis /= np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


# -- similarity ------------------------------------------------------------

def test_similarity_identical_maps():
    rng = np.random.Generator(np.random.Philox(0))
    vals = rng.standard_normal((42, 2))
    fixed = SphericalFeatureMap(1, vals)
    # zero MSE, perfect correlation
    assert float(similarity_loss(fixed, vals.copy()).value) == pytest.approx(
        -1.0, abs=1e-12)


def test_similarity_anticorrelated():
    rng = np.random.Generator(np.random.Philox(1))
    vals = rng.standard_normal((42, 1))
    fixed = SphericalFeatureMap(1, vals)
    warped = -vals
    expect_mse = float(np.mean((2 * vals) ** 2))
    got = float(similarity_loss(fixed, warped).value)
    assert got == pytest.approx(expect_mse + 1.0, abs=1e-10)


def test_similarity_mse_oracle():
    # [DERIVED] direct numpy computation of both terms
    rng = np.random.Generator(np.random.Philox(2))
    f = rng.standard_normal((162, 3))
    w = rng.standard_normal((162, 3))
    fixed = SphericalFeatureMap(2, f)
    mse = np.mean(((w - f) ** 2).sum(axis=1))
    ccs = [np.corrcoef(f[:, c], w[:, c])[0, 1] for c in range(3)]
    got = float(similarity_loss(fixed, w).value)
    assert got == pytest.approx(mse - np.mean(ccs), abs=1e-10)


def test_similarity_respects_masks():
    rng = np.random.Generator(np.random.Philox(3))
    f = rng.standard_normal((42, 1))
    w = f.copy()
    w[10:] = 100.0  # corrupt vertices that the masks exclude
    f_masked = f.copy()
    mask = np.zeros(42, dtype=bool)
    mask[:10] = True
    fixed = SphericalFeatureMap(1, f_masked, mask)
    got = float(similarity_loss(fixed, w).value)
    assert got == pytest.approx(-1.0, abs=1e-12)
    # the moving-side mask composes by intersection
    mv_mask = np.ones(42, dtype=bool)
    mv_mask[5:] = False
    got2 = float(similarity_loss(fixed, w, mask=mv_mask).value)
    assert got2 == pytest.approx(-1.0, abs=1e-12)


def test_similarity_zero_variance_warns():
    fixed = SphericalFeatureMap(1, np.ones((42, 1)))
    with pytest.warns(UserWarning):
        got = float(similarity_loss(fixed, np.ones((42, 1))).value)
    assert got == 0.0  # zero MSE, correlation term dropped


def test_similarity_shape_mismatch():
    fixed = SphericalFeatureMap(1, np.ones((42, 1)))
    with pytest.raises(ValueError):
        similarity_loss(fixed, np.ones((42, 2)))


def test_similarity_gradients_finite_difference():
    rng = np.random.Generator(np.random.Philox(4))
    fixed = SphericalFeatureMap(1, rng.standard_normal((42, 2)))
    store = ParamStore()
    store.add("w", rng.standard_normal((42, 2)))

    def loss_fn(params):
        return similarity_loss(fixed, params["w"])

    assert grad_check(loss_fn, store, n_probes=20, seed=5) < 1e-4


def test_similarity_matches_numpy_recomputation():
    # plain numpy over the valid rows of both masks, within 1e-12
    rng = np.random.Generator(np.random.Philox(11))
    f = rng.standard_normal((162, 3))
    w = rng.standard_normal((162, 3))
    mask = rng.random(162) > 0.2
    moving_mask = rng.random(162) > 0.2
    keep = mask & moving_mask
    fk, wk = f[keep], w[keep]
    mse = ((wk - fk) ** 2).sum(axis=1).mean()
    fz, wz = fk - fk.mean(axis=0), wk - wk.mean(axis=0)
    cc = (fz * wz).mean(axis=0) / (fz.std(axis=0) * wz.std(axis=0))
    got = similarity_loss(SphericalFeatureMap(2, f, mask), ad.Tensor(w),
                          moving_mask)
    assert abs(float(got.value) - (mse - cc.mean())) < 1e-12


def test_similarity_grad_check_with_masks():
    rng = np.random.Generator(np.random.Philox(12))
    fixed = SphericalFeatureMap(2, rng.standard_normal((162, 2)),
                                rng.random(162) > 0.2)
    moving_mask = rng.random(162) > 0.2
    store = ParamStore()
    store.add("w", rng.standard_normal((162, 2)))

    def loss_fn(params):
        return similarity_loss(fixed, params["w"], moving_mask)

    assert grad_check(loss_fn, store, n_probes=20, seed=13) < 1e-4


def test_cc_similarity_matches_corrcoef():
    rng = np.random.Generator(np.random.Philox(6))
    f = rng.standard_normal((162, 2))
    w = rng.standard_normal((162, 2))
    per, mean = cc_similarity(SphericalFeatureMap(2, f), w)
    for c in range(2):
        assert per[c] == pytest.approx(np.corrcoef(f[:, c], w[:, c])[0, 1],
                                       abs=1e-12)
    assert mean == pytest.approx(per.mean(), abs=1e-12)


def test_cc_similarity_zero_variance_is_nan():
    f = np.column_stack([np.ones(42), np.linspace(0, 1, 42)])
    w = np.column_stack([np.ones(42), np.linspace(0, 1, 42)])
    per, mean = cc_similarity(SphericalFeatureMap(1, f), w)
    assert np.isnan(per[0])
    assert mean == pytest.approx(1.0, abs=1e-12)


# -- smoothness ------------------------------------------------------------

def test_smoothness_identity_near_zero():
    val = float(smoothness_loss(identity_field(2).endpoints, 2).value)
    assert val < 1e-5  # only the sqrt epsilon keeps it off exact zero


def test_smoothness_rotation_small_and_localized_large():
    sphere = build_icosphere(2)
    rot = _rotation([0, 0, 1], 0.02)
    rigid = float(smoothness_loss(sphere.vertices @ rot.T, 2).value)
    # a rigid rotation has constant-magnitude smooth displacement
    bumped = sphere.vertices.copy()
    bumped[50] = sphere.vertices[np.argmin(
        sphere.vertices @ sphere.vertices[50])]
    local = float(smoothness_loss(bumped, 2).value)
    assert 0 < rigid < local


def test_smoothness_scales_with_amplitude():
    # gradient magnitudes are 1-homogeneous in the displacement
    sphere = build_icosphere(1)
    rng = np.random.Generator(np.random.Philox(7))
    disp = 0.01 * rng.standard_normal((42, 3))
    a = float(smoothness_loss(sphere.vertices + disp, 1).value)
    b = float(smoothness_loss(sphere.vertices + 2 * disp, 1).value)
    assert b == pytest.approx(2 * a, rel=1e-4)


def test_smoothness_gradients_finite_difference():
    rng = np.random.Generator(np.random.Philox(8))
    store = ParamStore()
    store.add("end", build_icosphere(1).vertices +
              0.05 * rng.standard_normal((42, 3)))

    def loss_fn(params):
        return smoothness_loss(params["end"], 1)

    assert grad_check(loss_fn, store, n_probes=20, seed=9) < 1e-4


def test_smoothness_matches_numpy_recomputation():
    # per vertex and component, the least-squares tangent gradient from the
    # one-ring stencil, then the mean over vertices of summed magnitudes
    sphere = build_icosphere(2)
    rng = np.random.Generator(np.random.Philox(14))
    end = sphere.vertices + 0.02 * rng.standard_normal((162, 3))
    end /= np.linalg.norm(end, axis=1, keepdims=True)
    coef = gradient_coefficients(2)
    disp = end - sphere.vertices
    expect = 0.0
    for v in range(sphere.n_vertices):
        grad = coef[v] @ disp[sphere.nbr_pad[v]]  # (2, 3)
        expect += np.sqrt((grad**2).sum(axis=0) + GRAD_EPS).sum()
    expect /= sphere.n_vertices
    got = float(smoothness_loss(ad.Tensor(end), 2).value)
    assert abs(got - expect) < 1e-12


@pytest.mark.parametrize("order", [3, 4])
def test_smoothness_equals_the_reduction_formula_bitwise(order):
    # the node's column sums and ring gather against the formula they
    # replaced: numpy reductions over the short axes and a bincount
    # scatter, written out here
    sphere = build_icosphere(order)
    rng = np.random.Generator(np.random.Philox(60 + order))
    end = sphere.vertices + 0.3 * mesh.longest_edge(order) \
        * rng.standard_normal(sphere.vertices.shape)
    end /= np.linalg.norm(end, axis=1, keepdims=True)
    coef = gradient_coefficients(order)
    gvec = coef @ np.take(end - sphere.vertices, sphere.nbr_pad, axis=0)
    mag = np.sqrt((gvec * gvec).sum(axis=1) + GRAD_EPS)
    n = len(mag)
    g = np.float64(rng.random())
    expect_grad = ad.scatter_rows(
        sphere.nbr_pad,
        coef.transpose(0, 2, 1) @ (gvec * ((g / n) / mag)[:, None]), n)
    loss = smoothness_loss(ad.Tensor(end), order)
    assert np.array_equal(loss.value, mag.sum(axis=1).sum() * (1.0 / n))
    assert np.array_equal(loss.vjp(g)[0], expect_grad)


def test_total_loss_combines_terms():
    rng = np.random.Generator(np.random.Philox(10))
    fixed = SphericalFeatureMap(1, rng.standard_normal((42, 1)))
    warped = rng.standard_normal((42, 1))
    end = build_icosphere(1).vertices + 0.03 * rng.standard_normal((42, 3))
    sim = float(similarity_loss(fixed, warped).value)
    smooth = float(smoothness_loss(end, 1).value)
    got = float(total_loss(fixed, warped, end, 1, 0.4).value)
    assert got == pytest.approx(sim + 0.4 * smooth, abs=1e-12)


# -- distortion ------------------------------------------------------------

def test_distortion_identity_exactly_zero():
    sphere = build_icosphere(2)
    stats = distortion_stats(sphere, identity_field(2))
    assert np.all(stats.log2_areal == 0.0)
    assert np.all(stats.log2_shape == 0.0)
    assert stats.flipped_faces == 0
    assert stats.degenerate_faces == 0


def test_distortion_rigid_rotation_tiny():
    sphere = build_icosphere(2)
    rot = _rotation([1, 2, 3], 0.4)
    stats = distortion_stats(sphere, DeformationField(2, sphere.vertices @ rot.T))
    assert stats.areal()["max"] < 1e-9
    assert stats.shape()["max"] < 1e-9
    assert stats.flipped_faces == 0


def test_distortion_uniform_stretch():
    # [DERIVED] scaling every endpoint by 2 doubles both principal
    # stretches of every face: log2 J = 2, log2 R = 0
    sphere = build_icosphere(1)
    field = DeformationField(1, 2.0 * sphere.vertices)
    stats = distortion_stats(sphere, field)
    assert np.allclose(stats.log2_areal, 2.0, atol=1e-9)
    assert np.allclose(stats.log2_shape, 0.0, atol=1e-9)


def test_distortion_pure_shear_single_face():
    # [DERIVED] stretch one face by 2 along one in-plane axis and 1/2 along
    # the other: J = 1 (log2 J = 0), R = 4 (log2 R = 2)
    sphere = build_icosphere(1)
    face = sphere.faces[0]
    p0, p1, p2 = sphere.vertices[face]
    e1 = p1 - p0
    e2 = p2 - p0
    n = np.cross(e1, e2)
    t1 = e1 / np.linalg.norm(e1)
    t2 = np.cross(n, t1)
    t2 /= np.linalg.norm(t2)
    endpoints = sphere.vertices.copy()
    for idx in face[1:]:
        d = sphere.vertices[idx] - p0
        endpoints[idx] = p0 + 2.0 * (d @ t1) * t1 + 0.5 * (d @ t2) * t2 \
            + (d @ n) * n
    lam1, lam2, det, _ = deformation_gradients(
        sphere, DeformationField(1, endpoints))
    assert np.log2(lam1[0] * lam2[0]) == pytest.approx(0.0, abs=1e-9)
    assert np.log2(lam1[0] / lam2[0]) == pytest.approx(2.0, abs=1e-9)
    assert det[0] > 0


def test_distortion_reflection_counts_flipped():
    sphere = build_icosphere(1)
    mirrored = sphere.vertices * np.array([-1.0, 1.0, 1.0])
    stats = distortion_stats(sphere, DeformationField(1, mirrored))
    assert stats.flipped_faces == len(sphere.faces)
    assert len(stats.log2_areal) == 0


def test_distortion_order_mismatch():
    with pytest.raises(ValueError):
        distortion_stats(build_icosphere(1), identity_field(2))


# -- areas and cluster mass ------------------------------------------------

def test_vertex_areas_partition_total_area():
    sphere = build_icosphere(3)
    per_vertex = vertex_areas(sphere.vertices, sphere.faces)
    tri = sphere.vertices[sphere.faces]
    total = 0.5 * np.linalg.norm(
        np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1).sum()
    assert per_vertex.sum() == pytest.approx(total, rel=1e-12)
    # inscribed polyhedron area approaches 4 pi from below
    assert 0.97 * 4 * np.pi < total < 4 * np.pi


def test_cluster_mass_hand_example():
    z = np.zeros((42, 1))
    z[3, 0] = 6.0
    z[4, 0] = -7.0
    z[5, 0] = 4.9  # below threshold
    areas = np.full(42, 0.3)
    report = cluster_mass(SphericalFeatureMap(1, z), areas, threshold=5.0)
    assert report.n_supra == 2
    assert report.cluster_mass == pytest.approx(0.3 * 13.0, abs=1e-12)


def test_cluster_mass_respects_mask():
    z = np.full((42, 1), 10.0)
    mask = np.zeros(42, dtype=bool)
    mask[0] = True
    areas = np.ones(42)
    report = cluster_mass(SphericalFeatureMap(1, z, mask), areas)
    assert report.n_supra == 1
    assert report.cluster_mass == pytest.approx(10.0, abs=1e-12)


# -- report I/O ------------------------------------------------------------

def test_met_roundtrip():
    entries = {"cc.mean": 0.9321, "areal.p95": 0.123456789012345,
               "flipped_faces": 0}
    out = io.StringIO()
    write_met(out, entries)
    assert out.getvalue() == ("cc.mean = 0.93210000000000004\n"
                              "areal.p95 = 0.123456789012345\n"
                              "flipped_faces = 0\n")
    # every float reads back exactly
    back = dict(line.split(" = ") for line in out.getvalue().splitlines())
    assert float(back["cc.mean"]) == entries["cc.mean"]
    assert float(back["areal.p95"]) == entries["areal.p95"]


def test_metrics_report_keys():
    rng = np.random.Generator(np.random.Philox(11))
    f = rng.standard_normal((42, 2))
    fixed = SphericalFeatureMap(1, f)
    sphere = build_icosphere(1)
    stats = distortion_stats(sphere, identity_field(1))
    cm = ClusterMassReport(5.0, 0.0, 0)
    report = metrics_report(fixed, f.copy(), stats, cm)
    assert report["cc.mean"] == pytest.approx(1.0, abs=1e-12)
    assert report["areal.p95"] == 0.0
    assert report["flipped_faces"] == 0
    assert report["cluster_mass"] == 0.0


def test_metrics_report_scores_a_masked_map_over_its_own_mask():
    rng = np.random.Generator(np.random.Philox(12))
    f = rng.standard_normal((42, 2))
    mask = rng.random(42) > 0.3
    warped = SphericalFeatureMap(1, np.where(mask[:, None], f, 5.0), mask)
    report = metrics_report(SphericalFeatureMap(1, f), warped)
    assert report["cc.mean"] == pytest.approx(1.0, abs=1e-12)
    assert report["cc.ch1"] == pytest.approx(1.0, abs=1e-12)
