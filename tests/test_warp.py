"""Tests for the discrete deformation machinery and warped resampling."""

import numpy as np
import pytest

from spherereg import autodiff as ad
from spherereg import mesh, warp
from spherereg.mesh import SphericalFeatureMap, build_icosphere, vertex_count
from spherereg.optim import ParamStore, grad_check
from spherereg.warp import (
    DeformationField,
    LabelSpace,
    build_label_space,
    compose,
    control_grid,
    identity_field,
    locate_warped_faces,
    read_def,
    resample_moving,
    resample_tensor,
    soft_deform_tensor,
    upsample_deformation,
    write_def,
)


def _rotation(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis /= np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


# -- label space -----------------------------------------------------------

def test_label_space_nearest_is_self():
    # control vertices are nested in the finer label sphere, so the nearest
    # label of control point i is the control point itself
    labels = build_label_space(control_grid(1), 3, 12)
    assert np.array_equal(labels.endpoints[:, 0], control_grid(1).points)


def test_label_space_distances_nondecreasing():
    control = control_grid(1)
    labels = build_label_space(control, 2, 20)
    dots = np.einsum("id,ikd->ik", control.points, labels.endpoints)
    dist = np.arccos(np.clip(dots, -1, 1))
    assert np.all(np.diff(dist, axis=1) >= -1e-12)


def test_label_space_validation():
    with pytest.raises(ValueError):
        build_label_space(control_grid(2), 2, 5)
    with pytest.raises(ValueError):
        build_label_space(control_grid(1), 2, 1000)


def test_label_space_is_built_once_per_key():
    first = build_label_space(control_grid(1), 3, 12)
    assert build_label_space(control_grid(1), 3, 12) is first
    assert build_label_space(control_grid(1), 3, 13) is not first
    assert not first.endpoints.flags.writeable


# -- soft deformation ------------------------------------------------------

def test_soft_deform_one_hot_hits_endpoints():
    control = control_grid(1)
    labels = build_label_space(control, 2, 6)
    rng = np.random.Generator(np.random.Philox(0))
    pick = rng.integers(6, size=42)
    q = np.zeros((42, 6))
    q[np.arange(42), pick] = 1.0
    out = soft_deform_tensor(labels, ad.constant(q)).value
    assert np.allclose(out,
                       labels.endpoints[np.arange(42), pick], atol=1e-15)


def test_soft_deform_uniform_is_normalized_mean():
    control = control_grid(1)
    labels = build_label_space(control, 2, 6)
    q = np.full((42, 6), 1.0 / 6.0)
    out = soft_deform_tensor(labels, ad.constant(q)).value
    mean = labels.endpoints.mean(axis=1)
    expect = mean / np.linalg.norm(mean, axis=1, keepdims=True)
    assert np.allclose(out, expect, atol=1e-12)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


def test_soft_deform_degenerate_falls_back_to_argmax():
    # two antipodal candidates with equal mass cancel; the fallback picks
    # the (first) most probable endpoint
    e = np.array([[[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    labels = LabelSpace(0, 1, 2, e)
    q = ad.constant(np.array([[0.5, 0.5]]))
    out = soft_deform_tensor(labels, q)
    assert np.allclose(out.value, [[0.0, 0.0, 1.0]], atol=1e-15)


def test_soft_deform_fallback_rows_pass_no_gradient():
    # row 0 cancels and takes the constant fallback; row 1 does not
    e = np.array([[[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
                  [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    labels = LabelSpace(0, 1, 2, e)
    q = ad.Tensor(np.array([[0.5, 0.5], [0.3, 0.7]]))
    soft_deform_tensor(labels, q).backward(np.ones((2, 3)))
    assert np.all(q.grad[0] == 0.0) and np.all(q.grad[1] != 0.0)


def test_soft_deform_gradients_finite_difference():
    labels = build_label_space(control_grid(0), 2, 5)
    rng = np.random.Generator(np.random.Philox(2))
    store = ParamStore()
    store.add("q", rng.random((12, 5)) + 0.1)
    probe = rng.standard_normal((12, 3))

    def loss_fn(params):
        out = soft_deform_tensor(labels, ad.softmax_rows(params["q"]))
        return ad.sum_(out * probe)

    assert grad_check(loss_fn, store, n_probes=15, seed=3) < 1e-4


# -- upsampling and composition --------------------------------------------

def test_upsample_identity_stays_identity():
    fine = build_icosphere(3)
    up = upsample_deformation(identity_field(1), fine)
    assert np.allclose(up.endpoints, fine.vertices, atol=1e-12)


def test_upsample_rotation_stays_rotation():
    # a global rotation is linear, so barycentric interpolation of its
    # displacement reproduces it (up to the radial renormalization)
    rot = _rotation([1, 2, 3], 0.05)
    coarse = DeformationField(2, build_icosphere(2).vertices @ rot.T)
    fine = build_icosphere(4)
    up = upsample_deformation(coarse, fine)
    assert np.allclose(up.endpoints, fine.vertices @ rot.T, atol=2e-3)


def test_upsample_requires_finer_target():
    with pytest.raises(ValueError):
        upsample_deformation(identity_field(2), build_icosphere(1))


def test_compose_with_identity():
    rot = _rotation([0, 0, 1], 0.1)
    field = DeformationField(2, build_icosphere(2).vertices @ rot.T)
    ident = identity_field(2)
    left = compose(ident, field)
    right = compose(field, ident)
    assert np.allclose(left.endpoints, field.endpoints, atol=1e-12)
    assert np.allclose(right.endpoints, field.endpoints, atol=1e-12)


def test_compose_two_rotations():
    r1 = _rotation([0, 0, 1], 0.08)
    r2 = _rotation([1, 0, 0], 0.06)
    sphere = build_icosphere(3)
    f1 = DeformationField(3, sphere.vertices @ r1.T)
    f2 = DeformationField(3, sphere.vertices @ r2.T)
    both = compose(f1, f2)
    expect = sphere.vertices @ (r2 @ r1).T
    assert np.allclose(both.endpoints, expect, atol=2e-3)


def test_compose_order_mismatch_rejected():
    with pytest.raises(ValueError):
        compose(identity_field(1), identity_field(2))


# -- face location and resampling ------------------------------------------

def test_warp_reexports_the_one_face_search():
    assert warp.locate_warped_faces is mesh.locate_warped_faces


def test_locate_warped_faces_identity_contains_queries():
    sphere = build_icosphere(2)
    rng = np.random.Generator(np.random.Philox(9))
    q = rng.standard_normal((200, 3))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    faces, _ = locate_warped_faces(sphere.vertices, sphere, q)
    tri = sphere.vertices[sphere.faces[faces]]
    w0 = np.einsum("ij,ij->i", q, np.cross(tri[:, 1], tri[:, 2]))
    w1 = np.einsum("ij,ij->i", q, np.cross(tri[:, 2], tri[:, 0]))
    w2 = np.einsum("ij,ij->i", q, np.cross(tri[:, 0], tri[:, 1]))
    assert np.all(np.minimum(np.minimum(w0, w1), w2) >= -1e-9)


def _oracle_scores(vertices, faces, queries):
    """(N, F) containment score of every query in every face: the smallest
    unnormalized barycentric weight over the weight sum, -inf where the sum
    is not positive (the far side)."""
    a, b, c = (vertices[faces[:, k]] for k in range(3))
    w = np.stack([queries @ np.cross(b, c).T, queries @ np.cross(c, a).T,
                  queries @ np.cross(a, b).T])
    total = w.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(total > 1e-12, w.min(axis=0) / total, -np.inf)


def _count_tiers(monkeypatch, sphere):
    """A dict that counts the queries ``best_face`` scores in the search's
    two-ring and exhaustive tiers on ``sphere``: a candidate table wider
    than one vertex's six faces, and one as wide as the face count."""
    tiers = {"ring2": 0, "exhaustive": 0}
    search = mesh.best_face

    def counted(normals, queries, cand):
        if cand.shape[1] == sphere.n_faces:
            tiers["exhaustive"] += len(queries)
        elif cand.shape[1] > 6:
            tiers["ring2"] += len(queries)
        return search(normals, queries, cand)

    monkeypatch.setattr(mesh, "best_face", counted)
    return tiers


@pytest.mark.parametrize("order, amplitude", [(2, 0.2), (3, 0.05)])
def test_locate_warped_faces_matches_brute_force_oracle(order, amplitude,
                                                        monkeypatch):
    # random vertex jitter shears the mesh enough that the one-ring of the
    # nearest warped vertex misses some queries: the two-ring and the
    # exhaustive tiers must still find a containing face
    sphere = build_icosphere(order)
    tiers = _count_tiers(monkeypatch, sphere)
    for seed in range(5):
        rng = np.random.Generator(np.random.Philox(seed))
        ends = sphere.vertices + amplitude * rng.standard_normal(
            sphere.vertices.shape)
        ends /= np.linalg.norm(ends, axis=1, keepdims=True)
        q = np.concatenate([sphere.vertices,
                            rng.standard_normal((300, 3))])
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        faces, _ = locate_warped_faces(ends, sphere, q)
        score = _oracle_scores(ends, sphere.faces, q)
        contained = score.max(axis=1) >= -1e-9
        assert contained[:sphere.n_vertices].all()
        got = score[np.arange(len(q)), faces]
        assert (got[contained] >= -1e-9).all()
    assert tiers["ring2"] > 0 and tiers["exhaustive"] > 0


def test_locate_warped_faces_memory_is_near_linear():
    # one V x V float array at order 5 would take 840 MB
    import tracemalloc

    from spherereg.pipeline import SyntheticWarpSpec, _random_warp

    sphere = build_icosphere(5)
    ends = _random_warp(sphere.vertices, SyntheticWarpSpec(),
                        np.random.Generator(np.random.Philox(1)))
    tracemalloc.start()
    try:
        faces, _ = locate_warped_faces(ends, sphere, sphere.vertices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    assert len(faces) == sphere.n_vertices


def test_exhaustive_tier_memory_is_bounded(monkeypatch):
    # jitter of half an edge folds the order-5 mesh so that some queries
    # miss both rings; the last tier scores every face for a few queries
    # at a time, where one (N, F, 3) block would take hundreds of MB
    import tracemalloc

    sphere = build_icosphere(5)
    ends = _jitter(sphere, 0.5 * mesh.longest_edge(5),
                   np.random.Generator(np.random.Philox(5)))
    tiers = _count_tiers(monkeypatch, sphere)
    tracemalloc.start()
    try:
        faces, _ = locate_warped_faces(ends, sphere, sphere.vertices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tiers["exhaustive"] > 0
    score = mesh.best_face(_normals(ends, sphere), sphere.vertices,
                           faces[:, None])[1]
    # a query outside its face is one that no face holds
    outside = sphere.vertices[score < -1e-9]
    assert (_oracle_scores(ends, sphere.faces, outside).max(
        axis=1, initial=-np.inf) < -1e-9).all()
    assert peak < 64 * 2**20


def _jitter(sphere, amplitude, rng):
    ends = sphere.vertices + amplitude * rng.standard_normal(
        sphere.vertices.shape)
    return ends / np.linalg.norm(ends, axis=1, keepdims=True)


def _normals(ends, sphere):
    """The three (3, F) edge-normal rows of the sphere's faces warped to
    ``ends``, as ``best_face`` takes them."""
    return mesh.face_normals(*mesh.corner_rows(ends.T, sphere.faces))


def _count_cold_queries(monkeypatch):
    """A list that collects how many queries each call of
    ``nearest_vertex`` (the start of the cold search) gets."""
    seen = []
    nearest = mesh.nearest_vertex

    def counted(points, queries, cell):
        seen.append(len(queries))
        return nearest(points, queries, cell)

    monkeypatch.setattr(mesh, "nearest_vertex", counted)
    return seen


@pytest.mark.parametrize("order", [2, 3, 4])
def test_hinted_location_matches_cold_location(order, monkeypatch):
    sphere = build_icosphere(order)
    rng = np.random.Generator(np.random.Philox(order))
    # the fixed vertices, and the midpoints of the warped edges, which lie
    # on the edge two faces share
    edges = np.concatenate([sphere.faces[:, [0, 1]], sphere.faces[:, [1, 2]]])
    # jitter of a tenth of an edge keeps every face the right way round;
    # jitter of three tenths folds the mesh, and the hint is ignored
    for share, folds in ((0.02, False), (0.1, False), (0.3, True)):
        amplitude = share * mesh.longest_edge(order)
        ends = _jitter(sphere, amplitude, rng)
        mids = ends[edges[:, 0]] + ends[edges[:, 1]]
        q = np.concatenate(
            [sphere.vertices, mids / np.linalg.norm(mids, axis=1,
                                                    keepdims=True)])
        cold, cold_w = locate_warped_faces(ends, sphere, q)
        hints = {"exact": cold, "shifted": np.roll(cold, 1),
                 "random": rng.integers(0, sphere.n_faces, len(q)),
                 "identity": locate_warped_faces(sphere.vertices, sphere,
                                                 q)[0],
                 "previous": locate_warped_faces(
                     _jitter(sphere, amplitude, rng), sphere, q)[0]}
        seen = _count_cold_queries(monkeypatch)
        for name, hint in hints.items():
            got, w = locate_warped_faces(ends, sphere, q, hint=hint)
            assert np.array_equal(got, cold), name
            # the walk and the search share one arithmetic: each weight
            # array is bitwise the search's
            assert all(np.array_equal(a, b) for a, b in zip(w, cold_w)), \
                name
        # on a mesh that does not fold, an exact hint settles every query
        # strictly inside its face, which is all but those near an edge
        score = mesh.best_face(_normals(ends, sphere), q, cold[:, None])[1]
        near_edge = int((score <= mesh.HINT_MARGIN).sum())
        assert near_edge < len(mids) + sphere.n_vertices // 10
        assert seen[0] == (len(q) if folds else near_edge)
        monkeypatch.undo()


def test_nearby_hint_walks_instead_of_searching(monkeypatch):
    # the faces of a nearby warp miss many queries by a face; the walk
    # across the edges facing their smallest weights settles most of them,
    # so fewer queries take the cold search than leave their hinted face,
    # and only that search scores candidates
    sphere = build_icosphere(4)
    rng = np.random.Generator(np.random.Philox(41))
    amplitude = 0.05 * mesh.longest_edge(4)
    ends = _jitter(sphere, amplitude, rng)
    nearby = ends + amplitude * rng.standard_normal(ends.shape)
    nearby /= np.linalg.norm(nearby, axis=1, keepdims=True)
    q = sphere.vertices
    cold, _ = locate_warped_faces(ends, sphere, q)
    hint, _ = locate_warped_faces(nearby, sphere, q)
    missed = int((mesh.best_face(_normals(ends, sphere), q, hint[:, None])[1]
                  <= mesh.HINT_MARGIN).sum())
    seen = _count_cold_queries(monkeypatch)
    searches = []
    search = mesh._search_faces
    monkeypatch.setattr(mesh, "_search_faces",
                        lambda *args: searches.append(1) or search(*args))
    got, _ = locate_warped_faces(ends, sphere, q, hint=hint)
    assert np.array_equal(got, cold)
    assert missed > 100
    assert sum(seen) < missed
    assert len(searches) == len(seen) <= 1


def test_hint_changes_nothing_on_a_folded_warp(monkeypatch):
    sphere = build_icosphere(3)
    ends = _jitter(sphere, 0.01, np.random.Generator(np.random.Philox(2)))
    # swapping a vertex with its neighbour turns their shared faces over
    ends[[0, sphere.nbr_pad[0, 1]]] = ends[[sphere.nbr_pad[0, 1], 0]]
    normals = _normals(ends, sphere)
    det = np.einsum("ji,ji->i", ends[sphere.faces[:, 0]].T, normals[0])
    assert (det <= 0).any()
    cold, _ = locate_warped_faces(ends, sphere, sphere.vertices)
    seen = _count_cold_queries(monkeypatch)
    got, _ = locate_warped_faces(ends, sphere, sphere.vertices, hint=cold)
    assert np.array_equal(got, cold)
    assert seen == [sphere.n_vertices]


def _double_cover(sphere):
    """z -> z^2 in a stereographic chart through vertex 0: every face
    keeps its orientation, but the warped mesh wraps the sphere twice."""
    z = sphere.vertices[0]
    x = np.cross(z, [0.0, 0.0, 1.0])
    x /= np.linalg.norm(x)
    frame = np.stack([x, np.cross(z, x), z])
    p = sphere.vertices @ frame.T
    theta = 2 * np.arctan(np.tan(np.arccos(np.clip(p[:, 2], -1, 1)) / 2) ** 2)
    phi = 2 * np.arctan2(p[:, 1], p[:, 0])
    return np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                     np.cos(theta)], axis=1) @ frame


def test_hint_changes_nothing_on_a_double_cover():
    # most queries lie inside two faces of the double cover, and a hint
    # may name the wrong one
    sphere = build_icosphere(3)
    ends = _double_cover(sphere)
    normals = _normals(ends, sphere)
    det = np.einsum("ji,ji->i", ends[sphere.faces[:, 0]].T, normals[0])
    assert (det > 0).all()
    q = sphere.vertices
    cold, _ = locate_warped_faces(ends, sphere, q)
    w = np.stack([q @ n for n in normals], axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = w.min(axis=2) / w.sum(axis=2) > mesh.HINT_MARGIN
    inside[np.arange(len(q)), cold] = False
    other = np.where(inside.any(axis=1), np.argmax(inside, axis=1), cold)
    assert (other != cold).sum() > len(q) // 2
    got, _ = locate_warped_faces(ends, sphere, q, hint=other)
    assert np.array_equal(got, cold)


def _spy_locations(monkeypatch):
    """A list that collects, per ``locate_warped_faces`` call through
    ``warp``, its endpoints, queries, hint and result."""
    seen = []
    locate = warp.locate_warped_faces

    def spy(endpoints, sphere, queries, hint=None):
        found = locate(endpoints, sphere, queries, hint)
        seen.append((endpoints, queries, hint, found))
        return found

    monkeypatch.setattr(warp, "locate_warped_faces", spy)
    return seen


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_resample_without_hint_locates_as_the_cold_search(order,
                                                          monkeypatch):
    # fixed vertex v walks from its face under the identity warp; faces
    # and weights are the cold search's, bitwise, on warps that keep every
    # face the right way round, on one that folds, and on a double cover
    sphere = build_icosphere(order)
    rng = np.random.Generator(np.random.Philox(order))
    warps = [_jitter(sphere, share * mesh.longest_edge(order), rng)
             for share in (0.02, 0.1, 0.3)]
    folded = warps[0].copy()
    # swapping a vertex with its neighbour turns their shared faces over
    folded[[0, sphere.nbr_pad[0, 1]]] = folded[[sphere.nbr_pad[0, 1], 0]]
    warps += [folded] + ([_double_cover(sphere)] if order == 3 else [])
    values = rng.standard_normal((sphere.n_vertices, 2))
    seen = _spy_locations(monkeypatch)
    cold_queries = _count_cold_queries(monkeypatch)
    for ends in warps:
        seen.clear()
        cold_queries.clear()
        _, faces = resample_tensor(values, ad.constant(ends), order)
        (_, queries, hint, (got, w)), = seen
        assert np.array_equal(hint, sphere.vertex_faces[:, 0])
        assert queries is sphere.vertices and np.array_equal(got, faces)
        walked = sum(cold_queries)
        cold, cold_w = locate_warped_faces(ends, sphere, sphere.vertices)
        assert np.array_equal(faces, cold)
        assert all(np.array_equal(a, b) for a, b in zip(w, cold_w))
        if ends is warps[0]:
            # a slight warp leaves few queries to the search: those within
            # HINT_MARGIN of an edge
            assert walked <= 0.001 * sphere.n_vertices


@pytest.mark.parametrize("order", [3, 4, 5])
def test_compose_locates_as_the_cold_search(order, monkeypatch):
    # endpoint v of the first warp walks from the face of vertex v; the
    # composition equals one located by the cold search, bitwise
    from spherereg.pipeline import SyntheticWarpSpec, _random_warp

    sphere = build_icosphere(order)
    rng = np.random.Generator(np.random.Philox(order + 10))
    spec = SyntheticWarpSpec(max_angle=0.55)
    first, second = (DeformationField(order, _random_warp(sphere.vertices,
                                                          spec, rng))
                     for _ in range(2))
    cold_queries = _count_cold_queries(monkeypatch)
    got = compose(first, second)
    walked = sum(cold_queries)
    bary = mesh.barycentric_map
    monkeypatch.setattr(warp, "barycentric_map",
                        lambda sphere, queries, hint: bary(sphere, queries))
    cold = compose(first, second)
    assert np.array_equal(got.endpoints, cold.endpoints)
    # the walk settles some queries; a displacement of many edges leaves
    # the rest to the search
    assert sum(cold_queries) - walked == sphere.n_vertices > walked


def test_resample_moving_locates_masked_map_once(monkeypatch):
    sphere = build_icosphere(2)
    rng = np.random.Generator(np.random.Philox(3))
    ends = sphere.vertices + 0.05 * rng.standard_normal(sphere.vertices.shape)
    ends /= np.linalg.norm(ends, axis=1, keepdims=True)
    mask = rng.random(sphere.n_vertices) > 0.2
    moving = SphericalFeatureMap(2, rng.standard_normal((162, 2)), mask)
    calls = []
    locate = warp.locate_warped_faces

    def counted(endpoints, sphere, queries, hint=None):
        calls.append(len(queries))
        return locate(endpoints, sphere, queries, hint)

    monkeypatch.setattr(warp, "locate_warped_faces", counted)
    out = resample_moving(moving, DeformationField(2, ends), sphere)
    assert calls == [162]
    expect = resample_tensor(moving.values, ad.constant(ends), 2)[0].value
    assert np.array_equal(out.values, expect)
    faces, _ = locate(ends, sphere, sphere.vertices)
    assert np.array_equal(out.mask, mask[sphere.faces[faces]].all(axis=1))


def test_resample_identity_reproduces_values():
    sphere = build_icosphere(3)
    rng = np.random.Generator(np.random.Philox(4))
    vals = rng.standard_normal((sphere.n_vertices, 2))
    moving = SphericalFeatureMap(3, vals)
    out = resample_moving(moving, identity_field(3), sphere)
    assert np.allclose(out.values, vals, atol=1e-9)


def test_resample_rotation_oracle():
    # [DERIVED] carry a linear field f(p) = p.a through a global rotation:
    # the value resampled at q approximates f(R^-1 q)
    sphere = build_icosphere(4)
    a = np.array([0.3, -1.1, 0.7])
    rot = _rotation([1, 1, 0], 0.12)
    moving = SphericalFeatureMap(4, (sphere.vertices @ a)[:, None])
    warped = DeformationField(4, sphere.vertices @ rot.T)
    out = resample_moving(moving, warped, sphere)
    expect = (sphere.vertices @ rot) @ a  # R^-1 q . a = q . R a
    assert np.allclose(out.values[:, 0], expect, atol=2e-3)


def test_resample_mask_propagation():
    sphere = build_icosphere(2)
    mask = np.ones(sphere.n_vertices, dtype=bool)
    mask[7] = False
    moving = SphericalFeatureMap(2, np.ones((sphere.n_vertices, 1)), mask)
    out = resample_moving(moving, identity_field(2), sphere)
    # the invalid vertex itself is in every incident face, so it is invalid
    assert not out.mask[7]
    # vertices far from it stay valid
    far = np.argmin(sphere.vertices @ sphere.vertices[7])
    assert out.mask[far]


def test_resample_order_checks():
    moving = SphericalFeatureMap(2, np.ones((162, 1)))
    with pytest.raises(ValueError):
        resample_moving(moving, identity_field(1), build_icosphere(2))
    with pytest.raises(ValueError):
        resample_moving(moving, identity_field(2), build_icosphere(1))


def test_resample_gradients_finite_difference():
    sphere = build_icosphere(1)
    rng = np.random.Generator(np.random.Philox(6))
    vals = rng.standard_normal((42, 2))
    rot = _rotation([0, 1, 1], 0.05)
    store = ParamStore()
    store.add("end", sphere.vertices @ rot.T)
    probe = rng.standard_normal((42, 2))

    def loss_fn(params):
        out, _ = resample_tensor(vals, params["end"], 1)
        return ad.sum_(out * probe)

    assert grad_check(loss_fn, store, n_probes=20, seed=5) < 1e-4


def _jittered_warp(order, seed, scale=0.02):
    sphere = build_icosphere(order)
    rng = np.random.Generator(np.random.Philox(seed))
    end = sphere.vertices + scale * rng.standard_normal(sphere.vertices.shape)
    return sphere, end / np.linalg.norm(end, axis=1, keepdims=True)


def test_interpolate_warped_matches_barycentric_reference():
    # numpy reference: the edge-normal weights of each located warped face,
    # normalized and applied by mesh.interpolate
    sphere, end = _jittered_warp(2, 11)
    vals = np.random.Generator(np.random.Philox(12)).standard_normal((162, 2))
    faces, w = locate_warped_faces(end, sphere, sphere.vertices)
    _, _, ref = mesh.best_face(_normals(end, sphere), sphere.vertices,
                               faces[:, None])
    ref = np.stack(ref, axis=1)
    bmap = mesh.BarycentricMap(2, faces, ref / ref.sum(axis=1, keepdims=True))
    expect = mesh.interpolate(bmap, SphericalFeatureMap(2, vals))
    got = warp._interpolate_warped(vals, ad.constant(end), sphere, faces, w)
    assert np.abs(got.value - expect).max() < 1e-12


def test_interpolate_warped_grad_check():
    # the fused node alone: faces fixed, weights differentiable
    sphere, end = _jittered_warp(2, 13)
    rng = np.random.Generator(np.random.Philox(14))
    vals = rng.standard_normal((162, 2))
    faces, _ = locate_warped_faces(end, sphere, sphere.vertices)
    store = ParamStore()
    store.add("end", end)
    probe = rng.standard_normal((162, 2))

    def loss_fn(params):
        # the weights the search would return with these faces
        w = mesh.triple_products(sphere.vertices.T, mesh.face_normals(
            *mesh.corner_rows(params["end"].value.T, sphere.faces[faces])))
        out = warp._interpolate_warped(vals, params["end"], sphere, faces, w)
        return ad.sum_(out * probe)

    assert grad_check(loss_fn, store, n_probes=20, seed=15) < 1e-4


def test_upsample_deformation_matches_barycentric_reference():
    # numpy reference: the coarse displacements interpolated by
    # mesh.interpolate at the target vertices, added to them, normalized
    coarse, end = _jittered_warp(1, 43, scale=0.05)
    target = build_icosphere(3)
    bmap = mesh.barycentric_map(coarse, target.vertices)
    moved = target.vertices + mesh.interpolate(
        bmap, SphericalFeatureMap(1, end - coarse.vertices))
    expect = moved / np.linalg.norm(moved, axis=1, keepdims=True)
    got = warp.upsample_deformation_tensor(ad.constant(end), 1, 3)
    assert np.abs(got.value - expect).max() < 1e-12


def test_upsample_deformation_grad_check():
    # the fused node alone, in the coarse endpoints
    _, end = _jittered_warp(1, 44, scale=0.05)
    store = ParamStore()
    store.add("end", end)
    probe = np.random.Generator(np.random.Philox(45)).standard_normal(
        (vertex_count(3), 3))

    def loss_fn(params):
        out = warp.upsample_deformation_tensor(params["end"], 1, 3)
        return ad.sum_(out * probe)

    assert grad_check(loss_fn, store, n_probes=20, seed=46) < 1e-4


def _unit_rows_reference(x, g):
    """Rows over their norms, and the gradient through that, with the
    numpy reductions the warp nodes used before their column sums."""
    norm = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    out = x / norm
    return out, norm, (g - out * (g * out).sum(axis=-1, keepdims=True)) / norm


@pytest.mark.parametrize("coarse_order, order", [(1, 3), (2, 4)])
def test_upsample_deformation_equals_the_reduction_formula_bitwise(
        coarse_order, order):
    coarse, end = _jittered_warp(coarse_order, 70 + order, scale=0.05)
    g = np.random.Generator(np.random.Philox(71)).standard_normal(
        (vertex_count(order), 3))
    bmap = warp._transfer_map(coarse_order, order)
    corner_idx = coarse.faces[bmap.face_index]
    moved = np.einsum("nk,nkd->nd", bmap.weights,
                      (end - coarse.vertices)[corner_idx]) \
        + build_icosphere(order).vertices
    out, _, g_moved = _unit_rows_reference(moved, g)
    expect_grad = ad.scatter_rows(
        corner_idx, bmap.weights[:, :, None] * g_moved[:, None, :],
        len(end))
    got = warp.upsample_deformation_tensor(ad.Tensor(end), coarse_order,
                                           order)
    assert np.array_equal(got.value, out)
    assert np.array_equal(got.vjp(g)[0], expect_grad)


@pytest.mark.parametrize("label_order", [3, 4])
def test_soft_deform_equals_the_reduction_formula_bitwise(label_order):
    labels = build_label_space(control_grid(2), label_order, 16)
    rng = np.random.Generator(np.random.Philox(72 + label_order))
    q = ad.softmax_rows(ad.Tensor(rng.standard_normal((162, 16)))).value
    g = rng.standard_normal((162, 3))
    expect = np.einsum("ik,ikd->id", q, labels.endpoints)
    assert (np.linalg.norm(expect, axis=1) >= warp.DEGENERATE_NORM).all()
    out, _, g_expect = _unit_rows_reference(expect, g)
    got = soft_deform_tensor(labels, ad.Tensor(q))
    assert np.array_equal(got.value, out)
    assert np.array_equal(got.vjp(g)[0],
                          np.einsum("id,ikd->ik", g_expect, labels.endpoints))


# -- deformation field I/O -------------------------------------------------

def test_field_shape_validation():
    with pytest.raises(ValueError):
        DeformationField(1, np.zeros((41, 3)))


def test_def_roundtrip(tmp_path):
    rot = _rotation([2, 1, 0], 0.3)
    field = DeformationField(2, build_icosphere(2).vertices @ rot.T)
    path = tmp_path / "warp.def"
    write_def(path, field)
    back = read_def(path)
    assert back.order == 2
    assert np.array_equal(back.endpoints, field.endpoints)


def test_def_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.def"
    path.write_text("NOPE 1 42\n")
    with pytest.raises(ValueError):
        read_def(path)
    path.write_text("DEF1 1 40\n")
    with pytest.raises(ValueError):
        read_def(path)


@pytest.mark.parametrize("text, line", [
    ("DEF1 x 12\n", 1),
    ("DEF1 0 12\n" + "0 0 1\n" * 4, 6),  # truncated
    ("DEF1 0 12\n" + "0 0 1\n" * 2 + "0 1\n" + "0 0 1\n" * 9, 4),
    ("DEF1 0 12\n" + "0 0 1\n" * 5 + "0 inf 1\n" + "0 0 1\n" * 6, 7),
    ("DEF1 0 12\n" + "0 0 1\n" * 11 + "nan 0 1\n", 13),
])
def test_def_malformed_names_file_and_line(tmp_path, text, line):
    path = tmp_path / "bad.def"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"bad.def: line {line}:"):
        read_def(path)
