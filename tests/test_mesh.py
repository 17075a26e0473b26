import numpy as np
import pytest

from spherereg import autodiff as ad
from spherereg import mesh
from spherereg.mesh import (
    BarycentricMap,
    SphericalFeatureMap,
    barycentric_map,
    build_icosphere,
    gradient_coefficients,
    interpolate,
    pool_features,
    upsample_features,
    vertex_count,
)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def random_unit(n, seed=0):
    v = rng(seed).standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestIcosphere:
    def test_base_counts(self):
        s = build_icosphere(0)
        assert s.n_vertices == 12
        assert s.n_faces == 20
        edges = {tuple(sorted(e)) for f in s.faces for e in [(f[0], f[1]), (f[1], f[2]), (f[2], f[0])]}
        assert len(edges) == 30

    @pytest.mark.parametrize("order,expected", [(1, 42), (2, 162), (3, 642), (4, 2562)])
    def test_vertex_recurrence(self, order, expected):
        assert build_icosphere(order).n_vertices == expected
        assert vertex_count(order) == expected

    @pytest.mark.parametrize("order", range(5))
    def test_euler_characteristic(self, order):
        s = build_icosphere(order)
        edges = {tuple(sorted(e)) for f in s.faces for e in [(f[0], f[1]), (f[1], f[2]), (f[2], f[0])]}
        assert s.n_vertices - len(edges) + s.n_faces == 2

    @pytest.mark.parametrize("order", range(6))
    def test_unit_vertices(self, order):
        s = build_icosphere(order)
        assert np.abs(np.linalg.norm(s.vertices, axis=1) - 1).max() < 1e-12

    @pytest.mark.parametrize("order", range(4))
    def test_degrees(self, order):
        s = build_icosphere(order)
        degrees = s.nbr_mask[:, 1:].sum(axis=1)
        assert (degrees[:12] == 5).all()
        assert (degrees[12:] == 6).all()

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_hierarchical_nesting(self, order):
        coarse = build_icosphere(order - 1)
        fine = build_icosphere(order)
        assert np.array_equal(fine.vertices[: coarse.n_vertices], coarse.vertices)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            build_icosphere(-1)
        with pytest.raises(ValueError):
            build_icosphere(9)

    def test_faces_oriented_outward(self):
        s = build_icosphere(3)
        tri = s.vertices[s.faces]
        det = np.einsum("ij,ij->i", tri[:, 0], np.cross(tri[:, 1], tri[:, 2]))
        assert (det > 0).all()

    def test_edge_length_regularity(self):
        s = build_icosphere(6)
        tri = s.vertices[s.faces]
        lengths = np.concatenate([
            np.linalg.norm(tri[:, 0] - tri[:, 1], axis=1),
            np.linalg.norm(tri[:, 1] - tri[:, 2], axis=1),
            np.linalg.norm(tri[:, 2] - tri[:, 0], axis=1),
        ])
        assert lengths.max() / lengths.min() <= 1.3


class TestResampling:
    def test_upsample_constant(self):
        out = upsample_features(SphericalFeatureMap(1, np.full((42, 2), 3.5)))
        assert out.sphere_order == 2
        assert np.allclose(out.values, 3.5)

    def test_upsample_one_hot(self):
        vals = np.zeros((42, 1))
        v = 7
        vals[v] = 1.0
        out = upsample_features(SphericalFeatureMap(1, vals))
        fine = build_icosphere(2)
        touched = {42 + i for i, e in enumerate(fine.midpoint_edges) if v in e}
        for i in range(out.values.shape[0]):
            if i == v:
                assert out.values[i, 0] == 1.0
            elif i in touched:
                assert out.values[i, 0] == 0.5
            else:
                assert out.values[i, 0] == 0.0

    def test_upsample_linear_z(self):
        coarse = build_icosphere(2)
        fine = build_icosphere(3)
        out = upsample_features(SphericalFeatureMap(2, coarse.vertices[:, 2:3]))
        mids = fine.midpoint_edges
        expected = 0.5 * (coarse.vertices[mids[:, 0], 2] + coarse.vertices[mids[:, 1], 2])
        assert np.abs(out.values[162:, 0] - expected).max() < 1e-12

    def test_down_of_up_roundtrip(self):
        vals = rng(2).standard_normal((162, 4))
        up = upsample_features(SphericalFeatureMap(2, vals))
        assert np.array_equal(up.values[:162], vals)


class TestPooling:
    def test_constant(self):
        out = pool_features(SphericalFeatureMap(2, np.full((162, 1), 2.0)))
        assert out.sphere_order == 1
        assert np.allclose(out.values, 2.0)

    def test_max_one_hot_support(self):
        sphere = build_icosphere(2)
        vals = np.zeros((162, 1))
        hot = 20  # retained at order 1
        vals[hot] = 1.0
        out = pool_features(SphericalFeatureMap(2, vals))
        for i in range(42):
            ring = sphere.nbr_pad[i][sphere.nbr_mask[i]]  # i and its one-ring
            expect = 1.0 if hot in ring else 0.0
            assert out.values[i, 0] == expect

    def test_max_ge_mean_for_nonnegative(self):
        vals = rng(3).random((642, 2))
        mx = pool_features(SphericalFeatureMap(3, vals))
        sphere = build_icosphere(3)
        ring = vals[sphere.nbr_pad] * sphere.nbr_mask[:, :, None]
        mean = ring.sum(axis=1) / sphere.nbr_mask.sum(axis=1)[:, None]
        assert (mx.values >= mean[:162] - 1e-12).all()


class TestBarycentric:
    def test_vertex_query(self):
        s = build_icosphere(2)
        bmap = barycentric_map(s, s.vertices[[5, 40, 100]])
        for w in bmap.weights:
            w = np.sort(w)
            assert abs(w[2] - 1) < 1e-9 and abs(w[0]) < 1e-9 and abs(w[1]) < 1e-9

    def test_centroid_query(self):
        s = build_icosphere(1)
        tri = s.vertices[s.faces[10]]
        q = tri.mean(axis=0)
        q /= np.linalg.norm(q)
        bmap = barycentric_map(s, q[None])
        assert np.abs(bmap.weights - 1 / 3).max() < 1e-6

    @pytest.mark.parametrize("order", [2, 4])
    def test_reconstruction(self, order):
        s = build_icosphere(order)
        q = random_unit(100, seed=4)
        bmap = barycentric_map(s, q)
        corners = s.vertices[s.faces[bmap.face_index]]
        recon = np.einsum("nk,nkj->nj", bmap.weights, corners)
        recon /= np.linalg.norm(recon, axis=1, keepdims=True)
        assert np.abs(recon - q).max() < 1e-6
        assert (bmap.weights >= 0).all()
        assert np.abs(bmap.weights.sum(axis=1) - 1).max() < 1e-9

    def test_zero_query_rejected(self):
        with pytest.raises(ValueError):
            barycentric_map(build_icosphere(1), np.zeros((1, 3)))

    def test_interpolate_constant(self):
        s = build_icosphere(2)
        bmap = barycentric_map(s, random_unit(50, seed=5))
        out = interpolate(bmap, SphericalFeatureMap(2, np.full((162, 2), 1.25)))
        assert np.abs(out - 1.25).max() < 1e-12

    def test_interpolate_linear_at_centroids(self):
        s = build_icosphere(2)
        a = np.array([0.3, -1.2, 0.7])
        tris = s.vertices[s.faces[:40]]
        q = tris.mean(axis=1)
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        bmap = barycentric_map(s, q)
        out = interpolate(bmap, SphericalFeatureMap(2, s.vertices @ a))
        expected = tris.mean(axis=1) @ a
        assert np.abs(out[:, 0] - expected).max() < 1e-9

    def test_interpolate_identity_coordinates(self):
        s = build_icosphere(3)
        q = random_unit(200, seed=6)
        bmap = barycentric_map(s, q)
        out = interpolate(bmap, SphericalFeatureMap(3, s.vertices))
        out /= np.linalg.norm(out, axis=1, keepdims=True)
        assert np.abs(out - q).max() < 1e-6

    def test_corrupt_face_index(self):
        s = build_icosphere(1)
        bmap = BarycentricMap(1, np.array([10_000]), np.array([[1.0, 0, 0]]))
        with pytest.raises(ValueError):
            interpolate(bmap, SphericalFeatureMap(1, np.zeros((42, 1))))


def _oracle_scores(vertices, faces, queries):
    """(N, F) containment score of every query in every face: the smallest
    unnormalized barycentric weight over the weight sum, -inf where the sum
    is not positive (the far side)."""
    a, b, c = (vertices[faces[:, k]] for k in range(3))
    w = np.stack([queries @ np.cross(b, c).T, queries @ np.cross(c, a).T,
                  queries @ np.cross(a, b).T])
    total = w.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(total > 1e-12, w.min(axis=0) / total, -np.inf), w


@pytest.mark.parametrize("order", range(5))
def test_locate_faces_matches_brute_force_oracle(order):
    # random queries plus finer-sphere vertices: the edge midpoints and the
    # shared corners are ties, which only have to land in a containing
    # face.  Up to order 2 the finer vertices are all those of the spheres
    # one to three orders finer, the queries of the transfer maps.
    s = build_icosphere(order)
    if order <= 2:
        finer = np.concatenate([build_icosphere(k).vertices
                                for k in range(order + 1, order + 4)])
    else:
        finer = build_icosphere(order + 1).vertices
        finer = finer[rng(order).choice(len(finer), size=300, replace=False)]
    q = np.concatenate([random_unit(300, seed=order), finer])
    bmap = barycentric_map(s, q)
    for lo in range(0, len(q), 2000):  # the oracle is (N, F): keep N small
        rows = np.arange(lo, min(lo + 2000, len(q)))
        score, w = _oracle_scores(s.vertices, s.faces, q[rows])
        top2 = np.sort(score, axis=1)[:, -2:]
        clear = top2[:, 1] - top2[:, 0] > 1e-9
        assert clear[rows < 300].all()
        faces = bmap.face_index[rows]
        local = np.arange(len(rows))
        assert (score[local, faces] >= -1e-9).all()
        assert np.array_equal(faces[clear], np.argmax(score[clear], axis=1))
        expect = np.clip(w[:, local, faces].T, 0.0, None)
        expect /= expect.sum(axis=1, keepdims=True)
        assert np.abs(bmap.weights[rows] - expect).max() < 1e-12
    # the coarse vertex coordinates interpolate back to every query
    recon = interpolate(bmap, SphericalFeatureMap(order, s.vertices))
    recon /= np.linalg.norm(recon, axis=1, keepdims=True)
    assert np.abs(recon - q).max() < 1e-12


@pytest.mark.parametrize("order", range(6))
def test_tables_match_brute_force_oracle(order):
    # every table rebuilt from the face list with Python sets and lists
    s = build_icosphere(order)
    ring = [set() for _ in range(s.n_vertices)]
    incident = [[] for _ in range(s.n_vertices)]
    for f, tri in enumerate(s.faces.tolist()):
        for v in tri:
            ring[v].update(tri)
            incident[v].append(f)
    for v in range(s.n_vertices):
        nbrs = sorted(ring[v] - {v})
        pad = 6 - len(nbrs)
        assert s.nbr_pad[v].tolist() == [v, *nbrs] + [v] * pad
        assert s.nbr_mask[v].tolist() == [True] * (7 - pad) + [False] * pad
        assert s.vertex_faces[v].tolist() == \
            sorted(incident[v]) + [-1] * (6 - len(incident[v]))
    for f, tri in enumerate(s.faces.tolist()):
        for k in range(3):
            edge = {tri[(k + 1) % 3], tri[(k + 2) % 3]}
            other = set(incident[tri[(k + 1) % 3]]) \
                & set(incident[tri[(k + 2) % 3]])
            assert other - {f} == {s.face_across[f, k]}
            assert edge <= set(s.faces[s.face_across[f, k]].tolist())
    edges = set()
    if order:
        for a, b, c in build_icosphere(order - 1).faces.tolist():
            edges |= {tuple(sorted(e)) for e in ((a, b), (b, c), (c, a))}
    assert s.midpoint_edges.shape == (len(edges), 2)
    assert s.midpoint_edges.tolist() == [list(e) for e in sorted(edges)]


@pytest.mark.parametrize("order", range(6))
def test_reverse_ring_table_and_its_sum(order):
    # row k of the reverse ring table is the k-th flat nbr_pad slot of each
    # vertex in slot order, and its gather sums a ring's slots back into
    # their vertices with the bits of the bincount scatter
    s = build_icosphere(order)
    assert np.array_equal(
        s.nbr_rev, np.argsort(s.nbr_pad.ravel(), kind="stable")
        .reshape(-1, 7).T)
    assert s.nbr_rev.flags.c_contiguous
    slots = rng(order).standard_normal((s.n_vertices, 7, 3))
    assert np.array_equal(s.ring_sum(slots),
                          ad.scatter_rows(s.nbr_pad, slots, s.n_vertices))


def test_best_face_skips_padding_and_far_side():
    s = build_icosphere(1)
    centre = s.vertices[s.faces[0]].sum(axis=0)
    q = np.concatenate([random_unit(50, seed=7),
                        centre[None] / np.linalg.norm(centre)])
    normals = mesh.face_normals(*mesh.corner_rows(s.vertices.T, s.faces))
    every, score, w = mesh.best_face(
        normals, q, np.tile(np.arange(s.n_faces), (len(q), 1)))
    assert (score > -1e-9).all() and every[-1] == 0
    # a table of only far-side faces scores -inf
    far = mesh.best_face(normals, -q, every[:, None])[1]
    assert np.isneginf(far).all()
    # padding never wins, not even against face 0 that it would index
    pad = np.full(len(q), -1)
    cand = np.stack([pad, every, pad], axis=1)
    face, got, w1 = mesh.best_face(normals, q, cand)
    assert np.array_equal(face, every)
    assert np.allclose(got, score, atol=1e-15)
    assert np.allclose(w1, w, atol=1e-15)


def test_face_normals_match_per_candidate_cross_products():
    # gathering the (3, F) normal rows at a candidate table gives the bits
    # that crossing each gathered (query, candidate) corner triple gave
    s = build_icosphere(2)
    ends = s.vertices + 0.05 * rng(3).standard_normal(s.vertices.shape)
    ends /= np.linalg.norm(ends, axis=1, keepdims=True)
    cand = np.clip(s.vertex_faces[rng(4).integers(0, s.n_vertices, 300)],
                   0, None)
    tri = ends[s.faces[cand]]  # (N, 6, 3, 3)
    a, b, c = tri[..., 0, :], tri[..., 1, :], tri[..., 2, :]
    per_candidate = [np.cross(b, c), np.cross(c, a), np.cross(a, b)]
    normals = mesh.face_normals(*mesh.corner_rows(ends.T, s.faces))
    assert len(normals) == 3
    for rows, crossed in zip(normals, per_candidate):
        assert rows.shape == (3, s.n_faces)
        assert np.array_equal(np.moveaxis(rows[:, cand], 0, -1), crossed)


def test_face_normals_from_rows_equal_the_cross_table():
    # the normals are built from (3, V) component rows with the arithmetic
    # of np.cross, so they keep np.cross's bits
    s = build_icosphere(3)
    ends = s.vertices + 0.02 * rng(5).standard_normal(s.vertices.shape)
    ends /= np.linalg.norm(ends, axis=1, keepdims=True)
    a, b, c = (ends[s.faces[:, k]] for k in range(3))
    crossed = [np.cross(b, c), np.cross(c, a), np.cross(a, b)]
    normals = mesh.face_normals(*mesh.corner_rows(ends.T, s.faces))
    for rows, table in zip(normals, crossed):
        assert rows.flags.c_contiguous
        assert np.array_equal(rows, table.T)


def test_best_face_weights_are_the_triple_products():
    # scoring gathered normal rows has the bits of crossing the gathered
    # corner rows, for a per-query table and for the every-face row that
    # broadcasts against the queries
    s = build_icosphere(2)
    ends = s.vertices + 0.05 * rng(3).standard_normal(s.vertices.shape)
    ends /= np.linalg.norm(ends, axis=1, keepdims=True)
    q = random_unit(300, seed=5)
    normals = mesh.face_normals(*mesh.corner_rows(ends.T, s.faces))
    cand = s.vertex_faces[rng(4).integers(0, s.n_vertices, len(q))]
    for table in (cand, np.arange(s.n_faces)[None]):
        face, _, w = mesh.best_face(normals, q, table)
        assert np.array_equal(w, mesh.triple_products(q.T, mesh.face_normals(
            *mesh.corner_rows(ends.T, s.faces[face]))))
    # barycentric_map clips and normalizes the search's weights at the
    # queries it normalizes; the finer sphere's vertices lie on the coarse
    # edges and corners
    fine = build_icosphere(3).vertices
    bmap = barycentric_map(s, fine)
    fine = fine / np.linalg.norm(fine, axis=1)[:, None]
    faces, w = mesh.locate_warped_faces(s.vertices, s, fine)
    w = np.clip(np.stack(w, axis=1), 0.0, None)
    assert np.array_equal(bmap.face_index, faces)
    assert np.array_equal(bmap.weights, w / w.sum(axis=1, keepdims=True))


def _dense_nearest(points, queries):
    return np.argmax(queries @ points.T, axis=1)


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("amplitude", [0.2, 0.05])
def test_nearest_vertex_matches_dense_on_jitter_warps(order, amplitude):
    s = build_icosphere(order)
    for seed in range(6):
        g = rng(seed)
        ends = s.vertices + amplitude * g.standard_normal(s.vertices.shape)
        ends /= np.linalg.norm(ends, axis=1, keepdims=True)
        q = np.concatenate([s.vertices, g.standard_normal((300, 3))])
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        got = mesh.nearest_vertex(ends, q, mesh.longest_edge(order))
        assert np.array_equal(got, _dense_nearest(ends, q))


@pytest.mark.parametrize("order", [2, 3, 4])
def test_nearest_vertex_matches_dense_on_synthetic_warps(order):
    from spherereg.pipeline import SyntheticWarpSpec, _random_warp

    s = build_icosphere(order)
    for seed in range(3):
        ends = _random_warp(s.vertices, SyntheticWarpSpec(max_angle=0.5),
                            rng(seed))
        got = mesh.nearest_vertex(ends, s.vertices, mesh.longest_edge(order))
        assert np.array_equal(got, _dense_nearest(ends, s.vertices))


@pytest.mark.parametrize("budget", [100, mesh.PAIR_BUDGET])
def test_nearest_vertex_off_mesh_queries(budget, monkeypatch):
    # irregular points and queries off the mesh, at several cells; a
    # budget of 100 pairs splits the queries into chunks of one or a few
    monkeypatch.setattr(mesh, "PAIR_BUDGET", budget)
    points = random_unit(500, seed=1)
    q = random_unit(400, seed=2)
    for cell in (0.01, 0.1, 0.7, 5.0):
        got = mesh.nearest_vertex(points, q, cell)
        assert np.array_equal(got, _dense_nearest(points, q))


def test_nearest_vertex_exact_ties_go_to_the_lowest_index():
    # axis vectors, each repeated: every dot product is a query coordinate,
    # exact in any arithmetic, so duplicates and diagonal queries tie
    axes = np.concatenate([np.eye(3), -np.eye(3)])
    points = axes[rng(4).permutation(np.repeat(np.arange(6), 5))]
    diag = np.array([[1, 1, 0], [1, 1, 1], [-1, 0, 1], [0, -1, -1]], float)
    q = np.concatenate([diag / np.linalg.norm(diag, axis=1, keepdims=True),
                        random_unit(100, seed=5), np.eye(3)])
    got = mesh.nearest_vertex(points, q, 0.25)
    dots = q @ points.T
    lowest = [np.flatnonzero(row == row.max())[0] for row in dots]
    assert np.array_equal(got, lowest)
    assert np.array_equal(got, _dense_nearest(points, q))


def test_nearest_vertex_retries_with_a_wider_cell(monkeypatch):
    # the warp squeezes the sphere into a cap of about 0.1 rad, so most
    # queries find no point within the first cell and retry until the
    # block holds the whole cap
    s = build_icosphere(3)
    ends = 0.1 * s.vertices + [0.0, 0.0, 1.0]
    ends /= np.linalg.norm(ends, axis=1, keepdims=True)
    passes = []
    grid = mesh._grid_nearest

    def counted(points, queries, cell):
        passes.append((cell, len(queries)))
        return grid(points, queries, cell)

    monkeypatch.setattr(mesh, "_grid_nearest", counted)
    got = mesh.nearest_vertex(ends, s.vertices, mesh.longest_edge(3))
    assert np.array_equal(got, _dense_nearest(ends, s.vertices))
    assert len(passes) > 2 and passes[1][1] < passes[0][1]
    assert passes[1][0] == 2 * passes[0][0]


def test_nearest_vertex_rejects_empty_and_non_finite():
    with pytest.raises(ValueError):
        mesh.nearest_vertex(np.empty((0, 3)), random_unit(3), 0.1)
    q = random_unit(3)
    q[1, 2] = np.nan
    with pytest.raises(ValueError):
        mesh.nearest_vertex(random_unit(5), q, 0.1)


def _gradient_vectors(order, values):
    """Tangent-frame gradient 2-vectors (V, 2, C): the one-ring stencil
    applied as ``metrics.smoothness_loss`` applies it."""
    gathered = values[build_icosphere(order).nbr_pad]  # (V, 7, C)
    return np.einsum("vds,vsc->vdc", gradient_coefficients(order), gathered)


def _gradient_magnitude(order, values):
    return np.sqrt((_gradient_vectors(order, values) ** 2).sum(axis=1))


class TestHexGradient:
    def test_constant_zero(self):
        g = _gradient_magnitude(3, np.full((642, 2), 4.0))
        assert np.abs(g).max() < 1e-12

    def test_z_field_magnitude(self):
        s = build_icosphere(4)
        g = _gradient_magnitude(4, s.vertices[:, 2:3])[:, 0]
        z = s.vertices[:, 2]
        away = np.abs(z) < 0.9
        expected = np.sqrt(1 - z[away] ** 2)
        rel = np.abs(g[away] - expected) / expected
        assert rel.max() < 0.05

    def test_one_hot_support(self):
        s = build_icosphere(2)
        vals = np.zeros((162, 1))
        vals[33] = 1.0
        g = _gradient_magnitude(2, vals)[:, 0]
        support = set(s.nbr_pad[33][s.nbr_mask[33]])
        for i in range(162):
            if i in support:
                assert g[i] > 0
            else:
                assert g[i] == 0

    def test_linearity_pre_magnitude(self):
        f = rng(7).standard_normal((162, 1))
        h = rng(8).standard_normal((162, 1))
        a, b = 1.7, -0.4
        gf = _gradient_vectors(2, f)
        gh = _gradient_vectors(2, h)
        gc = _gradient_vectors(2, a * f + b * h)
        assert np.abs(gc - (a * gf + b * gh)).max() < 1e-12

    def test_matches_the_per_vertex_solve(self):
        # the batched stencil does each vertex's arithmetic in the same
        # order, a pentagon's padded slot adding exact zeros: equal bits
        for order in range(4):
            s = build_icosphere(order)
            e1, e2 = mesh.tangent_basis(s.vertices)
            expect = np.zeros((s.n_vertices, 2, 7))
            for i in range(s.n_vertices):
                nb = s.nbr_pad[i, 1:][s.nbr_mask[i, 1:]]
                off = s.vertices[nb] - s.vertices[i]
                p = np.stack([off @ e1[i], off @ e2[i]], axis=1)
                w = np.linalg.solve(p.T @ p, p.T)
                expect[i, :, 1:1 + len(nb)] = w
                expect[i, :, 0] = -w.sum(axis=1)
            got = gradient_coefficients(order)
            assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))


class TestFileFormats:
    def test_ico_roundtrip(self, tmp_path):
        s = build_icosphere(2)
        path = tmp_path / "s.ico"
        mesh.write_ico(path, s)
        back = mesh.read_ico(path)
        assert back.order == 2
        assert np.array_equal(back.vertices, s.vertices)

    def test_sfm_roundtrip(self, tmp_path):
        vals = rng(9).standard_normal((42, 3))
        mask = rng(10).random(42) > 0.3
        path = tmp_path / "m.sfm"
        mesh.write_sfm(path, SphericalFeatureMap(1, vals, mask))
        back = mesh.read_sfm(path)
        assert back.sphere_order == 1
        assert np.array_equal(back.values, vals)
        assert np.array_equal(back.mask, mask)

    def test_block_writers_match_per_value_rows(self, tmp_path):
        # the writers format a whole block with one % operation; the bytes
        # must be those of formatting every value with its own f-string
        from spherereg import warp

        def rows(table, fmt=lambda x: f"{x:.17g}", head=""):
            return "".join(head + " ".join(fmt(x) for x in r) + "\n"
                           for r in table)

        edge = np.array([-0.0, 5e-324, 1e308, 0.1, -1e-300, 1.0 / 3.0])
        vals = np.resize(edge, (42, 2)) * np.resize([1.0, -1.0, 0.5], (42, 1))
        mask = rng(11).random(42) > 0.5
        for fmap in (SphericalFeatureMap(1, vals, mask),
                     SphericalFeatureMap(1, vals[:, :1])):
            path = tmp_path / "m.sfm"
            mesh.write_sfm(path, fmap)
            body = rows(fmap.values) if fmap.mask is None else "".join(
                " ".join([f"{x:.17g}" for x in r] + [f"{int(m)}"]) + "\n"
                for r, m in zip(fmap.values, fmap.mask))
            has_mask = int(fmap.mask is not None)
            assert path.read_text() == \
                f"SFM1 1 42 {fmap.channels} {has_mask}\n" + body
        field = warp.DeformationField(1, np.resize(edge, (42, 3)))
        path = tmp_path / "w.def"
        warp.write_def(path, field)
        assert path.read_text() == "DEF1 1 42\n" + rows(field.endpoints)
        s = build_icosphere(1)
        path = tmp_path / "s.ico"
        mesh.write_ico(path, s)
        assert path.read_text() == "ICO1 1 42 80\n" + \
            rows(s.vertices, head="v ") + rows(s.faces, str, head="f ")

    def test_sfm_bad_header(self, tmp_path):
        path = tmp_path / "bad.sfm"
        path.write_text("SFM1 1 41 1 0\n")
        with pytest.raises(ValueError):
            mesh.read_sfm(path)

    @pytest.mark.parametrize("text, line", [
        ("SFM1 one 42 1 0\n", 1),
        ("SFM1 0 12 1 0\n" + "0.5\n" * 3 + "x\n" + "0.5\n" * 8, 5),
        ("SFM1 0 12 1 0\n" + "0.5\n" * 3 + "nan\n" + "0.5\n" * 8, 5),
        ("SFM1 0 12 1 0\n" + "0.5\n" * 11 + "-inf\n", 13),
        ("SFM1 0 12 1 1\n" + "0.5 1\n" * 11 + "0.5 y\n", 13),
    ])
    def test_sfm_malformed_names_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "bad.sfm"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"bad.sfm: line {line}:"):
            mesh.read_sfm(path)

    # line 7 of a 12-row, 2-column block, and what the file then reads as
    @pytest.mark.parametrize("line, result", [
        ("", "line 7: expected 2 columns"),
        ("   ", "line 7: expected 2 columns"),
        ("#", "line 7: expected 2 columns"),
        ("# 1", "line 7: could not convert string to float: '#'"),
        ("1_0 1", 10.0),
        ("0.5", "line 7: expected 2 columns"),
        ("0.5 1 7", "line 7: expected 2 columns"),
        ("nan 1", "line 7: value is not finite"),
        ("0.5 inf", "line 7: value is not finite"),
        (None, "line 9: expected 2 columns"),
    ])
    def test_sfm_rows_read_as_float_reads_them(self, tmp_path, line, result):
        # the block is parsed in one call; where that call fails or skips
        # a line, each line is read through ``float``, which names the bad
        # line (a file that ends after seven rows for None) or reads the
        # text that ``float`` accepts
        rows = ["%r 1" % (0.1 * k) for k in range(12)]
        rows = rows[:7] if line is None else rows[:5] + [line] + rows[6:]
        path = tmp_path / "bad.sfm"
        path.write_text("SFM1 0 12 1 1\n" + "\n".join(rows) + "\n")
        if isinstance(result, str):
            with pytest.raises(ValueError) as err:
                mesh.read_sfm(path)
            assert str(err.value) == f"{path}: {result}"
        else:
            assert mesh.read_sfm(path).values[5, 0] == result

    def test_sfm_rows_parse_bitwise_as_float(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(3))
        vals = np.concatenate([rng.standard_normal(5000),
                               np.exp(rng.uniform(-700, 700, 5000)),
                               [0.0, -0.0, 5e-324, 1.7976931348623157e308]])
        vals = np.resize(vals, (vertex_count(4), 3))
        texts = [" ".join(f"{x:.17g}" for x in r) for r in vals[:1000]] + \
            [" ".join(repr(float(x)) for x in r) for r in vals[1000:]]
        path = tmp_path / "v.sfm"
        path.write_text(f"SFM1 4 {len(vals)} 3 0\n" + "\n".join(texts))
        expect = [[float(x) for x in t.split()] for t in texts]
        got = mesh.read_sfm(path).values
        assert np.array_equal(got.view(np.int64),
                              np.array(expect).view(np.int64))
