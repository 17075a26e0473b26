"""Icosphere meshes and the geometric primitives built on them.

Everything in the registration engine lives on subdivided icosahedra
projected to the unit sphere.  This module constructs those meshes with a
deterministic vertex ordering (parent vertices first, then edge midpoints
in sorted parent-edge order), which makes resolution transfers pure index
operations, and provides feature upsampling, max pooling, barycentric
point location / interpolation, the one-ring least-squares gradient
stencil that the smoothness penalty applies, and the text file formats
for spheres and feature maps.

There is one face search, ``locate_warped_faces``: it finds the face
containing each query on a warped copy of the icosphere, and on the
icosphere itself as the identity warp (``barycentric_map``, and through
it composition and the coarse-to-fine transfer maps).  It seeds its
candidate faces from ``nearest_vertex``, which finds the point with the
largest dot product per query on a uniform grid in near-linear time and
memory, and scores them through ``best_face``, the one point-in-triangle
test, against each face's edge normals (``face_normals``), three (3, F)
component rows formed once per call.  ``PAIR_BUDGET`` bounds the pairs
that the grid search and the last, exhaustive tier score at once.  Given
a hint, a known face per query, it walks instead of searching: a query
keeps its hinted face, or else the first face it reaches by stepping
across the edge facing its smallest weight, when the face holds it
strictly inside, which is the search's own answer whenever the warped
faces cannot overlap; only the rest are searched.  Resampling and
composition always give one: the faces of the previous refinement step,
or else a face of the vertex each query moved from (its face under the
identity warp).

There is one barycentric arithmetic: a face's weights are the triple
products of the query with its edge normals (``triple_products``), dot
products of (3, N) component rows.  The walk and the search both gather
the normal rows of the faces they score, so they share its bits.
Location returns the weights with the faces, so a resampling forms none
of its own and ``barycentric_map`` only normalizes them.  Every table of
an icosphere is built from sorted integer keys.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from itertools import islice

import numpy as np

MAX_ORDER = 8


def vertex_count(order: int) -> int:
    """Number of vertices of an icosphere at the given subdivision order."""
    return 10 * 4**order + 2


def face_count(order: int) -> int:
    return 20 * 4**order


@dataclass(frozen=True)
class Icosphere:
    """Immutable subdivided icosahedron projected onto the unit sphere.

    ``midpoint_edges[i]`` gives the two parent vertices of vertex
    ``n_parent + i`` (empty at order 0).  ``nbr_pad`` is the one
    neighbour table, (V, 7): column 0 is the vertex itself, columns 1..
    hold its one-ring in ascending index order, padded by repeating the
    vertex itself; ``nbr_mask`` marks real entries.  ``nbr_rev`` is the
    reverse ring table, (7, V): row k gives one flat ``nbr_pad`` slot
    holding each vertex, and every vertex fills seven slots (its own, one
    in each neighbour's ring, and a pentagon's padding, which repeats the
    center), listed in ascending slot order.  ``ring_sum`` gathers over it
    to take a ring gather back.  ``vertex_faces`` is (V, 6): each vertex's
    faces in ascending order, padded with -1.  ``face_across`` is (F, 3):
    the face across the edge opposite each corner.
    """

    order: int
    vertices: np.ndarray
    faces: np.ndarray
    midpoint_edges: np.ndarray
    nbr_pad: np.ndarray = field(repr=False)
    nbr_mask: np.ndarray = field(repr=False)
    nbr_rev: np.ndarray = field(repr=False)
    vertex_faces: np.ndarray = field(repr=False)
    face_across: np.ndarray = field(repr=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    def ring_sum(self, slots: np.ndarray) -> np.ndarray:
        """The transpose of the ring gather ``np.take(x, nbr_pad,
        axis=0)``: the (V, 7, ...) slot values summed into the rows of the
        vertices they were gathered from, as a (V, columns) array.  Each
        row adds its seven slots in ascending slot order, as
        ``autodiff.scatter_rows`` does, but as seven row gathers over
        ``nbr_rev`` instead of one ``bincount`` per column."""
        flat = np.reshape(slots, (self.n_vertices * 7, -1))
        out = np.take(flat, self.nbr_rev[0], axis=0)
        for slot in self.nbr_rev[1:]:
            out += np.take(flat, slot, axis=0)
        return out


def _base_icosahedron():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    # Outward (counter-clockwise seen from outside) orientation for every face.
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    det = np.einsum("ij,ij->i", a, np.cross(b, c))
    flip = det < 0
    faces[flip, 1], faces[flip, 2] = faces[flip, 2].copy(), faces[flip, 1].copy()
    return verts, faces


def _subdivide(vertices: np.ndarray, faces: np.ndarray):
    n_old = vertices.shape[0]
    pairs = np.sort(np.concatenate(
        [faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]), axis=1)
    # integer keys sort as the (min, max) edges do, lexicographically
    keys, inverse = np.unique(pairs[:, 0] * n_old + pairs[:, 1],
                              return_inverse=True)
    edges = np.stack(np.divmod(keys, n_old), axis=1)
    mids = vertices[edges[:, 0]] + vertices[edges[:, 1]]
    mids /= np.linalg.norm(mids, axis=1, keepdims=True)
    new_vertices = np.concatenate([vertices, mids], axis=0)
    a, b, c = faces.T
    ab, bc, ca = (n_old + inverse).reshape(3, -1)
    new_faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca],
                         axis=1).reshape(-1, 3)
    return new_vertices, new_faces, edges


@lru_cache(maxsize=None)
def build_icosphere(order: int) -> Icosphere:
    """Construct the icosphere at the given order (0..8).

    Vertex ordering is hierarchical: the first ``vertex_count(order - 1)``
    vertices coincide with the next-coarser sphere's vertices.  Built once
    per order; its tables are read-only because every caller shares them.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"icosphere order must be in [0, {MAX_ORDER}], got {order}")
    if order == 0:
        vertices, faces = _base_icosahedron()
        midpoint_edges = np.empty((0, 2), dtype=np.int64)
    else:
        parent = build_icosphere(order - 1)
        vertices, faces, midpoint_edges = _subdivide(parent.vertices, parent.faces)

    n = vertices.shape[0]
    # each directed edge (i, j) of a face, keyed i * n + j: the sorted
    # unique keys list every vertex's neighbours in ascending order, and
    # searchsorted finds where each vertex's run starts
    tails = faces[:, [0, 0, 1, 1, 2, 2]].ravel()
    heads = faces[:, [1, 2, 0, 2, 0, 1]].ravel()
    rows, nbrs = np.divmod(np.unique(tails * n + heads), n)
    slot = 1 + np.arange(len(rows)) - np.searchsorted(rows, rows)
    nbr_pad = np.tile(np.arange(n, dtype=np.int64)[:, None], (1, 7))
    nbr_pad[rows, slot] = nbrs
    nbr_mask = np.zeros((n, 7), dtype=bool)
    nbr_mask[:, 0] = True
    nbr_mask[rows, slot] = True
    nbr_rev = np.ascontiguousarray(
        np.argsort(nbr_pad.ravel(), kind="stable").reshape(-1, 7).T)

    # a stable sort of the corners by vertex keeps each vertex's faces in
    # ascending order
    corners = faces.ravel()
    by_vertex = np.argsort(corners, kind="stable")
    owner = corners[by_vertex]
    vertex_faces = np.full((n, 6), -1, dtype=np.int64)
    vertex_faces[owner, np.arange(len(owner))
                 - np.searchsorted(owner, owner)] = by_vertex // 3

    # the edge opposite corner k of face f, keyed like the directed edges
    # above: its two (face, corner) slots 3 f + k sort next to each other
    u, v = faces[:, [1, 2, 0]].ravel(), faces[:, [2, 0, 1]].ravel()
    pairs = np.argsort(np.minimum(u, v) * n + np.maximum(u, v),
                       kind="stable").reshape(-1, 2)
    face_across = np.empty(len(u), dtype=np.int64)
    face_across[pairs[:, 0]] = pairs[:, 1] // 3
    face_across[pairs[:, 1]] = pairs[:, 0] // 3
    face_across = face_across.reshape(-1, 3)

    for table in (vertices, faces, midpoint_edges, nbr_pad, nbr_mask,
                  nbr_rev, vertex_faces, face_across):
        table.setflags(write=False)
    return Icosphere(
        order=order,
        vertices=vertices,
        faces=faces,
        midpoint_edges=midpoint_edges,
        nbr_pad=nbr_pad,
        nbr_mask=nbr_mask,
        nbr_rev=nbr_rev,
        vertex_faces=vertex_faces,
        face_across=face_across,
    )


@dataclass
class SphericalFeatureMap:
    """Per-vertex multi-channel feature values on an icosphere.

    ``mask`` is True for valid vertices; masked-out vertices still take part
    in geometry operations but are excluded from losses and metrics.
    """

    sphere_order: int
    values: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        expected = vertex_count(self.sphere_order)
        if self.values.shape[0] != expected:
            raise ValueError(
                f"feature map has {self.values.shape[0]} rows, "
                f"order {self.sphere_order} needs {expected}"
            )
        if self.mask is not None:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != (expected,):
                raise ValueError("mask length does not match vertex count")

    @property
    def channels(self) -> int:
        return self.values.shape[1]

    def valid_mask(self) -> np.ndarray:
        if self.mask is None:
            return np.ones(self.values.shape[0], dtype=bool)
        return self.mask


def upsample_features(fmap: SphericalFeatureMap) -> SphericalFeatureMap:
    """Lift to the next-finer order; each new edge-midpoint vertex takes the
    mean of its two parent edge endpoints."""
    if fmap.sphere_order >= MAX_ORDER:
        raise ValueError(f"cannot upsample beyond order {MAX_ORDER}")
    fine = build_icosphere(fmap.sphere_order + 1)
    edges = fine.midpoint_edges
    new_vals = 0.5 * (fmap.values[edges[:, 0]] + fmap.values[edges[:, 1]])
    values = np.concatenate([fmap.values, new_vals], axis=0)
    mask = None
    if fmap.mask is not None:
        mask = np.concatenate(
            [fmap.mask, fmap.mask[edges[:, 0]] & fmap.mask[edges[:, 1]]]
        )
    return SphericalFeatureMap(fmap.sphere_order + 1, values, mask)


def pool_features(fmap: SphericalFeatureMap) -> SphericalFeatureMap:
    """Max-pool {vertex} ∪ one-ring on the input sphere, then keep the
    coarse rows."""
    if fmap.sphere_order < 1:
        raise ValueError("cannot pool an order-0 feature map")
    sphere = build_icosphere(fmap.sphere_order)
    gathered = fmap.values[sphere.nbr_pad]  # (V, 7, C)
    gathered = np.where(sphere.nbr_mask[:, :, None], gathered, -np.inf)
    pooled = gathered.max(axis=1)
    n_out = vertex_count(fmap.sphere_order - 1)
    mask = None if fmap.mask is None else fmap.mask[:n_out]
    return SphericalFeatureMap(fmap.sphere_order - 1, pooled[:n_out], mask)


@dataclass(frozen=True)
class BarycentricMap:
    """Per-query (face index, three nonnegative weights summing to one)."""

    source_order: int
    face_index: np.ndarray
    weights: np.ndarray


def cross_rows(u, v):
    """Cross products of (3, N) component rows, as (3, N) rows."""
    return np.stack([u[1] * v[2] - u[2] * v[1],
                     u[2] * v[0] - u[0] * v[2],
                     u[0] * v[1] - u[1] * v[0]])


def _dot_rows(u, v):
    """Dot products of (3, N) component rows, as column adds in order."""
    p = u * v
    return p[0] + p[1] + p[2]


def corner_rows(rows, corners):
    """The corners (a, b, c) of faces, as three (3, N) component rows, from
    the vertices' (3, V) ``rows`` and an (N, 3) table of corner indices."""
    return [np.take(rows, corners[:, k], axis=1) for k in range(3)]


def face_normals(a, b, c):
    """The edge normals ``b x c, c x a, a x b`` of faces (a, b, c) given as
    (3, N) corner rows, as three (3, N) rows: the triple product of a point
    with normal ``i`` is its unnormalized barycentric weight on corner
    ``i``."""
    return [cross_rows(b, c), cross_rows(c, a), cross_rows(a, b)]


def triple_products(queries, normals):
    """The triple products ``q . (b x c), q . (c x a), q . (a x b)`` of
    (3, N) query rows with the three (3, N) ``face_normals`` rows of each
    query's face (a, b, c): its unnormalized barycentric weights on
    corners a, b and c.  Normal rows gathered per face from a table of
    every face's give the bits of crossing gathered corner rows, because
    each product is formed element by element."""
    return [_dot_rows(queries, n) for n in normals]


def best_face(normals, queries: np.ndarray, cand: np.ndarray):
    """Per unit query, the candidate face that best contains it.

    ``normals`` is the three (3, F) rows of ``face_normals`` of every face.
    ``cand`` is a table of candidate faces padded with -1 that broadcasts
    against the (N,) queries: (N, K), or (1, F) to score every face
    without a copy per pair.  A face's unnormalized weights are the triple
    products of the query with its three edge normals, the bits of
    ``triple_products``; its score is the smallest weight over their sum,
    positive iff the query's gnomonic projection lies inside the face, and
    -inf on the far side (sum <= 1e-12) and for padding.  Ties go to the
    earliest candidate.

    Returns (face, score, w): per query the best face, its score and its
    unnormalized weights, three (N,) arrays.
    """
    q = queries.T[:, :, None]
    # np.take gathers several times faster than fancy indexing; padding
    # reads the last face, which the score then masks
    w = triple_products(q, [np.take(n, cand, axis=1) for n in normals])
    score = np.where(cand >= 0, _score(*w), -np.inf)
    pick = np.argmax(score, axis=1)
    rows = np.arange(len(queries))
    return (np.broadcast_to(cand, score.shape)[rows, pick], score[rows, pick],
            [wk[rows, pick] for wk in w])


def _score(w0, w1, w2):
    """The score of unnormalized weights in a face: the smallest over
    their sum, and -inf on the far side (sum <= 1e-12)."""
    s = w0 + w1 + w2
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.minimum(np.minimum(w0, w1), w2) / s
    return np.where(s > 1e-12, score, -np.inf)


# (query, point) or (query, face) pairs scored at once, by the grid search
# of ``nearest_vertex`` and by the exhaustive sweep of ``_search_faces``
PAIR_BUDGET = 1 << 18


@lru_cache(maxsize=None)
def longest_edge(order: int) -> float:
    """Longest edge chord of the order's icosphere."""
    sphere = build_icosphere(order)
    corners = sphere.vertices[sphere.faces]
    return float(np.linalg.norm(
        corners - np.roll(corners, 1, axis=1), axis=2).max())


def nearest_vertex(points: np.ndarray, queries: np.ndarray,
                   cell: float) -> np.ndarray:
    """Per unit query, the unit point with the largest dot product, ties to
    the lowest index: ``np.argmax(queries @ points.T, axis=1)`` without the
    (N, V) product.  Where two dot products lie within rounding of each
    other the dense product's pick depends on its BLAS kernel, and this
    one on its own arithmetic.

    The points are hashed into a grid of cubes of side ``cell``, and each
    query scores the points in its 3x3x3 block of cubes (Bentley, Stanat &
    Williams 1977).  Every point outside the block is farther than
    ``cell``, so a query whose best point is nearer than that is done; the
    rest retry with the cell doubled, and from a cell of 2 on one cube
    holds every point.  Any positive ``cell`` gives the same answer; about
    the point spacing, time and memory are near-linear in the point and
    query counts.
    """
    if not (np.isfinite(points).all() and np.isfinite(queries).all()):
        raise ValueError("nearest_vertex needs finite points and queries")
    if len(points) == 0:
        raise ValueError("nearest_vertex needs at least one point")
    nearest = np.empty(len(queries), dtype=np.int64)
    todo = np.arange(len(queries))
    while len(todo):
        if cell >= 2.0:
            cell = np.inf  # every finite coordinate falls in cube 0
        done, found = _grid_nearest(points, queries[todo], cell)
        nearest[todo[done]] = found
        todo = todo[~done]
        cell *= 2.0
    return nearest


def _grid_nearest(points, queries, cell):
    """One grid pass of ``nearest_vertex``: a mask of the queries it
    settles, and their nearest points."""
    pg = np.floor(points / cell).astype(np.int64)
    qg = np.floor(queries / cell).astype(np.int64)
    lo = np.minimum(pg.min(axis=0), qg.min(axis=0)) - 1
    ny, nz = np.maximum(pg.max(axis=0), qg.max(axis=0))[1:] - lo[1:] + 2
    pkey = ((pg[:, 0] - lo[0]) * ny + pg[:, 1] - lo[1]) * nz + pg[:, 2] - lo[2]
    qkey = ((qg[:, 0] - lo[0]) * ny + qg[:, 1] - lo[1]) * nz + qg[:, 2] - lo[2]
    order = np.argsort(pkey, kind="stable")
    pkey = pkey[order]
    # queries in key order make each column's searches ascending, which
    # searchsorted exploits, and keep a chunk's points close in memory
    qorder = np.argsort(qkey, kind="stable")
    # the block's 3x3 columns are runs of three cubes along z, contiguous in
    # key order
    dx, dy = np.divmod(np.arange(9), 3)
    first = qkey[qorder] + (((dx - 1) * ny + dy - 1) * nz - 1)[:, None]
    start = np.searchsorted(pkey, first).T
    stop = np.searchsorted(pkey, first + 3).T
    ends = np.cumsum((stop - start).sum(axis=1))
    cuts = np.searchsorted(ends, np.arange(PAIR_BUDGET, ends[-1], PAIR_BUDGET))
    cuts = np.unique(np.concatenate([[0], cuts, [len(queries)]]))
    found = np.empty(len(queries), dtype=np.int64)
    found[qorder] = np.concatenate([
        _block_nearest(points, order, queries[qorder[a:b]], start[a:b],
                       stop[a:b])
        for a, b in zip(cuts[:-1], cuts[1:])])
    done = found >= 0
    gap = queries[done] - points[found[done]]
    # the margin outweighs rounding in the dot products and point norms
    done[done] = np.einsum("ij,ij->i", gap, gap) < cell * cell - 1e-12
    return done, found[done]


def _block_nearest(points, order, queries, start, stop):
    """Per query, its best point among ``order[start:stop]`` over the
    columns of its block; -1 where the block is empty."""
    counts = (stop - start).ravel()
    per_query = counts.reshape(len(queries), -1).sum(axis=1)
    pos = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts
                                              - start.ravel(), counts)
    cand = order[pos]
    # np.take gathers rows several times faster than fancy indexing
    dots = np.einsum("ij,ij->i", np.repeat(queries, per_query, axis=0),
                     np.take(points, cand, axis=0))
    found = np.full(len(queries), -1, dtype=np.int64)
    has = per_query > 0
    if has.any():
        seg = (np.cumsum(per_query) - per_query)[has]
        best = np.repeat(np.maximum.reduceat(dots, seg), per_query[has])
        found[has] = np.minimum.reduceat(
            np.where(dots == best, cand, len(points)), seg)
    return found


# score that settles a query in a hinted or walked face: it need only
# clear the search's 1e-9 tolerance by a rounding and face-shape cushion,
# and a larger one sends more queries near a warped edge to the search
HINT_MARGIN = 1e-7
# faces a walk visits past the hinted one before a search: on the
# benchmark's calls 16 steps send at most 5 of 10,242 queries of a walk
# from the identity faces to the search, and 8 steps up to 669
WALK_STEPS = 16


def locate_warped_faces(endpoints: np.ndarray, sphere: Icosphere,
                        queries: np.ndarray,
                        hint: np.ndarray | None = None):
    """Per unit query, the face of the sphere's mesh that contains it once
    the vertices move to ``endpoints``; ``sphere.vertices`` locates on the
    sphere itself (the identity warp).

    Candidates come from the one- then two-ring of the nearest endpoint
    (``nearest_vertex`` on a grid of the sphere's longest edge), with an
    exhaustive sweep, ``PAIR_BUDGET`` pairs at a time, for any stragglers,
    so the result is deterministic even when the warp slightly shears the
    mesh.  A query on a shared edge or corner goes to the earliest
    candidate face that holds it.  Time and memory are near-linear in the
    vertex count for warps that keep neighbours near each other.

    ``hint`` is an optional guess of one face per query, such as the faces
    of a nearby earlier warp or the identity warp's face of the vertex a
    query moved from, where a walk starts (Devillers, Pion & Teillaud
    2002).  It never changes the answer.  When the warped faces cover the
    sphere exactly once (``_covers_once``) no two of them overlap, so a
    query that scores above ``HINT_MARGIN`` in a face lies in no other
    face, and that face is the search's answer.  A query keeps its hinted
    face when it scores so there; otherwise it walks, up to
    ``WALK_STEPS`` faces, each across the edge opposite the corner of its
    smallest weight (a visibility walk), and keeps the first face it
    scores so in.  Each face is scored by its ``triple_products`` with the
    query, dots with the call's normal rows gathered at that face.  The
    queries left, and every query of a warp that folds, take the search
    above; only the search scores candidates with ``best_face``.

    Returns the faces and each query's ``triple_products`` in its face,
    three (N,) arrays: its unnormalized barycentric weights, formed once
    per query and face.
    """
    rows = np.ascontiguousarray(endpoints.T)
    corners = corner_rows(rows, sphere.faces)
    normals = face_normals(*corners)
    if hint is None or not _covers_once(corners, normals[0]):
        return _search_faces(endpoints, sphere, normals, queries)
    q = np.ascontiguousarray(queries.T)

    def weights(faces, cols=slice(None)):
        # the normal rows of the given faces, dotted with query columns
        return triple_products(q[:, cols], [np.take(n, faces, axis=1)
                                            for n in normals])

    faces = np.array(hint, dtype=np.int64)
    w = weights(faces)
    walk = np.nonzero(_score(*w) <= HINT_MARGIN)[0]
    at, walk_w = faces[walk], [wk[walk] for wk in w]
    for _ in range(WALK_STEPS):
        if not len(walk):
            break
        at = sphere.face_across[at, np.argmin(walk_w, axis=0)]
        walk_w = weights(at, walk)
        inside = _score(*walk_w) > HINT_MARGIN
        faces[walk[inside]] = at[inside]
        for wk, new in zip(w, walk_w):
            wk[walk[inside]] = new[inside]
        walk, at = walk[~inside], at[~inside]
        walk_w = [wk[~inside] for wk in walk_w]
    if len(walk):
        faces[walk], found_w = _search_faces(endpoints, sphere, normals,
                                             queries[walk])
        for wk, new in zip(w, found_w):
            wk[walk] = new
    return faces, w


def _covers_once(corners, normals_a) -> bool:
    """Whether every face, its unit ``corners`` (a, b, c) and edge normal
    ``b x c`` given as (3, F) rows, is positively oriented and their solid
    angles sum to one sphere (4 pi, not 8 pi or more): then the piecewise
    map covers the sphere once, and the faces do not overlap."""
    a, b, c = corners
    det = (a * normals_a).sum(axis=0)  # a . (b x c)
    if not (det > 0).all():
        return False
    # tan(omega / 2) = det / (1 + a.b + b.c + c.a), Van Oosterom &
    # Strackee 1983
    cos = 1.0 + (a * b).sum(axis=0) + (b * c).sum(axis=0) \
        + (c * a).sum(axis=0)
    return 2.0 * np.arctan2(det, cos).sum() < 6.0 * np.pi


def _search_faces(endpoints, sphere, normals, queries):
    """``locate_warped_faces`` without a hint: ring 1 and ring 2 of the
    nearest endpoint, then every face.  Returns the faces and their
    weights, as ``locate_warped_faces`` does."""
    nearest = nearest_vertex(endpoints, queries, longest_edge(sphere.order))
    faces, score, w = best_face(normals, queries,
                                sphere.vertex_faces[nearest])

    def rescore(picked, cand):
        faces[picked], score[picked], found_w = best_face(
            normals, queries[picked], cand)
        for wk, new in zip(w, found_w):
            wk[picked] = new

    missing = np.nonzero(score < -1e-9)[0]
    if len(missing):
        ring2 = sphere.vertex_faces[sphere.nbr_pad[nearest[missing]]]
        rescore(missing, ring2.reshape(len(missing), -1))
        missing = missing[score[missing] < -1e-9]
        # every face, for a budget's worth of queries at a time
        step = max(1, PAIR_BUDGET // sphere.n_faces)
        for start in range(0, len(missing), step):
            rescore(missing[start:start + step],
                    np.arange(sphere.n_faces)[None])
    return faces, w


def barycentric_map(sphere: Icosphere, queries: np.ndarray,
                    hint: np.ndarray | None = None) -> BarycentricMap:
    """Locate unit query points on the sphere and compute their barycentric
    weights in the containing face: the weights ``locate_warped_faces``
    returns, clipped at zero and normalized to sum to one.  ``hint``, a
    face per query where the walk starts, is passed on and does not
    change the result."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim == 1:
        queries = queries[None, :]
    norms = np.linalg.norm(queries, axis=1)
    if np.any(norms < 1e-12):
        raise ValueError("degenerate (zero) query point")
    queries = queries / norms[:, None]
    faces, w = locate_warped_faces(sphere.vertices, sphere, queries, hint)
    w = np.clip(np.stack(w, axis=1), 0.0, None)
    w /= w.sum(axis=1, keepdims=True)
    return BarycentricMap(sphere.order, faces, w)


def interpolate(bmap: BarycentricMap, fmap: SphericalFeatureMap) -> np.ndarray:
    """Barycentric interpolation of feature rows at the map's query points."""
    if fmap.sphere_order != bmap.source_order:
        raise ValueError("barycentric map was built for a different sphere order")
    sphere = build_icosphere(bmap.source_order)
    if bmap.face_index.max(initial=-1) >= sphere.n_faces:
        raise ValueError("barycentric map references a face outside the mesh")
    corners = fmap.values[sphere.faces[bmap.face_index]]  # (N, 3, C)
    return np.einsum("nk,nkc->nc", bmap.weights, corners)


def tangent_basis(vertices: np.ndarray):
    """A deterministic orthonormal tangent frame (e1, e2) at each unit vertex."""
    n = vertices
    ref = np.where(
        np.abs(n[:, 2:3]) < 0.9,
        np.tile(np.array([0.0, 0.0, 1.0]), (len(n), 1)),
        np.tile(np.array([1.0, 0.0, 0.0]), (len(n), 1)),
    )
    e1 = ref - np.einsum("ij,ij->i", ref, n)[:, None] * n
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(n, e1)
    return e1, e2


@lru_cache(maxsize=None)
def gradient_coefficients(order: int) -> np.ndarray:
    """Per-vertex linear stencil turning one-ring feature values into the
    least-squares tangent-plane gradient.

    Returns (V, 2, 7) coefficients aligned with ``Icosphere.nbr_pad``:
    applying them to gathered values gives the 2-vector gradient in the
    vertex's tangent frame.  Slot 0 (the vertex itself) carries minus the
    sum of the neighbor coefficients, so constants map to zero exactly.
    Built once per order; read-only because every caller shares it.
    """
    sphere = build_icosphere(order)
    e1, e2 = tangent_basis(sphere.vertices)
    # a pentagon's padded slot repeats the center: a zero offset, which
    # adds nothing to the normal equations and gets a zero coefficient
    off = sphere.vertices[sphere.nbr_pad[:, 1:]] \
        - sphere.vertices[:, None, :]  # (V, 6, 3)
    p = np.concatenate([off @ e1[:, :, None], off @ e2[:, :, None]],
                       axis=2)  # (V, 6, 2)
    pt = p.transpose(0, 2, 1)
    w = np.linalg.solve(pt @ p, pt)  # (V, 2, 6)
    coeffs = np.concatenate([-w.sum(axis=2, keepdims=True), w], axis=2)
    coeffs.setflags(write=False)
    return coeffs


def text_reader(read):
    """Decorate ``read(path, ...)``, a reader of a text file, so that a
    file that is not UTF-8 raises ValueError naming ``path``."""
    @wraps(read)
    def reader(path, *args):
        try:
            return read(path, *args)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return reader


def format_rows(row: str, table: np.ndarray) -> str:
    """Every row of the 2-D ``table`` through the %-format ``row``, as one
    ``%`` operation over the whole block (``%.17g`` writes a float as
    ``f"{x:.17g}"`` does)."""
    return (row * len(table)) % tuple(np.ravel(table).tolist())


def write_ico(path, sphere: Icosphere) -> None:
    with open(path, "w") as fh:
        fh.write(f"ICO1 {sphere.order} {sphere.n_vertices} {sphere.n_faces}\n")
        fh.write(format_rows("v %.17g %.17g %.17g\n", sphere.vertices))
        fh.write(format_rows("f %d %d %d\n", sphere.faces))


@text_reader
def read_ico(path) -> Icosphere:
    """Read an ICO1 file and return the matching constructed icosphere.

    The file must describe an icosphere this library generates; the stored
    vertices are checked against the reconstruction and the faces must
    equal it exactly.  A malformed or short row, or a face that differs,
    raises ValueError naming the file and line.
    """
    with open(path) as fh:
        order, nv, nf = read_header(fh, path, "ICO1", 3)
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"{path}: line 1: order {order} is out of range")
        sphere = build_icosphere(order)
        if nv != sphere.n_vertices or nf != sphere.n_faces:
            raise ValueError(f"{path}: vertex/face counts do not match order {order}")
        verts = _parse_rows(fh, path, nv, 3, "v")
        faces = _parse_rows(fh, path, nf, 3, "f", nv + 2)
    if not np.allclose(verts, sphere.vertices, atol=1e-9):
        raise ValueError(f"{path}: vertices differ from the canonical icosphere")
    bad = (faces != sphere.faces).any(axis=1)
    if bad.any():
        raise ValueError(f"{path}: line {int(np.argmax(bad)) + nv + 2}: "
                         "face differs from the canonical icosphere")
    return sphere


def write_sfm(path, fmap: SphericalFeatureMap) -> None:
    has_mask = 1 if fmap.mask is not None else 0
    n, c = fmap.values.shape
    # the mask column joins the float block as 0.0 / 1.0, which %d writes
    # as 0 / 1
    table = np.column_stack([fmap.values] + [fmap.mask] * has_mask)
    row = " ".join(["%.17g"] * c + ["%d"] * has_mask) + "\n"
    with open(path, "w") as fh:
        fh.write(f"SFM1 {fmap.sphere_order} {n} {c} {has_mask}\n")
        fh.write(format_rows(row, table))


def read_header(fh, path, tag: str, n_ints: int) -> list:
    """The ``n_ints`` integers after ``tag`` on the first line of the open
    text file ``fh``; anything else raises ValueError naming ``path``."""
    parts = fh.readline().split()
    try:
        if len(parts) != n_ints + 1 or parts[0] != tag:
            raise ValueError
        return [int(x) for x in parts[1:]]
    except ValueError:
        raise ValueError(f"{path}: line 1: not a {tag} file") from None


def read_rows(fh, path, n: int, width: int) -> np.ndarray:
    """The next ``n`` lines of ``fh``, the lines after a header, as an
    (n, width) array of finite floats.  A short, malformed or non-finite
    row raises ValueError naming ``path`` and the line.

    ``np.loadtxt`` parses the block in one call.  It skips blank lines and
    rejects some text that ``float`` reads (``1_0``), so where it fails or
    returns too few rows the lines are read again one by one, which names
    the bad line or reads what ``float`` accepts."""
    start = fh.tell()
    try:
        # readline, not iteration, keeps ``tell`` and ``seek`` working; an
        # empty block warns before the lines are read again
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(islice(iter(fh.readline, ""), n),
                              comments=None, ndmin=2)
    except ValueError:
        rows = None
    if rows is None or rows.shape != (n, width):
        fh.seek(start)
        rows = _parse_rows(fh, path, n, width)
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise ValueError(f"{path}: line {int(np.argmax(bad)) + 2}: "
                         "value is not finite")
    return rows


def _parse_rows(fh, path, n, width, tag="", first=2):
    """``read_rows`` line by line, through ``float``; with a ``tag``, each
    line starts with it.  ``first`` is the file line of the first row."""
    head = [tag] if tag else []
    expected = f"expected {width} columns" + (f" after '{tag}'" if tag else "")
    rows = np.empty((n, width))
    for i in range(n):
        parts = fh.readline().split()
        try:
            if len(parts) != len(head) + width or parts[:len(head)] != head:
                raise ValueError(expected)
            rows[i] = [float(x) for x in parts[len(head):]]
        except ValueError as exc:
            raise ValueError(f"{path}: line {first + i}: {exc}") from None
    return rows


@text_reader
def read_sfm(path) -> SphericalFeatureMap:
    """Read an SFM1 feature map.  A malformed header or row, or a value
    that is not finite, raises ValueError naming the file and line."""
    with open(path) as fh:
        order, n, c, has_mask = read_header(fh, path, "SFM1", 4)
        if n != vertex_count(order):
            raise ValueError(f"{path}: line 1: vertex count does not match order")
        if c < 1 or has_mask not in (0, 1):
            raise ValueError(f"{path}: line 1: bad channel count or mask flag")
        rows = read_rows(fh, path, n, c + has_mask)
    mask = rows[:, c] != 0 if has_mask else None
    return SphericalFeatureMap(order, np.ascontiguousarray(rows[:, :c]), mask)
