"""The discrete deformation alphabet and everything that moves features
around the sphere: per-control-point candidate endpoints, probability-
weighted deformation, barycentric upsampling of control displacements, and
resampling of moving features through a warped vertex cloud.  Warped-face
location is ``mesh.locate_warped_faces``, the one face search, re-exported
here."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .mesh import (
    Icosphere,
    SphericalFeatureMap,
    barycentric_map,
    build_icosphere,
    cross_rows,
    format_rows,
    interpolate,
    locate_warped_faces,
    read_header,
    read_rows,
    text_reader,
    vertex_count,
)

DEGENERATE_NORM = 1e-6


@dataclass(frozen=True)
class ControlGrid:
    control_order: int
    points: np.ndarray  # (N_c, 3) unit vectors


def control_grid(order: int) -> ControlGrid:
    return ControlGrid(order, build_icosphere(order).vertices)


@dataclass(frozen=True, eq=False)
class LabelSpace:
    """Ordered candidate endpoints per control point, nearest first.
    Compared and hashed by identity, so that it can key a cache."""

    control_order: int
    label_order: int
    n_labels: int
    endpoints: np.ndarray  # (N_c, N_l, 3)


def build_label_space(control: ControlGrid, label_order: int,
                      n_labels: int) -> LabelSpace:
    """The geodesically nearest ``n_labels`` label-sphere vertices per
    control point, ties broken by vertex index.  Built once per
    (control order, label order, label count); the endpoints are
    read-only because every caller shares them."""
    return _label_space(control.control_order, label_order, n_labels)


@lru_cache(maxsize=None)
def _label_space(control_order: int, label_order: int,
                 n_labels: int) -> LabelSpace:
    if label_order <= control_order:
        raise ValueError("label sphere must be finer than the control grid")
    label_sphere = build_icosphere(label_order)
    if n_labels > label_sphere.n_vertices:
        raise ValueError(
            f"{n_labels} labels requested but the order-{label_order} sphere "
            f"has {label_sphere.n_vertices} vertices"
        )
    dots = control_grid(control_order).points @ label_sphere.vertices.T
    dist = np.arccos(np.clip(dots, -1.0, 1.0))
    # stable argsort on (distance, index)
    order = np.argsort(dist, axis=1, kind="stable")[:, :n_labels]
    endpoints = label_sphere.vertices[order]
    endpoints.setflags(write=False)
    return LabelSpace(control_order, label_order, n_labels, endpoints)


@dataclass
class DeformationField:
    """Per-vertex unit endpoint of the deformation on an icosphere."""

    order: int
    endpoints: np.ndarray

    def __post_init__(self):
        self.endpoints = np.asarray(self.endpoints, dtype=np.float64)
        if self.endpoints.shape != (vertex_count(self.order), 3):
            raise ValueError("endpoint array does not match the sphere order")


def identity_field(order: int) -> DeformationField:
    return DeformationField(order, build_icosphere(order).vertices.copy())


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (N, 3) array, as (N, 1), summed
    by column adds in order."""
    sq = x * x
    return np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])[:, None]


def _unit_rows_vjp(g: np.ndarray, out: np.ndarray,
                   norm: np.ndarray) -> np.ndarray:
    """The gradient through ``out = x / norm``: the part of ``g``
    orthogonal to ``out``, over the norm."""
    p = g * out
    return (g - out * (p[:, 0] + p[:, 1] + p[:, 2])[:, None]) / norm


def soft_deform_tensor(labels: LabelSpace, q: Tensor) -> Tensor:
    """Probability-weighted label endpoints, renormalized to the sphere.

    Rows whose expectation nearly cancels fall back to the most probable
    label endpoint (constant w.r.t. the tape).  One tape node on ``q``.
    """
    expect = np.einsum("ik,ikd->id", q.value, labels.endpoints)
    norm = _row_norms(expect)
    ok = norm >= DEGENERATE_NORM
    if not ok.all():
        best = np.argmax(q.value, axis=1)
        fallback = labels.endpoints[np.arange(len(best)), best]
        expect = np.where(ok, expect, 0.0) + np.where(ok, 0.0, fallback)
        norm = _row_norms(expect)
    out = expect / norm

    def vjp(g):
        return (np.einsum("id,ikd->ik",
                          np.where(ok, _unit_rows_vjp(g, out, norm), 0.0),
                          labels.endpoints),)

    return Tensor(out, (q,), vjp, requires_grad=q.requires_grad)


@lru_cache(maxsize=None)
def _transfer_map(coarse_order: int, fine_order: int):
    """Barycentric map of the fine sphere's vertices on the coarse sphere;
    read-only because every caller shares it."""
    bmap = barycentric_map(build_icosphere(coarse_order),
                           build_icosphere(fine_order).vertices)
    bmap.face_index.setflags(write=False)
    bmap.weights.setflags(write=False)
    return bmap


def upsample_deformation_tensor(endpoints: Tensor, coarse_order: int,
                                target_order: int) -> Tensor:
    """Interpolate the coarse displacement field barycentrically onto the
    target sphere's vertices and renormalize.

    One tape node.  The VJP takes the renormalization back, weights the
    result per corner and scatter-adds it to the corners' rows."""
    coarse = build_icosphere(coarse_order)
    target = build_icosphere(target_order)
    bmap = _transfer_map(coarse_order, target_order)
    corner_idx = np.take(coarse.faces, bmap.face_index, axis=0)  # (V_t, 3)
    disp = endpoints.value - coarse.vertices
    moved = np.einsum("nk,nkd->nd", bmap.weights,
                      np.take(disp, corner_idx, axis=0)) + target.vertices
    norm = _row_norms(moved)
    out = moved / norm

    def vjp(g):
        g_moved = _unit_rows_vjp(g, out, norm)
        return (ad.scatter_rows(corner_idx, bmap.weights[:, :, None]
                                * g_moved[:, None, :], len(endpoints.value)),)

    return Tensor(out, (endpoints,), vjp,
                  requires_grad=endpoints.requires_grad)


def upsample_deformation(coarse: DeformationField,
                         target: Icosphere) -> DeformationField:
    if target.order <= coarse.order:
        raise ValueError("target sphere must be finer than the control grid")
    out = upsample_deformation_tensor(ad.constant(coarse.endpoints),
                                      coarse.order, target.order)
    return DeformationField(target.order, out.value)


def resample_tensor(moving_values: np.ndarray, endpoints: Tensor,
                    order: int, hint: np.ndarray | None = None):
    """Pull moving features through the warp onto the fixed sphere.

    The moving vertices are carried to ``endpoints``; each fixed-sphere
    vertex is then interpolated inside the warped face containing it.  The
    weights stay differentiable w.r.t. the endpoints; the face assignment
    itself is a constant of the tape.  ``hint`` is passed on to
    ``locate_warped_faces`` and does not change the result; without one,
    fixed vertex v starts its walk at ``sphere.vertex_faces[v, 0]``, its
    face under the identity warp.

    Returns the warped values and the warped face of each fixed vertex,
    the hint for a nearby warp.
    """
    sphere = build_icosphere(order)
    if hint is None:
        hint = sphere.vertex_faces[:, 0]
    faces, w = locate_warped_faces(endpoints.value, sphere, sphere.vertices,
                                   hint=hint)
    return _interpolate_warped(moving_values, endpoints, sphere, faces,
                               w), faces


def _interpolate_warped(moving_values: np.ndarray, endpoints: Tensor,
                        sphere: Icosphere, faces: np.ndarray, w) -> Tensor:
    """Interpolate the moving values at ``sphere``'s vertices inside the
    given warped faces, differentiably in the endpoints.

    One tape node.  Corner ``k``'s weight is the triple product of the
    query with the opposite edge's corners, ``w0 = q . (b x c)``, over the
    weight sum; ``w`` holds these triple products, as
    ``locate_warped_faces`` returns them with ``faces``.  Vectors are held
    as (3, V) component rows."""
    corner_idx = np.take(sphere.faces, faces, axis=0)  # (V, 3)
    w = [wk[:, None] for wk in w]
    total = w[0] + w[1] + w[2]
    vals = [np.take(moving_values, corner_idx[:, k], axis=0) for k in range(3)]
    out = (w[0] / total) * vals[0] + \
          (w[1] / total) * vals[1] + \
          (w[2] / total) * vals[2]

    def vjp(g):
        # d out / d w_k = (v_k - out) / total; d w0 / d b = c x q and
        # d w0 / d c = q x b, cyclically, so corner a takes
        # q x (gw1 c - gw2 b)
        q = sphere.vertices.T
        a, b, c = (np.take(endpoints.value, corner_idx[:, k], axis=0).T
                   for k in range(3))
        gw = [(g * (v - out)).sum(axis=1) / total[:, 0] for v in vals]
        grads = np.stack([cross_rows(q, gw[1] * c - gw[2] * b),
                          cross_rows(q, gw[2] * a - gw[0] * c),
                          cross_rows(q, gw[0] * b - gw[1] * a)],
                         axis=1)  # (3 components, 3 corners, V)
        return (ad.scatter_rows(corner_idx.T, grads.reshape(3, -1).T,
                                len(endpoints.value)),)

    return Tensor(out, (endpoints,), vjp,
                  requires_grad=endpoints.requires_grad)


def resample_moving(moving: SphericalFeatureMap, warped: DeformationField,
                    fixed_sphere: Icosphere,
                    hint: np.ndarray | None = None) -> SphericalFeatureMap:
    """The moving map pulled through ``warped`` onto the fixed sphere;
    ``hint`` is passed on to ``resample_tensor``."""
    if warped.order != moving.sphere_order:
        raise ValueError("deformation field is not at the moving map's order")
    if fixed_sphere.order != moving.sphere_order:
        raise ValueError("fixed sphere order differs from the moving map's")
    out, faces = resample_tensor(moving.values, ad.constant(warped.endpoints),
                                 fixed_sphere.order, hint)
    return SphericalFeatureMap(fixed_sphere.order, out.value,
                               warped_mask(moving.mask, fixed_sphere, faces))


def warped_mask(mask: np.ndarray | None, sphere: Icosphere,
                faces: np.ndarray) -> np.ndarray | None:
    """The mask, on ``sphere``, of a moving map with ``mask`` resampled
    inside the warped ``faces`` that ``resample_tensor`` located: a fixed
    vertex stays valid only if all three corners of its warped face are.
    None for an unmasked map."""
    return None if mask is None else mask[sphere.faces[faces]].all(axis=1)


def compose(first: DeformationField, second: DeformationField) -> DeformationField:
    """Apply ``first`` then ``second``: evaluate the second displacement
    field barycentrically at the first field's endpoints.  Endpoint v is
    located by a walk from ``sphere.vertex_faces[v, 0]``, the face of the
    vertex it moved from."""
    if first.order != second.order:
        raise ValueError("cannot compose fields at different orders")
    sphere = build_icosphere(first.order)
    bmap = barycentric_map(sphere, first.endpoints, sphere.vertex_faces[:, 0])
    disp = SphericalFeatureMap(second.order, second.endpoints - sphere.vertices)
    moved = first.endpoints + interpolate(bmap, disp)
    moved /= np.linalg.norm(moved, axis=1, keepdims=True)
    return DeformationField(first.order, moved)


def write_def(path, field: DeformationField) -> None:
    with open(path, "w") as fh:
        fh.write(f"DEF1 {field.order} {len(field.endpoints)}\n")
        fh.write(format_rows("%.17g %.17g %.17g\n", field.endpoints))


@text_reader
def read_def(path) -> DeformationField:
    """Read a DEF1 deformation.  A malformed header or row, or a value that
    is not finite, raises ValueError naming the file and line."""
    with open(path) as fh:
        order, n = read_header(fh, path, "DEF1", 2)
        if n != vertex_count(order):
            raise ValueError(f"{path}: line 1: vertex count does not match "
                             f"order {order}")
        return DeformationField(order, read_rows(fh, path, n, 3))
