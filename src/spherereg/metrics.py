"""Training loss terms and evaluation measures: similarity (MSE minus
cross-correlation), gradient-magnitude smoothness, per-face areal and shape
distortion, and supra-threshold cluster mass."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .mesh import (
    Icosphere,
    SphericalFeatureMap,
    build_icosphere,
    gradient_coefficients,
)
from .warp import DeformationField

GRAD_EPS = 1e-12


def _as_values(x) -> np.ndarray:
    if isinstance(x, SphericalFeatureMap):
        return x.values
    if isinstance(x, Tensor):
        return x.value
    return np.asarray(x)


def _valid_index(fixed: SphericalFeatureMap, mask=None) -> np.ndarray:
    valid = fixed.valid_mask()
    if mask is not None:
        valid = valid & mask
    return np.nonzero(valid)[0]


def similarity_loss(fixed: SphericalFeatureMap, warped, mask=None) -> Tensor:
    """MSE minus mean per-channel Pearson correlation over valid vertices.

    ``warped`` may be a Tensor (training) or an array/feature map; ``mask``
    is its valid vertices in fixed space (``warp.warped_mask`` of the moving
    mask).  A zero-variance channel contributes zero correlation with a
    warning.  One tape node on ``warped``.
    """
    warped_t = warped if isinstance(warped, Tensor) else ad.constant(_as_values(warped))
    if warped_t.shape != fixed.values.shape:
        raise ValueError("fixed and warped maps differ in shape")
    idx = _valid_index(fixed, mask)
    f = fixed.values[idx]
    m = np.take(warped_t.value, idx, axis=0)
    diff = m - f
    n = len(idx)
    mse = (diff * diff).sum(axis=1).sum() * (1.0 / n)

    # d cc / d m = (fz / cov - mz / var_m) * cc / n per kept channel; the
    # channel means drop out of the gradient because fz and mz sum to zero
    cc_sum = 0.0
    cc_grad = np.zeros_like(m)
    kept = 0
    for ch in range(fixed.channels):
        fc, mc = f[:, ch], m[:, ch]
        f_var = fc.var()
        m_var = float(np.var(mc))
        if f_var < 1e-30 or m_var < 1e-30:
            warnings.warn(f"zero-variance channel {ch}; correlation term set to 0")
            continue
        fz = fc - fc.mean()
        mz = mc - float(np.mean(mc))
        var_m = (mz * mz).sum() / n
        denom = np.sqrt(var_m) * float(np.sqrt(f_var))
        cc = (mz * fz).sum() / n / denom
        cc_sum = cc_sum + cc
        cc_grad[:, ch] = (fz / denom - mz * (cc / var_m)) / n
        kept += 1
    loss = mse - (cc_sum / kept if kept else 0.0)

    def vjp(g):
        grad = np.zeros_like(warped_t.value)
        step = 2.0 / n * diff
        if kept:
            step -= cc_grad / kept
        grad[idx] = g * step
        return (grad,)

    return Tensor(loss, (warped_t,), vjp,
                  requires_grad=warped_t.requires_grad)


def smoothness_loss(endpoints, order: int) -> Tensor:
    """Diffusion penalty: mean over vertices of the summed tangent-gradient
    magnitudes of the three displacement components.  One tape node; the
    (V, 2, 7) stencil is applied as a batched matrix product, the sums over
    the two tangent and three displacement components are column adds,
    and the backward takes the ring gather back with ``ring_sum``."""
    endpoints_t = endpoints if isinstance(endpoints, Tensor) else ad.constant(
        np.asarray(endpoints))
    sphere = build_icosphere(order)
    coef = gradient_coefficients(order)
    disp = endpoints_t.value - sphere.vertices
    gathered = np.take(disp, sphere.nbr_pad, axis=0)  # (V, 7, 3)
    gvec = coef @ gathered  # (V, 2, 3)
    sq = gvec * gvec
    mag = np.sqrt(sq[:, 0] + sq[:, 1] + GRAD_EPS)  # (V, 3)
    n = len(mag)
    loss = (mag[:, 0] + mag[:, 1] + mag[:, 2]).sum() * (1.0 / n)

    def vjp(g):
        ggathered = coef.transpose(0, 2, 1) @ (gvec * ((g / n) / mag)[:, None])
        return (sphere.ring_sum(ggathered),)

    return Tensor(loss, (endpoints_t,), vjp,
                  requires_grad=endpoints_t.requires_grad)


def total_loss(fixed: SphericalFeatureMap, warped, endpoints, order: int,
               smooth: float, mask=None) -> Tensor:
    """Similarity loss plus ``smooth`` times the smoothness penalty."""
    loss = similarity_loss(fixed, warped, mask)
    if smooth > 0:
        loss = loss + smooth * smoothness_loss(endpoints, order)
    return loss


def cc_similarity(fixed: SphericalFeatureMap, warped, mask=None):
    """Per-channel Pearson correlation over valid vertices and their mean;
    ``mask`` is the warped map's valid vertices in fixed space.

    Zero-variance channels are reported as nan and excluded from the mean.
    """
    w = _as_values(warped)
    idx = _valid_index(fixed, mask)
    f, m = fixed.values[idx], w[idx]
    per_channel = np.full(fixed.channels, np.nan)
    for ch in range(fixed.channels):
        sf, sm = f[:, ch].std(), m[:, ch].std()
        if sf < 1e-15 or sm < 1e-15:
            continue
        per_channel[ch] = np.mean(
            (f[:, ch] - f[:, ch].mean()) * (m[:, ch] - m[:, ch].mean())
        ) / (sf * sm)
    defined = per_channel[~np.isnan(per_channel)]
    mean = float(defined.mean()) if len(defined) else float("nan")
    return per_channel, mean


@dataclass
class DistortionStats:
    """Per-face log2 areal (J) and shape (R) distortion with counts of
    orientation-flipped and zero-area faces (excluded from the logs)."""

    log2_areal: np.ndarray
    log2_shape: np.ndarray
    flipped_faces: int
    degenerate_faces: int

    @staticmethod
    def _agg(values: np.ndarray) -> dict:
        a = np.abs(values)
        if len(a) == 0:
            return {"mean": 0.0, "max": 0.0, "p95": 0.0, "p98": 0.0}
        return {
            "mean": float(a.mean()),
            "max": float(a.max()),
            "p95": float(np.percentile(a, 95)),
            "p98": float(np.percentile(a, 98)),
        }

    def areal(self) -> dict:
        return self._agg(self.log2_areal)

    def shape(self) -> dict:
        return self._agg(self.log2_shape)


def _plane_edges(tri: np.ndarray) -> np.ndarray:
    """In-plane 2x2 edge matrices of triangles (F, 3, 3) -> (F, 2, 2);
    columns are the two edge vectors expressed in the triangle's own plane."""
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    n = np.cross(e1, e2)
    t1 = e1 / np.maximum(np.linalg.norm(e1, axis=1, keepdims=True), 1e-300)
    t2 = np.cross(n, t1)
    t2 /= np.maximum(np.linalg.norm(t2, axis=1, keepdims=True), 1e-300)
    out = np.empty((len(tri), 2, 2))
    out[:, 0, 0] = np.einsum("ij,ij->i", e1, t1)
    out[:, 1, 0] = np.einsum("ij,ij->i", e1, t2)
    out[:, 0, 1] = np.einsum("ij,ij->i", e2, t1)
    out[:, 1, 1] = np.einsum("ij,ij->i", e2, t2)
    return out


def deformation_gradients(original: Icosphere, field: DeformationField):
    """Per-face 2x2 in-plane deformation gradient, its singular values
    (principal stretches) and orientation sign."""
    tri0 = original.vertices[original.faces]
    tri1 = field.endpoints[original.faces]
    e0 = _plane_edges(tri0)
    e1 = _plane_edges(tri1)
    f = np.einsum("fij,fjk->fik", e1, np.linalg.inv(e0))
    a, b = f[:, 0, 0], f[:, 0, 1]
    c, d = f[:, 1, 0], f[:, 1, 1]
    s1 = a**2 + b**2 + c**2 + d**2
    s2 = np.sqrt(np.maximum((a**2 + b**2 - c**2 - d**2) ** 2
                            + 4 * (a * c + b * d) ** 2, 0.0))
    lam1 = np.sqrt(np.maximum((s1 + s2) / 2, 0.0))
    lam2 = np.sqrt(np.maximum((s1 - s2) / 2, 0.0))
    # each triangle's plane basis is right-handed w.r.t. its own normal, so
    # the 2x2 determinant alone cannot see folds; a face is flipped when its
    # warped normal no longer points outward at its warped centroid
    n1 = np.cross(tri1[:, 1] - tri1[:, 0], tri1[:, 2] - tri1[:, 0])
    outward = np.einsum("ij,ij->i", n1, tri1.mean(axis=1))
    det = np.abs(a * d - b * c) * np.sign(outward)
    identical = np.all(tri0 == tri1, axis=(1, 2))
    return lam1, lam2, det, identical


def distortion_stats(original: Icosphere, field: DeformationField) -> DistortionStats:
    if field.order != original.order:
        raise ValueError("deformation field is not at the sphere's order")
    lam1, lam2, det, identical = deformation_gradients(original, field)
    flipped = det < 0
    degenerate = (lam2 <= 0) | ~np.isfinite(lam1)
    valid = ~flipped & ~degenerate
    log_j = np.log2(lam1[valid] * lam2[valid])
    log_r = np.log2(lam1[valid] / lam2[valid])
    # faces carried rigidly (bitwise-identical) are exactly undistorted
    log_j[identical[valid]] = 0.0
    log_r[identical[valid]] = 0.0
    return DistortionStats(log_j, log_r, int(flipped.sum()), int(degenerate.sum()))


def vertex_areas(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """One third of the summed areas of the triangles incident to each vertex."""
    tri = vertices[faces]
    areas = 0.5 * np.linalg.norm(
        np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1
    )
    out = np.zeros(len(vertices))
    for k in range(3):
        np.add.at(out, faces[:, k], areas / 3.0)
    return out


@dataclass
class ClusterMassReport:
    threshold: float
    cluster_mass: float
    n_supra: int


def cluster_mass(zmap: SphericalFeatureMap, areas: np.ndarray,
                 threshold: float = 5.0) -> ClusterMassReport:
    """Sum of |z| times vertex area over vertices with |z| >= threshold."""
    z = zmap.values[:, 0]
    valid = zmap.valid_mask()
    supra = valid & (np.abs(z) >= threshold)
    cm = float((np.abs(z[supra]) * areas[supra]).sum())
    return ClusterMassReport(threshold, cm, int(supra.sum()))


def write_met(fh, entries: dict) -> None:
    """Write a report as ``key = value`` lines to the open text file
    ``fh``; floats carry all 17 significant digits."""
    for key, value in entries.items():
        if isinstance(value, float):
            fh.write(f"{key} = {value:.17g}\n")
        else:
            fh.write(f"{key} = {value}\n")


def metrics_report(fixed: SphericalFeatureMap, warped,
                   stats: DistortionStats | None = None,
                   cm: ClusterMassReport | None = None) -> dict:
    """The ``.met`` entries.  A masked warped map is scored over its own
    mask, the one its resampling carried to the fixed sphere."""
    mask = warped.mask if isinstance(warped, SphericalFeatureMap) else None
    per_channel, mean = cc_similarity(fixed, warped, mask)
    entries = {"cc.mean": mean}
    for ch, value in enumerate(per_channel):
        entries[f"cc.ch{ch}"] = float(value)
    if stats is not None:
        for name, agg in (("areal", stats.areal()), ("shape", stats.shape())):
            for stat, value in agg.items():
                entries[f"{name}.{stat}"] = value
        entries["flipped_faces"] = stats.flipped_faces
    if cm is not None:
        entries["cluster_mass"] = cm.cluster_mass
    return entries
