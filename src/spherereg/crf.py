"""Fully connected CRF over control-point label distributions, solved by
unrolled mean-field iterations so it trains end to end.

The pairwise potential couples control-point displacements through a
Gaussian kernel with fixed per-pair filter weights, a geodesic falloff
between control points, and a fixed Potts label compatibility: two
control points agree when they move the same way, not when they move to
the same place.  During message passing the partner's displacement is
taken to its current probability-weighted (expected) endpoint, which
keeps every stage differentiable in the label scores.

The filter weights enter inference row-normalized, so each message is a
weighted average over partners rather than a sum, and successive plain
updates are mixed by a one-step secant rule.  Plain parallel mean-field
need not converge (it can settle into 2-cycles); the mixed iteration
reaches its fixed point in a few steps.  The energy the iteration
minimizes is ``crf_energy`` evaluated on the row-normalized weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .conv import require
from .optim import ParamStore
from .warp import LabelSpace, build_icosphere, soft_deform_tensor

# the filter weights' falloff is exp(-geodesic^2 / OMEGA_SCALE)
OMEGA_SCALE = 0.2
# squared residual change below which the secant mixing takes a plain step
MIX_FLOOR = 1e-30


@dataclass
class CrfConfig:
    iterations: int = 5
    gamma: float = 0.2

    def __post_init__(self):
        require(self.iterations >= 1, "iterations",
                "the mean-field iteration count must be >= 1")
        require(self.gamma > 0, "gamma",
                "the kernel bandwidth must be positive")


@lru_cache(maxsize=None)
def default_weights(control_order: int, n_labels: int):
    """The CRF's fixed weights for a stage: the filter weights ``omega``, a
    geodesic Gaussian falloff between control points, and the Potts label
    compatibility ``mu`` (no cost for agreement, unit cost otherwise).
    Built once per key; the arrays are read-only because every caller
    shares them."""
    points = build_icosphere(control_order).vertices
    geo = np.arccos(np.clip(points @ points.T, -1.0, 1.0))
    omega = np.exp(-(geo**2) / OMEGA_SCALE)
    mu = 1.0 - np.eye(n_labels)
    omega.setflags(write=False)
    mu.setflags(write=False)
    return omega, mu


def _normalized_filter(omega: np.ndarray) -> np.ndarray:
    """Off-diagonal filter weights divided by their row sums, so that every
    message is a weighted average over partners.  A row whose off-diagonal
    sum is zero is left as it is."""
    n = omega.shape[0]
    off = np.where(~np.eye(n, dtype=bool), omega, 0.0)
    rows = off.sum(axis=1, keepdims=True)
    return off / np.where(rows != 0.0, rows, 1.0)


@lru_cache(maxsize=None)
def _label_rows(labels: LabelSpace, gamma: float):
    """The label side of the message, fixed by the label space and the
    bandwidth: the exponent rows ``[2s d, -s |d|^2, -s]`` per (label k,
    point i), (N_l * N_c, 5) with ``s = 1 / (2 gamma^2)`` and ``d`` the
    label's displacement, and the displacements as (N_l, 3, N_c)
    component rows.  Built once per key; the arrays are read-only because
    every caller shares them."""
    scale = 1.0 / (2.0 * gamma**2)
    centers = build_icosphere(labels.control_order).vertices
    # label-major layout: arrays indexed [label k, point i, partner j] make
    # every contraction over points a batched matrix product
    disp = np.swapaxes(labels.endpoints - centers[:, None, :], 0, 1)
    n_l, n_c, _ = disp.shape
    rows = np.empty((n_l, n_c, 5))
    rows[:, :, :3] = (2.0 * scale) * disp
    rows[:, :, 3] = -scale * (disp * disp).sum(axis=2)
    rows[:, :, 4] = -scale
    rows = rows.reshape(-1, 5)
    disp = np.ascontiguousarray(disp.transpose(0, 2, 1))
    rows.setflags(write=False)
    disp.setflags(write=False)
    return rows, disp


def gaussian_message(q: Tensor, partner_endpoints: Tensor, labels: LabelSpace,
                     omega: np.ndarray, config: CrfConfig) -> Tensor:
    """Message passing: for each (control point, label), the filter-weighted
    sum over partners of kernel(label displacement, partner's current
    expected displacement) times the partner's probability of that label.

    ``omega`` is used as given, minus its diagonal; ``crf_forward_tensor``
    passes the row-normalized weights.  The message is one node on the tape
    with a hand-written VJP.  The forward forms the dense (N_l, N_c, N_c)
    kernel's exponent with one matrix product, the cached label rows of
    ``_label_rows`` against ``[p; 1; |p|^2]`` for the partner displacements
    ``p``, and filters the kernel by ``omega`` in place, so the tape keeps
    only the filtered kernel.  The VJP reads it once for ``q`` and the
    endpoints together.
    """
    q, partner_endpoints = ad.as_tensor(q), ad.as_tensor(partner_endpoints)
    scale = 1.0 / (2.0 * config.gamma**2)
    rows, disp = _label_rows(labels, config.gamma)
    n_l, _, n_c = disp.shape
    partner_disp = partner_endpoints.value - \
        build_icosphere(labels.control_order).vertices
    partner = np.empty((5, n_c))
    partner[:3] = partner_disp.T
    partner[3] = 1.0
    partner[4] = (partner_disp * partner_disp).sum(axis=1)
    # kernel = exp(-scale |d - p|^2), no message from a point to itself
    filtered = (rows @ partner).reshape(n_l, n_c, n_c)
    np.exp(filtered, out=filtered)
    filtered.reshape(n_l, -1)[:, ::n_c + 1] = 0.0
    filtered *= omega
    qt = q.value.T  # (N_l, N_c)
    msg = (filtered @ qt[:, :, None])[:, :, 0].T

    def vjp(g):
        # [k, 0, j] = sum_i g[i, k] filtered[k, i, j], and rows 1-3 the
        # same sum weighted by disp[k, :, i]: one pass over the kernel
        gt = g.T[:, None, :]
        sums = np.concatenate([gt, gt * disp], axis=1) @ filtered
        g_endpoints = None
        if partner_endpoints.requires_grad:
            # d kernel[k, i, j] / d partner_disp[j]
            #   = kernel * (disp[k, i] - partner_disp[j]) / gamma^2
            s = (qt[:, None, :] * sums).sum(axis=0)  # (4, N_c)
            g_endpoints = (s[1:].T - partner_disp * s[0][:, None]) \
                * (2.0 * scale)
        return sums[:, 0, :].T if q.requires_grad else None, g_endpoints

    return Tensor(msg, (q, partner_endpoints), vjp,
                  requires_grad=(q.requires_grad
                                 or partner_endpoints.requires_grad))


def meanfield_step(u: Tensor, k1: Tensor, labels: LabelSpace,
                   omega: np.ndarray, mu: np.ndarray,
                   config: CrfConfig) -> Tensor:
    """One plain mean-field update: the logits ``u - message @ mu`` that
    the current row-stochastic estimate ``k1`` induces, with the messages
    mixed across labels by the compatibility matrix ``mu``."""
    endpoints = soft_deform_tensor(labels, k1)
    msg = gaussian_message(k1, endpoints, labels, omega, config)
    updated = u - msg @ mu
    if not np.all(np.isfinite(updated.value)):
        raise FloatingPointError("non-finite values after the CRF update stage")
    return updated


def crf_forward_tensor(u: Tensor, labels: LabelSpace, omega: np.ndarray,
                       mu: np.ndarray, config: CrfConfig):
    """Run the unrolled mean-field iterations.

    The filter weights are row-normalized (``_normalized_filter``), which
    bounds the coupling independently of how many partners a point has.
    The iteration runs on the logits ``z``, starting from ``z = u``: each
    plain update ``g = meanfield_step(softmax(z))`` is mixed with the
    previous one by a one-step secant (Anderson depth 1) rule,
    ``z <- g - c (g - g_prev)`` with ``c = <dr, r> / |dr|^2`` for the
    residual ``r = g - z`` and its change ``dr``.  The first iteration, and
    any iteration with ``|dr|^2 <= MIX_FLOOR``, takes the plain step.  Plain
    parallel updates can oscillate in 2-cycles; the mixed ones reach the
    fixed point within a few iterations.

    ``omega`` and ``mu`` are constants of the tape.  Returns the
    regularized probabilities and the deformed control grid they induce,
    both on the tape.
    """
    weights = _normalized_filter(omega)
    z = ad.as_tensor(u)
    g_prev = r_prev = None
    for _ in range(config.iterations):
        g = meanfield_step(u, ad.softmax_rows(z), labels, weights, mu, config)
        r = g - z
        z = g
        if r_prev is not None:
            dr = r - r_prev
            if float((dr.value * dr.value).sum()) > MIX_FLOOR:
                c = ad.sum_(dr * r) / ad.sum_(dr * dr)
                z = g - c * (g - g_prev)
        g_prev, r_prev = g, r
    k = ad.softmax_rows(z)
    return k, soft_deform_tensor(labels, k)


def crf_forward(u: np.ndarray, labels: LabelSpace, store: ParamStore,
                config: CrfConfig):
    """``crf_forward_tensor`` on constant unaries, with the filter weights
    and compatibility held in ``store`` as ``crf.omega`` and ``crf.mu``;
    returns the probabilities and endpoints as arrays."""
    q_bar, endpoints = crf_forward_tensor(
        ad.constant(u), labels, store["crf.omega"].value,
        store["crf.mu"].value, config,
    )
    return q_bar.value, endpoints.value


def crf_energy(assignment: np.ndarray, q: np.ndarray, labels: LabelSpace,
               omega: np.ndarray, mu: np.ndarray, config: CrfConfig) -> float:
    """Energy of a hard label assignment: negative log unaries plus the
    pairwise compatibility-weighted Gaussian kernel over assigned
    displacements."""
    n = len(assignment)
    idx = np.arange(n)
    energy = float(-np.log(q[idx, assignment]).sum())
    centers = build_icosphere(labels.control_order).vertices[:n]
    pts = labels.endpoints[idx, assignment] - centers  # (N_c, 3)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = pts[i] - pts[j]
            k_g = omega[i, j] * np.exp(-(d * d).sum() / (2 * config.gamma**2))
            energy += mu[assignment[i], assignment[j]] * k_g
    return energy


def meanfield_reference(u: np.ndarray, labels: LabelSpace, omega: np.ndarray,
                        mu: np.ndarray, config: CrfConfig,
                        iterations: int | None = None):
    """Naive dense double-loop mean field, the oracle for the staged
    implementation: the same row-normalized filter weights, the same
    secant mixing of the logits and the same plain-step guard as
    ``crf_forward_tensor``.  Returns the per-iteration trace of estimates
    ``softmax(z)``."""
    def softmax(x):
        e = np.exp(x - x.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    t_total = config.iterations if iterations is None else iterations
    n_c, n_l = u.shape
    centers = build_icosphere(labels.control_order).vertices
    weights = np.zeros((n_c, n_c))
    for i in range(n_c):
        row = 0.0
        for j in range(n_c):
            if j != i:
                row += omega[i, j]
        for j in range(n_c):
            if j != i:
                weights[i, j] = omega[i, j] / (row if row != 0.0 else 1.0)
    z = u.copy()
    g_prev = r_prev = None
    trace = []
    for _ in range(t_total):
        k = softmax(z)
        # expected endpoints under the current estimate
        endpoints = np.empty((n_c, 3))
        for j in range(n_c):
            e = (k[j][:, None] * labels.endpoints[j]).sum(axis=0)
            norm = np.linalg.norm(e)
            if norm < 1e-6:
                e = labels.endpoints[j, np.argmax(k[j])]
                norm = 1.0
            endpoints[j] = e / norm
        msg = np.zeros((n_c, n_l))
        for i in range(n_c):
            for kk in range(n_l):
                total = 0.0
                for j in range(n_c):
                    if j == i:
                        continue
                    d = (labels.endpoints[i, kk] - centers[i]) \
                        - (endpoints[j] - centers[j])
                    kern = np.exp(-(d * d).sum() / (2 * config.gamma**2))
                    total += weights[i, j] * kern * k[j, kk]
                msg[i, kk] = total
        g = u - msg @ mu
        r = g - z
        z = g
        if r_prev is not None:
            dr = r - r_prev
            if (dr * dr).sum() > MIX_FLOOR:
                z = g - ((dr * r).sum() / (dr * dr).sum()) * (g - g_prev)
        g_prev, r_prev = g, r
        trace.append(softmax(z))
    return trace
