"""Fully connected CRF over control-point label distributions, solved by
unrolled mean-field iterations so it trains end to end.

Each label of a control point is a rotation: the smallest one carrying the
point to the label's endpoint.  The pairwise potential, after MSM
(Robinson et al., NeuroImage 2014), penalizes the squared Frobenius
distance between two points' rotations, with fixed per-pair filter weights
(a geodesic falloff between control points) and a fixed Potts label
compatibility: two control points agree when they move the same way, not
when they move to the same place.  The coupling ``gamma`` scales it in
logit units.  The message is linear in the label probabilities: it reads
each partner's expected rotation, so every stage stays differentiable in
the label scores.

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
    gamma: float = 4.0  # the coupling, in logit units

    def __post_init__(self):
        require(self.iterations >= 1, "iterations",
                "the mean-field iteration count must be >= 1")
        require(self.gamma > 0, "gamma", "the coupling must be positive")


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
def _label_rotations(labels: LabelSpace) -> np.ndarray:
    """R_ik, the smallest rotation carrying control point c_i to label
    endpoint e_ik, as (N_c, N_l, 9) row-major matrices: Rodrigues' formula
    about c_i x e_ik, ``R = I + K + K^2 / (1 + c_i . e_ik)`` with ``K`` the
    cross-product matrix of ``c_i x e_ik``, which is the identity where
    e_ik = c_i.  Built once per label space; read-only because every
    caller shares it."""
    centers = build_icosphere(labels.control_order).vertices[:, None, :]
    ends = labels.endpoints
    cos = (centers * ends).sum(axis=2)
    if np.any(cos <= -1.0 + 1e-12):
        raise ValueError("no smallest rotation carries a control point "
                         "to its antipode, a label endpoint")
    ax, ay, az = np.moveaxis(np.cross(centers, ends), 2, 0)
    zero = np.zeros_like(cos)
    k = np.stack([zero, -az, ay, az, zero, -ax, -ay, ax, zero],
                 axis=2).reshape(cos.shape + (3, 3))
    rot = (np.eye(3) + k + (k @ k) / (1.0 + cos)[..., None, None]).reshape(
        cos.shape + (9,))
    rot.setflags(write=False)
    return rot


def rotation_message(q: Tensor, labels: LabelSpace, weights: np.ndarray,
                     coupling: float) -> Tensor:
    """The rotation-agreement message, linear in the label probabilities:
    ``msg[i, k] = 2 coupling <R_ik, M_i>_F`` with ``M = weights @ Rbar``
    and ``Rbar_j = sum_l q[j, l] R_jl`` each partner's expected rotation
    (``_label_rotations``).  Up to a per-row constant, which softmax
    ignores, it is ``-coupling sum_j weights[i, j] E||R_ik - R_j||_F^2``.

    ``weights`` is used as given; ``crf_forward_tensor`` passes the
    row-normalized filter, with a zero diagonal.  One tape node on ``q``
    with a hand-written VJP."""
    q = ad.as_tensor(q)
    rot = _label_rotations(labels)
    scale = 2.0 * coupling
    field = weights @ (q.value[:, None, :] @ rot)[:, 0]  # M, (N_c, 9)
    msg = scale * (rot @ field[:, :, None])[:, :, 0]

    def vjp(g):
        g_field = scale * (g[:, None, :] @ rot)[:, 0]
        return ((rot @ (weights.T @ g_field)[:, :, None])[:, :, 0],)

    return Tensor(msg, (q,), vjp, requires_grad=q.requires_grad)


def meanfield_step(u: Tensor, k1: Tensor, labels: LabelSpace,
                   weights: np.ndarray, mu: np.ndarray,
                   config: CrfConfig) -> Tensor:
    """One plain mean-field update: the logits ``u - message @ mu`` that
    the current row-stochastic estimate ``k1`` induces, with the rotation
    messages mixed across labels by the compatibility matrix ``mu``.  For
    the Potts ``mu`` this is ``u + message`` less a per-row constant."""
    msg = rotation_message(k1, labels, weights, config.gamma)
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
               weights: np.ndarray, config: CrfConfig) -> float:
    """Energy of a hard label assignment: negative log unaries plus, for
    each unordered pair of points, ``gamma w_ij ||R_i - R_j||_F^2`` over
    their assigned rotations, with ``w`` the symmetric part of
    ``weights``.  For symmetric weights and the Potts compatibility this
    is the energy whose mean-field update ``meanfield_step`` takes."""
    n = len(assignment)
    idx = np.arange(n)
    energy = float(-np.log(q[idx, assignment]).sum())
    rot = _label_rotations(labels)[idx, assignment]  # (N_c, 9)
    for i in range(n):
        for j in range(n):
            if i != j:
                d = rot[i] - rot[j]
                energy += 0.5 * config.gamma * weights[i, j] * (d * d).sum()
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
    rot = np.empty((n_c, n_l, 3, 3))
    for i in range(n_c):
        for kk in range(n_l):
            # Rodrigues' formula about the unit axis of c_i x e_ik
            c, e = centers[i], labels.endpoints[i, kk]
            axis = np.cross(c, e)
            sin = np.linalg.norm(axis)
            ux, uy, uz = axis / sin if sin > 0.0 else axis
            k_x = np.array([[0.0, -uz, uy], [uz, 0.0, -ux], [-uy, ux, 0.0]])
            rot[i, kk] = np.eye(3) + sin * k_x + (1.0 - c @ e) * (k_x @ k_x)
    z = u.copy()
    g_prev = r_prev = None
    trace = []
    for _ in range(t_total):
        k = softmax(z)
        # each partner's expected rotation under the current estimate
        expected = np.zeros((n_c, 3, 3))
        for j in range(n_c):
            for ll in range(n_l):
                expected[j] += k[j, ll] * rot[j, ll]
        msg = np.zeros((n_c, n_l))
        for i in range(n_c):
            for kk in range(n_l):
                total = 0.0
                for j in range(n_c):
                    if j != i:
                        total += weights[i, j] * (rot[i, kk] * expected[j]).sum()
                msg[i, kk] = 2.0 * config.gamma * total
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
