"""Mixture-of-Gaussians surface convolutions and the two networks built
from them: the per-surface feature extractor (stacked feature convolution
blocks) and the label classifier (residual blocks with upsampling, the
last one computing only the control grid's rows).

Kernel weights are Gaussians of learnable mean/covariance evaluated on
spherical-polar pseudo-coordinates of each one-ring edge; aggregation is
the mean over the vertex and its one-ring, so 5- and 6-neighbor vertices
are directly comparable.

A convolution is two tape nodes.  ``_gaussian_weights`` forms the kernel
exponent, a quadratic in the fixed offsets, as one GEMM of per-order
quadratic features against a (6, J) parameter matrix.  ``_aggregate``
gathers the ring a block of rows at a time, forms the weighted patches
and mixes them with one GEMM, for all vertices or a row prefix; its
VJP sums the features' gradient over the sphere's reverse ring table
(``Icosphere.ring_sum``).  A layer shared by the two surfaces forms its
weight node once and aggregates both surfaces with it
(``MoNetLayer.forward_each``).  The resolution transfers, ``tape_maxpool``
and ``tape_upsample``, are one tape node each.

``NetConfig`` is a stage network's architecture.  ``parse_settings`` and
``build_config`` turn setting text (the run INI, a ``.cfg`` or an
``.arch``) into any config dataclass, naming file and key in every error.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .mesh import MAX_ORDER, build_icosphere, text_reader, vertex_count
from .optim import ParamStore

_POLE_TOL = 1e-6


@dataclass(frozen=True)
class PseudoCoords:
    """Per directed one-ring edge: (polar offset, azimuthal offset scaled by
    sin of the center's polar angle).  Aligned with ``Icosphere.nbr_pad``;
    the self slot and padding carry (0, 0).  ``quad`` holds each slot's
    quadratic features and ``pad`` the flat padded slots.  The arrays are
    shared, so read-only."""

    order: int
    offsets: np.ndarray  # (V, 7, 2)
    counts: np.ndarray  # (V,) including the center
    quad: np.ndarray  # (V * 7, 6)
    pad: np.ndarray  # flat indices of the padded slots

    @property
    def box(self) -> float:
        return float(np.abs(self.offsets).max())


def _polar_angles(points: np.ndarray):
    theta = np.arccos(np.clip(points[:, 2], -1.0, 1.0))
    phi = np.arctan2(points[:, 1], points[:, 0])
    return theta, phi


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    """Wrap into (-pi, pi]."""
    out = (a + np.pi) % (2 * np.pi) - np.pi
    out[out == -np.pi] = np.pi
    return out


@lru_cache(maxsize=None)
def pseudo_coords(order: int) -> PseudoCoords:
    sphere = build_icosphere(order)
    v = sphere.vertices
    theta, phi = _polar_angles(v)
    # Vertices at the coordinate poles use a frame rotated 90 deg about y,
    # which moves them onto the equator of the rotated frame.
    polar = np.abs(np.abs(v[:, 2]) - 1.0) < _POLE_TOL
    rot = v[:, [2, 1, 0]] * np.array([1.0, 1.0, -1.0])  # rot_y(90deg)
    theta_r, phi_r = _polar_angles(rot)

    nbr = sphere.nbr_pad
    d_theta = np.where(polar[:, None],
                       theta_r[nbr] - theta_r[:, None],
                       theta[nbr] - theta[:, None])
    d_phi = np.where(polar[:, None],
                     _wrap_angle(phi_r[nbr] - phi_r[:, None]),
                     _wrap_angle(phi[nbr] - phi[:, None]))
    sin_t = np.where(polar, np.sin(theta_r), np.sin(theta))
    offsets = np.stack([d_theta, d_phi * sin_t[:, None]], axis=2)
    offsets[~sphere.nbr_mask] = 0.0
    offsets[:, 0, :] = 0.0  # self edge
    ox, oy = offsets[:, :, 0].ravel(), offsets[:, :, 1].ravel()
    quad = np.stack([ox * ox, 2 * ox * oy, oy * oy, ox, oy,
                     np.ones_like(ox)], axis=1)
    coords = PseudoCoords(order, offsets,
                          sphere.nbr_mask.sum(axis=1).astype(np.float64),
                          quad, np.flatnonzero(~sphere.nbr_mask))
    for table in (coords.offsets, coords.counts, coords.quad, coords.pad):
        table.setflags(write=False)
    return coords


def _gaussian_weights(coords: PseudoCoords, mu: Tensor, lraw: Tensor) -> Tensor:
    """Gaussian kernel weights per (vertex, ring slot, kernel), zero at
    padding; one tape node with a hand-written backward pass.

    ``lraw`` holds, per kernel, (log l11, l21, log l22) of the covariance's
    lower-triangular factor; the precision matrix ``P`` is formed in closed
    form.  The exponent ``-1/2 (o - mu)^T P (o - mu)`` is a quadratic in
    the fixed offsets ``o``, so it is ``coords.quad @ R``: the cached rows
    ``[ox^2, 2 ox oy, oy^2, ox, oy, 1]`` per ring slot against a (6, J)
    matrix ``R`` of the precision entries and their products with ``mu``.
    The forward is one GEMM, one ``exp`` and the mask; the one VJP is one
    GEMM, ``quad^T @ (g w)``, after which the chain rule to ``mu`` and
    ``lraw`` runs on (6, J) arrays.
    """
    a_, b_, c_ = lraw.value[:, 0], lraw.value[:, 1], lraw.value[:, 2]
    mx, my = mu.value[:, 0], mu.value[:, 1]
    # precision matrix entries of (L L^T)^-1 for L = [[e^a, 0], [b, e^c]]
    e_2a2c, e_a2c = np.exp(-2 * a_ - 2 * c_), np.exp(-a_ - 2 * c_)
    p_a = (b_**2 + np.exp(2 * c_)) * e_2a2c
    p_b = -b_ * e_a2c
    p_c = np.exp(-2 * c_)
    lin_x = p_a * mx + p_b * my  # P mu
    lin_y = p_b * mx + p_c * my
    r = np.stack([-0.5 * p_a, -0.5 * p_b, -0.5 * p_c, lin_x, lin_y,
                  -0.5 * (mx * lin_x + my * lin_y)])
    w = coords.quad @ r  # (V * 7, J)
    np.exp(w, out=w)
    w[coords.pad] = 0.0
    w = w.reshape(coords.offsets.shape[0], 7, -1)

    def vjp(g):
        # d loss / d R is one GEMM, quad^T (g w); the chain rule to mu and
        # lraw runs on its rows
        gr = coords.quad.T @ (g * w).reshape(-1, w.shape[2])
        hx = gr[3] - 0.5 * mx * gr[5]  # d loss / d (P mu)
        hy = gr[4] - 0.5 * my * gr[5]
        g_pa = -0.5 * gr[0] + hx * mx
        g_pb = -0.5 * gr[1] + hx * my + hy * mx
        g_pc = -0.5 * gr[2] + hy * my
        g_mu = np.stack([gr[3] * p_a + gr[4] * p_b - gr[5] * lin_x,
                         gr[3] * p_b + gr[4] * p_c - gr[5] * lin_y], axis=1)
        g_lraw = np.stack([
            -2 * p_a * g_pa - p_b * g_pb,
            2 * b_ * e_2a2c * g_pa - e_a2c * g_pb,
            -2 * b_**2 * e_2a2c * g_pa - 2 * p_b * g_pb - 2 * p_c * g_pc,
        ], axis=1)
        return (g_mu if mu.requires_grad else None,
                g_lraw if lraw.requires_grad else None)

    return Tensor(w, (mu, lraw), vjp,
                  requires_grad=mu.requires_grad or lraw.requires_grad)


# ring-gathered feature values (vertex, slot, channel) that ``_aggregate``
# holds at once
RING_BUDGET = 1 << 17


def _aggregate(coords: PseudoCoords, features: Tensor, w: Tensor, g: Tensor,
               b: Tensor, rows: int | None = None) -> Tensor:
    """One tape node: the ring mean of the kernel-weighted features, mixed
    by ``g`` (J, C_in, C_out) with one GEMM, plus ``b``, at the first
    ``rows`` vertices (all of them by default).  The ring gather
    (rows, 7, C_in) is formed ``RING_BUDGET`` values at a time, each block
    weighted into its rows of the (rows, J, C_in) patches (each row's
    product is its own, so the bits depend neither on the blocks nor on
    ``rows``).  The one VJP forms ``g_out @ mixing^T`` once for the
    features and the weights, and only when one of them needs a gradient
    (the first convolution's raw input does not); it takes the ring gather
    of the features back with ``Icosphere.ring_sum``, or for a row prefix
    with ``autodiff.scatter_rows``, which adds in the same order without
    forming the (V, 7, C_in) slots, and gathers the ring again for the
    weights.  The features' and the weights' gradients are full height,
    zero where no computed row reads them."""
    sphere = build_icosphere(coords.order)
    n, _, n_k = w.shape
    rows = n if rows is None else rows
    c_in = features.shape[1]
    mixing = g.value.reshape(n_k * c_in, -1)
    counts = coords.counts[:rows, None]
    ring = sphere.nbr_pad[:rows]
    w_rows = w.value[:rows]
    weights_t = w_rows.transpose(0, 2, 1)
    patches = np.empty((rows, n_k, c_in))
    step = max(1, RING_BUDGET // (7 * c_in))
    for a in range(0, rows, step):
        np.matmul(weights_t[a:a + step],
                  np.take(features.value, ring[a:a + step], axis=0),
                  out=patches[a:a + step])
    patches = patches.reshape(rows, -1)
    out = patches @ mixing
    out /= counts
    out += b.value

    def vjp(g_out):
        g_mean = g_out / counts  # the mean's 1/count
        g_features = g_w = None
        if features.requires_grad or w.requires_grad:
            g_patches = (g_mean @ mixing.T).reshape(rows, n_k, c_in)
        if w.requires_grad:
            g_w = np.matmul(np.take(features.value, ring, axis=0),
                            g_patches.transpose(0, 2, 1))
            if rows < n:
                g_w = np.concatenate([g_w,
                                      np.zeros((n - rows,) + g_w.shape[1:])])
        if features.requires_grad:
            slots = np.matmul(w_rows, g_patches)
            g_features = (ad.scatter_rows(ring, slots, n) if rows < n
                          else sphere.ring_sum(slots))
        return (g_features, g_w,
                (patches.T @ g_mean).reshape(g.shape) if g.requires_grad
                else None,
                g_out.sum(axis=0) if b.requires_grad else None)

    return Tensor(out, (features, w, g, b), vjp,
                  requires_grad=(features.requires_grad or w.requires_grad
                                 or g.requires_grad or b.requires_grad))


def _initial_lraw(n_kernels: int) -> np.ndarray:
    # covariance 0.1*I by construction: L = sqrt(0.1)*I, diag stored as log
    lraw = np.zeros((n_kernels, 3))
    lraw[:, 0] = lraw[:, 2] = 0.5 * np.log(0.1)
    return lraw


class MoNetLayer:
    """One mixture-kernel surface convolution: C_in -> C_out channels."""

    def __init__(self, store: ParamStore, prefix: str, c_in: int, c_out: int,
                 n_kernels: int, coord_box: float, rng: np.random.Generator):
        self.prefix = prefix
        self.c_in = c_in
        # blocks a trained store holds are kept; the rest are drawn from rng
        box = coord_box
        store.ensure(f"{prefix}.mu", (n_kernels, 2),
                     lambda: rng.uniform(-box, box, (n_kernels, 2)))
        store.ensure(f"{prefix}.lraw", (n_kernels, 3),
                     lambda: _initial_lraw(n_kernels))
        bound = np.sqrt(6.0 / (c_in * n_kernels + c_out))
        g_shape = (n_kernels, c_in, c_out)
        store.ensure(f"{prefix}.g", g_shape,
                     lambda: rng.uniform(-bound, bound, g_shape))
        store.ensure(f"{prefix}.b", (c_out,), lambda: np.zeros(c_out))
        self.store = store

    def kernel_weights(self, coords: PseudoCoords) -> Tensor:
        """Gaussian weights per (vertex, ring slot, kernel), zero at padding."""
        return _gaussian_weights(coords, self.store[f"{self.prefix}.mu"],
                                 self.store[f"{self.prefix}.lraw"])

    def forward(self, coords: PseudoCoords, features: Tensor,
                weights: Tensor | None = None,
                rows: int | None = None) -> Tensor:
        """The convolution of ``features`` at the first ``rows`` vertices
        (all of them by default); ``weights`` are the layer's
        ``kernel_weights`` at ``coords`` when ``forward_each`` has formed
        them for several surfaces."""
        if features.shape[1] != self.c_in:
            raise ValueError(
                f"{self.prefix}: expected {self.c_in} input channels, "
                f"got {features.shape[1]}"
            )
        if weights is None:
            weights = self.kernel_weights(coords)
        return _aggregate(coords, features, weights,
                          self.store[f"{self.prefix}.g"],
                          self.store[f"{self.prefix}.b"], rows)

    def forward_each(self, coords: PseudoCoords, surfaces) -> list:
        """The convolution of each surface's features, with the kernel
        weights formed once for all of them: one weight node whose
        cotangents from every surface are summed before its one VJP.  The
        weights are dropped on return, so a pass over constant weights
        still holds one layer's at a time."""
        weights = self.kernel_weights(coords)
        return [self.forward(coords, x, weights) for x in surfaces]


# -- tape-level resolution transfers --------------------------------------

def tape_upsample(x: Tensor, order: int) -> Tensor:
    """``mesh.upsample_features`` on the tape: each new edge-midpoint
    vertex takes the mean of its edge's endpoints.  One tape node."""
    e = build_icosphere(order + 1).midpoint_edges
    mids = 0.5 * (np.take(x.value, e[:, 0], axis=0)
                  + np.take(x.value, e[:, 1], axis=0))
    n = x.shape[0]

    def vjp(g):
        half = g[n:] * 0.5
        return (g[:n] + ad.scatter_rows(e[:, 0], half, n)
                + ad.scatter_rows(e[:, 1], half, n),)

    return Tensor(np.concatenate([x.value, mids]), (x,), vjp,
                  requires_grad=x.requires_grad)


def tape_maxpool(x: Tensor, order: int) -> Tensor:
    """``mesh.pool_features`` on the tape: the max over the vertex and its
    one-ring, kept at the coarse rows only.  One tape node; the gradient
    goes to the first maximum of each ring.  A pentagon's padded slot
    repeats its center, which slot 0 holds already, so padding never wins
    the argmax and needs no mask."""
    n, c = vertex_count(order - 1), x.shape[1]
    ring = build_icosphere(order).nbr_pad[:n]
    source = np.take_along_axis(
        ring, np.take(x.value, ring, axis=0).argmax(axis=1), axis=1)  # (n, C)

    def vjp(g):
        return (np.stack([np.bincount(source[:, k], weights=g[:, k],
                                      minlength=x.shape[0])
                          for k in range(c)], axis=1),)

    return Tensor(x.value[source, np.arange(c)], (x,), vjp,
                  requires_grad=x.requires_grad)


class FcbBlock:
    """Feature convolution block: two convolutions with LeakyReLU, max
    pooling one order down, concatenation with the downsampled raw input,
    and a gating convolution at the pooled order.  ``forward_each`` runs
    the block on several surfaces in lockstep, each convolution's kernel
    weights formed once for all of them, as a block shared between the
    moving and the fixed path is run."""

    def __init__(self, store, prefix, order, c_in, c_block, c_raw, c_out,
                 n_kernels, rng):
        self.order = order
        box_in = pseudo_coords(order).box
        box_out = pseudo_coords(order - 1).box
        self.conv1 = MoNetLayer(store, f"{prefix}.conv1", c_in, c_block,
                                n_kernels, box_in, rng)
        self.conv2 = MoNetLayer(store, f"{prefix}.conv2", c_block, c_block,
                                n_kernels, box_in, rng)
        self.gate_conv = MoNetLayer(store, f"{prefix}.gate", c_block + c_raw,
                                    c_out, n_kernels, box_out, rng)

    def forward(self, features: Tensor, raw_lower: Tensor) -> Tensor:
        return self.forward_each([features], [raw_lower])[0]

    def forward_each(self, features, raw_lower) -> list:
        """The block's output for each surface, from its features and its
        raw input one order down, two lists in the same order."""
        for x, raw in zip(features, raw_lower):
            if x.shape[0] != vertex_count(self.order):
                raise ValueError(f"feature rows {x.shape[0]} do not match "
                                 f"order {self.order}")
            if raw.shape[0] != vertex_count(self.order - 1):
                raise ValueError(
                    "raw input is not at the block's output order")
        coords = pseudo_coords(self.order)
        h = features
        for conv in (self.conv1, self.conv2):
            h = [ad.leaky_relu(x) for x in conv.forward_each(coords, h)]
        cat = [ad.concat([tape_maxpool(x, self.order), ad.leaky_relu(raw)],
                         axis=1) for x, raw in zip(h, raw_lower)]
        out = self.gate_conv.forward_each(pseudo_coords(self.order - 1), cat)
        return [ad.leaky_relu(x) for x in out]


class ResBlock:
    """Two convolutions with a residual skip (1x1 projection when channel
    counts differ), at the first ``rows`` vertices of the block's order
    (all of them by default).  The second convolution reads the first's
    one-ring, so only it and the skip are cut to the row prefix."""

    def __init__(self, store, prefix, order, c_in, c_out, n_kernels, rng):
        self.order = order
        box = pseudo_coords(order).box
        self.conv1 = MoNetLayer(store, f"{prefix}.conv1", c_in, c_out,
                                n_kernels, box, rng)
        self.conv2 = MoNetLayer(store, f"{prefix}.conv2", c_out, c_out,
                                n_kernels, box, rng)
        self.store = store
        self.proj_name = None
        if c_in != c_out:
            self.proj_name = f"{prefix}.proj"
            bound = np.sqrt(6.0 / (c_in + c_out))
            store.ensure(self.proj_name, (c_in, c_out),
                         lambda: rng.uniform(-bound, bound, (c_in, c_out)))

    def forward(self, features: Tensor, rows: int | None = None) -> Tensor:
        coords = pseudo_coords(self.order)
        h = ad.leaky_relu(self.conv1.forward(coords, features))
        h = self.conv2.forward(coords, h, rows=rows)
        skip = features
        if rows is not None:
            skip = ad.gather(features, np.arange(rows))
        if self.proj_name is not None:
            skip = skip @ self.store[self.proj_name]
        return ad.leaky_relu(h + skip)


class SettingError(ValueError):
    """The config field ``key`` is not what it ``need``s to be."""

    def __init__(self, key: str, need: str):
        super().__init__(f"bad value for key {key!r}: {need}")
        self.key = key
        self.need = need


def require(ok: bool, key: str, need: str) -> None:
    """Raise SettingError naming the field ``key`` unless ``ok``; ``need``
    says what the setting must be."""
    if not ok:
        raise SettingError(key, need)


@dataclass
class NetConfig:
    """A stage network's architecture, persisted as ARCH1 next to its
    weights.  ``pipeline.StageConfig`` extends it with the stage's other
    settings."""

    input_order: int
    control_order: int
    label_order: int
    n_labels: int
    fcb_channels: tuple[int, ...]
    res_channels: tuple[int, ...]
    in_channels: int
    n_kernels: int = 10
    shared_fcbs: int = 2

    def __post_init__(self):
        self.fcb_channels = tuple(self.fcb_channels)
        self.res_channels = tuple(self.res_channels)
        for key in ("fcb_channels", "res_channels"):
            require(min(getattr(self, key), default=0) >= 1, key,
                    "widths must be >= 1")
        for key in ("in_channels", "n_kernels"):
            require(getattr(self, key) >= 1, key, "must be >= 1")
        require(self.res_channels[-1] == self.n_labels, "res_channels",
                "the last classifier width must equal the label count")
        require(self.latent_order >= 0, "fcb_channels",
                "too many feature blocks for the input order")
        require(self.latent_order + len(self.res_channels)
                == self.input_order, "res_channels",
                "the classifier depth does not return the latent to the "
                "input order")
        require(0 <= self.control_order <= self.input_order, "control_order",
                "the control grid must lie between order 0 and the input")
        for key in ("input_order", "label_order"):
            require(getattr(self, key) <= MAX_ORDER, key,
                    f"icosphere orders stop at {MAX_ORDER}")
        require(self.label_order > self.control_order, "label_order",
                "the label sphere must be finer than the control grid")
        require(self.n_labels <= vertex_count(self.label_order), "n_labels",
                "more labels requested than label-sphere vertices")

    @property
    def latent_order(self) -> int:
        return self.input_order - len(self.fcb_channels)


class FeatureExtractor:
    """Two per-surface paths of feature convolution blocks; the last
    ``shared_fcbs`` blocks share parameters across paths.  Outputs the
    channel-wise concatenation of the two latents.

    ``paths`` lists each path's blocks; a shared block is one object in
    both lists, and it runs the two surfaces together (``forward_each``),
    so each of its convolutions forms its kernel weights once per pass.
    Blocks are built path by path, so the rng draws every block's weights
    in the order it always has."""

    def __init__(self, store: ParamStore, cfg: NetConfig, rng):
        self.cfg = cfg
        n = len(cfg.fcb_channels)
        self.paths = {}
        shared = {}
        for path in ("m", "f"):
            blocks = []
            c_in = cfg.in_channels
            order = cfg.input_order
            for i, c_blk in enumerate(cfg.fcb_channels):
                if i < n - cfg.shared_fcbs:
                    block = FcbBlock(store, f"fx.{path}.b{i}", order, c_in,
                                     c_blk, cfg.in_channels, c_blk,
                                     cfg.n_kernels, rng)
                elif i not in shared:
                    block = shared[i] = FcbBlock(
                        store, f"fx.s.b{i}", order, c_in, c_blk,
                        cfg.in_channels, c_blk, cfg.n_kernels, rng)
                else:
                    block = shared[i]
                blocks.append(block)
                c_in = c_blk
                order -= 1
            self.paths[path] = blocks

    def forward(self, moving_values, fixed_values) -> Tensor:
        raw = [ad.constant(moving_values), ad.constant(fixed_values)]
        out = raw
        for m_block, f_block in zip(self.paths["m"], self.paths["f"]):
            lower = [ad.constant(x.value[:vertex_count(m_block.order - 1)])
                     for x in raw]
            if m_block is f_block:
                out = m_block.forward_each(out, lower)
            else:
                out = [m_block.forward(out[0], lower[0]),
                       f_block.forward(out[1], lower[1])]
        return ad.concat(out, axis=1)


class Classifier:
    """Residual blocks with upsampling between them, ending in per-label
    logits at the control grid.  Icosphere vertices are numbered coarse
    orders first, so the control grid is a row prefix at any finer order:
    the last block computes only those rows when the control grid lies at
    or below its order, and runs in full and upsamples once when the
    control grid is at the input order."""

    def __init__(self, store: ParamStore, cfg: NetConfig, rng):
        self.cfg = cfg
        self.blocks = []
        c_in = 2 * cfg.fcb_channels[-1]
        order = cfg.latent_order
        for i, c_out in enumerate(cfg.res_channels):
            self.blocks.append(ResBlock(store, f"cls.b{i}", order,
                                        c_in, c_out, cfg.n_kernels, rng))
            c_in = c_out
            order += 1

    def forward(self, latent: Tensor) -> Tensor:
        if latent.shape[0] != vertex_count(self.cfg.latent_order):
            raise ValueError("latent is not at the feature-extractor output order")
        x = latent
        *inner, last = self.blocks
        for block in inner:
            x = tape_upsample(block.forward(x), block.order)
        if self.cfg.control_order > last.order:
            return tape_upsample(last.forward(x), last.order)
        return last.forward(x, vertex_count(self.cfg.control_order))


class RegistrationNet:
    """Feature extractor + classifier over one shared parameter store."""

    def __init__(self, store: ParamStore, cfg: NetConfig, rng):
        self.cfg = cfg
        self.extractor = FeatureExtractor(store, cfg, rng)
        self.classifier = Classifier(store, cfg, rng)

    def logits(self, moving_values, fixed_values) -> Tensor:
        return self.classifier.forward(
            self.extractor.forward(moving_values, fixed_values)
        )


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


# setting text to a value, by the annotation of the field it sets
_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool,
            "tuple[int, ...]": lambda t: tuple(map(int, t.split(","))),
            "tuple[float, ...]": lambda t: tuple(map(float, t.split(",")))}


def parse_settings(cls, pairs, where: str, keys: dict,
                   skip_unknown: bool = False) -> dict:
    """Keyword arguments of the config dataclass ``cls`` from (key, text)
    ``pairs``.  ``keys`` maps each key the pairs may hold to the field it
    sets.  Text that does not parse as the field's type, and an unknown
    key unless ``skip_unknown``, raise ValueError naming ``where`` (the
    file or section) and the key."""
    types = {f.name: f.type for f in fields(cls)}
    out = {}
    for key, text in pairs:
        if key not in keys:
            if skip_unknown:
                continue
            raise ValueError(f"{where}: unknown key {key!r}")
        try:
            out[keys[key]] = _PARSERS[types[keys[key]]](text)
        except ValueError:
            raise ValueError(f"{where}: bad value {text!r} for key {key!r}") \
                from None
    return out


def build_config(cls, settings: dict, where: str, keys: dict | None = None):
    """``cls(**settings)``.  A missing required setting, and any setting
    that ``cls`` rejects, raise ValueError naming ``where`` and the key:
    the key that ``keys`` (as in ``parse_settings``) maps to the field,
    else the field's name."""
    key_of = {name: key for key, name in (keys or {}).items()}
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING \
                and f.name not in settings:
            raise ValueError(f"{where}: missing key "
                             f"{key_of.get(f.name, f.name)!r}")
    try:
        return cls(**settings)
    except SettingError as exc:
        raise ValueError(f"{where}: bad value for key "
                         f"{key_of.get(exc.key, exc.key)!r}: {exc.need}") \
            from None
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


# ARCH1 keys in file order, and the NetConfig field each sets
_ARCH_KEYS = {"input_order": "input_order", "in_channels": "in_channels",
              "kernels": "n_kernels", "fcb_channels": "fcb_channels",
              "shared_fcbs": "shared_fcbs", "res_channels": "res_channels",
              "control_order": "control_order", "label_order": "label_order",
              "n_labels": "n_labels"}


def write_arch(path, cfg: NetConfig) -> None:
    with open(path, "w") as fh:
        for key, name in _ARCH_KEYS.items():
            value = getattr(cfg, name)
            if isinstance(value, tuple):
                value = ",".join(map(str, value))
            fh.write(f"{key} = {value}\n")


@text_reader
def read_arch(path) -> NetConfig:
    """Read an ARCH1 file.  A missing key, an unparsable value or an
    inconsistent architecture raises ValueError naming the file; blank,
    comment and retired lines are skipped."""
    with open(path) as fh:
        pairs = [(key.strip(), text.strip()) for key, _, text in
                 (line.partition("=") for line in fh)]
    settings = parse_settings(NetConfig, pairs, path, _ARCH_KEYS,
                              skip_unknown=True)
    return build_config(NetConfig, settings, path, _ARCH_KEYS)
