"""Mixture-of-Gaussians surface convolutions and the two networks built
from them: the per-surface feature extractor (stacked feature convolution
blocks) and the label classifier (residual blocks with upsampling).

Kernel weights are Gaussians of learnable mean/covariance evaluated on
spherical-polar pseudo-coordinates of each one-ring edge; aggregation is
the mean over the vertex and its one-ring, so 5- and 6-neighbor vertices
are directly comparable.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .mesh import build_icosphere, vertex_count
from .optim import ParamStore

DEFAULT_KERNELS = 10
_POLE_TOL = 1e-6


@dataclass(frozen=True)
class PseudoCoords:
    """Per directed one-ring edge: (polar offset, azimuthal offset scaled by
    sin of the center's polar angle).  Aligned with ``Icosphere.nbr_pad``;
    the self slot and padding carry (0, 0)."""

    order: int
    offsets: np.ndarray  # (V, 7, 2)
    mask: np.ndarray  # (V, 7) bool
    counts: np.ndarray  # (V,) including the center

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
    return PseudoCoords(order, offsets, sphere.nbr_mask.copy(),
                        sphere.nbr_mask.sum(axis=1).astype(np.float64))


def _gaussian_weights(coords: PseudoCoords, mu: Tensor, lraw: Tensor) -> Tensor:
    """Fused evaluation of the Gaussian kernel weights with a hand-written
    backward pass.

    ``lraw`` holds, per kernel, (log l11, l21, log l22) of the covariance's
    lower-triangular factor; the precision matrix is formed in closed form.
    The fused op keeps the hot path to a handful of array passes instead of
    a long chain of elementwise tape nodes.
    """
    a_, b_, c_ = lraw.value[:, 0], lraw.value[:, 1], lraw.value[:, 2]
    # precision matrix entries of (L L^T)^-1 for L = [[e^a, 0], [b, e^c]]
    p_a = (b_**2 + np.exp(2 * c_)) * np.exp(-2 * a_ - 2 * c_)
    p_b = -b_ * np.exp(-a_ - 2 * c_)
    p_c = np.exp(-2 * c_)
    dx = coords.offsets[:, :, 0, None] - mu.value[:, 0]  # (V, 7, J)
    dy = coords.offsets[:, :, 1, None] - mu.value[:, 1]
    quad = p_a * dx**2 + 2 * p_b * (dx * dy) + p_c * dy**2
    w = np.exp(-0.5 * quad)
    w[~coords.mask] = 0.0

    def vjp_mu(g):
        gq = -0.5 * g * w  # d loss / d quad, (V, 7, J)
        g0 = -np.einsum("vsj,vsj->j", gq, 2 * p_a * dx + 2 * p_b * dy)
        g1 = -np.einsum("vsj,vsj->j", gq, 2 * p_b * dx + 2 * p_c * dy)
        return np.stack([g0, g1], axis=1)

    def vjp_lraw(g):
        gq = -0.5 * g * w
        g_pa = np.einsum("vsj,vsj->j", gq, dx * dx)
        g_pb = np.einsum("vsj,vsj->j", gq, 2 * dx * dy)
        g_pc = np.einsum("vsj,vsj->j", gq, dy * dy)
        ga = -2 * p_a * g_pa - p_b * g_pb
        gb = 2 * b_ * np.exp(-2 * a_ - 2 * c_) * g_pa \
            - np.exp(-a_ - 2 * c_) * g_pb
        gc = -2 * b_**2 * np.exp(-2 * a_ - 2 * c_) * g_pa \
            - 2 * p_b * g_pb - 2 * p_c * g_pc
        return np.stack([ga, gb, gc], axis=1)

    return Tensor(w, (mu, lraw), (vjp_mu, vjp_lraw),
                  requires_grad=mu.requires_grad or lraw.requires_grad)


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
        self.c_out = c_out
        self.n_kernels = n_kernels
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

    def forward(self, coords: PseudoCoords, features: Tensor) -> Tensor:
        if features.shape[1] != self.c_in:
            raise ValueError(
                f"{self.prefix}: expected {self.c_in} input channels, "
                f"got {features.shape[1]}"
            )
        sphere = build_icosphere(coords.order)
        w = self.kernel_weights(coords)  # (V, 7, J)
        gathered = ad.gather(features, sphere.nbr_pad)  # (V, 7, C_in)
        # mean-aggregated patches: (V, J, 7) @ (V, 7, C) -> (V, J, C)
        patches = ad.bmm(ad.transpose(w, (0, 2, 1)),
                         gathered / coords.counts[:, None, None])
        mixing = ad.reshape(self.store[f"{self.prefix}.g"],
                            (self.n_kernels * self.c_in, self.c_out))
        out = ad.reshape(patches, (-1, self.n_kernels * self.c_in)) @ mixing
        return out + self.store[f"{self.prefix}.b"]


# -- tape-level resolution transfers --------------------------------------

def tape_upsample(x: Tensor, order: int) -> Tensor:
    fine = build_icosphere(order + 1)
    e = fine.midpoint_edges
    mids = 0.5 * (ad.gather(x, e[:, 0]) + ad.gather(x, e[:, 1]))
    return ad.concat([x, mids], axis=0)


def tape_maxpool(x: Tensor, order: int) -> Tensor:
    sphere = build_icosphere(order)
    gathered = ad.gather(x, sphere.nbr_pad)
    gathered = ad.where_const(sphere.nbr_mask[:, :, None], gathered, -np.inf)
    pooled = ad.max_reduce(gathered, axis=1)
    return ad.gather(pooled, np.arange(vertex_count(order - 1)))


class FcbBlock:
    """Feature convolution block: two convolutions with LeakyReLU, max
    pooling one order down, concatenation with the downsampled raw input,
    and a gating convolution at the pooled order."""

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
        if features.shape[0] != vertex_count(self.order):
            raise ValueError(
                f"feature rows {features.shape[0]} do not match order {self.order}"
            )
        if raw_lower.shape[0] != vertex_count(self.order - 1):
            raise ValueError("raw input is not at the block's output order")
        coords = pseudo_coords(self.order)
        h = ad.leaky_relu(self.conv1.forward(coords, features))
        h = ad.leaky_relu(self.conv2.forward(coords, h))
        pooled = tape_maxpool(h, self.order)
        skip = ad.leaky_relu(raw_lower)
        cat = ad.concat([pooled, skip], axis=1)
        out = self.gate_conv.forward(pseudo_coords(self.order - 1), cat)
        return ad.leaky_relu(out)


class ResBlock:
    """Two convolutions with a residual skip (1x1 projection when channel
    counts differ); vertex count is unchanged."""

    def __init__(self, store, prefix, order, c_in, c_out, n_kernels, rng):
        self.order = order
        self.c_in = c_in
        self.c_out = c_out
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

    def forward(self, features: Tensor) -> Tensor:
        coords = pseudo_coords(self.order)
        h = ad.leaky_relu(self.conv1.forward(coords, features))
        h = self.conv2.forward(coords, h)
        skip = features
        if self.proj_name is not None:
            skip = features @ self.store[self.proj_name]
        return ad.leaky_relu(h + skip)


@dataclass
class NetConfig:
    """Architecture description persisted as ARCH1 alongside checkpoints."""

    input_order: int
    in_channels: int
    fcb_channels: tuple
    res_channels: tuple
    control_order: int
    label_order: int
    n_labels: int
    n_kernels: int = DEFAULT_KERNELS
    shared_fcbs: int = 2

    def __post_init__(self):
        self.fcb_channels = tuple(self.fcb_channels)
        self.res_channels = tuple(self.res_channels)
        if self.res_channels[-1] != self.n_labels:
            raise ValueError("last classifier width must equal the label count")
        if self.latent_order < 0:
            raise ValueError("too many feature blocks for the input order")
        if self.latent_order + len(self.res_channels) != self.input_order:
            raise ValueError(
                "classifier depth does not return the latent to the input order"
            )
        if not self.label_order > self.control_order:
            raise ValueError("label sphere must be finer than the control grid")
        if self.n_labels > vertex_count(self.label_order):
            raise ValueError("more labels requested than label-sphere vertices")

    @property
    def latent_order(self) -> int:
        return self.input_order - len(self.fcb_channels)


class FeatureExtractor:
    """Two per-surface paths of feature convolution blocks; the last
    ``shared_fcbs`` blocks share parameters across paths.  Outputs the
    channel-wise concatenation of the two latents."""

    def __init__(self, store: ParamStore, cfg: NetConfig, rng):
        self.cfg = cfg
        n = len(cfg.fcb_channels)
        self.paths = {}
        for path in ("m", "f"):
            blocks = []
            c_in = cfg.in_channels
            order = cfg.input_order
            for i, c_blk in enumerate(cfg.fcb_channels):
                shared = i >= n - cfg.shared_fcbs
                tag = "s" if shared else path
                blocks.append(FcbBlock(
                    store, f"fx.{tag}.b{i}", order,
                    c_in, c_blk, cfg.in_channels, c_blk,
                    cfg.n_kernels, rng,
                ))
                c_in = c_blk
                order -= 1
            self.paths[path] = blocks
        self.out_channels = 2 * cfg.fcb_channels[-1]

    def _run_path(self, path: str, values: np.ndarray) -> Tensor:
        from .mesh import SphericalFeatureMap, downsample_features

        raw = SphericalFeatureMap(self.cfg.input_order, np.asarray(values))
        x = ad.constant(raw.values)
        out = x
        for block in self.paths[path]:
            raw = downsample_features(raw)
            out = block.forward(out, ad.constant(raw.values))
        return out

    def forward(self, moving_values, fixed_values) -> Tensor:
        m = self._run_path("m", moving_values)
        f = self._run_path("f", fixed_values)
        return ad.concat([m, f], axis=1)


class Classifier:
    """Residual blocks with upsampling after each, ending in per-label
    logits at the input order, row-extracted to the control grid."""

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
        order = self.cfg.latent_order
        for block in self.blocks:
            x = block.forward(x)
            x = tape_upsample(x, order)
            order += 1
        return ad.gather(x, np.arange(vertex_count(self.cfg.control_order)))


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


def write_arch(path, cfg: NetConfig) -> None:
    with open(path, "w") as fh:
        fh.write(f"input_order = {cfg.input_order}\n")
        fh.write(f"in_channels = {cfg.in_channels}\n")
        fh.write(f"kernels = {cfg.n_kernels}\n")
        fh.write("fcb_channels = " + ",".join(map(str, cfg.fcb_channels)) + "\n")
        fh.write(f"shared_fcbs = {cfg.shared_fcbs}\n")
        fh.write("res_channels = " + ",".join(map(str, cfg.res_channels)) + "\n")
        fh.write(f"control_order = {cfg.control_order}\n")
        fh.write(f"label_order = {cfg.label_order}\n")
        fh.write(f"n_labels = {cfg.n_labels}\n")


# ARCH1 keys named otherwise than their NetConfig field
_ARCH_RENAMED = {"kernels": "n_kernels"}


def read_arch(path) -> NetConfig:
    """Read an ARCH1 file.  A missing key, an unparsable value or an
    inconsistent architecture raises ValueError naming the file; blank,
    comment and retired lines are skipped."""
    types = {f.name: f.type for f in fields(NetConfig)}
    settings = {}
    with open(path) as fh:
        for line in fh:
            key, _, text = (part.strip() for part in line.partition("="))
            name = _ARCH_RENAMED.get(key, key)
            if name not in types:
                continue
            try:
                settings[name] = (tuple(int(x) for x in text.split(","))
                                  if types[name] == "tuple" else int(text))
            except ValueError:
                raise ValueError(f"{path}: bad value {text!r} for "
                                 f"architecture key {key!r}") from None
    for f in fields(NetConfig):
        if f.default is MISSING and f.name not in settings:
            raise ValueError(f"{path}: missing architecture key {f.name!r}")
    try:
        return NetConfig(**settings)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
