"""End-to-end orchestration: synthetic pair generation, per-stage training
with best-validation checkpointing, and serial coarse-to-fine
registration.  A stage is one ``StageConfig``; its checkpoint, the files
``stageK.arch``, ``.gmw`` and ``.cfg``, is written by ``write_stage`` and
read by ``read_stages``."""

from __future__ import annotations

import configparser
import math
import os
import re
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .conv import NetConfig, RegistrationNet, build_config, parse_settings, \
    read_arch, require, write_arch
from .crf import CrfConfig, crf_forward_tensor, default_weights
from .mesh import SphericalFeatureMap, build_icosphere, text_reader
from .metrics import cc_similarity, total_loss
from .optim import ParamStore, read_gmw, write_gmw
from .warp import DeformationField, build_label_space, compose, control_grid, \
    resample_moving, resample_tensor, soft_deform_tensor, \
    upsample_deformation_tensor, warped_mask

# refine steps per stage that run through the CRF decode (the last ones).
# On the acceptance cohort 20 steps bring the CRF decode's similarity back
# to that of the plain decode and lower areal distortion below it; running
# every step through the CRF costs about 0.35 s more per order-4 pair.
CRF_REFINE_STEPS = 20
# synthetic warps drawn per pair before giving up on a fold-free one
WARP_RETRIES = 20


# -- synthetic data --------------------------------------------------------

@dataclass
class SyntheticWarpSpec:
    """Random localized-rotation warp plus band-limited feature field."""

    n_components: int = 8
    max_angle: float = 0.55  # max displacement in radians
    smoothness: float = 1.2  # angular scale of the rotation bumps
    field_degree: int = 6
    n_channels: int = 1
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("max_angle", "smoothness", "noise"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"synthetic warp: {name} must be finite, "
                                 f"got {getattr(self, name)!r}")
        if not self.smoothness > 0:
            raise ValueError("synthetic warp: smoothness must be positive, "
                             f"got {self.smoothness!r}")
        for name, low in (("max_angle", 0), ("n_components", 0),
                          ("field_degree", 1), ("n_channels", 1),
                          ("noise", 0), ("seed", 0)):
            if not getattr(self, name) >= low:
                raise ValueError(f"synthetic warp: {name} must be >= {low}, "
                                 f"got {getattr(self, name)!r}")


def _random_field(points: np.ndarray, rng: np.random.Generator,
                  degree: int, n_channels: int) -> np.ndarray:
    """Band-limited smooth scalar fields: random plane-wave-like products
    cos(k.p + phase) with |k| up to ``degree``, standardized per channel."""
    out = np.zeros((len(points), n_channels))
    for ch in range(n_channels):
        for _ in range(3 * degree):
            k = rng.standard_normal(3)
            k *= rng.uniform(1.0, degree) / np.linalg.norm(k)
            phase = rng.uniform(0, 2 * np.pi)
            out[:, ch] += rng.standard_normal() * np.cos(points @ k + phase)
        out[:, ch] -= out[:, ch].mean()
        out[:, ch] /= out[:, ch].std()
    return out


def _random_warp(points: np.ndarray, spec: SyntheticWarpSpec,
                 rng: np.random.Generator) -> np.ndarray:
    """Compose localized rotations: each component rotates by an angle that
    decays as a Gaussian bump of geodesic distance from a random center."""
    moved = points.copy()
    for _ in range(spec.n_components):
        axis = rng.standard_normal(3)
        center = rng.standard_normal(3)
        center /= np.linalg.norm(center)
        peak = rng.uniform(0.5, 1.0) * spec.max_angle
        geo = np.arccos(np.clip(moved @ center, -1.0, 1.0))
        angles = peak * np.exp(-(geo**2) / (2 * spec.smoothness**2))
        # small per-vertex rotations about a shared axis
        axis = axis / np.linalg.norm(axis)
        k = np.cross(np.broadcast_to(axis, moved.shape), moved)
        cos_a = np.cos(angles)[:, None]
        sin_a = np.sin(angles)[:, None]
        moved = cos_a * moved - sin_a * k + \
            (1 - cos_a) * (moved @ axis)[:, None] * axis
        moved /= np.linalg.norm(moved, axis=1, keepdims=True)
    return moved


def generate_synthetic_pair(spec: SyntheticWarpSpec, order: int):
    """A (moving, fixed, ground-truth warp) triple.

    The moving map samples an analytic band-limited field; the fixed map is
    the moving map resampled through the truth warp, so registering with
    the ground-truth deformation reproduces the fixed map exactly (same
    deterministic resampling path).  Warps that flip any face are rejected
    and regenerated.
    """
    if order > 6:
        raise ValueError("synthetic generation is limited to order <= 6")
    from .metrics import distortion_stats

    rng = np.random.Generator(np.random.Philox(spec.seed))
    sphere = build_icosphere(order)
    values = _random_field(sphere.vertices, rng, spec.field_degree,
                           spec.n_channels)
    moving = SphericalFeatureMap(order, values)

    for _ in range(WARP_RETRIES):
        endpoints = _random_warp(sphere.vertices, spec, rng)
        truth = DeformationField(order, endpoints)
        stats = distortion_stats(sphere, truth)
        if stats.flipped_faces == 0 and stats.degenerate_faces == 0:
            break
    else:
        raise RuntimeError("could not generate an orientation-preserving warp")

    if spec.n_components == 0 or spec.max_angle == 0.0:
        fixed_vals = values.copy()
    else:
        fixed_vals = resample_moving(moving, truth, sphere).values
    if spec.noise > 0:
        fixed_vals = fixed_vals + spec.noise * rng.standard_normal(
            fixed_vals.shape)
    fixed = SphericalFeatureMap(order, fixed_vals)
    return moving, fixed, truth


# -- stage configuration ---------------------------------------------------

@dataclass
class StageConfig(NetConfig):
    """One registration stage: its network's architecture (the fields of
    ``conv.NetConfig``), loss, optimizer and CRF settings."""

    in_channels: int = 1
    gamma: float = 4.0  # the CRF coupling, in logit units
    lam_sm: float = 0.1
    lr: float = 1e-3
    epochs: int = 20
    use_crf: bool = True
    crf_iterations: int = 5
    refine_steps: int = 0
    refine_lr: float = 1e-2

    def __post_init__(self):
        super().__post_init__()
        for key in ("gamma", "lr", "refine_lr"):
            require(0 < getattr(self, key) < math.inf, key,
                    "must be positive and finite")
        require(0 <= self.lam_sm < math.inf, "lam_sm",
                "must be nonnegative and finite")
        for key in ("epochs", "refine_steps"):
            require(getattr(self, key) >= 0, key, "must be >= 0")
        require(self.crf_iterations >= 1, "crf_iterations",
                "the mean-field iteration count must be >= 1")

    def net_config(self) -> NetConfig:
        return NetConfig(**{f.name: getattr(self, f.name)
                            for f in fields(NetConfig)})

    def crf_config(self) -> CrfConfig:
        return CrfConfig(iterations=self.crf_iterations, gamma=self.gamma)


def desk_scale_stages(use_crf: bool = True):
    """Default two-stage configuration for order-4 synthetic cohorts.

    The coarse stage has a wide label reach for gross alignment; the fine
    stage polishes residuals on a denser control grid.  Registration-time
    instance refinement does the per-pair fitting, so the amortized
    training epochs stay short.
    """
    coarse = StageConfig(
        input_order=4, control_order=1, label_order=3, n_labels=80,
        fcb_channels=(8, 8, 16), res_channels=(16, 16, 80),
        lam_sm=0.9, lr=3e-3, epochs=3,
        refine_steps=150, refine_lr=3e-2, use_crf=use_crf,
    )
    fine = StageConfig(
        input_order=4, control_order=2, label_order=4, n_labels=16,
        fcb_channels=(8, 16), res_channels=(16, 16),
        lam_sm=1.2, lr=3e-3, epochs=2,
        refine_steps=40, refine_lr=1e-2, use_crf=use_crf,
    )
    return [coarse, fine]


# -- stage model -----------------------------------------------------------

class StageModel:
    """A registration network plus label space and optional CRF, bound to
    one parameter store.

    Without ``store`` the blocks are initialized from ``seed``.  With a
    trained ``store`` the model works on a copy of it, so the caller's store
    gains no blocks; ``seed`` is then unused, and a block the stage needs
    but the store lacks raises ValueError.  The CRF holds no blocks: its
    filter weights and compatibility are the fixed ``default_weights`` of
    the stage, so the head stays a genuine smoother (trained ones drift
    until the classifier cancels the regularization).

    ``pair_loss`` is the only network pass on the tape.  Every pass whose
    scores no gradient reads (``refine``'s starting scores and
    ``register`` without ``logits``) runs the network over a constant view
    of the store, taken per call, so its nodes keep no tape and the blocks
    gain no gradient.
    """

    def __init__(self, stage: StageConfig, store: ParamStore | None = None,
                 seed: int = 0):
        self.stage = stage
        self.store = ParamStore() if store is None else store.copy()
        held = set(self.store.names())
        rng = np.random.Generator(np.random.Philox(seed))
        self.net = RegistrationNet(self.store, stage, rng)
        self.labels = build_label_space(control_grid(stage.control_order),
                                        stage.label_order, stage.n_labels)
        added = sorted(set(self.store.names()) - held)
        if store is not None and added:
            raise ValueError(f"missing parameter block {added[0]!r}")

    def _constant_logits(self, moving: SphericalFeatureMap,
                         fixed: SphericalFeatureMap) -> Tensor:
        """The network's label scores as a leaf, from a pass over a
        constant view of the store (which holds every block, so the
        network draws none from an rng)."""
        net = RegistrationNet(self.store.constants(), self.stage, rng=None)
        return net.logits(moving.values, fixed.values)

    def _endpoints(self, logits: Tensor, crf: bool) -> Tensor:
        """Label scores decoded to endpoints at the input order, through
        the CRF head when ``crf`` is set and a plain softmax otherwise."""
        if crf:
            omega, mu = default_weights(self.stage.control_order,
                                        self.stage.n_labels)
            _, coarse = crf_forward_tensor(logits, self.labels, omega, mu,
                                           self.stage.crf_config())
        else:
            coarse = soft_deform_tensor(self.labels, ad.softmax_rows(logits))
        return upsample_deformation_tensor(coarse, self.stage.control_order,
                                           self.stage.input_order)

    def _loss(self, moving: SphericalFeatureMap, fixed: SphericalFeatureMap,
              logits: Tensor, crf: bool, hint: np.ndarray | None = None):
        """The training loss of the registration that ``logits`` decode to,
        and the warped faces its resampling located (``hint`` is the
        ``resample_tensor`` hint)."""
        order = self.stage.input_order
        endpoints = self._endpoints(logits, crf)
        warped, faces = resample_tensor(moving.values, endpoints, order, hint)
        mask = warped_mask(moving.mask, build_icosphere(order), faces)
        return total_loss(fixed, warped, endpoints, order, self.stage.lam_sm,
                          mask), faces

    def pair_loss(self, moving: SphericalFeatureMap,
                  fixed: SphericalFeatureMap) -> Tensor:
        return self._loss(moving, fixed,
                          self.net.logits(moving.values, fixed.values),
                          self.stage.use_crf)[0]

    def register(self, moving: SphericalFeatureMap,
                 fixed: SphericalFeatureMap, logits: np.ndarray | None = None,
                 hint: np.ndarray | None = None):
        """Deformation field and warped moving map (no tape), decoded from
        ``logits`` (the label scores ``refine`` returns) or, when None,
        from the network's prediction.  ``hint`` is the ``resample_tensor``
        hint of the final resampling, such as the faces ``refine``
        returns."""
        if logits is None:
            scores = self._constant_logits(moving, fixed)
        else:
            scores = ad.constant(logits)
        endpoints = self._endpoints(scores, self.stage.use_crf)
        field_ = DeformationField(self.stage.input_order, endpoints.value)
        sphere = build_icosphere(self.stage.input_order)
        warped = resample_moving(moving, field_, sphere, hint)
        return field_, warped

    def refine(self, moving: SphericalFeatureMap, fixed: SphericalFeatureMap):
        """Instance refinement: optimize this pair's control-point label
        scores directly, starting from the network's prediction.  Returns
        the refined scores and the warped faces that the last step
        located, the scores and the hint for ``register``; both are None
        when the stage has no refine steps.

        Only the logits move; the networks and the pairwise regularizer
        stay frozen, so the regularization is not optimized away and no
        convolution passes are needed inside the loop.  With the CRF head
        on, the last ``CRF_REFINE_STEPS`` steps optimize the scores through
        the mean-field decode that ``register`` applies, so the CRF
        regularizes the refined optimum instead of moving away from it;
        the earlier steps use the cheaper plain softmax decode.
        """
        if self.stage.refine_steps <= 0:
            return None, None
        init = self._constant_logits(moving, fixed).value
        # keep the network's label ranking but reset its confidence: a
        # saturated softmax leaves the optimizer with vanishing gradients
        init = init - init.mean(axis=1, keepdims=True)
        rms = float(np.sqrt((init**2).mean()))
        if rms > 1e-6:
            init = init / rms
        opt = ParamStore()
        logits = opt.add("logits", init.copy())
        steps = self.stage.refine_steps
        first_crf = steps - CRF_REFINE_STEPS if self.stage.use_crf else steps
        faces = None  # each step's warped faces hint the next step's search
        for step in range(steps):
            loss, faces = self._loss(moving, fixed, logits, step >= first_crf,
                                     faces)
            if not np.isfinite(loss.value):
                raise FloatingPointError("non-finite refinement loss")
            loss.backward()
            opt.adam_step(self.stage.refine_lr)
            del loss  # the step's tape goes before the next one is built
        return logits.value, faces


# -- dataset plumbing ------------------------------------------------------

@dataclass
class PairEntry:
    moving_path: str
    fixed_path: str
    truth_path: str | None = None


def write_manifest(path, entries) -> None:
    with open(path, "w") as fh:
        for e in entries:
            line = f"{e.moving_path} {e.fixed_path}"
            if e.truth_path:
                line += f" {e.truth_path}"
            fh.write(line + "\n")


@text_reader
def read_manifest(path):
    entries = []
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) not in (2, 3):
                raise ValueError(f"{path}:{ln}: expected 2 or 3 fields")
            entries.append(PairEntry(parts[0], parts[1],
                                     parts[2] if len(parts) == 3 else None))
    return entries


def split_indices(n: int, seed: int, ratios=(0.8, 0.1, 0.1)):
    """Deterministic train/validation/test split of ``n`` items."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("split ratios must sum to 1")
    order = np.random.Generator(np.random.Philox(seed)).permutation(n)
    n_train = int(round(n * ratios[0]))
    n_val = int(round(n * ratios[1]))
    return (order[:n_train], order[n_train:n_train + n_val],
            order[n_train + n_val:])


# -- training --------------------------------------------------------------

@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_cc: float


def _validation_cc(model: StageModel, pairs) -> float:
    scores = []
    for moving, fixed in pairs:
        _, warped = model.register(moving, fixed)
        _, mean = cc_similarity(fixed, warped, warped.mask)
        scores.append(mean)
    return float(np.mean(scores)) if scores else float("nan")


def train_stage(stage: StageConfig, train_pairs, val_pairs, seed: int,
                log=None):
    """Train one stage with per-epoch shuffling and best-validation
    checkpointing; without validation pairs the last epoch's weights are
    kept.  Returns (best parameter store, epoch trace)."""
    model = StageModel(stage, seed=seed)
    shuffle_rng = np.random.Generator(np.random.Philox(seed + 1))
    best_store = model.store.copy()
    best_cc = -np.inf
    trace = []
    for epoch in range(stage.epochs):
        losses = []
        for i in shuffle_rng.permutation(len(train_pairs)):
            moving, fixed = train_pairs[i]
            loss = model.pair_loss(moving, fixed)
            if not np.isfinite(loss.value):
                raise FloatingPointError(
                    f"non-finite training loss at epoch {epoch}")
            loss.backward()
            model.store.adam_step(stage.lr)
            losses.append(float(loss.value))
            del loss  # the step's tape goes before the next one is built
        val_cc = _validation_cc(model, val_pairs)
        record = EpochRecord(epoch, float(np.mean(losses)), val_cc)
        trace.append(record)
        if log is not None:
            log(record)
        if not val_pairs or val_cc > best_cc:
            best_cc = val_cc
            best_store = model.store.copy()
    return best_store, trace


def warp_pairs(stage: StageConfig, store: ParamStore, pairs, seed: int = 0):
    """Replace each pair's moving map by its registration through a trained
    stage (the hand-off between serial stages).  The model is built from
    ``store``, so ``seed`` does not affect the result."""
    model = StageModel(stage, store)
    out = []
    for moving, fixed in pairs:
        _, warped = model.register(moving, fixed)
        out.append((warped, fixed))
    return out


def register_pair(stages, moving: SphericalFeatureMap,
                  fixed: SphericalFeatureMap):
    """Apply trained stages serially, composing the deformations.

    ``stages`` is a list of (StageConfig, ParamStore).  Returns the
    composed DeformationField, the final warped map, and the metrics dict.
    """
    from .metrics import distortion_stats, metrics_report

    if not stages:
        raise ValueError("need at least one trained stage")
    current = moving
    field_ = None
    for stage, store in stages:
        if stage.input_order != moving.sphere_order:
            raise ValueError(
                f"stage expects order {stage.input_order}, "
                f"data is order {moving.sphere_order}")
        model = StageModel(stage, store)
        logits, faces = model.refine(current, fixed)
        step_field, current = model.register(current, fixed, logits, faces)
        field_ = step_field if field_ is None else compose(field_, step_field)
    sphere = build_icosphere(moving.sphere_order)
    stats = distortion_stats(sphere, field_)
    report = metrics_report(fixed, current, stats)
    return field_, current, report


# -- run configuration -----------------------------------------------------

@dataclass
class RunConfig:
    manifest: str
    seed: int
    stages: list = field(default_factory=list)
    ratios: tuple[float, ...] = (0.8, 0.1, 0.1)

    def __post_init__(self):
        require(self.seed >= 0, "seed", "must be >= 0")
        require(len(self.ratios) == 3 and min(self.ratios) >= 0
                and abs(sum(self.ratios) - 1.0) <= 1e-9, "ratios",
                "need three nonnegative ratios that sum to 1")


# [stage.N] keys of the run INI: every setting, with the CRF switch as crf
_STAGE_KEYS = {f.name: f.name for f in fields(StageConfig)
               if f.name != "use_crf"}
_STAGE_KEYS["crf"] = "use_crf"
_DATA_KEYS = {"manifest": "manifest", "seed": "seed", "split": "ratios"}
# the settings a checkpoint's .cfg carries: what the .arch file does not
_CFG_KEYS = {f.name: f.name for f in fields(StageConfig)
             if f.name not in {g.name for g in fields(NetConfig)}}
_STAGE_SECTION = re.compile(r"stage\.([1-9][0-9]*)")


@text_reader
def _read_ini(path, cp: configparser.ConfigParser) -> None:
    """Parse the INI file at ``path`` into ``cp``.  A file that cannot be
    opened raises OSError, a malformed one ValueError."""
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except configparser.Error as exc:
        raise ValueError(" ".join(str(exc).split())) from None


def read_run_config(path) -> RunConfig:
    """The run INI: [data] and [stage.1] ... [stage.K].  An unknown section
    or key, or a gap in the stage numbers, raises ValueError."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   interpolation=None)
    try:
        _read_ini(path, cp)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    numbered = {}
    for name in cp.sections():
        match = _STAGE_SECTION.fullmatch(name)
        if match:
            numbered[int(match[1])] = name
        elif name != "data":
            raise ValueError(f"{path}: unknown section [{name}]")
    if "data" not in cp:
        raise ValueError(f"{path}: missing [data] section")
    data = parse_settings(RunConfig, cp["data"].items(), f"{path} [data]",
                          _DATA_KEYS)
    if not numbered:
        raise ValueError(f"{path}: no [stage.N] sections")
    for n in range(1, max(numbered) + 1):
        if n not in numbered:
            raise ValueError(f"{path}: [stage.{max(numbered)}] without "
                             f"[stage.{n}]; number stages 1, 2, ... in order")
    data["stages"] = []
    for n in sorted(numbered):
        where = f"{path} [stage.{n}]"
        data["stages"].append(build_config(StageConfig, parse_settings(
            StageConfig, cp[numbered[n]].items(), where, _STAGE_KEYS), where,
            _STAGE_KEYS))
    return build_config(RunConfig, data, f"{path} [data]", _DATA_KEYS)


def write_stage_cfg(path, stage: StageConfig) -> None:
    """Persist the loss/optimizer settings that the architecture file does
    not carry (needed to refine at registration time)."""
    cp = configparser.ConfigParser()
    cp["stage"] = {name: str(getattr(stage, name)) for name in _CFG_KEYS}
    with open(path, "w") as fh:
        cp.write(fh)


def read_stage_cfg(path) -> dict:
    """The settings ``write_stage_cfg`` persisted, as ``StageConfig``
    keyword arguments.  Other keys are skipped: checkpoints written by
    earlier versions carry settings that no longer exist (and lack
    ``use_crf``).  A missing file raises OSError."""
    cp = configparser.ConfigParser(interpolation=None)
    _read_ini(path, cp)
    if "stage" not in cp:
        raise ValueError(f"{path}: missing [stage] section")
    return parse_settings(StageConfig, cp["stage"].items(), f"{path} [stage]",
                          _CFG_KEYS, skip_unknown=True)


def stage_path(ckpt_dir, k: int, suffix: str) -> str:
    """The file of stage ``k`` with ``suffix`` in a checkpoint directory:
    ``.arch``, ``.gmw``, ``.cfg`` or ``_trace.csv``."""
    return os.path.join(ckpt_dir, f"stage{k}{suffix}")


def write_stage(ckpt_dir, k: int, stage: StageConfig,
                store: ParamStore) -> None:
    """Write the checkpoint of stage ``k`` to ``ckpt_dir``, the files that
    ``read_stages`` reads: the weights to ``.gmw``, the architecture to
    ``.arch`` and the other settings to ``.cfg``."""
    write_gmw(stage_path(ckpt_dir, k, ".gmw"), store)
    write_arch(stage_path(ckpt_dir, k, ".arch"), stage.net_config())
    write_stage_cfg(stage_path(ckpt_dir, k, ".cfg"), stage)


def read_stages(ckpt_dir):
    """(StageConfig, ParamStore) of the checkpoints stage1 ... stageK that
    ``train_run`` wrote to ``ckpt_dir``: the architecture from ``.arch``,
    the weights from ``.gmw`` and the other settings from ``.cfg``.  Each
    stage needs all three files; a missing one raises OSError, and any
    other fault ValueError naming its file."""
    names = os.listdir(ckpt_dir) if os.path.isdir(ckpt_dir) else []
    found = sorted(int(m[1]) for m in
                   (re.fullmatch(r"stage([1-9][0-9]*)\.arch", n) for n in names)
                   if m)
    if not found:
        raise ValueError(f"no stage checkpoints in {ckpt_dir}")
    if found != list(range(1, len(found) + 1)):
        gap = min(set(range(1, found[-1] + 1)) - set(found))
        raise ValueError(f"{ckpt_dir}: stage{found[-1]}.arch without "
                         f"stage{gap}.arch")
    stages = []
    for k in found:
        settings = asdict(read_arch(stage_path(ckpt_dir, k, ".arch")))
        store = read_gmw(stage_path(ckpt_dir, k, ".gmw"))
        cfg = stage_path(ckpt_dir, k, ".cfg")
        settings.update(read_stage_cfg(cfg))
        # a .cfg without the switch: the CRF is on when the .gmw holds the
        # weight blocks that checkpoints carried then (they are not read)
        settings.setdefault("use_crf", "crf.omega" in store)
        stage = build_config(StageConfig, settings, f"{cfg} [stage]")
        try:
            StageModel(stage, store)  # the store holds every block it needs
        except ValueError as exc:
            raise ValueError(f"{stage_path(ckpt_dir, k, '.gmw')}: {exc}") \
                from None
        stages.append((stage, store))
    return stages


def training_split(cfg: RunConfig, n_pairs: int):
    """The run's train/validation/test split of ``n_pairs`` pairs; a split
    that leaves no training pair raises ValueError."""
    tr, va, te = split_indices(n_pairs, cfg.seed, cfg.ratios)
    if len(tr) == 0:
        raise ValueError(f"{cfg.manifest}: no training pairs: split "
                         f"{','.join(map(str, cfg.ratios))} of {n_pairs} "
                         "pairs")
    return tr, va, te


def train_run(cfg: RunConfig, pairs, ckpt_dir, log=None):
    """Full training on the (moving, fixed) ``pairs`` of the manifest:
    split, train each stage serially, and write its checkpoint (the files
    ``read_stages`` reads) and CSV trace.  A split that leaves no training
    pair raises ValueError before anything is written."""
    tr, va, te = training_split(cfg, len(pairs))
    train_pairs = [pairs[i] for i in tr]
    val_pairs = [pairs[i] for i in va]

    os.makedirs(ckpt_dir, exist_ok=True)
    trained = []
    for k, stage in enumerate(cfg.stages, 1):
        store, trace = train_stage(stage, train_pairs, val_pairs, cfg.seed,
                                   log=log)
        write_stage(ckpt_dir, k, stage, store)
        with open(stage_path(ckpt_dir, k, "_trace.csv"), "w") as fh:
            fh.write("epoch,train_loss,val_cc\n")
            for rec in trace:
                fh.write(f"{rec.epoch},{rec.train_loss:.17g},"
                         f"{rec.val_cc:.17g}\n")
        trained.append((stage, store))
        if k < len(cfg.stages):
            train_pairs = warp_pairs(stage, store, train_pairs, cfg.seed)
            val_pairs = warp_pairs(stage, store, val_pairs, cfg.seed)
    return trained, (tr, va, te)
