"""Tests for the mean-field CRF over control-point label distributions."""

import numpy as np
import pytest

from spherereg import autodiff as ad
from spherereg.crf import (
    CrfConfig,
    crf_energy,
    crf_forward,
    crf_forward_tensor,
    _label_rotations,
    _normalized_filter,
    default_weights,
    meanfield_reference,
    meanfield_step,
    rotation_message,
)
from spherereg.mesh import build_icosphere
from spherereg.optim import ParamStore, grad_check
from spherereg.warp import build_label_space, control_grid


def _softmax(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _instance(seed, n_c=12, n_l=4, label_order=2):
    """A small random CRF instance on the order-0 control grid."""
    rng = np.random.Generator(np.random.Philox(seed))
    labels = build_label_space(control_grid(0), label_order, n_l)
    u = rng.standard_normal((n_c, n_l))
    omega = rng.random((n_c, n_c))
    mu = rng.standard_normal((n_l, n_l))
    return labels, u, omega, mu


# -- configuration and parameters ------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        CrfConfig(iterations=0)
    with pytest.raises(ValueError):
        CrfConfig(gamma=0.0)


@pytest.mark.parametrize("settings, key", [({"iterations": 0}, "iterations"),
                                           ({"gamma": 0.0}, "gamma")])
def test_config_errors_name_their_own_fields(settings, key):
    from spherereg.conv import SettingError

    with pytest.raises(SettingError) as raised:
        CrfConfig(**settings)
    assert raised.value.key == key


def test_init_crf_params():
    # the fixed weights of a stage: shared, cached and read-only
    omega, mu = default_weights(0, 5)
    assert default_weights(0, 5)[0] is omega
    for a in (omega, mu):
        with pytest.raises(ValueError):
            a[0, 0] = 2.0
    assert omega.shape == (12, 12)
    assert np.allclose(omega, omega.T)
    assert np.allclose(np.diag(omega), 1.0)
    assert np.all(omega > 0) and np.all(omega <= 1)
    # farther control points couple more weakly
    pts = build_icosphere(0).vertices
    geo = np.arccos(np.clip(pts @ pts.T, -1, 1))
    assert omega[0, np.argmax(geo[0])] == omega.min()
    # Potts penalty: zero cost for agreement, unit cost otherwise
    assert np.array_equal(mu, 1.0 - np.eye(5))


# -- pieces against hand computation ---------------------------------------

def test_zero_filter_weights_leave_unaries():
    # omega = 0 kills every message, so each iteration returns softmax(u)
    labels, u, _, mu = _instance(1)
    cfg = CrfConfig(iterations=3)
    q, _ = crf_forward(u, labels, _store(np.zeros((12, 12)), mu), cfg)
    assert np.allclose(q, _softmax(u), atol=1e-15)


def test_zero_compatibility_leaves_unaries():
    labels, u, omega, _ = _instance(2)
    cfg = CrfConfig(iterations=3)
    q, _ = crf_forward(u, labels, _store(omega, np.zeros((4, 4))), cfg)
    assert np.allclose(q, _softmax(u), atol=1e-15)


def _store(omega, mu):
    store = ParamStore()
    store.add("crf.omega", omega)
    store.add("crf.mu", mu)
    return store


def test_label_rotations_carry_each_point_to_its_labels():
    # R_ik is a proper rotation taking c_i to e_ik; the nearest label of a
    # point is the point itself, whose rotation is the identity
    labels = build_label_space(control_grid(1), 3, 80)
    table = _label_rotations(labels)
    assert _label_rotations(labels) is table
    with pytest.raises(ValueError):
        table[0, 0, 0] = 2.0
    rot = table.reshape(42, 80, 3, 3)
    centers = build_icosphere(1).vertices
    assert np.abs(rot @ np.swapaxes(rot, 2, 3) - np.eye(3)).max() < 1e-14
    assert np.abs(np.linalg.det(rot) - 1.0).max() < 1e-14
    assert np.abs(np.einsum("ikab,ib->ika", rot, centers)
                  - labels.endpoints).max() < 1e-14
    assert np.array_equal(labels.endpoints[:, 0], centers)
    assert np.array_equal(rot[:, 0], np.broadcast_to(np.eye(3), (42, 3, 3)))
    # the smallest rotation turns about c_i x e_ik, which it keeps fixed
    axis = np.cross(centers[:, None, :], labels.endpoints)
    assert np.abs(np.einsum("ikab,ikb->ika", rot, axis) - axis).max() < 1e-14
    # a control point's antipode has no smallest rotation
    with pytest.raises(ValueError, match="antipode"):
        _label_rotations(build_label_space(control_grid(0), 1, 42))


def test_message_diagonal_excluded():
    # [DERIVED] with a single off-diagonal pair the message of point 0 is
    # 2 gamma w <R_0k, Rbar_1>_F and every other row is zero; the self
    # weights, dropped by the filter, must not contribute
    labels, u, _, _ = _instance(3, n_l=3)
    cfg = CrfConfig()
    q = _softmax(u[:, :3])
    omega = np.eye(12)
    omega[0, 1] = 0.7
    msg = rotation_message(ad.constant(q), labels, _normalized_filter(omega),
                           cfg.gamma).value
    assert np.all(msg[1:] == 0.0)
    rot = _label_rotations(labels)
    expect = 2 * cfg.gamma * rot[0] @ (q[1] @ rot[1])
    assert np.allclose(msg[0], expect, atol=1e-12, rtol=0)
    # a point does not hear itself
    labels, u, _, mu = _instance(4)
    q, _ = crf_forward(u, labels, _store(np.eye(12), mu), cfg)
    assert np.allclose(q, _softmax(u), atol=1e-15)


def test_message_keeps_only_shared_arrays():
    # the weights are constants: the node's one parent is q, and its VJP
    # holds the shared rotation table and the weights, no per-call kernel
    labels, u, omega, _ = _instance(5)
    q = ad.Tensor(_softmax(u))
    msg = rotation_message(q, labels, omega, CrfConfig().gamma)
    assert msg.parents == (q,)
    arrays = [cell.cell_contents for cell in _closure(msg.vjp)
              if isinstance(cell.cell_contents, np.ndarray)]
    assert sorted(a.size for a in arrays) == [12 * 12, 12 * 4 * 9]
    assert any(a is _label_rotations(labels) for a in arrays)


def _closure(fn):
    """The cells ``fn`` closes over, and those of the functions in them."""
    cells = list(fn.__closure__ or ())
    for cell in list(cells):
        cells += getattr(cell.cell_contents, "__closure__", None) or ()
    return cells


@pytest.mark.parametrize("q_grad", [True, False])
def test_message_vjps_match_explicit_formulas(q_grad):
    # msg[i, k] = 2 gamma sum_{j, l} w[i, j] q[j, l] <R_ik, R_jl>_F: the
    # forward and the q VJP against their einsum expansions; with a
    # constant q the node keeps no tape
    labels, u, omega, _ = _instance(37)
    cfg = CrfConfig(gamma=0.7)
    rng = np.random.Generator(np.random.Philox(38))
    q = ad.Tensor(_softmax(u), requires_grad=q_grad)
    msg = rotation_message(q, labels, omega, cfg.gamma)
    rot = _label_rotations(labels).reshape(12, 4, 3, 3)
    inner = np.einsum("ikab,jlab->ikjl", rot, rot)
    expect = 2 * cfg.gamma * np.einsum("ij,jl,ikjl->ik", omega, q.value, inner)
    assert np.abs(msg.value - expect).max() < 1e-12
    if not q_grad:
        assert not msg.requires_grad and msg.parents == ()
        return
    g = rng.standard_normal(u.shape)
    ad.sum_(msg * g).backward()
    grad_q = 2 * cfg.gamma * np.einsum("ik,ij,ikjl->jl", g, omega, inner)
    assert np.abs(q.grad - grad_q).max() < 1e-12


# -- staged implementation vs the naive oracle -----------------------------

def test_staged_matches_naive_reference():
    cfg = CrfConfig(iterations=4)
    for seed in range(5):
        labels, u, omega, mu = _instance(seed, n_l=4)
        q, _ = crf_forward(u, labels, _store(omega, mu), cfg)
        trace = meanfield_reference(u, labels, omega, mu, cfg)
        assert np.max(np.abs(q - trace[-1])) <= 1e-12


def test_rows_stay_stochastic():
    labels, u, omega, mu = _instance(11)
    cfg = CrfConfig(iterations=5)
    q, endpoints = crf_forward(u, labels, _store(omega, mu), cfg)
    assert np.allclose(q.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(q >= 0)
    assert np.allclose(np.linalg.norm(endpoints, axis=1), 1.0, atol=1e-12)


def test_meanfield_converges_to_fixed_point():
    # successive estimates contract for a well-scaled instance
    labels, u, omega, mu = _instance(13)
    omega *= 0.3
    cfg = CrfConfig(iterations=1)
    trace = meanfield_reference(u, labels, omega, mu, cfg, iterations=12)
    deltas = [np.max(np.abs(a - b)) for a, b in zip(trace[1:], trace[:-1])]
    assert deltas[-1] < 1e-6


def test_nonfinite_update_raises():
    labels, u, omega, mu = _instance(17)
    cfg = CrfConfig()
    store = _store(np.full((12, 12), np.nan), mu)
    with pytest.raises(FloatingPointError):
        crf_forward(u, labels, store, cfg)


# -- energy ----------------------------------------------------------------

def test_energy_oracle_two_points():
    # [DERIVED] hand-computed energy of a 2-point assignment: each
    # unordered pair costs gamma times its mean weight times the squared
    # distance between the assigned rotations
    labels, u, _, _ = _instance(19, n_l=2)
    cfg = CrfConfig()
    q = _softmax(u[:2, :2])
    weights = np.array([[0.0, 0.5], [0.3, 0.0]])
    assign = np.array([0, 1])
    got = crf_energy(assign, q, labels, weights, cfg)
    rot = _label_rotations(labels)
    d = rot[0, 0] - rot[1, 1]
    expect = -np.log(q[0, 0]) - np.log(q[1, 1]) \
        + cfg.gamma * 0.4 * (d**2).sum()
    assert got == pytest.approx(expect, abs=1e-12)


def test_meanfield_lowers_argmax_energy_on_average():
    # regularization should not typically worsen the discrete energy of
    # the most probable assignment
    cfg = CrfConfig(iterations=5)
    better = 0
    for seed in range(10):
        labels, u, omega, _ = _instance(seed + 100)
        omega = 0.5 * (omega + omega.T)
        mu = 1.0 - np.eye(4)
        q0 = _softmax(u)
        q1, _ = crf_forward(u, labels, _store(omega, mu), cfg)
        weights = _normalized_filter(omega)
        e0 = crf_energy(np.argmax(q0, axis=1), q0, labels, weights, cfg)
        e1 = crf_energy(np.argmax(q1, axis=1), q0, labels, weights, cfg)
        if e1 <= e0 + 1e-9:
            better += 1
    assert better >= 7


# -- gradients -------------------------------------------------------------

def test_crf_gradients_finite_difference():
    # a moderate coupling keeps the mean-field map smooth, so the
    # finite-difference probes are well-conditioned
    labels, u, omega, mu = _instance(23, n_l=3)
    cfg = CrfConfig(iterations=2, gamma=0.7)
    rng = np.random.Generator(np.random.Philox(23))
    store = ParamStore()
    store.add("u", u[:, :3])
    probe = rng.standard_normal((12, 3))

    def loss_fn(params):
        q, _ = crf_forward_tensor(params["u"], labels, omega, mu[:3, :3], cfg)
        return ad.sum_(q * probe)

    assert grad_check(loss_fn, store, n_probes=25, seed=29) < 1e-4


def test_rotation_message_grad_check():
    # the message node alone
    labels, u, omega, _ = _instance(31, n_l=3)
    cfg = CrfConfig(gamma=0.7)
    rng = np.random.Generator(np.random.Philox(31))
    store = ParamStore()
    store.add("q", _softmax(u))
    probe = rng.standard_normal((12, 3))

    def loss_fn(params):
        msg = rotation_message(params["q"], labels, omega, cfg.gamma)
        return ad.sum_(msg * probe)

    assert grad_check(loss_fn, store, n_probes=20, seed=32) < 1e-4
