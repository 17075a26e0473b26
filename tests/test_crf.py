"""Tests for the mean-field CRF over control-point label distributions."""

import numpy as np
import pytest

from spherereg import autodiff as ad
from spherereg.crf import (
    CrfConfig,
    crf_energy,
    crf_forward,
    crf_forward_tensor,
    default_weights,
    gaussian_message,
    meanfield_reference,
    meanfield_step,
)
from spherereg.mesh import build_icosphere
from spherereg.optim import ParamStore, grad_check
from spherereg.warp import build_label_space, control_grid, soft_deform_tensor


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


def test_message_diagonal_excluded():
    # [DERIVED] with a single off-diagonal pair the message reduces to one
    # kernel evaluation; the self term must not contribute
    labels, u, _, _ = _instance(3, n_l=3)
    cfg = CrfConfig()
    q = _softmax(u[:, :3])
    omega = np.zeros((12, 12))
    omega[0, 1] = 0.7
    qt = ad.constant(q)
    endpoints = soft_deform_tensor(labels, qt)
    msg = gaussian_message(qt, endpoints, labels, omega, cfg).value
    assert np.allclose(msg[1:], 0.0, atol=1e-15)
    centers = build_icosphere(0).vertices
    d = (labels.endpoints[0] - centers[0]) \
        - (endpoints.value[1] - centers[1])  # (N_l, 3)
    kern = np.exp(-(d**2).sum(axis=1) / (2 * cfg.gamma**2))
    assert np.allclose(msg[0], 0.7 * kern * q[1], atol=1e-12)


def test_frozen_filter_weights_free_the_kernel_and_change_no_bits():
    # the filter weights are constants: the tape holds the filtered kernel
    # alone, with no unfiltered copy, and takes no gradient in omega
    labels, u, omega, _ = _instance(5)
    omega[3] = 0.0  # point 3 hears no partner
    q = ad.Tensor(_softmax(u))
    msg = gaussian_message(q, soft_deform_tensor(labels, q), labels, omega,
                           CrfConfig())
    assert len(msg.parents) == 2
    kernels = {id(cell.cell_contents): cell.cell_contents
               for cell in _closure(msg.vjp)
               if np.shape(cell.cell_contents) == (4, 12, 12)}
    assert len(kernels) == 1
    (kernel,) = kernels.values()
    # the filtered kernel: zero where omega is
    assert np.all(kernel[:, 3] == 0.0) and np.all(kernel[:, 4, 5] > 0.0)


def _closure(fn):
    """The cells ``fn`` closes over, and those of the functions in them."""
    cells = list(fn.__closure__ or ())
    for cell in list(cells):
        cells += getattr(cell.cell_contents, "__closure__", None) or ()
    return cells


@pytest.mark.parametrize("partner_grad", [True, False])
def test_message_vjps_match_explicit_formulas(partner_grad):
    # msg[i, k] = sum_{j != i} omega[i, j] K[i, j, k] q[j, k] with
    # K = exp(-|d_ik - p_j|^2 / (2 gamma^2)): the q and endpoint VJPs of
    # the one shared backward pass against their einsum expansions; with
    # constant endpoints the q VJP runs alone
    labels, u, omega, _ = _instance(37)
    cfg = CrfConfig(gamma=0.7)
    rng = np.random.Generator(np.random.Philox(38))
    q = ad.Tensor(_softmax(u))
    partner = ad.Tensor(soft_deform_tensor(labels, ad.constant(q.value)).value,
                        requires_grad=partner_grad)
    msg = gaussian_message(q, partner, labels, omega, cfg)
    g = rng.standard_normal(u.shape)
    ad.sum_(msg * g).backward()
    centers = build_icosphere(0).vertices
    d = labels.endpoints - centers[:, None, :]  # (N_c, N_l, 3)
    p = partner.value - centers
    diff = d[:, None, :, :] - p[None, :, None, :]  # [i, j, k, :]
    kern = np.exp(-(diff**2).sum(axis=3) / (2 * cfg.gamma**2))
    w = omega * (1.0 - np.eye(len(omega)))
    assert np.abs(msg.value - np.einsum("ij,ijk,jk->ik", w, kern, q.value)
                  ).max() < 1e-12
    grad_q = np.einsum("ik,ij,ijk->jk", g, w, kern)
    grad_p = np.einsum("ik,ij,jk,ijk,ijkd->jd", g, w, q.value, kern,
                       diff) / cfg.gamma**2
    assert np.abs(q.grad - grad_q).max() < 1e-12
    if partner_grad:
        assert np.abs(partner.grad - grad_p).max() < 1e-12
    else:
        assert partner.grad is None


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
    # [DERIVED] hand-computed energy of a 2-point assignment
    labels, u, _, _ = _instance(19, n_l=2)
    cfg = CrfConfig()
    q = _softmax(u[:2, :2])
    omega = np.array([[0.0, 0.5], [0.5, 0.0]])
    mu = np.array([[0.0, -1.0], [2.0, 0.0]])
    assign = np.array([0, 1])
    got = crf_energy(assign, q, labels, omega, mu, cfg)
    centers = build_icosphere(0).vertices
    d = (labels.endpoints[0, 0] - centers[0]) \
        - (labels.endpoints[1, 1] - centers[1])
    kern = np.exp(-(d**2).sum() / (2 * cfg.gamma**2))
    expect = -np.log(q[0, 0]) - np.log(q[1, 1]) \
        + mu[0, 1] * 0.5 * kern + mu[1, 0] * 0.5 * kern
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
        e0 = crf_energy(np.argmax(q0, axis=1), q0, labels, omega, mu, cfg)
        e1 = crf_energy(np.argmax(q1, axis=1), q0, labels, omega, mu, cfg)
        if e1 <= e0 + 1e-9:
            better += 1
    assert better >= 7


# -- gradients -------------------------------------------------------------

def test_crf_gradients_finite_difference():
    # a wide kernel keeps every pairwise term well away from underflow so
    # the finite-difference probes are well-conditioned
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


def test_gaussian_message_grad_check():
    # the message node alone, in both of its inputs
    labels, u, omega, _ = _instance(31, n_l=3)
    cfg = CrfConfig(gamma=0.7)
    rng = np.random.Generator(np.random.Philox(31))
    store = ParamStore()
    store.add("q", _softmax(u))
    store.add("partner", soft_deform_tensor(labels, ad.constant(_softmax(u))).value)
    probe = rng.standard_normal((12, 3))

    def loss_fn(params):
        msg = gaussian_message(params["q"], params["partner"], labels, omega,
                               cfg)
        return ad.sum_(msg * probe)

    assert grad_check(loss_fn, store, n_probes=20, seed=32) < 1e-4
