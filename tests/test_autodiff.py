import numpy as np
import pytest

from spherereg import autodiff as ad
from spherereg.conv import tape_maxpool
from spherereg.mesh import (
    SphericalFeatureMap,
    build_icosphere,
    pool_features,
    vertex_count,
)
from spherereg.optim import ParamStore, check_registered_ops, grad_check


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


class TestForward:
    def test_zero_affine(self):
        w = ad.constant(np.zeros((3, 4)))
        x = ad.constant(rng(0).standard_normal((5, 3)))
        assert np.all((x @ w).value == 0)

    def test_identity_chain_bitwise(self):
        x = rng(1).standard_normal((4, 4))
        t = ad.Tensor(x)
        perm = np.array([2, 0, 3, 1])
        out = ad.gather(ad.gather(t, perm), np.argsort(perm))
        assert np.array_equal(out.value, x)

    def test_composition_matches_manual(self):
        g = rng(2)
        w1, w2 = g.standard_normal((3, 5)), g.standard_normal((5, 2))
        x = g.standard_normal((4, 3))
        composed = ad.leaky_relu(ad.Tensor(x) @ ad.Tensor(w1)) @ ad.Tensor(w2)
        h = np.where(x @ w1 > 0, x @ w1, 0.2 * (x @ w1))
        assert np.abs(composed.value - h @ w2).max() < 1e-12

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            _ = ad.Tensor(np.ones((2, 3))) @ ad.Tensor(np.ones((2, 3)))

    # the ring max reduction now lives in one node, conv.tape_maxpool
    def test_max_reduce_matches_np_max_with_ties_and_padding(self):
        # integer features tie inside most rings; -inf inputs and a ring
        # that is -inf throughout in one channel; pentagon rings pad their
        # last slot with the center
        a = _tied_features(15)
        out = tape_maxpool(ad.constant(a), 2)
        ring = build_icosphere(2).nbr_pad[:vertex_count(1)]
        assert out.value.tobytes() == np.max(a[ring], axis=1).tobytes()
        assert out.value.tobytes() == \
            pool_features(SphericalFeatureMap(2, a)).values.tobytes()

    def test_max_reduce_gradient_routes_to_first_argmax(self):
        # each coarse row's cotangent goes to the first maximum of its
        # ring (center, then neighbours)
        a = _tied_features(16)
        x = ad.Tensor(a)
        n = vertex_count(1)
        seed = rng(17).standard_normal((n, 3))
        tape_maxpool(x, 2).backward(seed)
        sphere = build_icosphere(2)
        expect = np.zeros_like(a)
        ties = 0
        for i in range(n):
            ring = sphere.nbr_pad[i][sphere.nbr_mask[i]]
            for c in range(3):
                vals = list(a[ring, c])
                ties += vals.count(max(vals)) > 1
                expect[ring[vals.index(max(vals))], c] += seed[i, c]
        assert ties > n
        assert np.array_equal(x.grad, expect)


def _tied_features(seed):
    a = rng(seed).integers(-2, 3, size=(vertex_count(2), 3)).astype(np.float64)
    sphere = build_icosphere(2)
    a[sphere.nbr_pad[0], 1] = -np.inf
    a[sphere.nbr_pad[13][:3], 2] = -np.inf
    return a


class TestBackward:
    def test_sum_of_identity_gives_ones(self):
        x = ad.Tensor(rng(3).standard_normal((6, 2)))
        loss = ad.sum_(x)
        loss.backward()
        assert np.array_equal(x.grad, np.ones((6, 2)))

    def test_quadratic_closed_form(self):
        g = rng(4)
        w = ad.Tensor(g.standard_normal((4, 3)))
        x = ad.constant(g.standard_normal((3, 1)))
        y = w @ x
        loss = 0.5 * ad.sum_(y * y)
        loss.backward()
        expected = (w.value @ x.value) @ x.value.T
        assert np.abs(w.grad - expected).max() < 1e-10

    def test_backward_needs_scalar(self):
        x = ad.Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_gradient_linearity_in_cotangent(self):
        x = ad.Tensor(rng(5).standard_normal((3, 3)))
        y = ad.softmax_rows(x)
        seed = rng(6).standard_normal((3, 3))
        y.backward(seed)
        g1 = x.grad.copy()
        x2 = ad.Tensor(x.value.copy())
        y2 = ad.softmax_rows(x2)
        y2.backward(3.0 * seed)
        assert np.abs(x2.grad - 3.0 * g1).max() < 1e-12

    def test_zero_cotangent_zero_grad(self):
        x = ad.Tensor(rng(7).standard_normal((3, 3)))
        y = ad.softmax_rows(x)
        y.backward(np.zeros((3, 3)))
        assert np.all(x.grad == 0)

    def test_unreachable_param_zero(self):
        store = ParamStore()
        a = store.add("a", np.ones(3))
        store.add("b", np.ones(3))
        loss = ad.sum_(a * a)
        loss.backward()
        assert store["b"].grad is None

    def test_node_of_constants_keeps_no_tape(self):
        g = rng(15)
        a, b = (ad.constant(g.standard_normal((4, 3))) for _ in range(2))
        for out in (a + b, a * b, a @ ad.constant(np.ones((3, 2))),
                    ad.leaky_relu(a), ad.concat([a, b], axis=1),
                    ad.gather(a, np.array([1, 1, 0])), ad.softmax_rows(a)):
            assert not out.requires_grad
            assert out.parents == () and out.vjp is None

    def test_node_with_a_parameter_input_keeps_its_tape(self):
        g = rng(16)
        w = ParamStore().add("w", g.standard_normal((4, 3)))
        c = ad.constant(g.standard_normal((4, 3)))
        out = w * c
        assert out.requires_grad
        assert out.parents == (w, c) and out.vjp is not None
        ad.sum_(out).backward()
        assert np.array_equal(w.grad, c.value)

    def test_accumulation_matches_zero_fill_and_never_writes_in_place(self):
        # one leaf reaches the loss by three paths: a concat (whose VJP
        # returns a view of its cotangent), a broadcast add and a gather
        g = rng(14)
        x = ad.Tensor(g.standard_normal((4, 3)))
        bias = ad.Tensor(g.standard_normal((2, 4, 3)))
        w = [g.standard_normal(s) for s in ((4, 5), (2, 4, 3), (5, 3))]
        paths = [ad.concat([x, ad.constant(g.standard_normal((4, 2)))],
                           axis=1),
                 ad.add(x, bias),
                 ad.gather(x, np.array([0, 2, 2, 3, 0]))]
        loss = ad.sum_(paths[0] * w[0]) + ad.sum_(paths[1] * w[1]) + \
            ad.sum_(paths[2] * w[2])
        order = ad._toposort(loss)

        # a copy of the cotangent each node hands to its VJP, and how many
        # times the VJP runs
        seen = {}
        calls = {}

        def recording(node, vjp):
            def wrapped(g):
                seen.setdefault(id(node), g.copy())
                calls[id(node)] = calls.get(id(node), 0) + 1
                return vjp(g)
            return wrapped

        nodes = [node for node in order if node.vjp is not None]
        for node in nodes:
            node.vjp = recording(node, node.vjp)
        loss.backward()
        assert calls == {id(node): 1 for node in nodes}
        for node in order:
            if id(node) in seen:
                assert node.grad.tobytes() == seen[id(node)].tobytes()

        # the zero-fill rule the lean backward replaces
        for node in order:
            node.grad = None
        loss.grad = np.ones(())
        for node in nodes:
            contribs = node.vjp(node.grad) if node.grad is not None else ()
            for parent, contrib in zip(node.parents, contribs):
                if parent.requires_grad:
                    if parent.grad is None:
                        parent.grad = np.zeros_like(parent.value)
                    parent.grad = parent.grad + contrib
        reference = x.grad.copy()
        for node in order:
            node.grad = None
        loss.backward()
        assert x.grad.tobytes() == reference.tobytes()

    def test_determinism(self):
        def run():
            g = rng(8)
            x = ad.Tensor(g.standard_normal((10, 4)))
            w = ad.Tensor(g.standard_normal((4, 4)))
            q = ad.softmax_rows(ad.leaky_relu(x @ w))
            loss = ad.sum_(q * q)
            loss.backward()
            return loss.value.copy(), x.grad.copy(), w.grad.copy()

        r1, r2 = run(), run()
        for a, b in zip(r1, r2):
            assert np.array_equal(a, b)


class TestRegisteredOps:
    def test_all_primitives_pass_fd(self):
        errors = check_registered_ops(n_probes=20, seed=0)
        bad = {k: v for k, v in errors.items() if v >= 1e-4}
        assert not bad, f"primitives failing FD check: {bad}"

    def test_linear_op_near_exact(self):
        store = ParamStore()
        store.add("w", rng(9).standard_normal((4, 3)))
        x = ad.constant(rng(10).standard_normal((5, 4)))

        def loss_fn(p):
            return ad.sum_(x @ p["w"])

        assert grad_check(loss_fn, store, n_probes=10) < 1e-8

    def test_softmax_cross_entropy(self):
        store = ParamStore()
        store.add("u", rng(11).standard_normal((6, 4)))
        target = rng(12).integers(0, 4, size=6)
        onehot = np.eye(4)[target]

        def loss_fn(p):
            # softmax scored against one-hot targets by squared error: the
            # tape has no log op, as the program takes no logarithm
            miss = ad.softmax_rows(p["u"]) - onehot
            return ad.sum_(miss * miss)

        assert grad_check(loss_fn, store, n_probes=20) < 1e-4


class TestAdam:
    def test_zero_grad_no_move(self):
        store = ParamStore()
        w = store.add("w", np.arange(4.0))
        store.adam_step(lr=0.1)
        assert np.array_equal(store["w"].value, np.arange(4.0))
        # the zero-gradient step still counts: the next one is bias
        # corrected as step 2
        w.grad = np.ones(4)
        store.adam_step(lr=0.1)
        m_hat = 0.1 / (1 - 0.9**2)
        v_hat = 0.001 / (1 - 0.999**2)
        expected = np.arange(4.0) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(store["w"].value, expected, rtol=0, atol=1e-15)

    def test_constant_grad_moves_opposite(self):
        store = ParamStore()
        w = store.add("w", np.zeros(3))
        g = np.array([1.0, -2.0, 0.5])
        for _ in range(50):
            w.grad = g.copy()
            store.adam_step(lr=0.01)
        assert (np.sign(store["w"].value) == -np.sign(g)).all()

    def test_scalar_hand_trace(self):
        store = ParamStore()
        w = store.add("w", np.array(0.0))
        w.grad = np.array(1.0)
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        store.adam_step(lr=lr)
        # hand-executed recurrence, one step, g = 1
        m_hat = (1 - b1) * 1.0 / (1 - b1)
        v_hat = (1 - b2) * 1.0 / (1 - b2)
        expected = 0.0 - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert abs(store["w"].value - expected) < 1e-15

    def test_nonfinite_grad_aborts_with_name(self):
        store = ParamStore()
        w = store.add("bad_block", np.zeros(2))
        w.grad = np.array([np.nan, 0.0])
        with pytest.raises(FloatingPointError, match="bad_block"):
            store.adam_step(lr=0.1)


class TestGmw:
    def test_roundtrip(self, tmp_path):
        store = ParamStore()
        store.add("alpha", rng(13).standard_normal((3, 2)))
        store.add("beta", rng(14).standard_normal(5))
        path = tmp_path / "w.gmw"
        from spherereg.optim import read_gmw, write_gmw

        write_gmw(path, store)
        back = read_gmw(path)
        assert back.names() == ["alpha", "beta"]
        for name in store.names():
            assert np.array_equal(back[name].value, store[name].value)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "w.gmw"
        path.write_bytes(b"GMW1 1\nblock 1 4\n" + b"\x00" * 8)
        from spherereg.optim import read_gmw

        with pytest.raises(ValueError):
            read_gmw(path)
