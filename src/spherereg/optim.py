"""Parameter storage, the Adam update rule, finite-difference gradient
verification, and the GMW1 weight checkpoint format."""

from __future__ import annotations

import math
import os

import numpy as np

from .autodiff import OP_REGISTRY, Tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
FD_STEP = 1e-4  # base width of grad_check's finite-difference stencil


class ParamStore:
    """Named parameter blocks with matching gradient and Adam state."""

    def __init__(self):
        self._blocks: dict[str, Tensor] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._step = 0  # Adam steps taken; blocks are added before the first

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._blocks:
            raise ValueError(f"duplicate parameter block {name!r}")
        t = Tensor(np.array(value, dtype=np.float64), name=name)
        self._blocks[name] = t
        self._m[name] = np.zeros_like(t.value)
        self._v[name] = np.zeros_like(t.value)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._blocks[name]

    def __contains__(self, name: str) -> bool:
        return name in self._blocks

    def names(self):
        return sorted(self._blocks)

    def zero_grad(self) -> None:
        for t in self._blocks.values():
            t.grad = None

    def copy(self) -> "ParamStore":
        """Deep copy of the values; gradients and Adam state start fresh."""
        out = ParamStore()
        for name, t in self._blocks.items():
            out.add(name, t.value.copy())
        return out

    def constants(self) -> "ParamStore":
        """A view of the blocks as constants over the same arrays, not
        copies: a network pass through it builds no tape and leaves this
        store's gradients alone.  ``adam_step`` replaces the arrays, so the
        view holds the values of the moment it is taken and has no Adam
        state of its own."""
        out = ParamStore()
        out._blocks = {name: Tensor(t.value, requires_grad=False, name=name)
                       for name, t in self._blocks.items()}
        return out

    def ensure(self, name: str, shape: tuple, init) -> Tensor:
        """The block ``name``, added as ``init()`` when the store lacks it;
        a held block of another shape raises ValueError."""
        if name not in self._blocks:
            return self.add(name, init())
        held = self._blocks[name].value.shape
        if held != tuple(shape):
            raise ValueError(f"parameter block {name!r} has shape {held}, "
                             f"expected {tuple(shape)}")
        return self._blocks[name]

    # -- Adam --------------------------------------------------------------
    def adam_step(self, lr: float) -> None:
        """Standard bias-corrected Adam update of every block; gradients
        are zeroed after."""
        beta1, beta2 = ADAM_BETA1, ADAM_BETA2
        self._step += 1
        k = self._step
        for name in self.names():
            t = self._blocks[name]
            g = t.grad if t.grad is not None else np.zeros_like(t.value)
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient in block {name!r}")
            self._m[name] = beta1 * self._m[name] + (1 - beta1) * g
            self._v[name] = beta2 * self._v[name] + (1 - beta2) * g**2
            m_hat = self._m[name] / (1 - beta1**k)
            v_hat = self._v[name] / (1 - beta2**k)
            t.value = t.value - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        self.zero_grad()


def grad_check(loss_fn, params: ParamStore, n_probes: int = 20,
               seed: int = 0) -> float:
    """Max relative error between the analytic gradient and central
    finite differences over random unit directions in parameter space.

    Each probe compares the analytic directional derivative against a
    fourth-order five-point stencil along a fresh random direction.
    Directional probes keep the comparison at the scale of the full
    gradient, so the check is not dominated by floating-point noise at
    individual near-zero coordinates.

    The loss surfaces here are piecewise smooth (leaky activations, max
    pooling, face lookups), and a finite difference straddling a kink
    measures a secant between two smooth pieces rather than the local
    derivative.  Each probe therefore screens its interval with the
    fourth divided difference of the stencil values: for a smooth
    function it is O(step^4), while a slope jump J anywhere inside the
    interval - including exactly at the probe point - contributes
    O(step * J), so kinked intervals are discarded and redrawn.  The
    screen depends only on the sampled loss values, so it cannot mask an
    incorrect analytic gradient.  ``loss_fn(params)`` must return a
    scalar Tensor built from the store's blocks.
    """
    params.zero_grad()
    loss = loss_fn(params)
    loss.backward()
    analytic = {name: (params[name].grad.copy()
                       if params[name].grad is not None
                       else np.zeros_like(params[name].value))
                for name in params.names()}
    params.zero_grad()
    step = FD_STEP

    rng = np.random.Generator(np.random.Philox(seed))
    names = params.names()
    origin = {name: params[name].value.copy() for name in names}
    base = float(loss.value)
    grad_norm = np.sqrt(sum((g**2).sum() for g in analytic.values()))
    n_coords = sum(origin[name].size for name in names)
    # absolute disagreements far below the typical directional-derivative
    # scale are attributable to stencil noise and sub-threshold kinks,
    # not wrong gradients; per-module tests pin down individual terms
    floor = max(0.8 * grad_norm / np.sqrt(n_coords), 1e-10)
    kink_tol = 1e-10 * max(1.0, abs(base))

    max_err = 0.0
    done = 0
    attempts = 0
    while done < n_probes:
        if attempts > 50 * n_probes:
            raise RuntimeError("gradient check cannot find smooth probes")
        attempts += 1
        direction = {name: rng.standard_normal(origin[name].shape)
                     for name in names}
        norm = np.sqrt(sum((d**2).sum() for d in direction.values()))
        analytic_dd = sum((analytic[name] * direction[name]).sum()
                          for name in names) / norm
        evals = []
        for off in (step, -step, 2 * step, -2 * step,
                    0.5 * step, -0.5 * step):
            for name in names:
                params[name].value = (origin[name]
                                      + (off / norm) * direction[name])
            evals.append(float(loss_fn(params).value))
        for name in names:
            params[name].value = origin[name]
        # two nested screens so a kink cannot hide in the blind spot of
        # a single stencil width
        fourth = (evals[2] + evals[3] - 4.0 * (evals[0] + evals[1])
                  + 6.0 * base)
        fourth_half = (evals[0] + evals[1] - 4.0 * (evals[4] + evals[5])
                       + 6.0 * base)
        if abs(fourth) > kink_tol or abs(fourth_half) > kink_tol:
            continue  # the probe interval straddles a kink
        fd = (8.0 * (evals[0] - evals[1])
              - (evals[2] - evals[3])) / (12.0 * step)
        err = abs(analytic_dd - fd) / max(abs(fd), abs(analytic_dd), floor)
        max_err = max(max_err, err)
        done += 1
    return max_err


def check_registered_ops(n_probes: int = 20, seed: int = 0) -> dict[str, float]:
    """Finite-difference check of every primitive in the op registry.

    The scalar probe is a random-weighted sum of the op output, so the
    check exercises arbitrary cotangents.
    """
    results = {}
    for name, (op, gen) in OP_REGISTRY.items():
        rng = np.random.Generator(np.random.Philox(seed))
        arrays = gen(rng)
        weights = None

        def loss_fn(store, op=op, arrays=arrays):
            nonlocal weights
            args = [store[f"x{i}"] for i in range(len(arrays))]
            out = op(*args)
            if weights is None:
                weights = rng.standard_normal(out.value.shape)
            from .autodiff import mul, sum_
            return sum_(mul(out, weights))

        store = ParamStore()
        for i, a in enumerate(arrays):
            store.add(f"x{i}", a)
        results[name] = grad_check(loss_fn, store, n_probes=n_probes, seed=seed + 1)
    return results


# -- GMW1 checkpoint format ------------------------------------------------

def write_gmw(path, params: ParamStore) -> None:
    names = params.names()
    with open(path, "wb") as fh:
        fh.write(f"GMW1 {len(names)}\n".encode())
        for name in names:
            v = params[name].value
            dims = " ".join(str(d) for d in v.shape)
            fh.write(f"{name} {v.ndim} {dims}\n".encode())
            fh.write(v.astype("<f8").tobytes(order="C"))


def read_gmw(path) -> ParamStore:
    """Read a GMW1 checkpoint.  A garbled header or block header, a rank
    that does not match its dims, a block larger than the rest of the file
    or a repeated block name raises ValueError naming the file and block."""
    params = ParamStore()
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.readline().split()
        try:
            if len(header) != 2 or header[0] != b"GMW1":
                raise ValueError
            n_blocks = int(header[1])
        except ValueError:
            raise ValueError(f"{path}: not a GMW1 file") from None
        for k in range(n_blocks):
            parts = fh.readline().split()
            try:
                name = parts[0].decode()
                rank = int(parts[1])
                dims = tuple(int(x) for x in parts[2:])
                if rank != len(dims) or min(dims, default=0) < 0:
                    raise ValueError
            except (IndexError, ValueError):
                raise ValueError(f"{path}: garbled header of block "
                                 f"{k + 1}") from None
            count = math.prod(dims)
            if count * 8 > size - fh.tell():
                raise ValueError(f"{path}: truncated block {name!r}")
            raw = fh.read(count * 8)
            if name in params:
                raise ValueError(f"{path}: repeated block {name!r}")
            params.add(name, np.frombuffer(raw, dtype="<f8").reshape(dims).copy())
    return params
