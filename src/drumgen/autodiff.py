"""Minimal dense float64 tensor library with reverse-mode autodiff.

Every differentiable op records itself on the currently active Tape
(Wengert list). The tape is rebuilt on every forward pass, so recurrent
unrolling needs no static graph. backward() replays the tape in exact
reverse execution order and accumulates gradients into Parameters.
"""

import numpy as np

CE_CLAMP = 1e-12


class Tensor:
    """Immutable dense array of float64. Vectors are 1-D, matrices 2-D."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Trainable tensor with an accumulated gradient buffer: grad, or new zeros."""

    __slots__ = ("grad", "name")

    def __init__(self, value, name="", grad=None):
        super().__init__(value, requires_grad=True)
        self.grad = np.zeros(self.data.shape) if grad is None else grad  # maps no page till written
        self.name = name

    def reset_grad(self):
        self.grad[...] = 0.0


_TAPE_STACK = []


class Tape:
    """Ordered record of executed differentiable operations."""

    def __init__(self):
        self._nodes = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._nodes)


def _record(inputs, out_data, backward_fn):
    tape = _TAPE_STACK[-1] if _TAPE_STACK else None
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        tape._nodes.append((inputs, out, backward_fn))
    return out


def backward(loss, tape):
    """Accumulate d(loss)/d(param) into every Parameter reachable from loss."""
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    grads = {id(loss): np.ones_like(loss.data)}
    for inputs, out, backward_fn in reversed(tape._nodes):
        g_out = grads.pop(id(out), None)
        if g_out is None:
            continue
        for t, g in zip(inputs, backward_fn(g_out)):
            if g is None or not t.requires_grad:
                continue
            if isinstance(t, Parameter):
                t.grad += g
            else:
                key = id(t)
                # out-of-place add: returned grads may alias each other
                grads[key] = grads[key] + g if key in grads else g


def matmul(a, b):
    """Matrix product; also matrix @ vector when b is 1-D."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim not in (1, 2) or ad.shape[1] != bd.shape[0]:
        raise ValueError(f"matmul shape mismatch: {ad.shape} x {bd.shape}")
    out = ad @ bd

    if bd.ndim == 1:
        def bwd(g):
            return np.outer(g, bd), ad.T @ g
    else:
        def bwd(g):
            return g @ bd.T, ad.T @ g

    return _record((a, b), out, bwd)


def _binary_check(name, a, b):
    if a.data.shape != b.data.shape:
        raise ValueError(f"{name} shape mismatch: {a.data.shape} vs {b.data.shape}")


def add(a, b):
    _binary_check("add", a, b)
    return _record((a, b), a.data + b.data, lambda g: (g, g))


def sub(a, b):
    _binary_check("sub", a, b)
    return _record((a, b), a.data - b.data, lambda g: (g, -g))


def hadamard(a, b):
    _binary_check("hadamard", a, b)
    ad, bd = a.data, b.data
    return _record((a, b), ad * bd, lambda g: (g * bd, g * ad))


def scale(a, c):
    """Multiply by a python constant (not differentiated w.r.t. c)."""
    c = float(c)
    return _record((a,), a.data * c, lambda g: (g * c,))


def _sigmoid(x):
    # split by sign so exp never overflows
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a):
    y = _sigmoid(a.data)
    return _record((a,), y, lambda g: (g * y * (1.0 - y),))


def tanh(a):
    y = np.tanh(a.data)
    return _record((a,), y, lambda g: (g * (1.0 - y * y),))


def softmax_rows(x):
    """Row-wise softmax with max subtraction; accepts a single 1-D row too."""
    xd = x.data
    last = xd.ndim - 1
    z = xd - xd.max(axis=last, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=last, keepdims=True)

    def bwd(g):
        s = (g * y).sum(axis=last, keepdims=True)
        return (y * (g - s),)

    return _record((x,), y, bwd)


def cross_entropy(probs, target_index):
    """Mean over rows of -ln(probs[row, target]); probs clamped at 1e-12.

    probs may be 1-D (single row) with an int target, or 2-D with a
    sequence of row targets.
    """
    pd = probs.data
    if pd.ndim == 1:
        pd2 = pd[None, :]
        targets = np.asarray([target_index], dtype=np.intp)
    else:
        pd2 = pd
        targets = np.asarray(target_index, dtype=np.intp)
    m, n = pd2.shape
    if targets.shape != (m,):
        raise ValueError(f"cross_entropy expects {m} target indices, got {targets.shape}")
    if np.any(targets < 0) or np.any(targets >= n):
        raise IndexError(f"target index out of range [0,{n})")
    picked = pd2[np.arange(m), targets]
    clamped = np.maximum(picked, CE_CLAMP)
    loss = -np.log(clamped).mean()

    def bwd(g):
        gp = np.zeros_like(pd2)
        live = picked >= CE_CLAMP  # below the clamp the loss is locally constant
        rows = np.arange(m)[live]
        gp[rows, targets[live]] = -float(g) / (m * picked[live])
        return (gp.reshape(pd.shape),)

    return _record((probs,), np.float64(loss), bwd)


def concat(parts):
    """Concatenate 1-D tensors in order."""
    if not parts:
        raise ValueError("concat needs at least one part")
    for p in parts:
        if p.data.ndim != 1:
            raise ValueError(f"concat expects vectors, got shape {p.data.shape}")
    sizes = [p.data.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _record(tuple(parts), np.concatenate([p.data for p in parts]), bwd)


def slice_vec(a, start, stop):
    """Differentiable contiguous slice of a 1-D tensor."""
    ad = a.data
    if ad.ndim != 1:
        raise ValueError(f"slice_vec expects a vector, got shape {ad.shape}")

    def bwd(g):
        gx = np.zeros_like(ad)
        gx[start:stop] = g
        return (gx,)

    return _record((a,), ad[start:stop].copy(), bwd)


def sum_all(a):
    n_shape = a.data.shape
    return _record((a,), np.float64(a.data.sum()), lambda g: (np.full(n_shape, float(g)),))


def finite_diff_check(f, params, h=1e-5):
    """Max relative error between analytic gradients and central differences.

    f is a zero-argument callable rebuilding the scalar loss from the
    current parameter values. Relative error per scalar parameter is
    |analytic - numeric| / max(1, |analytic|, |numeric|). Leaves every
    parameter's .grad at zero.
    """
    for p in params:
        p.reset_grad()
    with Tape() as tape:
        loss = f()
    backward(loss, tape)
    analytic = [p.grad.copy() for p in params]
    for p in params:
        p.reset_grad()

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(f().data)
            flat[i] = orig - h
            down = float(f().data)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            err = abs(gflat[i] - numeric) / max(1.0, abs(gflat[i]), abs(numeric))
            worst = max(worst, err)
    return worst
