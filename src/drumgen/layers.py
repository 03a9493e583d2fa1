"""Network building blocks: linear layers, LSTM cells, stacked LSTM and
inverted dropout, plus the lane ops (plain numpy, no tape) that training
and generation run on."""

import functools

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor


def glorot_uniform(rng, fan_in, fan_out, shape):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class LinearLayer:
    """W x + b with identity activation. W is Glorot-uniform from rng, or
    zero without one; b starts at zero."""

    def __init__(self, out_dim, in_dim, rng=None, name="linear"):
        if rng is None:
            w = np.zeros((out_dim, in_dim))
        else:
            w = glorot_uniform(rng, in_dim, out_dim, (out_dim, in_dim))
        self.W = Parameter(w, name=f"{name}.W")
        self.b = Parameter(np.zeros(out_dim), name=f"{name}.b")

    def forward(self, x):
        return ad.add(ad.matmul(self.W, x), self.b)

    def parameters(self):
        return [self.W, self.b]


class LSTMLayer:
    """Single LSTM layer with fused gate weights, gate order (i, f, g, o).

    Forget-gate bias slice starts at 1.0. Without an rng the weights
    start at zero (no Glorot draws), for values about to be overwritten.
    """

    def __init__(self, hidden, in_dim, rng=None, name="lstm"):
        self.hidden = hidden
        self.in_dim = in_dim
        wx_shape, wh_shape = (4 * hidden, in_dim), (4 * hidden, hidden)
        if rng is None:
            wx, wh = np.zeros(wx_shape), np.zeros(wh_shape)
        else:
            wx = glorot_uniform(rng, in_dim, 4 * hidden, wx_shape)
            wh = glorot_uniform(rng, hidden, 4 * hidden, wh_shape)
        self.Wx = Parameter(wx, name=f"{name}.Wx")
        self.Wh = Parameter(wh, name=f"{name}.Wh")
        bias = np.zeros(4 * hidden)
        bias[hidden:2 * hidden] = 1.0
        self.bias = Parameter(bias, name=f"{name}.bias")

    def zero_state(self):
        return [Tensor(np.zeros(self.hidden)), Tensor(np.zeros(self.hidden))]

    def parameters(self):
        return [self.Wx, self.Wh, self.bias]


def lstm_step(layer, x, state):
    """One cell update; returns (h', c')."""
    h_prev, c_prev = state
    n = layer.hidden
    z = ad.add(ad.add(ad.matmul(layer.Wx, x), ad.matmul(layer.Wh, h_prev)), layer.bias)
    i = ad.sigmoid(ad.slice_vec(z, 0, n))
    f = ad.sigmoid(ad.slice_vec(z, n, 2 * n))
    g = ad.tanh(ad.slice_vec(z, 2 * n, 3 * n))
    o = ad.sigmoid(ad.slice_vec(z, 3 * n, 4 * n))
    c_new = ad.add(ad.hadamard(f, c_prev), ad.hadamard(i, g))
    h_new = ad.hadamard(o, ad.tanh(c_new))
    return h_new, c_new


def dropout_apply(x, rate, training, rng):
    """Inverted dropout: zero with probability rate, scale survivors by
    1/(1-rate) while training; identity at inference."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0,1), got {rate}")
    if not training or rate == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    return ad.hadamard(x, Tensor(mask))


def stacked_lstm_step(layers, x, state, dropout_rate, training, rng):
    """Run a stack of LSTM layers for one time step.

    Dropout is applied to the stack input and between layers (feed-in
    connections only, never on h->h). state is a list of per-layer
    [h, c] pairs, updated in place. Returns the top-layer h.
    """
    inp = x
    for idx, layer in enumerate(layers):
        inp = dropout_apply(inp, dropout_rate, training, rng)
        state[idx][:] = lstm_step(layer, inp, state[idx])
        inp = state[idx][0]
    return inp


# ---------------------------------------------------------------------------
# Lane ops: plain numpy, no tape. Rows are time-major (row t*B + j is
# step t of lane j); each op's backward adds into the layer parameters'
# .grad and returns the input gradient.

def linear_rows(x, w, b):
    """w x + b for every row of x [N x in]; w may be a column-slice view
    of a larger weight matrix."""
    return x @ w.T + b


def linear_rows_backward(layer, x, dy):
    layer.W.grad += dy.T @ x
    layer.b.grad += dy.sum(axis=0)


@functools.lru_cache(maxsize=None)
def _gate_affine(n):
    """Read-only per-column (scale, shift) turning tanh into the LSTM gate activations,
    one pair per hidden size: sigmoid(z) = 0.5 tanh(z/2) + 0.5 on i, f, o; tanh on g."""
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], n)
    shift = np.repeat([0.5, 0.5, 0.0, 0.5], n)
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def lstm_lanes_forward(layers, xs, h0, c0):
    """One LSTM layer of each of S streams over T steps of B lanes.

    layers are the streams' LSTMLayers of one hidden size, xs their inputs
    [T, B, in_s], h0 and c0 [S, B, hidden]. Per stream, Wx x + bias is one
    GEMM over all T*B rows; each step is one lstm_lanes_step for the
    group. Returns (hs, cs, cache): hs and cs are [S, T+1, B, hidden],
    step 0 the initial state; cache feeds one lstm_lanes_backward.
    """
    steps, lanes, _ = xs[0].shape
    n = layers[0].hidden
    gates = np.empty((len(layers), steps, lanes, 4 * n))
    for layer, x, z in zip(layers, xs, gates):
        np.matmul(x.reshape(steps * lanes, -1), layer.Wx.data.T, out=z.reshape(steps * lanes, -1))
        z += layer.bias.data
    hs, cs = np.empty((2, len(layers), steps + 1, lanes, n))
    hs[:, 0], cs[:, 0] = h0, c0
    whs = [layer.Wh.data for layer in layers]
    rec = np.empty((len(layers), lanes, 4 * n))
    for t in range(steps):
        lstm_lanes_step(whs, gates[:, t], hs[:, t], cs[:, t], hs[:, t + 1], cs[:, t + 1], rec)
    return hs, cs, [xs, gates, hs, cs]


def lstm_lanes_step(whs, z, h, c, h_out, c_out, rec):
    """One step of one LSTM layer for S streams of B lanes, in training and in
    generation: adds each stream's h @ wh.T (whs; h [S, B, k] is the product's input,
    not necessarily the state) into the input pre-activations z [S, B, 4*hidden] through
    the scratch rec of z's shape, turns z into the gate activations in place and writes
    h_out and c_out [S, B, hidden], hidden read from c; they may alias h and c."""
    n = c.shape[-1]
    for wh, h_k, r in zip(whs, h, rec):
        np.matmul(h_k, wh.T, out=r)
    z += rec
    scale, shift = _gate_affine(n)
    z *= scale
    np.tanh(z, out=z)
    z *= scale
    z += shift
    np.multiply(z[..., n:2 * n], c, out=c_out)
    c_out += z[..., :n] * z[..., 2 * n:3 * n]
    np.tanh(c_out, out=h_out)
    h_out *= z[..., 3 * n:]


def softmax_rows_inplace(logits):
    """Row-wise softmax with max subtraction, in place; returns logits."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def lstm_lanes_backward(layers, cache, dh_out):
    """Truncated BPTT through lstm_lanes_forward.

    dh_out [S, T, B, hidden] is the loss gradient at each step's output h;
    no gradient flows into the initial state. Per step the element-wise
    block runs once for the group, dZ Wh once per stream. The gate buffer
    is reused for dZ, which then forms each stream's dWx = dZ^T x and
    dWh = dZ^T h_prev as single GEMMs, so the call empties the cache and
    raises on an empty one. Returns each stream's dx [T, B, in_s].
    """
    if not cache:
        raise ValueError("lstm_lanes_backward: cache already spent by an earlier backward")
    xs, gates, hs, cs = cache
    cache.clear()
    streams, steps, lanes, width = gates.shape
    n = width // 4
    tanh_c = np.tanh(cs[:, 1:])
    dh, dc = np.zeros((2, streams, lanes, n))
    for t in range(steps - 1, -1, -1):
        z = gates[:, t]
        i, f, g, o = z[..., :n], z[..., n:2 * n], z[..., 2 * n:3 * n], z[..., 3 * n:]
        tc = tanh_c[:, t]
        dh += dh_out[:, t]
        dc += dh * o * (1.0 - tc * tc)
        d_o = dh * tc * o * (1.0 - o)
        d_i = dc * g * i * (1.0 - i)
        d_g = dc * i * (1.0 - g * g)
        d_f = dc * cs[:, t] * f * (1.0 - f)
        dc *= f
        np.concatenate([d_i, d_f, d_g, d_o], axis=-1, out=z)
        for layer, dz, d in zip(layers, z, dh):
            np.matmul(dz, layer.Wh.data, out=d)
    dxs = []
    for layer, x, dz, h in zip(layers, xs, gates, hs):
        dz = dz.reshape(steps * lanes, width)
        layer.Wx.grad += dz.T @ x.reshape(steps * lanes, -1)
        layer.Wh.grad += dz.T @ h[:-1].reshape(steps * lanes, n)
        layer.bias.grad += dz.sum(axis=0)
        dxs.append((dz @ layer.Wx.data).reshape(x.shape))
    return dxs


def head_ce_lanes(head, h_top, post, targets, weights):
    """Softmax head over rows [h_top, post] with weighted cross-entropy.

    Forward and backward at once: returns (ce, d_top, d_post) where ce
    is each row's -ln p[target] (p clamped at 1e-12, as in
    autodiff.cross_entropy) and the gradients are those of
    sum(weights * ce). Adds into the head's .grad.
    """
    n = h_top.shape[1]
    w = head.W.data
    probs = h_top @ w[:, :n].T
    probs += post @ w[:, n:].T
    probs += head.b.data
    softmax_rows_inplace(probs)
    rows = np.arange(len(targets))
    picked = probs[rows, targets]
    ce = -np.log(np.maximum(picked, ad.CE_CLAMP))
    # d ce / d logits = p - onehot(target); zero below the clamp
    dlogits = probs
    dlogits[rows, targets] -= 1.0
    dlogits *= np.where(picked >= ad.CE_CLAMP, weights, 0.0)[:, None]
    head.W.grad[:, :n] += dlogits.T @ h_top
    head.W.grad[:, n:] += dlogits.T @ post
    head.b.grad += dlogits.sum(axis=0)
    return ce, dlogits @ w[:, :n], dlogits @ w[:, n:]
