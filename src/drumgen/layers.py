"""Network building blocks: linear layers, LSTM cells, stacked LSTM and
inverted dropout, plus the lane ops (plain numpy, no tape) that training
and generation run on."""

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
        h_new, c_new = lstm_step(layer, inp, state[idx])
        state[idx][0] = h_new
        state[idx][1] = c_new
        inp = h_new
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


def _gate_affine(n):
    """Per-column (scale, shift) turning tanh into the LSTM gate
    activations: sigmoid(z) = 0.5 tanh(z/2) + 0.5 on i, f, o; tanh on g."""
    scale = np.full(4 * n, 0.5)
    scale[2 * n:3 * n] = 1.0
    shift = scale.copy()
    shift[2 * n:3 * n] = 0.0
    return scale, shift


def lstm_lanes_forward(layer, x, h0, c0):
    """One LSTM layer over T steps of B independent lanes.

    x is [T, B, in], h0 and c0 are [B, hidden]. Wx x + bias is one GEMM
    over all T*B rows; only Wh h and the gate math run per step. Returns
    (hs, cs, cache): hs and cs are [T+1, B, hidden], row 0 the initial
    state; cache feeds lstm_lanes_backward.
    """
    steps, lanes, _ = x.shape
    n = layer.hidden
    gates = (x.reshape(steps * lanes, -1) @ layer.Wx.data.T).reshape(steps, lanes, 4 * n)
    gates += layer.bias.data
    scale, shift = _gate_affine(n)
    hs = np.empty((steps + 1, lanes, n))
    cs = np.empty((steps + 1, lanes, n))
    hs[0] = h0
    cs[0] = c0
    wh_t = layer.Wh.data.T
    for t in range(steps):
        z = gates[t]
        z += hs[t] @ wh_t
        lstm_cell_lanes(z, cs[t], scale, shift, cs[t + 1], hs[t + 1])
    return hs, cs, (x, gates, hs, cs)


def lstm_cell_lanes(z, c_prev, scale, shift, c_out, h_out):
    """Gate math of one step for B lanes: turns the pre-activations z
    [B, 4*hidden] into the gate activations in place and writes the new
    cell and hidden state into c_out and h_out (c_out may be c_prev)."""
    n = c_prev.shape[1]
    z *= scale
    np.tanh(z, out=z)
    z *= scale
    z += shift
    np.multiply(z[:, n:2 * n], c_prev, out=c_out)
    c_out += z[:, :n] * z[:, 2 * n:3 * n]
    np.tanh(c_out, out=h_out)
    h_out *= z[:, 3 * n:]


def softmax_rows_inplace(logits):
    """Row-wise softmax with max subtraction, in place; returns logits."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def lstm_lanes_backward(layer, cache, dh_out):
    """Truncated BPTT through lstm_lanes_forward.

    dh_out [T, B, hidden] is the loss gradient at each step's output h;
    no gradient flows into the initial state. The gate buffer is reused
    for dZ, which then forms dWx = dZ^T x and dWh = dZ^T h_prev as single
    GEMMs. Returns dx [T, B, in].
    """
    x, gates, hs, cs = cache
    steps, lanes, width = gates.shape
    n = width // 4
    wh = layer.Wh.data
    tanh_c = np.tanh(cs[1:])
    dh = np.zeros((lanes, n))
    dc = np.zeros((lanes, n))
    for t in range(steps - 1, -1, -1):
        z = gates[t]
        i, f, g, o = z[:, :n], z[:, n:2 * n], z[:, 2 * n:3 * n], z[:, 3 * n:]
        tc = tanh_c[t]
        dh += dh_out[t]
        dc += dh * o * (1.0 - tc * tc)
        d_o = dh * tc * o * (1.0 - o)
        d_i = dc * g * i * (1.0 - i)
        d_g = dc * i * (1.0 - g * g)
        d_f = dc * cs[t] * f * (1.0 - f)
        dc *= f
        z[:, :n] = d_i
        z[:, n:2 * n] = d_f
        z[:, 2 * n:3 * n] = d_g
        z[:, 3 * n:] = d_o
        np.matmul(z, wh, out=dh)
    dz = gates.reshape(steps * lanes, width)
    layer.Wx.grad += dz.T @ x.reshape(steps * lanes, -1)
    layer.Wh.grad += dz.T @ hs[:-1].reshape(steps * lanes, n)
    layer.bias.grad += dz.sum(axis=0)
    return (dz @ layer.Wx.data).reshape(x.shape)


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
