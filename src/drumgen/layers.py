"""Network building blocks: linear layers, LSTM cells, stacked LSTM and
inverted dropout, plus the lane ops (plain numpy, no tape) that training
and generation run on."""

import functools

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def init_layer(arrays, rng):
    """Fill one layer's zero parameter arrays in parameters() order, [W, b]
    or an LSTM's [Wx, Wh, bias], in place: each matrix Glorot-uniform from
    rng in that order (left zero without an rng), with fan_in + fan_out
    the sum of its shape, and an LSTM bias's forget-gate slice 1.0."""
    for a in arrays:
        if a.ndim == 2 and rng is not None:
            limit = np.sqrt(6.0 / (a.shape[1] + a.shape[0]))
            a[...] = rng.uniform(-limit, limit, size=a.shape)
    if len(arrays) == 3:
        n = len(arrays[2]) // 4
        arrays[2][n:2 * n] = 1.0


class LinearLayer:
    """W x + b with identity activation, over the Parameters W [out, in] and b [out]."""

    def __init__(self, W, b):
        self.W, self.b = W, b

    def forward(self, x):
        return ad.add(ad.matmul(self.W, x), self.b)


class LSTMLayer:
    """Single LSTM layer with fused gate weights, gate order (i, f, g, o), over
    the Parameters Wx [4*hidden, in_dim], Wh [4*hidden, hidden] and bias [4*hidden]."""

    def __init__(self, Wx, Wh, bias):
        self.Wx, self.Wh, self.bias = Wx, Wh, bias
        self.hidden, self.in_dim = Wh.data.shape[1], Wx.data.shape[1]

    def zero_state(self):
        return [Tensor(np.zeros(self.hidden)), Tensor(np.zeros(self.hidden))]


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
# step t of lane j). Weights are reached by name: w and dw are {name: view}
# of the flat values and gradient buffers, and a layer's tensors are
# "<layer>.W", "<layer>.b" or "<layer>.Wx", "<layer>.Wh", "<layer>.bias".
# Each op's backward adds into dw and returns the input gradient.
# Up to SMALL_STEP_UNITS lanes x hidden units a step is small, call overhead dominates and
# training groups K, H and T; the LSTM backward then takes BPTT's factors per slice, not step.
SMALL_STEP_UNITS = 192


def is_small_step(lanes, hidden):
    return lanes * hidden <= SMALL_STEP_UNITS


def _stack(mats):
    """Matrices as one C-contiguous [S, rows, cols] operand: a view of one, else a copy."""
    return mats[0][None] if len(mats) == 1 else np.stack(mats)


def linear_rows(x, w, b):
    """w x + b for every row of x [N x in]; w may be a column-slice view
    of a larger weight matrix."""
    return x @ w.T + b


def linear_rows_backward(dw, layer, x, dy):
    dw[f"{layer}.W"] += dy.T @ x
    dw[f"{layer}.b"] += dy.sum(axis=0)


@functools.lru_cache(maxsize=None)
def _gate_affine(n):
    """Read-only per-column (scale, shift) turning tanh into the LSTM gate activations,
    one pair per hidden size: sigmoid(z) = 0.5 tanh(z/2) + 0.5 on i, f, o; tanh on g."""
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], n)
    shift = np.repeat([0.5, 0.5, 0.0, 0.5], n)
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def lstm_lanes_forward(w, layers, xs, h0, c0):
    """One LSTM layer of each of S streams over T steps of B lanes.

    layers name the streams' LSTM layers of one hidden size in w, xs their
    inputs [T, B, in_s], h0 and c0 [S, B, hidden]. Per stream, Wx x + bias
    is one GEMM over all T*B rows; each step is one lstm_lanes_step for the
    group, on one stack of the streams' Wh (_stack). Returns
    (hs, cs, cache): hs and cs are [S, T+1, B, hidden], step 0 the initial
    state; cache feeds one lstm_lanes_backward.
    """
    steps, lanes, _ = xs[0].shape
    n = h0.shape[-1]
    gates = np.empty((len(layers), steps, lanes, 4 * n))
    for layer, x, z in zip(layers, xs, gates):
        np.matmul(x.reshape(steps * lanes, -1), w[f"{layer}.Wx"].T, out=z.reshape(-1, 4 * n))
        z += w[f"{layer}.bias"]
    hs, cs = np.empty((2, len(layers), steps + 1, lanes, n))
    hs[:, 0], cs[:, 0] = h0, c0
    whs = _stack([w[f"{layer}.Wh"] for layer in layers])
    rec = np.empty((len(layers), lanes, 4 * n))
    for t in range(steps):
        lstm_lanes_step(whs, gates[:, t], hs[:, t], cs[:, t], hs[:, t + 1], cs[:, t + 1], rec)
    return hs, cs, [xs, gates, hs, cs]


def lstm_lanes_step(whs, z, h, c, h_out, c_out, rec):
    """One step of one LSTM layer for S streams of B lanes, in training and in generation:
    adds h @ wh.T for each stream's matrix wh of the C-contiguous stack whs [S, 4*hidden, k]
    (h [S, B, k] is the product's input, not necessarily the state) into the input
    pre-activations z [S, B, 4*hidden] through the scratch rec of z's shape, turns z into
    the gate activations in place and writes h_out and c_out [S, B, hidden], hidden read
    from c; they may alias h and c."""
    n = c.shape[-1]
    np.matmul(h, whs.transpose(0, 2, 1), out=rec)
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


def lstm_lanes_backward(w, dw, layers, cache, dh_out):
    """Truncated BPTT through lstm_lanes_forward of the same layers.

    dh_out [S, T, B, hidden] is the loss gradient at each step's output h;
    no gradient flows into the initial state. Blocks of steps, the slice for
    a small step (is_small_step) else one step, take the element-wise factors
    at once; then each step is seven calls for the group, one a stacked dZ Wh.
    The bits do not depend on the block. The gate buffer becomes dZ, which forms
    each stream's dWx = dZ^T x and dWh = dZ^T h_prev as single GEMMs, so the
    call empties the cache and raises on an empty one. Returns each stream's
    dx [T, B, in_s].
    """
    if not cache:
        raise ValueError("lstm_lanes_backward: cache already spent by an earlier backward")
    xs, gates, hs, cs = cache
    cache.clear()
    streams, steps, lanes, width = gates.shape
    n = width // 4
    block = steps if is_small_step(lanes, n) else 1
    wh = _stack([w[f"{layer}.Wh"] for layer in layers])
    dh, dc = np.zeros((2, streams, lanes, n))
    for start in range(steps - block, -1, -block):
        z, c = gates[:, start:start + block], cs[:, start:start + block + 1]
        i, f, g, o = (z[..., k * n:(k + 1) * n] for k in range(4))
        tanh_c = np.tanh(c[:, 1:])
        dc_dh, keep_f = o * (1.0 - tanh_c * tanh_c), f.copy()
        i[...], f[...], g[...] = (g * i * (1.0 - i), c[:, :-1] * keep_f * (1.0 - keep_f),
                                  i * (1.0 - g * g))
        o *= tanh_c * (1.0 - o)
        ifg = z[..., :3 * n].reshape(streams, block, lanes, 3, n)
        for t in range(block - 1, -1, -1):
            dh += dh_out[:, start + t]
            dc += dh * dc_dh[:, t]
            ifg[:, t] *= dc[:, :, None]
            o[:, t] *= dh
            dc *= keep_f[:, t]
            np.matmul(z[:, t], wh, out=dh)
    dxs = []
    for layer, x, dz, h in zip(layers, xs, gates, hs):
        dz = dz.reshape(steps * lanes, width)
        dw[f"{layer}.Wx"] += dz.T @ x.reshape(steps * lanes, -1)
        dw[f"{layer}.Wh"] += dz.T @ h[:-1].reshape(steps * lanes, n)
        dw[f"{layer}.bias"] += dz.sum(axis=0)
        dxs.append((dz @ w[f"{layer}.Wx"]).reshape(x.shape))
    return dxs


def head_ce_lanes(w, dw, head, h_top, post, targets, weights):
    """Softmax head over rows [h_top, post] with weighted cross-entropy.

    Forward and backward at once: returns (ce, d_top, d_post) where ce
    is each row's -ln p[target] (p clamped at 1e-12, as in
    autodiff.cross_entropy) and the gradients are those of
    sum(weights * ce). head names the layer in w and dw.
    """
    n = h_top.shape[1]
    W, W_grad = w[f"{head}.W"], dw[f"{head}.W"]
    probs = h_top @ W[:, :n].T
    probs += post @ W[:, n:].T
    probs += w[f"{head}.b"]
    softmax_rows_inplace(probs)
    rows = np.arange(len(targets))
    picked = probs[rows, targets]
    ce = -np.log(np.maximum(picked, ad.CE_CLAMP))
    # d ce / d logits = p - onehot(target); zero below the clamp
    dlogits = probs
    dlogits[rows, targets] -= 1.0
    dlogits *= np.where(picked >= ad.CE_CLAMP, weights, 0.0)[:, None]
    W_grad[:, :n] += dlogits.T @ h_top
    W_grad[:, n:] += dlogits.T @ post
    dw[f"{head}.b"] += dlogits.sum(axis=0)
    return ce, dlogits @ W[:, :n], dlogits @ W[:, n:]
