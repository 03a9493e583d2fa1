"""Network building blocks: linear layers, LSTM cells, stacked LSTM and
inverted dropout, plus the lane ops (plain numpy, no tape) that training
and generation run on."""

import functools

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor


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
    return arrays


class LinearLayer:
    """W x + b with identity activation, initialized by init_layer."""

    def __init__(self, out_dim, in_dim, rng=None, name="linear"):
        w, b = init_layer([np.zeros((out_dim, in_dim)), np.zeros(out_dim)], rng)
        self.W = Parameter(w, name=f"{name}.W")
        self.b = Parameter(b, name=f"{name}.b")

    def forward(self, x):
        return ad.add(ad.matmul(self.W, x), self.b)

    def parameters(self):
        return [self.W, self.b]


class LSTMLayer:
    """Single LSTM layer with fused gate weights, gate order (i, f, g, o),
    initialized by init_layer."""

    def __init__(self, hidden, in_dim, rng=None, name="lstm"):
        self.hidden = hidden
        self.in_dim = in_dim
        wx, wh, bias = init_layer([np.zeros((4 * hidden, in_dim)), np.zeros((4 * hidden, hidden)),
                                   np.zeros(4 * hidden)], rng)
        self.Wx = Parameter(wx, name=f"{name}.Wx")
        self.Wh = Parameter(wh, name=f"{name}.Wh")
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
# step t of lane j). Weights are reached by name: w and dw are {name: view}
# of the flat values and gradient buffers, and a layer's tensors are
# "<layer>.W", "<layer>.b" or "<layer>.Wx", "<layer>.Wh", "<layer>.bias".
# Each op's backward adds into dw and returns the input gradient.
# Up to HOIST_MAX_LANE_UNITS lanes x hidden units, where call overhead dominates, the
# LSTM backward takes BPTT's factors before the loop and stacks the streams' dZ Wh.
HOIST_MAX_LANE_UNITS = 192


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
    group, on one stack of the streams' Wh copied for this call. Returns
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
    whs = np.stack([w[f"{layer}.Wh"] for layer in layers])
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
    no gradient flows into the initial state. Per step the element-wise
    block runs once for the group, dZ Wh once per stream; up to
    HOIST_MAX_LANE_UNITS, as broadcast products by factors taken before the
    loop and one stacked dZ Wh. The gate buffer is reused for dZ, which then forms
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
    tanh_c = np.tanh(cs[:, 1:])
    dh, dc = np.zeros((2, streams, lanes, n))
    whs = [w[f"{layer}.Wh"] for layer in layers]
    if lanes * n <= HOIST_MAX_LANE_UNITS:
        i, f, g, o = (gates[..., k * n:(k + 1) * n] for k in range(4))
        dc_dh, f = o * (1.0 - tanh_c * tanh_c), f.copy()
        ifg, wh = gates[..., :3 * n].reshape(streams, steps, lanes, 3, n), np.stack(whs)
        ifg[...] = np.stack([g * i * (1.0 - i), cs[:, :-1] * f * (1.0 - f), i * (1.0 - g * g)], 3)
        o *= tanh_c * (1.0 - o)
        for t in range(steps - 1, -1, -1):
            dh += dh_out[:, t]
            dc += dh * dc_dh[:, t]
            ifg[:, t] *= dc[:, :, None]
            o[:, t] *= dh
            dc *= f[:, t]
            np.matmul(gates[:, t], wh, out=dh)
    else:
        for t in range(steps - 1, -1, -1):
            z, tc = gates[:, t], tanh_c[:, t]
            i, f, g, o = z[..., :n], z[..., n:2 * n], z[..., 2 * n:3 * n], z[..., 3 * n:]
            dh += dh_out[:, t]
            dc += dh * o * (1.0 - tc * tc)
            d_ifgo = [dc * g * i * (1.0 - i), dc * cs[:, t] * f * (1.0 - f),
                      dc * i * (1.0 - g * g), dh * tc * o * (1.0 - o)]
            dc *= f
            np.concatenate(d_ifgo, axis=-1, out=z)
            for wh, dz, d in zip(whs, z, dh):
                np.matmul(dz, wh, out=d)
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
