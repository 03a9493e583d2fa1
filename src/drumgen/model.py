"""Three-stream conditional LSTM drum model.

One LSTM stack plus softmax head per drum stream; two feed-forward
condition modules shared by all streams. The past-window module output is
concatenated onto each stream's word input, the current/future-window
module output onto each stack's top hidden state before the head.
"""

import copy
import functools
import hashlib
import json
import math
import os
import struct
import types
from dataclasses import dataclass, asdict, field, fields, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, Tape, backward
# lstm_step and atomic_write_text are unused here but importable:
# perfbench/spans.py wraps them under this module's name when it traces a run.
from .ioutil import atomic_write_bytes, atomic_write_text
from .layers import LinearLayer, LSTMLayer, lstm_step, stacked_lstm_step, \
    dropout_apply, init_layer, linear_rows, linear_rows_backward, is_small_step, \
    lstm_lanes_forward, lstm_lanes_backward, lstm_lanes_step, head_ce_lanes, \
    softmax_rows_inplace
from .encoding import STREAM_NAMES, VOCAB_SIZES, COND_DIM, condition_windows, \
    check_cond, check_words

CHECKPOINT_VERSION = 5

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
GRAD_CLIP_NORM = 5.0
ADAM_CHUNK = 32768  # elements per slice that adam_step updates in turn


def has_field_type(value, kind):
    """Whether value fits a field of type kind, int or float: an int
    field takes an int, a float field an int or float; neither a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else int)


def check_field_types(config):
    """Raise ValueError, naming the field, unless each int or float field
    of the dataclass config holds a value of its type (has_field_type)."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in (int, float) and not has_field_type(value, f.type):
            want = "an int" if f.type is int else "a real number"
            raise ValueError(f"{f.name} must be {want}, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    """The settable sizes and training values. The vocabulary and
    condition widths are fixed by the encoding (VOCAB_SIZES, COND_DIM)."""
    hidden: int = 256
    lstm_layers: int = 2
    dropout: float = 0.2
    w_past: int = 4
    w_future: int = 4
    learning_rate: float = 1e-3
    seq_len: int = 64
    batch_size: int = 16

    def __post_init__(self):
        check_field_types(self)
        if min(self.hidden, self.lstm_layers, self.seq_len, self.batch_size) < 1:
            raise ValueError("hidden, lstm_layers, seq_len, batch_size must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0,1), got {self.dropout}")
        if self.w_past < 0 or self.w_future < 0:
            raise ValueError("window lengths must be non-negative")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate}")


class ModelParams:
    """The weights as layer objects, for the tape path (sequence_loss,
    forward_step) that tape_batch_backward, gradcheck and the tests use
    as the oracle: 2 shared FF condition modules, and per stream a stacked
    LSTM (layer-1 input = vocab + hidden) plus a zero-initialized softmax
    head over [h_top, post-FF] of width 2*hidden. values are init_values and
    grads zeros; each Parameter's .data and .grad are views into them."""

    def __init__(self, config, rng=None):
        self.config = config
        self.values = init_values(config, rng)
        self.grads = np.zeros(self.values.shape)  # np.zeros maps its pages lazily
        w, dw = (_views(buf, param_shapes(config)) for buf in (self.values, self.grads))
        layers = _by_layer(config, {name: ad.Parameter(w[name], name, dw[name]) for name in w})
        self._parameters = [p for layer in layers.values() for p in layer]
        self.pre_ff, self.post_ff = LinearLayer(*layers["pre_ff"]), LinearLayer(*layers["post_ff"])
        self.lstm_stacks = {s: [LSTMLayer(*layers[f"{s}.lstm{li}"])
                                for li in range(1, config.lstm_layers + 1)] for s in STREAM_NAMES}
        self.heads = {s: LinearLayer(*layers[f"{s}.head"]) for s in STREAM_NAMES}

    def parameters(self):
        """The Parameters in _model_order."""
        return list(self._parameters)

    def zero_state(self):
        return {s: [layer.zero_state() for layer in self.lstm_stacks[s]]
                for s in STREAM_NAMES}


def detach_state(state):
    """Tape state {stream: [[h, c] per layer]} as a history-free [2, 3, layers*hidden] array."""
    return np.stack([np.hstack([[h.data, c.data] for h, c in state[s]]) for s in STREAM_NAMES], 1)


def forward_step(params, input_words, pre_vec, post_vec, state,
                 training=False, rng=None):
    """One time step; returns a probability row per stream.

    input_words are the three word indices at t-1. The same pre-FF/post-FF
    outputs feed all three streams. state is updated in place.
    """
    cfg = params.config
    rate = cfg.dropout
    pre_out = dropout_apply(params.pre_ff.forward(Tensor(pre_vec)),
                            rate, training, rng)
    post_out = dropout_apply(params.post_ff.forward(Tensor(post_vec)),
                             rate, training, rng)
    probs = []
    for si, s in enumerate(STREAM_NAMES):
        word = np.eye(VOCAB_SIZES[si])[int(input_words[si])]
        x = ad.concat([Tensor(word), pre_out])
        h_top = stacked_lstm_step(params.lstm_stacks[s], x, state[s],
                                  rate, training, rng)
        h_top = dropout_apply(h_top, rate, training, rng)
        logits = params.heads[s].forward(ad.concat([h_top, post_out]))
        probs.append(ad.softmax_rows(logits))
    return probs


def sequence_loss(params, seq, start=0, end=None, training=False, rng=None,
                  state=None):
    """Teacher-forced unroll over seq[start:end).

    Loss is the mean over steps of the summed per-stream cross-entropies.
    state is a start state as detach_state returns (None: zeros). Returns
    (loss, detach_state(end)), to carry across consecutive slices of one piece.
    """
    if end is None:
        end = len(seq)
    if end - start < 1:
        raise ValueError("sequence slice must contain at least one step")
    cfg = params.config
    if state is None:
        state = np.zeros((2, 3, cfg.lstm_layers * cfg.hidden))
    state = {s: [[Tensor(h), Tensor(c)] for h, c in np.split(state[:, si], cfg.lstm_layers, axis=1)]
             for si, s in enumerate(STREAM_NAMES)}
    pre, post = condition_windows(seq.cond, cfg.w_past, cfg.w_future)
    total = None
    for t, words in enumerate(seq.inputs[start:end], start):
        probs = forward_step(params, words, pre[t], post[t],
                             state, training, rng)
        step_loss = ad.cross_entropy(probs[0], int(seq.targets[t][0]))
        for si in (1, 2):
            step_loss = ad.add(step_loss,
                               ad.cross_entropy(probs[si], int(seq.targets[t][si])))
        total = step_loss if total is None else ad.add(total, step_loss)
    return ad.scale(total, 1.0 / (end - start)), detach_state(state)


# ---------------------------------------------------------------------------
# Lane-batched training step: sequence-level ops with hand-written BPTT.
# Same loss, gradients and dropout draws as sequence_loss + backward run
# slice by slice (tape_batch_backward), up to float rounding.

def _dropout_widths(config):
    """Widths of one step's dropout masks in forward_step's draw order:
    pre-FF, post-FF, then per stream the stack input, each connection
    between layers and the top output."""
    h = config.hidden
    widths = [h, h]
    for vocab in VOCAB_SIZES:
        widths += [vocab + h] + [h] * config.lstm_layers
    return widths


def _wave(cfg, w, dw, slices, states, mask):
    """Forward and backward over one wave: slices [(seq, a, b)] of
    different pieces side by side as lanes, padded to the longest with
    loss weight 0. states holds each lane's initial state as detach_state
    returns it (None = zeros), mask their keep masks [steps, lanes,
    sum(_dropout_widths)], zero padded (None without dropout). Adds into dw
    (lane_batch_backward). Returns each slice's mean loss and end state; the
    streams run grouped for a small step (layers.is_small_step), else one at
    a time."""
    h = cfg.hidden
    lengths = [b - a for _, a, b in slices]
    steps, lanes = max(lengths), len(slices)
    rows = steps * lanes

    def time_major(arrays, dtype=np.float64):
        """Per-lane [n x w] arrays as [steps*lanes x w] rows, zero padded."""
        out = np.zeros((steps, lanes, arrays[0].shape[1]), dtype)
        for j, arr in enumerate(arrays):
            out[:len(arr), j] = arr
        return out.reshape(rows, -1)

    words = time_major([seq.inputs[a:b] for seq, a, b in slices], np.intp)
    targets = time_major([seq.targets[a:b] for seq, a, b in slices], np.intp)
    windows = [[w[a:b] for w in condition_windows(seq.cond, cfg.w_past, cfg.w_future)]
               for seq, a, b in slices]
    pre = time_major([p for p, _ in windows])
    post = time_major([q for _, q in windows])
    weights = time_major([np.full((n, 1), 1.0 / n) for n in lengths]).ravel()
    mask = None if mask is None else mask.reshape(rows, -1)
    keep_scale = 1.0 / (1.0 - cfg.dropout)
    bounds = np.cumsum([0] + _dropout_widths(cfg))
    columns = iter(zip(bounds[:-1], bounds[1:]))

    def drop(x, cols):
        """Inverted dropout in place with the mask columns cols; the same
        product maps an output gradient to its input gradient."""
        if mask is not None:
            x *= mask[:, cols[0]:cols[1]]
            x *= keep_scale
        return x

    pre_cols, post_cols = next(columns), next(columns)
    pre_out = drop(linear_rows(pre, w["pre_ff.W"], w["pre_ff.b"]), pre_cols)
    post_out = drop(linear_rows(post, w["post_ff.W"], w["post_ff.b"]), post_cols)
    d_pre = np.zeros_like(pre_out)
    d_post = np.zeros_like(post_out)
    ce = np.zeros(rows)
    # [2, 3, lanes, layers*h]: start states, each layer's then overwritten by its end states
    state = np.stack([np.zeros((2, 3, cfg.lstm_layers * h)) if x is None else x for x in states], 2)
    # each stream's mask columns: its layers' inputs, then its top output
    cols = [[next(columns) for _ in range(cfg.lstm_layers + 1)] for _ in STREAM_NAMES]
    for group in [(0, 1, 2)] if is_small_step(lanes, h) else [(0,), (1,), (2,)]:
        names = [STREAM_NAMES[si] for si in group]
        xs = [np.hstack([np.eye(VOCAB_SIZES[si])[words[:, si]], pre_out]) for si in group]
        caches = []
        for li in range(cfg.lstm_layers):
            if li:
                xs = [y[1:].reshape(rows, h).copy() for y in hs]
            xs = [drop(x, cols[si][li]).reshape(steps, lanes, -1) for x, si in zip(xs, group)]
            h0, c0 = state[:, group, :, li * h:(li + 1) * h]
            layers = [f"{s}.lstm{li + 1}" for s in names]
            caches.append(lstm_lanes_forward(w, layers, xs, h0, c0)[2])
            hs, cs = caches[-1][2:]
            state[:, group, :, li * h:(li + 1) * h] = \
                hs[:, lengths, range(lanes)], cs[:, lengths, range(lanes)]
        dh = np.empty((len(group), rows, h))
        for k, (si, s) in enumerate(zip(group, names)):
            top = drop(hs[k, 1:].reshape(rows, h).copy(), cols[si][-1])
            ce_s, dh[k], d_post_s = head_ce_lanes(w, dw, f"{s}.head", top, post_out,
                                                  targets[:, si], weights)
            ce += ce_s
            d_post += d_post_s
            drop(dh[k], cols[si][-1])
        for li in range(cfg.lstm_layers - 1, -1, -1):
            dh = np.reshape(dh, (len(group), steps, lanes, h))
            # pop: a layer's cache is freed once its gradients are taken
            dxs = lstm_lanes_backward(w, dw, [f"{s}.lstm{li + 1}" for s in names], caches.pop(), dh)
            dh = [drop(dx.reshape(rows, -1), cols[si][li]) for dx, si in zip(dxs, group)]
        for dx, si in zip(dh, group):
            d_pre += dx[:, VOCAB_SIZES[si]:]
        del dh, dxs, dx  # the layer-1 input gradients, freed before the next stream
    linear_rows_backward(dw, "pre_ff", pre, drop(d_pre, pre_cols))
    linear_rows_backward(dw, "post_ff", post, drop(d_post, post_cols))

    # per-slice mean loss, summed over steps in order as sequence_loss does
    ce = ce.reshape(steps, lanes)
    ce[weights.reshape(steps, lanes) == 0.0] = 0.0
    total = ce[0].copy()
    for row in ce[1:]:
        total += row
    return ([float(total[j] * (1.0 / n)) for j, n in enumerate(lengths)],
            [state[:, :, j] for j in range(lanes)])


def lane_batch_backward(config, w, dw, batch, carry, rng):
    """Loss and gradients of one training batch, run as lanes.

    batch lists (key, seq, a, b) slices in training order; the slices of
    one piece (one key) are consecutive. Slices of different pieces run
    side by side as lanes; slices of one piece run one after another in
    waves, each from the detached end state of the one before. A piece
    whose first slice here starts at a > 0 starts from carry[key], else
    from zeros. Each slice's dropout masks are drawn in one rng call, in
    batch order, giving forward_step's draws bit for bit.

    w and dw are {name: view} of the flat values and gradient buffers
    (param_shapes); adds the gradient of the summed per-slice mean losses
    into dw. Returns (the per-slice mean losses in batch order,
    {key: detached end state of the piece's last slice here}).
    """
    rate, width = config.dropout, sum(_dropout_widths(config))
    groups = {}
    for i, (key, _, _, _) in enumerate(batch):
        groups.setdefault(key, []).append(i)
    waves = [[idx[k] for idx in groups.values() if len(idx) > k]
             for k in range(max(len(idx) for idx in groups.values()))]
    masks = [None] * len(waves)
    if rate > 0.0:  # each wave's keep masks as _wave reads them, [steps, lanes, width]
        masks = [np.zeros((max(batch[i][3] - batch[i][2] for i in lanes), len(lanes), width), bool)
                 for lanes in waves]
        lane_of = {i: (mask, j) for mask, lanes in zip(masks, waves) for j, i in enumerate(lanes)}
        for i, (_, _, a, b) in enumerate(batch):  # in batch order, straight into the slice's lane
            mask, j = lane_of[i]
            mask[:b - a, j] = rng.random((b - a, width)) >= rate
    states = {key: carry[key] if batch[idx[0]][2] > 0 else None
              for key, idx in groups.items()}
    losses = [None] * len(batch)
    for lanes in waves:
        keys = [batch[i][0] for i in lanes]
        wave_losses, ends = _wave(config, w, dw, [batch[i][1:] for i in lanes],
                                  [states[k] for k in keys], masks.pop(0))
        for i, loss in zip(lanes, wave_losses):
            losses[i] = loss
        states.update(zip(keys, ends))
    return losses, states


def tape_batch_backward(config, w, dw, batch, carry, rng):
    """Reference for lane_batch_backward, with the same arguments and
    results: each slice through sequence_loss and the tape in turn, on a
    ModelParams whose parameters are the views w and dw."""
    params = ModelParams(config)
    for p in params.parameters():
        p.data, p.grad = w[p.name], dw[p.name]
    losses = []
    states = {}
    for key, seq, a, b in batch:
        state = states.get(key, carry.get(key)) if a > 0 else None
        with Tape() as tape:
            loss, states[key] = sequence_loss(params, seq, a, b, training=True,
                                              rng=rng, state=state)
        backward(loss, tape)
        losses.append(float(loss.data))
    return losses, states


# ---------------------------------------------------------------------------
# Tape-free inference

class InferenceRun:
    """A checkpoint's forward pass over one condition track, one time step
    per step() call, without the tape and with dropout off.

    What does not depend on the fed-back words is one GEMM over all steps,
    done here: the pre/post windows (prefix sums), pre-FF and post-FF,
    layer 1's condition columns plus bias, and each head's post-FF half
    plus bias. A step gathers layer 1's word column, runs each layer as
    one lstm_lanes_step for all three streams (training's step, with one
    lane), then the heads' h_top half on single rows. Each layer's product
    matrices are copied into one stack: layer 1's Wh [3, 4h, h], and above
    it [Wx | Wh] [3, 4h, 2h], which multiplies [h below, h], so the step's
    input h is not the layer's state. hs and cs are the halves of one
    [2, 3, 1, layers*h] array, training's state with one lane: each
    stream's layers side by side, so [h below, h] is a view of hs. ckpt is a Checkpoint or Weights, checked against its config;
    its values are only read, and the other weights are views of them.
    Probabilities match forward_step up to float rounding.
    """

    def __init__(self, ckpt, cond):
        cfg = ckpt.config
        _check_buffers(ckpt, ("values",))
        w = ckpt.tensors
        h = cfg.hidden
        pre, post = condition_windows(cond, cfg.w_past, cfg.w_future)
        pre_out = linear_rows(pre, w["pre_ff.W"], w["pre_ff.b"])
        post_out = linear_rows(post, w["post_ff.W"], w["post_ff.b"])
        self.t, self.steps = 0, len(cond)
        self.inputs = [(w[f"{s}.lstm1.Wx"][:, :vocab].T,
                        linear_rows(pre_out, w[f"{s}.lstm1.Wx"][:, vocab:], w[f"{s}.lstm1.bias"]))
                       for s, vocab in zip(STREAM_NAMES, VOCAB_SIZES)]
        # per layer, the streams' product matrices as one stack; per upper layer, the bias
        self.layers, self.biases = [np.stack([w[f"{s}.lstm1.Wh"] for s in STREAM_NAMES])], []
        for li in range(2, cfg.lstm_layers + 1):
            mats = np.empty((len(STREAM_NAMES), 4 * h, 2 * h))
            for s, m in zip(STREAM_NAMES, mats):
                m[:, :h], m[:, h:] = w[f"{s}.lstm{li}.Wx"], w[f"{s}.lstm{li}.Wh"]
            self.layers.append(mats)
            self.biases.append(np.stack([w[f"{s}.lstm{li}.bias"] for s in STREAM_NAMES])[:, None])
        self.heads = [(w[f"{s}.head.W"][:, :h],
                       linear_rows(post_out, w[f"{s}.head.W"][:, h:], w[f"{s}.head.b"]))
                      for s in STREAM_NAMES]
        self.hs, self.cs = np.zeros((2, len(STREAM_NAMES), 1, cfg.lstm_layers * h))
        self.z, self.rec = np.empty((2, len(STREAM_NAMES), 1, 4 * h))

    def step(self, words):
        """Feed the previous step's three words (silence words at step 0);
        returns each stream's next-word probabilities [vocab]. Raises
        ValueError for a word outside VOCAB_SIZES or a step past the track."""
        t = self.t
        if t == self.steps:
            raise ValueError(f"the condition track ends after {t} steps")
        for s, word, vocab in zip(STREAM_NAMES, words, VOCAB_SIZES, strict=True):
            if not 0 <= word < vocab:
                raise ValueError(f"{s} word {word} is outside its vocabulary of {vocab}")
        self.t += 1
        hs, cs, z, n = self.hs, self.cs, self.z, self.z.shape[-1] // 4
        for (word_cols, cond_gates), word, zs in zip(self.inputs, words, z):
            np.add(cond_gates[t:t + 1], word_cols[word], out=zs)
        for li, mats in enumerate(self.layers):
            if li:
                z[...] = self.biases[li - 1]
            c = cs[..., li * n:(li + 1) * n]
            lstm_lanes_step(mats, z, hs[..., max(li - 1, 0) * n:(li + 1) * n], c,
                            hs[..., li * n:(li + 1) * n], c, self.rec)
        return [softmax_rows_inplace(linear_rows(h_top, head_top, head_post[t]))[0]
                for h_top, (head_top, head_post) in zip(hs[..., -n:], self.heads)]


# ---------------------------------------------------------------------------
# Adam with global-norm clipping, on the flat buffers of param_shapes

def clip_global_norm(grads, max_norm):
    """Scale the flat buffer grads in place to an L2 norm (einsum, not BLAS) of at most max_norm;
    returns the norm before clipping."""
    total = math.sqrt(np.einsum("i,i->", grads, grads))
    if total > max_norm:
        grads *= max_norm / total
    return total


def adam_step(values, grads, m, v, lr, t):
    """Adam, in place, on four equal-length flat buffers, one ADAM_CHUNK slice at a time, its
    bias correction folded into step size and epsilon (Kingma & Ba, sec. 2), via one scratch array."""
    if t < 1:
        raise ValueError("Adam step counter starts at 1")
    root = math.sqrt(1.0 - ADAM_BETA2 ** t)
    step, eps = lr * root / (1.0 - ADAM_BETA1 ** t), ADAM_EPS * root
    scratch = np.empty(min(len(values), ADAM_CHUNK))
    for a in range(0, len(values), ADAM_CHUNK):
        value, grad, mc, vc = (buf[a:a + ADAM_CHUNK] for buf in (values, grads, m, v))
        s = scratch[:len(value)]
        mc *= ADAM_BETA1
        mc += np.multiply(grad, 1.0 - ADAM_BETA1, out=s)
        vc *= ADAM_BETA2
        vc += np.multiply(np.square(grad, out=s), 1.0 - ADAM_BETA2, out=s)
        s = np.add(np.sqrt(vc, out=s), eps, out=s)
        value -= np.multiply(np.divide(mc, s, out=s), step, out=s)


# ---------------------------------------------------------------------------
# Training

class CheckpointError(Exception):
    pass


class _FlatValues:
    @property
    def tensors(self):
        """{name: view of values}, for each parameter in name order."""
        return _views(self.values, param_shapes(self.config))


@dataclass
class Checkpoint(_FlatValues):
    """A training state. values, m and v are flat float64 buffers laid
    out as param_shapes: the parameters and Adam's two moments."""
    config: ModelConfig
    epoch: int
    values: np.ndarray
    m: np.ndarray
    v: np.ndarray
    adam_t: int
    rng_state: dict
    loss_history: list = field(default_factory=list)


@dataclass(frozen=True)
class Weights(_FlatValues):
    """A checkpoint's config and parameter values without its training
    state (load_weights): enough for generate, refused by train(resume=)."""
    config: ModelConfig
    values: np.ndarray


def _model_order(config):
    """{name: shape} in ModelParams.parameters()' order, in which init_values draws:
    pre_ff, post_ff, then per stream K, H, T each LSTM layer's Wx, Wh, bias and the head's W, b."""
    h = config.hidden
    shapes = {"pre_ff.W": (h, COND_DIM), "pre_ff.b": (h,),
              "post_ff.W": (h, COND_DIM), "post_ff.b": (h,)}
    for s, vocab in zip(STREAM_NAMES, VOCAB_SIZES):
        for li in range(1, config.lstm_layers + 1):
            shapes.update({f"{s}.lstm{li}.Wx": (4 * h, vocab + h if li == 1 else h),
                           f"{s}.lstm{li}.Wh": (4 * h, h), f"{s}.lstm{li}.bias": (4 * h,)})
        shapes.update({f"{s}.head.W": (vocab, 2 * h), f"{s}.head.b": (vocab,)})
    return shapes


@functools.lru_cache(maxsize=None)
def param_shapes(config):
    """Read-only {name: shape} of every parameter in name order, the flat
    buffers' layout; computed from the config's sizes, kept per config."""
    return types.MappingProxyType(dict(sorted(_model_order(config).items())))


def init_values(config, rng):
    """The initial weights as one flat buffer of param_shapes' layout:
    init_layer draws each layer in _model_order, the heads left at zero."""
    shapes = param_shapes(config)
    values = np.zeros(sum(math.prod(shape) for shape in shapes.values()))
    for layer, arrays in _by_layer(config, _views(values, shapes)).items():
        init_layer(arrays, None if layer.endswith(".head") else rng)
    return values


def _by_layer(config, tensors):
    """{layer: [tensors[name] for each "<layer>.<tensor>" name]}, in _model_order."""
    layers = {}
    for name in _model_order(config):
        layers.setdefault(name.rsplit(".", 1)[0], []).append(tensors[name])
    return layers


def _views(buf, shapes):
    """{name: view of buf} for shapes {name: shape}, laid out one after
    another in shapes' order."""
    out, a = {}, 0
    for name, shape in shapes.items():
        b = a + math.prod(shape)
        out[name] = buf[a:b].reshape(shape)
        a = b
    return out


def _check_buffers(ckpt, names):
    """Raise CheckpointError unless each named buffer of ckpt is a
    contiguous float64 vector of its config's parameter count."""
    n = sum(math.prod(shape) for shape in param_shapes(ckpt.config).values())
    for name in names:
        buf = getattr(ckpt, name)
        if not (isinstance(buf, np.ndarray) and buf.dtype == _FLOAT and buf.shape == (n,)
                and buf.flags.c_contiguous):
            raise CheckpointError(f"checkpoint {name} must be a contiguous float64 vector "
                                  f"of length {n} for its config, got "
                                  f"{getattr(buf, 'dtype', type(buf))} of shape {np.shape(buf)}")


def params_from_checkpoint(ckpt):
    _check_buffers(ckpt, ("values",))
    params = ModelParams(ckpt.config)
    params.values[...] = ckpt.values
    return params


def _check_piece(seq, config, index):
    """Raise ValueError unless piece index has target words (encoding.check_words)
    and cond (check_cond) of one length, and the windows of config."""
    steps = len(seq)
    if steps == 0:
        raise ValueError(f"piece {index} is empty")
    check_words(seq.targets, f"words in piece {index}: targets", steps)
    if len(check_cond(seq.cond, f"piece {index}: cond")) != steps:
        raise ValueError(f"piece {index}: targets and cond must have {steps} rows")
    if (seq.w_past, seq.w_future) != (config.w_past, config.w_future) or \
            not all(type(w) is int for w in (seq.w_past, seq.w_future)):
        raise ValueError(f"piece {index}: pre/post windows of w_past={seq.w_past}, "
                         f"w_future={seq.w_future} do not match the config's "
                         f"w_past={config.w_past}, w_future={config.w_future}")


def train(corpus, config, epochs, snapshot_epochs=(50, 150), seed=0,
          resume=None, log_every=0, on_snapshot=None):
    """Seeded training over a list of EncodedSequence pieces.

    The training state is one Checkpoint: init_values(config, rng) with
    zero moments, or a deep copy of resume, which is left as it was.
    Per epoch: shuffle pieces, cut each into seq_len slices (recurrent
    state persists across a piece's slices, resets between pieces), and
    take one step per batch_size slices on the averaged gradients:
    clip_global_norm, then adam_step on the state's buffers. Each batch
    runs as lanes (lane_batch_backward). At each snapshot epoch
    (ints of at least 1; those at or past epochs, or not
    past resume's epoch, are skipped) calls on_snapshot(checkpoint) with a
    Checkpoint that shares the training buffers and is valid only during
    the call; by default it appends a copy to the returned list. Returns
    that list plus the final epoch's checkpoint, which holds the buffers
    without a copy. resume must be a Checkpoint (load_checkpoint, not
    load_weights), and config None or equal to its config. log_every > 0
    prints the loss every log_every epochs. Raises
    FloatingPointError on a non-finite batch loss or gradient norm.
    """
    if not corpus:
        raise ValueError("empty corpus")
    if resume is not None and not isinstance(resume, Checkpoint):
        raise TypeError(f"resume needs a Checkpoint with moments and RNG state "
                        f"(load_checkpoint), got {type(resume).__name__}")
    start_epoch = 0 if resume is None else resume.epoch
    if not has_field_type(epochs, int) or epochs < start_epoch:
        raise ValueError(f"epochs must be an int of at least {start_epoch}, the epoch "
                         f"training starts from, got {epochs!r}")
    snapshot_epochs = tuple(snapshot_epochs)  # read twice: an iterator would be spent
    if not all(has_field_type(e, int) and e >= 1 for e in snapshot_epochs):
        raise ValueError(f"snapshot_epochs must be ints of at least 1, got {snapshot_epochs!r}")
    if not has_field_type(log_every, int) or log_every < 0:
        raise ValueError(f"log_every must be an int of at least 0, got {log_every!r}")
    if not has_field_type(seed, int) or seed < 0:
        raise ValueError(f"seed must be an int of at least 0, got {seed!r}")
    if resume is None and not isinstance(config, ModelConfig):
        raise TypeError(f"config must be a ModelConfig when not resuming, "
                        f"got {type(config).__name__}")
    if resume is None:
        draw = np.random.default_rng(seed)
        values = init_values(config, draw)
        state = Checkpoint(config, 0, values, np.zeros(values.shape), np.zeros(values.shape),
                           0, draw.bit_generator.state)
    else:
        if config is not None and config != resume.config:
            differ = [f.name for f in fields(ModelConfig)
                      if getattr(config, f.name) != getattr(resume.config, f.name)]
            raise ValueError(f"config differs from the resumed checkpoint's in {differ}")
        _check_buffers(resume, ("values", "m", "v"))
        state = copy.deepcopy(resume)
    config = state.config
    for index, seq in enumerate(corpus):
        _check_piece(seq, config, index)
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state.rng_state
    grads = np.zeros(state.values.shape)
    w, dw = (_views(buf, param_shapes(config)) for buf in (state.values, grads))

    def taken(epoch):
        """A Checkpoint at epoch that shares state's buffers."""
        return replace(state, epoch=epoch, rng_state=rng.bit_generator.state,
                       loss_history=list(state.loss_history))

    checkpoints = []
    if on_snapshot is None:
        def on_snapshot(checkpoint):
            checkpoints.append(copy.deepcopy(checkpoint))
    snaps = {e for e in snapshot_epochs if start_epoch < e < epochs}
    for epoch in range(start_epoch + 1, epochs + 1):
        order = rng.permutation(len(corpus))
        slices = [(int(pi), corpus[pi], a, min(a + config.seq_len, len(corpus[pi])))
                  for pi in order for a in range(0, len(corpus[pi]), config.seq_len)]
        loss_sum = 0.0
        step_count = 0
        carry = {}
        for k in range(0, len(slices), config.batch_size):
            batch = slices[k:k + config.batch_size]
            losses, carry = lane_batch_backward(config, w, dw, batch, carry, rng)
            for (_, _, a, b), loss in zip(batch, losses):
                loss_sum += loss * (b - a)
                step_count += b - a
            if len(batch) > 1:
                grads *= 1.0 / len(batch)
            norm = clip_global_norm(grads, GRAD_CLIP_NORM)
            state.adam_t += 1
            adam_step(state.values, grads, state.m, state.v, config.learning_rate, state.adam_t)
            grads[...] = 0.0
            if not (np.isfinite(norm) and np.isfinite(sum(losses))):
                pieces = sorted({key for key, _, _, _ in batch})
                raise FloatingPointError(
                    f"epoch {epoch}: non-finite loss or gradient norm in the batch "
                    f"of pieces {pieces} (loss {sum(losses)}, gradient norm {norm})")
        state.loss_history.append(loss_sum / step_count)
        if log_every and epoch % log_every == 0:
            print(f"epoch {epoch}: per-step loss {state.loss_history[-1]:.4f}")
        if epoch in snaps:
            on_snapshot(taken(epoch))
    checkpoints.append(taken(epochs))
    return checkpoints


# ---------------------------------------------------------------------------
# Checkpoint files, version 5: the .npy idea (NumPy NEP 1), a
# self-describing header followed by raw array data. The file is
#   _MAGIC, the header's length in bytes (<u8),
#   the header: canonical JSON (_canonical) of version, config, epoch,
#     adam_t, rng_state, loss_history, layout (each tensor's name, shape
#     and byte offset, in name order), sections (each section's length
#     and sha256) and header_sha256 (the sha256 of the header's canonical
#     JSON without that field),
#   the tensors section: the <f8 values buffer (the parameters in name
#     order),
#   the moments section: all of Adam's m, then all of v, laid out as the
#     values.

_MAGIC = b"\x93DRUMGEN"
_PREFIX = struct.Struct("<8sQ")
_FLOAT = np.dtype("<f8")
_STATE_KEYS = ("epoch", "adam_t", "rng_state", "loss_history")
_HEADER_KEYS = frozenset({"version", "config", *_STATE_KEYS, "layout", "sections",
                          "header_sha256"})
_CONFIG_KEYS = frozenset(f.name for f in fields(ModelConfig))
_SECTIONS = ("tensors", "moments")
_PCG64_KEYS = frozenset({"bit_generator", "state", "has_uint32", "uinteger"})


def _canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode()


def _layout(config):
    """The layout of config's tensors section, and its length in bytes."""
    layout, offset = [], 0
    for name, shape in param_shapes(config).items():
        layout.append({"name": name, "shape": list(shape), "offset": offset})
        offset += _FLOAT.itemsize * math.prod(shape)
    return layout, offset


def _section(arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a)
    return {"length": sum(a.nbytes for a in arrays), "sha256": digest.hexdigest()}


def _is_count(value):
    return type(value) is int and value >= 0


def _is_pcg64_state(state):
    return (isinstance(state, dict) and set(state) == _PCG64_KEYS
            and state["bit_generator"] == "PCG64"
            and isinstance(state["state"], dict) and set(state["state"]) == {"state", "inc"}
            and all(_is_count(v) and v < 2 ** 128 for v in state["state"].values())
            and state["has_uint32"] in (0, 1) and type(state["has_uint32"]) is int
            and _is_count(state["uinteger"]) and state["uinteger"] < 2 ** 32)


def _check_values(header, path):
    """Raise CheckpointError, naming path and the field, unless the
    header's training values have the types a Checkpoint holds; returns
    its ModelConfig."""
    for name in ("epoch", "adam_t"):
        if not _is_count(header[name]):
            raise CheckpointError(f"malformed checkpoint {path}: {name} must be a "
                                  f"non-negative integer, got {header[name]!r}")
    losses = header["loss_history"]
    if not (isinstance(losses, list)
            and all(has_field_type(x, float) and math.isfinite(x) for x in losses)):
        raise CheckpointError(f"malformed checkpoint {path}: loss_history must be "
                              f"a list of finite numbers, got {losses!r}")
    if not _is_pcg64_state(header["rng_state"]):
        raise CheckpointError(f"malformed checkpoint {path}: rng_state is not a "
                              f"PCG64 state: {header['rng_state']!r}")
    config = header["config"]
    if not isinstance(config, dict) or set(config) != _CONFIG_KEYS:
        raise CheckpointError(f"malformed checkpoint {path}: config must hold "
                              f"ModelConfig's {sorted(_CONFIG_KEYS)}, got {config!r}")
    try:
        return ModelConfig(**config)
    except ValueError as e:
        raise CheckpointError(f"malformed checkpoint {path}: config: {e}") from e


def save_checkpoint(ckpt, path):
    """Write ckpt to path in the version-5 layout, atomically. The
    buffers' memory is written as it is, without an intermediate copy."""
    config = ckpt.config
    _check_buffers(ckpt, ("values", "m", "v"))
    header = {"version": CHECKPOINT_VERSION, "config": asdict(config),
              **{k: getattr(ckpt, k) for k in _STATE_KEYS}, "layout": _layout(config)[0],
              "sections": {"tensors": _section([ckpt.values]),
                           "moments": _section([ckpt.m, ckpt.v])}}
    _check_values(header, path)
    header["header_sha256"] = hashlib.sha256(_canonical(header)).hexdigest()
    text = _canonical(header)
    atomic_write_bytes(path, [_PREFIX.pack(_MAGIC, len(text)), text,
                              ckpt.values, ckpt.m, ckpt.v])


def _read_header(fh, path):
    """Read and verify the prefix and header of an open checkpoint file,
    leaving fh at the tensors section. Returns (header, config, tensors
    section length)."""
    prefix = fh.read(_PREFIX.size)
    if prefix.startswith(b"{"):
        raise CheckpointError(
            f"{path} is a JSON checkpoint of version 3 or older, which this version "
            f"cannot read; retrain to write a version-{CHECKPOINT_VERSION} checkpoint")
    if len(prefix) < _PREFIX.size or not prefix.startswith(_MAGIC):
        raise CheckpointError(f"{path} is not a drumgen checkpoint: it does not "
                              f"start with {_MAGIC!r} and a header length")
    size = os.fstat(fh.fileno()).st_size
    n = _PREFIX.unpack(prefix)[1]
    if n > size - _PREFIX.size:
        raise CheckpointError(f"truncated checkpoint {path}: a header of {n} bytes "
                              f"does not fit in {size} bytes")
    text = fh.read(n)
    try:
        header = json.loads(text.decode("utf-8"))
    except (ValueError, RecursionError) as e:  # also not UTF-8, or nested too deep
        raise CheckpointError(f"corrupted checkpoint {path}: header is not "
                              f"UTF-8 JSON: {e}") from e
    if not isinstance(header, dict):
        raise CheckpointError(f"corrupted checkpoint {path}: header is not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {header.get('version')!r}, unsupported "
            f"(expected {CHECKPOINT_VERSION})")
    if set(header) != _HEADER_KEYS:
        raise CheckpointError(
            f"malformed checkpoint {path}: missing keys "
            f"{sorted(_HEADER_KEYS - set(header))}, unexpected {sorted(set(header) - _HEADER_KEYS)}")
    body = {k: v for k, v in header.items() if k != "header_sha256"}
    try:
        digest = hashlib.sha256(_canonical(body)).hexdigest()
        canonical = _canonical(header) == text
    except ValueError as e:  # NaN or infinity
        raise CheckpointError(f"malformed checkpoint {path}: {e}") from e
    if not canonical or header["header_sha256"] != digest:
        raise CheckpointError(f"checksum mismatch in the header of {path}")
    config = _check_values(header, path)
    layout, length = _layout(config)
    if header["layout"] != layout:
        raise CheckpointError(f"malformed checkpoint {path}: layout does not match "
                              f"its config's parameters")
    sections = header["sections"]
    if not (isinstance(sections, dict) and set(sections) == set(_SECTIONS) and all(
            isinstance(s, dict) and set(s) == {"length", "sha256"} for s in sections.values())):
        raise CheckpointError(f"malformed checkpoint {path}: sections must be "
                              f"{list(_SECTIONS)}, each with length and sha256")
    if [sections[s]["length"] for s in _SECTIONS] != [length, 2 * length]:
        raise CheckpointError(f"malformed checkpoint {path}: section lengths "
                              f"{[sections[s]['length'] for s in _SECTIONS]}, its config "
                              f"needs {[length, 2 * length]}")
    if size != _PREFIX.size + n + 3 * length:
        raise CheckpointError(f"truncated or extended checkpoint {path}: {size} bytes, "
                              f"its header needs {_PREFIX.size + n + 3 * length}")
    return header, config, length


def _read_section(fh, path, header, name, length):
    """The next length bytes of fh as a float array, checked against the
    sha256 of section name."""
    buf = np.empty(length // _FLOAT.itemsize, dtype=_FLOAT)
    view = memoryview(buf.view(np.uint8))
    got = 0
    while got < length:
        n = fh.readinto(view[got:])
        if not n:
            raise CheckpointError(f"truncated checkpoint {path}: {name} section")
        got += n
    if hashlib.sha256(buf).hexdigest() != header["sections"][name]["sha256"]:
        raise CheckpointError(f"checksum mismatch in the {name} section of {path}")
    return buf


def load_weights(path):
    """The config and values of a checkpoint file, for inference. Reads
    the header and the tensors section and verifies both digests; the
    moments section is neither read nor verified. Raises CheckpointError,
    naming the path, as load_checkpoint does for those parts."""
    with open(path, "rb") as fh:
        header, config, length = _read_header(fh, path)
        values = _read_section(fh, path, header, "tensors", length)
    return Weights(config, values)


def load_checkpoint(path):
    """Read a whole checkpoint file, every digest verified. Raises
    CheckpointError, naming the path, for a JSON file (versions 1-3), a
    file without the prefix or of another version, a header that is not
    canonical JSON of this version's keys and value types or whose
    layout does not match its config, a digest that does not match, or
    a file of the wrong length."""
    with open(path, "rb") as fh:
        header, config, length = _read_header(fh, path)
        values = _read_section(fh, path, header, "tensors", length)
        moments = _read_section(fh, path, header, "moments", 2 * length)
    return Checkpoint(config=config, values=values, m=moments[:len(values)],
                      v=moments[len(values):], **{k: header[k] for k in _STATE_KEYS})
