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
from dataclasses import dataclass, asdict, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, Tape, backward
# lstm_step is unused here but importable: perfbench/spans.py wraps it
# under this module's name when it traces a run.
from .layers import LinearLayer, LSTMLayer, lstm_step, stacked_lstm_step, \
    dropout_apply, linear_rows, linear_rows_backward, \
    lstm_lanes_forward, lstm_lanes_backward, head_ce_lanes, lstm_cell_lanes, \
    softmax_rows_inplace, _gate_affine
from .encoding import STREAM_NAMES, VOCAB_SIZES, COND_DIM, condition_windows
from .ioutil import atomic_write_bytes
# atomic_write_text is unused here but importable: perfbench/spans.py wraps
# it under this module's name when it traces a run.
from .ioutil import atomic_write_text

CHECKPOINT_VERSION = 4

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
GRAD_CLIP_NORM = 5.0


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
    """All weights: 2 shared FF condition modules, and per stream a
    stacked LSTM (layer-1 input = vocab + hidden) plus a zero-initialized
    softmax head over [h_top, post-FF] of width 2*hidden. Without an rng
    nothing is drawn and the weights start at zero, for a layout whose
    values are about to be overwritten."""

    def __init__(self, config, rng=None):
        h = config.hidden
        self.config = config
        self.pre_ff = LinearLayer(h, COND_DIM, rng, name="pre_ff")
        self.post_ff = LinearLayer(h, COND_DIM, rng, name="post_ff")
        self.lstm_stacks = {}
        self.heads = {}
        for s, vocab in zip(STREAM_NAMES, VOCAB_SIZES):
            in_dim = vocab + h
            stack = []
            for li in range(config.lstm_layers):
                stack.append(LSTMLayer(h, in_dim, rng, name=f"{s}.lstm{li + 1}"))
                in_dim = h
            self.lstm_stacks[s] = stack
            self.heads[s] = LinearLayer(vocab, 2 * h, name=f"{s}.head")

    def parameters(self):
        out = self.pre_ff.parameters() + self.post_ff.parameters()
        for s in STREAM_NAMES:
            for layer in self.lstm_stacks[s]:
                out += layer.parameters()
            out += self.heads[s].parameters()
        return out

    def zero_state(self):
        return {s: [layer.zero_state() for layer in self.lstm_stacks[s]]
                for s in STREAM_NAMES}


def detach_state(state):
    """Strip tape history from recurrent state (values persist, grads do not)."""
    return {s: [[Tensor(h.data), Tensor(c.data)] for h, c in layers]
            for s, layers in state.items()}


def one_hot(size, index):
    v = np.zeros(size)
    v[index] = 1.0
    return v


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
        word = one_hot(VOCAB_SIZES[si], int(input_words[si]))
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
    Returns (loss, state) so callers can persist state across consecutive
    slices of one piece.
    """
    if end is None:
        end = len(seq)
    if end - start < 1:
        raise ValueError("sequence slice must contain at least one step")
    if state is None:
        state = params.zero_state()
    total = None
    for t in range(start, end):
        probs = forward_step(params, seq.inputs[t], seq.pre[t], seq.post[t],
                             state, training, rng)
        step_loss = ad.cross_entropy(probs[0], int(seq.targets[t][0]))
        for si in (1, 2):
            step_loss = ad.add(step_loss,
                               ad.cross_entropy(probs[si], int(seq.targets[t][si])))
        total = step_loss if total is None else ad.add(total, step_loss)
    return ad.scale(total, 1.0 / (end - start)), state


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


def _wave(params, slices, states, keeps):
    """Forward and backward over one wave: slices [(seq, a, b)] of
    different pieces side by side as lanes, padded to the longest with
    loss weight 0. states holds each lane's initial state (None = zeros),
    keeps its [b-a x sum(_dropout_widths)] keep mask (None without
    dropout). Returns each slice's mean loss and end state."""
    cfg = params.config
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
    pre = time_major([seq.pre[a:b] for seq, a, b in slices])
    post = time_major([seq.post[a:b] for seq, a, b in slices])
    weights = time_major([np.full((n, 1), 1.0 / n) for n in lengths]).ravel()
    mask = None if keeps[0] is None else time_major(keeps, bool)
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
    pre_out = drop(linear_rows(pre, params.pre_ff.W.data, params.pre_ff.b.data), pre_cols)
    post_out = drop(linear_rows(post, params.post_ff.W.data, params.post_ff.b.data), post_cols)
    d_pre = np.zeros_like(pre_out)
    d_post = np.zeros_like(post_out)
    ce = np.zeros(rows)
    ends = [{} for _ in range(lanes)]
    for si, (s, vocab) in enumerate(zip(STREAM_NAMES, VOCAB_SIZES)):
        x = np.zeros((rows, vocab + h))
        x[np.arange(rows), words[:, si]] = 1.0
        x[:, vocab:] = pre_out
        stack = params.lstm_stacks[s]
        layer_cols = [next(columns) for _ in stack]
        caches = []
        for li, layer in enumerate(stack):
            if li:
                x = hs[1:].reshape(rows, h).copy()
            drop(x, layer_cols[li])
            h0 = np.stack([np.zeros(h) if st is None else st[s][li][0].data for st in states])
            c0 = np.stack([np.zeros(h) if st is None else st[s][li][1].data for st in states])
            hs, cs, cache = lstm_lanes_forward(layer, x.reshape(steps, lanes, -1), h0, c0)
            caches.append(cache)
            for j, n in enumerate(lengths):
                ends[j].setdefault(s, []).append(
                    [Tensor(hs[n, j].copy()), Tensor(cs[n, j].copy())])
        top_cols = next(columns)
        top = drop(hs[1:].reshape(rows, h).copy(), top_cols)
        ce_s, d_top, d_post_s = head_ce_lanes(params.heads[s], top, post_out,
                                              targets[:, si], weights)
        ce += ce_s
        d_post += d_post_s
        dh = drop(d_top, top_cols)
        for li in range(len(stack) - 1, -1, -1):
            dx = lstm_lanes_backward(stack[li], caches[li], dh.reshape(steps, lanes, h))
            dh = drop(dx.reshape(rows, -1), layer_cols[li])
        d_pre += dh[:, vocab:]
    linear_rows_backward(params.pre_ff, pre, drop(d_pre, pre_cols))
    linear_rows_backward(params.post_ff, post, drop(d_post, post_cols))

    # per-slice mean loss, summed over steps in order as sequence_loss does
    ce = ce.reshape(steps, lanes)
    ce[weights.reshape(steps, lanes) == 0.0] = 0.0
    total = ce[0].copy()
    for row in ce[1:]:
        total += row
    return [float(total[j] * (1.0 / n)) for j, n in enumerate(lengths)], ends


def lane_batch_backward(params, batch, carry, rng):
    """Loss and gradients of one training batch, run as lanes.

    batch lists (key, seq, a, b) slices in training order; the slices of
    one piece (one key) are consecutive. Slices of different pieces run
    side by side as lanes; slices of one piece run one after another in
    waves, each from the detached end state of the one before. A piece
    whose first slice here starts at a > 0 starts from carry[key], else
    from zeros. Each slice's dropout masks are drawn in one rng call, in
    batch order, giving forward_step's draws bit for bit.

    Adds the gradient of the summed per-slice mean losses into every
    parameter's .grad. Returns (the per-slice mean losses in batch order,
    {key: detached end state of the piece's last slice here}).
    """
    rate = params.config.dropout
    width = sum(_dropout_widths(params.config))
    keeps = [rng.random((b - a, width)) >= rate if rate > 0.0 else None
             for _, _, a, b in batch]
    groups = {}
    for i, (key, _, _, _) in enumerate(batch):
        groups.setdefault(key, []).append(i)
    states = {key: carry[key] if batch[idx[0]][2] > 0 else None
              for key, idx in groups.items()}
    losses = [None] * len(batch)
    for wave in range(max(len(idx) for idx in groups.values())):
        lanes = [idx[wave] for idx in groups.values() if len(idx) > wave]
        keys = [batch[i][0] for i in lanes]
        wave_losses, ends = _wave(params, [batch[i][1:] for i in lanes],
                                  [states[k] for k in keys], [keeps[i] for i in lanes])
        for i, loss in zip(lanes, wave_losses):
            losses[i] = loss
        states.update(zip(keys, ends))
    return losses, states


def tape_batch_backward(params, batch, carry, rng):
    """Reference for lane_batch_backward, with the same arguments and
    results: each slice through sequence_loss and the tape in turn."""
    losses = []
    states = {}
    for key, seq, a, b in batch:
        state = detach_state(states.get(key, carry.get(key))) if a > 0 else None
        with Tape() as tape:
            loss, state = sequence_loss(params, seq, a, b, training=True,
                                        rng=rng, state=state)
        backward(loss, tape)
        states[key] = detach_state(state)
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
    plus bias. A step gathers layer 1's word column and runs the recurrent
    and upper-layer products, the gate math and the heads' h_top half, on
    single rows so that it shares the lane ops of training. ckpt is a
    Checkpoint or Weights; the weights are views of its tensors, checked
    against its config. Probabilities match forward_step up to float
    rounding.
    """

    def __init__(self, ckpt, cond):
        cfg = ckpt.config
        _check_arrays("tensors", ckpt.tensors, param_shapes(cfg))
        w = ckpt.tensors
        h = cfg.hidden
        pre, post = condition_windows(cond, cfg.w_past, cfg.w_future)
        pre_out = linear_rows(pre, w["pre_ff.W"], w["pre_ff.b"])
        post_out = linear_rows(post, w["post_ff.W"], w["post_ff.b"])
        self.t = 0
        self.scale, self.shift = _gate_affine(h)
        self.streams = []
        for s, vocab in zip(STREAM_NAMES, VOCAB_SIZES):
            layers = [(w[f"{s}.lstm{li}.Wx"], w[f"{s}.lstm{li}.Wh"], w[f"{s}.lstm{li}.bias"])
                      for li in range(1, cfg.lstm_layers + 1)]
            wx1, _, bias1 = layers[0]
            head = w[f"{s}.head.W"]
            self.streams.append((
                wx1[:, :vocab].T,
                linear_rows(pre_out, wx1[:, vocab:], bias1),
                layers,
                head[:, :h],
                linear_rows(post_out, head[:, h:], w[f"{s}.head.b"]),
                np.zeros((len(layers), 1, h)),
                np.zeros((len(layers), 1, h)),
            ))

    def step(self, words):
        """Feed the previous step's three words (silence words at step 0);
        returns each stream's next-word probabilities [vocab]."""
        t = self.t
        self.t += 1
        probs = []
        for si, (word_cols, cond_gates, layers, head_top, head_post, hs, cs) \
                in enumerate(self.streams):
            z = cond_gates[t:t + 1] + word_cols[words[si]]
            for li, (wx, wh, bias) in enumerate(layers):
                if li:
                    z = linear_rows(hs[li - 1], wx, bias)
                z += hs[li] @ wh.T
                lstm_cell_lanes(z, cs[li], self.scale, self.shift, cs[li], hs[li])
            logits = linear_rows(hs[-1], head_top, head_post[t])
            probs.append(softmax_rows_inplace(logits)[0])
        return probs


# ---------------------------------------------------------------------------
# Optimizer

def clip_global_norm(grads, max_norm):
    """Rescale grads in place so their global L2 norm is at most max_norm."""
    total = np.sqrt(sum(float(np.dot(g.ravel(), g.ravel())) for g in grads))
    if total > max_norm:
        f = max_norm / total
        for g in grads:
            g *= f
    return total


def adam_step(parameters, moments, lr, t):
    """Bias-corrected Adam update consuming each parameter's .grad."""
    if t < 1:
        raise ValueError("Adam step counter starts at 1")
    for p in parameters:
        m, v = moments[p.name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * p.grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * p.grad * p.grad
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class Optimizer:
    """Adam with global-norm gradient clipping, tracking its own step count."""

    def __init__(self, params):
        self.params = params
        self.t = 0
        self.moments = {p.name: (np.zeros_like(p.data), np.zeros_like(p.data))
                        for p in params.parameters()}

    def step(self, grad_scale=1.0):
        """Scale, clip and apply the accumulated gradients; returns the
        global gradient norm before clipping."""
        plist = self.params.parameters()
        if grad_scale != 1.0:
            for p in plist:
                p.grad *= grad_scale
        norm = clip_global_norm([p.grad for p in plist], GRAD_CLIP_NORM)
        self.t += 1
        adam_step(plist, self.moments, self.params.config.learning_rate, self.t)
        for p in plist:
            p.reset_grad()
        return norm


# ---------------------------------------------------------------------------
# Training

class CheckpointError(Exception):
    pass


@dataclass
class Checkpoint:
    config: ModelConfig
    epoch: int
    tensors: dict
    moments: dict
    adam_t: int
    rng_state: dict
    loss_history: list = field(default_factory=list)


@dataclass(frozen=True)
class Weights:
    """A checkpoint's config and parameter values without its training
    state (load_weights): enough for generate, refused by train(resume=)."""
    config: ModelConfig
    tensors: dict


def make_checkpoint(params, opt, rng, epoch, loss_history):
    return Checkpoint(
        config=params.config,
        epoch=epoch,
        tensors={p.name: p.data.copy() for p in params.parameters()},
        moments={name: (m.copy(), v.copy()) for name, (m, v) in opt.moments.items()},
        adam_t=opt.t,
        rng_state=copy.deepcopy(rng.bit_generator.state),
        loss_history=list(loss_history),
    )


def _check_arrays(what, arrays, expected):
    """Raise CheckpointError unless arrays has exactly the names of
    expected ({name: shape}) with those shapes."""
    missing = sorted(set(expected) - set(arrays))
    extra = sorted(set(arrays) - set(expected))
    if missing or extra:
        raise CheckpointError(f"checkpoint {what} do not match its config: "
                              f"missing {missing}, unexpected {extra}")
    for name, shape in expected.items():
        if np.shape(arrays[name]) != shape:
            raise CheckpointError(f"checkpoint {what} {name!r} has shape "
                                  f"{np.shape(arrays[name])}, its config needs {shape}")


@functools.lru_cache(maxsize=None)
def param_shapes(config):
    """Read-only {name: shape} of every parameter of a ModelParams(config),
    taken from one built without draws and kept per config."""
    return types.MappingProxyType(
        {p.name: p.data.shape for p in ModelParams(config).parameters()})


def params_from_checkpoint(ckpt):
    _check_arrays("tensors", ckpt.tensors, param_shapes(ckpt.config))
    params = ModelParams(ckpt.config)
    for p in params.parameters():
        p.data[...] = ckpt.tensors[p.name]
    return params


def _check_training_arrays(ckpt):
    """Raise CheckpointError unless ckpt's tensors and both moments have
    its config's names and shapes."""
    shapes = param_shapes(ckpt.config)
    _check_arrays("tensors", ckpt.tensors, shapes)
    for k, what in enumerate(("first moments", "second moments")):
        _check_arrays(what, {n: mv[k] for n, mv in ckpt.moments.items()}, shapes)


def _restore_training(ckpt):
    _check_training_arrays(ckpt)
    params = params_from_checkpoint(ckpt)
    opt = Optimizer(params)
    opt.t = ckpt.adam_t
    for name, (m, v) in ckpt.moments.items():
        om, ov = opt.moments[name]
        om[...] = m
        ov[...] = v
    rng = np.random.default_rng(0)
    rng.bit_generator.state = copy.deepcopy(ckpt.rng_state)
    return params, opt, rng


def _slice_ranges(n, seq_len):
    return [(a, min(a + seq_len, n)) for a in range(0, n, seq_len)]


def _check_piece(seq, config, index):
    """Raise ValueError unless piece index has the shapes, word indices and
    pre/post windows (prefix sums of cond) that config expects."""
    steps = len(seq)
    if steps == 0:
        raise ValueError(f"piece {index} is empty")
    if seq.cond.shape != (steps, COND_DIM) or \
            seq.pre.shape != seq.cond.shape or seq.post.shape != seq.cond.shape:
        raise ValueError(f"piece {index}: cond/pre/post must be [{steps} x {COND_DIM}]")
    for name in ("inputs", "targets"):
        words = getattr(seq, name)
        if words.shape != (steps, 3) or words.min() < 0 or \
                np.any(words.max(axis=0) >= VOCAB_SIZES):
            raise ValueError(f"piece {index}: {name} must be [{steps} x 3] word "
                             f"indices inside the vocabularies {VOCAB_SIZES}")
    pre, post = condition_windows(seq.cond, config.w_past, config.w_future)
    # one-hot sums are exact integers, so exact comparison is safe
    if not (np.array_equal(seq.pre, pre) and np.array_equal(seq.post, post)):
        raise ValueError(f"piece {index}: pre/post windows do not match "
                         f"w_past={config.w_past}, w_future={config.w_future}")


def train(corpus, config, epochs, snapshot_epochs=(50, 150), seed=0,
          resume=None, log_every=0):
    """Seeded training over a list of EncodedSequence pieces.

    Per epoch: shuffle pieces, cut each into seq_len slices (recurrent
    state persists across a piece's slices, resets between pieces), and
    take one clipped Adam step per batch_size slices on the averaged
    gradients. Each batch runs as lanes (lane_batch_backward). Returns
    checkpoints at each snapshot epoch plus the final epoch. resume must
    be a Checkpoint (load_checkpoint, not load_weights), and config None
    or equal to its config. Raises FloatingPointError on a non-finite
    batch loss or gradient norm.
    """
    if not corpus:
        raise ValueError("empty corpus")
    if resume is not None and not isinstance(resume, Checkpoint):
        raise TypeError(f"resume needs a Checkpoint with moments and RNG state "
                        f"(load_checkpoint), got {type(resume).__name__}")
    if resume is None:
        rng = np.random.default_rng(seed)
        params = ModelParams(config, rng)
        opt = Optimizer(params)
        start_epoch = 0
        loss_history = []
    else:
        if config is not None and config != resume.config:
            differ = [f.name for f in fields(ModelConfig)
                      if getattr(config, f.name) != getattr(resume.config, f.name)]
            raise ValueError(f"config differs from the resumed checkpoint's in {differ}")
        params, opt, rng = _restore_training(resume)
        config = params.config
        start_epoch = resume.epoch
        loss_history = list(resume.loss_history)
    for index, seq in enumerate(corpus):
        _check_piece(seq, config, index)

    checkpoints = []
    snaps = {e for e in snapshot_epochs if start_epoch < e <= epochs}
    for epoch in range(start_epoch + 1, epochs + 1):
        order = rng.permutation(len(corpus))
        slices = [(int(pi), corpus[pi], a, b) for pi in order
                  for a, b in _slice_ranges(len(corpus[pi]), config.seq_len)]
        loss_sum = 0.0
        step_count = 0
        carry = {}
        for k in range(0, len(slices), config.batch_size):
            batch = slices[k:k + config.batch_size]
            losses, carry = lane_batch_backward(params, batch, carry, rng)
            for (_, _, a, b), loss in zip(batch, losses):
                loss_sum += loss * (b - a)
                step_count += b - a
            norm = opt.step(grad_scale=1.0 / len(batch))
            if not (np.isfinite(norm) and np.isfinite(sum(losses))):
                pieces = sorted({key for key, _, _, _ in batch})
                raise FloatingPointError(
                    f"epoch {epoch}: non-finite loss or gradient norm in the batch "
                    f"of pieces {pieces} (loss {sum(losses)}, gradient norm {norm})")
        loss_history.append(loss_sum / step_count)
        if log_every and epoch % log_every == 0:
            print(f"epoch {epoch}: per-step loss {loss_history[-1]:.4f}")
        if epoch in snaps:
            checkpoints.append(make_checkpoint(params, opt, rng, epoch, loss_history))
    if not checkpoints or checkpoints[-1].epoch != epochs:
        checkpoints.append(make_checkpoint(params, opt, rng, epochs, loss_history))
    return checkpoints


# ---------------------------------------------------------------------------
# Checkpoint files, version 4: the .npy idea (NumPy NEP 1), a
# self-describing header followed by raw array data. The file is
#   _MAGIC, the header's length in bytes (<u8),
#   the header: canonical JSON (_canonical) of version, config, epoch,
#     adam_t, rng_state, loss_history, layout (each tensor's name, shape
#     and byte offset, in name order), sections (each section's length
#     and sha256) and header_sha256 (the sha256 of the header's canonical
#     JSON without that field),
#   the tensors section: each tensor's <f8 data in name order,
#   the moments section: each tensor's Adam m, then v, in name order.

_MAGIC = b"\x93DRUMGEN"
_PREFIX = struct.Struct("<8sQ")
_FLOAT = np.dtype("<f8")
_HEADER_KEYS = frozenset({"version", "config", "epoch", "adam_t", "rng_state",
                          "loss_history", "layout", "sections", "header_sha256"})
_CONFIG_KEYS = frozenset(f.name for f in fields(ModelConfig))
_SECTIONS = ("tensors", "moments")
_PCG64_KEYS = frozenset({"bit_generator", "state", "has_uint32", "uinteger"})


def _canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode()


def _layout(config):
    """The layout of config's tensors section, and its length in bytes."""
    layout, offset = [], 0
    for name, shape in sorted(param_shapes(config).items()):
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


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


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
    if not (isinstance(losses, list) and all(_is_number(x) for x in losses)):
        raise CheckpointError(f"malformed checkpoint {path}: loss_history must be "
                              f"a list of finite numbers, got {losses!r}")
    if not _is_pcg64_state(header["rng_state"]):
        raise CheckpointError(f"malformed checkpoint {path}: rng_state is not a "
                              f"PCG64 state: {header['rng_state']!r}")
    config = header["config"]
    if not isinstance(config, dict) or set(config) != _CONFIG_KEYS or any(
            not (_is_count(config[f.name]) if f.type is int else _is_number(config[f.name]))
            for f in fields(ModelConfig)):
        raise CheckpointError(f"malformed checkpoint {path}: config must hold "
                              f"ModelConfig's {sorted(_CONFIG_KEYS)} with their types, "
                              f"got {config!r}")
    try:
        return ModelConfig(**config)
    except ValueError as e:
        raise CheckpointError(f"malformed checkpoint {path}: {e}") from e


def save_checkpoint(ckpt, path):
    """Write ckpt to path in the version-4 layout, atomically. The
    arrays' memory is written as it is, without an intermediate copy."""
    config = ckpt.config
    _check_training_arrays(ckpt)
    names = sorted(ckpt.tensors)
    tensors = [np.ascontiguousarray(ckpt.tensors[n], dtype=_FLOAT) for n in names]
    moments = [np.ascontiguousarray(a, dtype=_FLOAT) for n in names for a in ckpt.moments[n]]
    header = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "epoch": ckpt.epoch,
        "adam_t": ckpt.adam_t,
        "rng_state": ckpt.rng_state,
        "loss_history": ckpt.loss_history,
        "layout": _layout(config)[0],
        "sections": {"tensors": _section(tensors), "moments": _section(moments)},
    }
    _check_values(header, path)
    header["header_sha256"] = hashlib.sha256(_canonical(header)).hexdigest()
    text = _canonical(header)
    atomic_write_bytes(path, [_PREFIX.pack(_MAGIC, len(text)), text, *tensors, *moments])


def _read_header(fh, path):
    """Read and verify the prefix and header of an open checkpoint file,
    leaving fh at the tensors section. Returns (header, config, layout,
    tensors section length)."""
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
    return header, config, layout, length


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


def _views(buf, layout, step=1):
    """Each layout entry's array as views of buf; with step 2, (m, v)
    pairs as the moments section stores them."""
    out = {}
    for e in layout:
        a = step * e["offset"] // _FLOAT.itemsize
        size = math.prod(e["shape"])
        arrays = [buf[a + k * size:a + (k + 1) * size].reshape(e["shape"])
                  for k in range(step)]
        out[e["name"]] = arrays[0] if step == 1 else tuple(arrays)
    return out


def load_weights(path):
    """The config and tensors of a checkpoint file, for inference. Reads
    the header and the tensors section and verifies both digests; the
    moments section is neither read nor verified. Raises CheckpointError,
    naming the path, as load_checkpoint does for those parts."""
    with open(path, "rb") as fh:
        header, config, layout, length = _read_header(fh, path)
        tensors = _read_section(fh, path, header, "tensors", length)
    return Weights(config, _views(tensors, layout))


def load_checkpoint(path):
    """Read a whole checkpoint file, every digest verified. Raises
    CheckpointError, naming the path, for a JSON file (versions 1-3), a
    file without the prefix or of another version, a header that is not
    canonical JSON of this version's keys and value types or whose
    layout does not match its config, a digest that does not match, or
    a file of the wrong length."""
    with open(path, "rb") as fh:
        header, config, layout, length = _read_header(fh, path)
        tensors = _read_section(fh, path, header, "tensors", length)
        moments = _read_section(fh, path, header, "moments", 2 * length)
    return Checkpoint(
        config=config,
        epoch=header["epoch"],
        tensors=_views(tensors, layout),
        moments=_views(moments, layout, step=2),
        adam_t=header["adam_t"],
        rng_state=header["rng_state"],
        loss_history=header["loss_history"],
    )
