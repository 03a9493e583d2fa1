import copy
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drumgen import autodiff as ad
from drumgen import layers as dl
from drumgen import model as dm
from drumgen.autodiff import Tape, backward, finite_diff_check
from drumgen.encoding import (COND_DIM, STREAM_NAMES, VOCAB_SIZES, EncodedSequence,
                              condition_windows, encode_sequence, quantize_song)
from drumgen.model import (ModelConfig, ModelParams, Optimizer,
                           adam_step, clip_global_norm, forward_step,
                           load_checkpoint, save_checkpoint, sequence_loss,
                           train)
from drumgen.sampling import ConditionTrack, GenerationConfig, generate
from drumgen.synth import STYLES, SynthConfig, synth_songs

LN512 = np.log(512.0)


@pytest.fixture(scope="module")
def tiny_corpus():
    cfg = SynthConfig(n_songs=2, bars_per_song=4, meters=((4, 4),), seed=5)
    songs = synth_songs(STYLES["synthrock"], cfg)
    return [encode_sequence(quantize_song(s)) for s in songs]


def tiny_config(**kw):
    base = dict(hidden=6, seq_len=8, batch_size=2, dropout=0.2)
    base.update(kw)
    return ModelConfig(**base)


def test_default_config_matches_contract():
    cfg = ModelConfig()
    assert (cfg.hidden, cfg.lstm_layers, cfg.dropout) == (256, 2, 0.2)
    assert (cfg.w_past, cfg.w_future) == (4, 4)
    assert VOCAB_SIZES == (4, 8, 16)
    assert COND_DIM == 31
    assert (cfg.learning_rate, cfg.seq_len, cfg.batch_size, dm.GRAD_CLIP_NORM) == \
        (1e-3, 64, 16, 5.0)


@pytest.mark.parametrize("field, value", [
    ("hidden", 2.5), ("hidden", True), ("w_past", 1.5), ("seq_len", 2.0),
    ("batch_size", np.int64(2)), ("dropout", True), ("learning_rate", "0.1"),
])
def test_config_rejects_values_of_wrong_type(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        tiny_config(**{field: value})


def test_config_takes_an_int_for_a_float_field():
    assert tiny_config(dropout=0).dropout == 0


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(dropout=1.0)
    with pytest.raises(ValueError):
        ModelConfig(hidden=0)
    for rate in (float("nan"), float("inf"), 0.0, -1e-3):
        with pytest.raises(ValueError, match="learning_rate"):
            ModelConfig(learning_rate=rate)


def test_init_is_seed_deterministic():
    cfg = tiny_config()
    p1 = ModelParams(cfg, np.random.default_rng(9))
    p2 = ModelParams(cfg, np.random.default_rng(9))
    for a, b in zip(p1.parameters(), p2.parameters()):
        npt.assert_array_equal(a.data, b.data)


def test_init_forget_bias_and_zero_heads():
    params = ModelParams(tiny_config(), np.random.default_rng(0))
    h = params.config.hidden
    for s in STREAM_NAMES:
        for layer in params.lstm_stacks[s]:
            npt.assert_array_equal(layer.bias.data[h:2 * h], np.ones(h))
        npt.assert_array_equal(params.heads[s].W.data,
                               np.zeros_like(params.heads[s].W.data))


def test_zero_heads_give_uniform_outputs():
    params = ModelParams(tiny_config(), np.random.default_rng(1))
    state = params.zero_state()
    probs = forward_step(params, [0, 0, 0], np.zeros(31), np.zeros(31), state)
    for p, vocab in zip(probs, (4, 8, 16)):
        npt.assert_allclose(p.data, np.full(vocab, 1.0 / vocab), atol=1e-15)
        assert abs(p.data.sum() - 1.0) <= 1e-12


def test_initial_per_step_loss_is_ln512(tiny_corpus):
    params = ModelParams(tiny_config(), np.random.default_rng(2))
    loss, _ = sequence_loss(params, tiny_corpus[0], 0, 8)
    npt.assert_allclose(float(loss.data), LN512, atol=1e-9)


def test_single_step_loss_equals_forward_ce_sum(tiny_corpus):
    params = ModelParams(tiny_config(), np.random.default_rng(3))
    seq = tiny_corpus[0]
    loss, _ = sequence_loss(params, seq, 4, 5)
    pre, post = condition_windows(seq.cond, seq.w_past, seq.w_future)
    probs = forward_step(params, seq.inputs[4], pre[4], post[4], params.zero_state())
    expected = sum(-np.log(p.data[int(seq.targets[4][i])])
                   for i, p in enumerate(probs))
    npt.assert_allclose(float(loss.data), expected, rtol=1e-12)


def test_architecture_wiring():
    params = ModelParams(tiny_config(), np.random.default_rng(4))
    cfg = params.config
    assert set(params.lstm_stacks) == set(STREAM_NAMES)
    assert set(params.heads) == set(STREAM_NAMES)
    for s, vocab in zip(STREAM_NAMES, VOCAB_SIZES):
        stack = params.lstm_stacks[s]
        assert len(stack) == 2
        assert stack[0].in_dim == vocab + cfg.hidden  # word + pre-FF merge
        assert stack[1].in_dim == cfg.hidden
        assert params.heads[s].W.data.shape == (vocab, 2 * cfg.hidden)  # h + post-FF
    assert params.pre_ff.W.data.shape == (cfg.hidden, COND_DIM)
    assert params.post_ff.W.data.shape == (cfg.hidden, COND_DIM)


def test_dropout_applied_at_eleven_connection_points(monkeypatch):
    params = ModelParams(tiny_config(), np.random.default_rng(5))
    calls = []
    real = dl.dropout_apply

    def counting(x, rate, training, rng):
        calls.append(rate)
        return real(x, rate, training, rng)

    monkeypatch.setattr(dl, "dropout_apply", counting)
    monkeypatch.setattr(dm, "dropout_apply", counting)
    forward_step(params, [0, 0, 0], np.zeros(31), np.zeros(31),
                 params.zero_state(), training=True, rng=np.random.default_rng(0))
    # 2 FF outputs + per stream: stack input, between layers, top output
    assert len(calls) == 2 + 3 * 3
    assert all(r == params.config.dropout for r in calls)


def test_post_window_changes_outputs_but_not_states():
    params = ModelParams(tiny_config(dropout=0.0), np.random.default_rng(6))
    rng = np.random.default_rng(7)
    for s in STREAM_NAMES:  # heads are zero-initialized; randomize for contrast
        params.heads[s].W.data[...] = rng.normal(size=params.heads[s].W.data.shape)
    post_a = np.zeros(31)
    post_b = np.zeros(31)
    post_b[25] = 5.0

    state_a = params.zero_state()
    out_a = forward_step(params, [1, 2, 3], np.zeros(31), post_a, state_a)
    state_b = params.zero_state()
    out_b = forward_step(params, [1, 2, 3], np.zeros(31), post_b, state_b)

    assert any(not np.allclose(a.data, b.data) for a, b in zip(out_a, out_b))
    npt.assert_array_equal(dm.detach_state(state_a), dm.detach_state(state_b))


def test_loss_decreases_after_one_optimizer_step(tiny_corpus):
    params = ModelParams(tiny_config(dropout=0.0), np.random.default_rng(8))
    opt = Optimizer(params.config, params.values, params.grads)
    seq = tiny_corpus[0]
    with Tape() as tape:
        loss, _ = sequence_loss(params, seq, 0, 8)
    before = float(loss.data)
    backward(loss, tape)
    opt.step()
    after, _ = sequence_loss(params, seq, 0, 8)
    assert float(after.data) < before


def test_sequence_loss_gradients_match_finite_differences(tiny_corpus):
    cfg = ModelConfig(hidden=2, dropout=0.0, seq_len=2)
    params = ModelParams(cfg, np.random.default_rng(9))
    seq = tiny_corpus[0]

    def loss_fn():
        loss, _ = sequence_loss(params, seq, 0, 2, training=False)
        return loss

    assert finite_diff_check(loss_fn, params.parameters()) <= 1e-4


def test_clip_global_norm():
    g = np.array([30.0, 40.0])  # norm 50
    total = clip_global_norm(g, 5.0)
    assert total == 50.0
    npt.assert_allclose(np.linalg.norm(g), 5.0)
    h = np.array([3.0, 4.0])
    clip_global_norm(h, 5.0)  # norm exactly 5: untouched
    npt.assert_array_equal(h, [3.0, 4.0])


def test_adam_zero_gradient_keeps_params():
    value = np.array([1.0, -2.0])
    adam_step([(value, np.zeros(2), np.zeros(2), np.zeros(2))], lr=0.1, t=1)
    npt.assert_array_equal(value, [1.0, -2.0])


def test_adam_moments_decay_on_zero_gradient():
    m, v = np.array([0.4]), np.array([0.9])
    adam_step([(np.array([1.0]), np.zeros(1), m, v)], lr=0.0, t=1)
    npt.assert_allclose(m, [0.4 * 0.9])
    npt.assert_allclose(v, [0.9 * 0.999])


def test_adam_constant_gradient_converges_to_lr_step():
    value = np.array([0.0])
    slot = (value, np.array([3.0]), np.zeros(1), np.zeros(1))
    lr = 1e-2
    prev = value.copy()
    for t in range(1, 400):
        adam_step([slot], lr, t)
        step = prev - value
        prev = value.copy()
    npt.assert_allclose(step, [lr], rtol=1e-3)  # magnitude -> lr, sign following


def test_train_zero_epochs_returns_initial_state(tiny_corpus):
    ckpts = train(tiny_corpus, tiny_config(), epochs=0, snapshot_epochs=(50,), seed=1)
    assert len(ckpts) == 1 and ckpts[0].epoch == 0
    params = dm.params_from_checkpoint(ckpts[0])
    loss, _ = sequence_loss(params, tiny_corpus[0], 0, 8)
    npt.assert_allclose(float(loss.data), LN512, atol=1e-9)


@pytest.mark.parametrize("epochs", [-2, -1, 2.0, True, "3"])
def test_train_rejects_epochs_below_zero_or_not_int(tiny_corpus, epochs):
    with pytest.raises(ValueError, match=rf"epochs must be an int of at least 0, .*got {epochs!r}"):
        train(tiny_corpus, tiny_config(), epochs=epochs)


def test_resume_rejects_epochs_below_the_checkpoint_epoch(tiny_corpus):
    ckpt = train(tiny_corpus, tiny_config(), epochs=3, snapshot_epochs=(), seed=6)[-1]
    for epochs in (1, 2):
        with pytest.raises(ValueError, match=rf"at least 3, .*got {epochs}"):
            train(tiny_corpus, None, epochs=epochs, resume=ckpt)
    same = train(tiny_corpus, None, epochs=3, resume=ckpt)
    assert [c.epoch for c in same] == [3] and same[0].loss_history == ckpt.loss_history


def test_train_requires_corpus():
    with pytest.raises(ValueError, match="empty"):
        train([], tiny_config(), epochs=1)


def test_train_is_seed_deterministic(tiny_corpus):
    runs = [train(tiny_corpus, tiny_config(), epochs=2, snapshot_epochs=(), seed=3)
            for _ in range(2)]
    assert runs[0][-1].loss_history == runs[1][-1].loss_history
    for name in runs[0][-1].tensors:
        npt.assert_array_equal(runs[0][-1].tensors[name], runs[1][-1].tensors[name])


def test_train_snapshot_epochs(tiny_corpus):
    ckpts = train(tiny_corpus, tiny_config(), epochs=3, snapshot_epochs=(1, 3), seed=0)
    assert [c.epoch for c in ckpts] == [1, 3]
    ckpts = train(tiny_corpus, tiny_config(), epochs=3, snapshot_epochs=iter([2]), seed=0)
    assert [c.epoch for c in ckpts] == [2, 3]
    ckpts = train(tiny_corpus, tiny_config(), epochs=4, snapshot_epochs=(2,), seed=0)
    assert [c.epoch for c in ckpts] == [2, 4]


@pytest.mark.parametrize("snapshot_epochs", [(0,), (2, -1), (1.0,), (True,), ("2",)],
                         ids=["zero", "negative", "float", "bool", "str"])
def test_train_rejects_snapshot_epochs_below_one_or_not_int(tiny_corpus, snapshot_epochs):
    with pytest.raises(ValueError, match="snapshot_epochs must be ints of at least 1"):
        train(tiny_corpus, tiny_config(), epochs=3, snapshot_epochs=snapshot_epochs)


def test_on_snapshot_sees_the_training_buffers_at_its_epoch(tiny_corpus):
    """The callback replaces the default copy: it gets a checkpoint that
    shares the live buffers, and the returned list holds only the final one."""
    copies = train(tiny_corpus, tiny_config(), epochs=3, snapshot_epochs=(1, 2), seed=8)
    seen = []

    def keep(ckpt):
        seen.append((ckpt, copy.deepcopy(ckpt)))
    ckpts = train(tiny_corpus, tiny_config(), epochs=3, snapshot_epochs=(1, 2), seed=8,
                  on_snapshot=keep)
    assert [c.epoch for c in ckpts] == [3]
    assert [shared.epoch for shared, _ in seen] == [1, 2]
    for (shared, at_epoch), want in zip(seen, copies):
        assert shared.values is ckpts[-1].values and shared.m is ckpts[-1].m
        for name in ("values", "m", "v"):
            npt.assert_array_equal(getattr(at_epoch, name), getattr(want, name))
        assert at_epoch.loss_history == want.loss_history


def test_checkpoint_roundtrip_bit_exact(tiny_corpus, tmp_path):
    ckpt = train(tiny_corpus, tiny_config(), epochs=1, snapshot_epochs=(), seed=4)[-1]
    path = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert loaded.epoch == ckpt.epoch and loaded.adam_t == ckpt.adam_t
    assert loaded.config == ckpt.config
    assert loaded.rng_state == ckpt.rng_state
    assert loaded.loss_history == ckpt.loss_history
    for name in ("values", "m", "v"):
        npt.assert_array_equal(getattr(loaded, name), getattr(ckpt, name))


def test_resume_matches_uninterrupted_training(tiny_corpus, tmp_path):
    cfg = tiny_config()
    full = train(tiny_corpus, cfg, epochs=3, snapshot_epochs=(), seed=6)[-1]
    mid = train(tiny_corpus, cfg, epochs=2, snapshot_epochs=(), seed=6)[-1]
    path = tmp_path / "mid.json"
    save_checkpoint(mid, path)
    resumed = train(tiny_corpus, cfg, epochs=3, snapshot_epochs=(),
                    resume=load_checkpoint(path))[-1]
    assert resumed.loss_history == full.loss_history
    for name in full.tensors:
        npt.assert_array_equal(resumed.tensors[name], full.tensors[name])


def test_resume_from_weights_only_rejected(tiny_corpus, tmp_path):
    ckpt = train(tiny_corpus, tiny_config(), epochs=1, snapshot_epochs=(), seed=6)[-1]
    path = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, path)
    with pytest.raises(TypeError, match="Checkpoint .*got Weights"):
        train(tiny_corpus, None, epochs=2, snapshot_epochs=(), resume=dm.load_weights(path))


def test_resume_with_other_config_rejected(tiny_corpus):
    ckpt = train(tiny_corpus, tiny_config(), epochs=1, snapshot_epochs=(), seed=6)[-1]
    other = tiny_config(hidden=ckpt.config.hidden + 2, learning_rate=0.5, batch_size=1)
    with pytest.raises(ValueError, match=r"\['hidden', 'learning_rate', 'batch_size'\]"):
        train(tiny_corpus, other, epochs=2, snapshot_epochs=(), resume=ckpt)
    resumed = train(tiny_corpus, None, epochs=2, snapshot_epochs=(), resume=ckpt)[-1]
    assert resumed.config == ckpt.config and resumed.epoch == 2


def test_corrupted_checkpoint_rejected(tiny_corpus, tmp_path):
    ckpt = train(tiny_corpus, tiny_config(), epochs=1, snapshot_epochs=(), seed=7)[-1]
    path = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, path)
    raw = bytearray(path.read_bytes())
    header_end = 16 + int.from_bytes(raw[8:16], "little")  # after magic, length, header
    raw[header_end + 200] ^= 1
    path.write_bytes(bytes(raw))
    with pytest.raises(dm.CheckpointError, match="checksum mismatch in the tensors section"):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tiny_corpus, tmp_path):
    ckpt = train(tiny_corpus, tiny_config(), epochs=1, snapshot_epochs=(), seed=7)[-1]
    path = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, path)
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b'"version":5', b'"version":9', 1))
    with pytest.raises(dm.CheckpointError, match="version 9"):
        load_checkpoint(path)


def test_missing_checkpoint_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nope.json")


# ---------------------------------------------------------------------------
# Lane-batched training step against the per-step tape path

def randomized_heads(params, seed):
    """Heads start at zero, which blocks every gradient below them."""
    rng = np.random.default_rng(seed)
    for s in STREAM_NAMES:
        params.heads[s].W.data[...] = rng.normal(size=params.heads[s].W.data.shape)


def named(params):
    """config and {name: view} of the values and grads of params: the
    leading arguments of lane_batch_backward and tape_batch_backward."""
    shapes = dm.param_shapes(params.config)
    return params.config, dm._views(params.values, shapes), dm._views(params.grads, shapes)


def run_batch(fn, params, batch, carry, seed):
    rng = np.random.default_rng(seed)
    losses, states = fn(*named(params), batch, carry, rng)
    grads = {p.name: p.grad.copy() for p in params.parameters()}
    params.grads[...] = 0.0
    return losses, states, grads, rng.bit_generator.state


@pytest.mark.parametrize("dropout", [0.0, 0.2])
def test_lane_batch_matches_tape_path(tiny_corpus, dropout):
    params = ModelParams(tiny_config(dropout=dropout, hidden=5), np.random.default_rng(10))
    randomized_heads(params, 11)
    a, b = tiny_corpus
    # piece 0 carries its state over from the previous batch
    _, carry = dm.tape_batch_backward(*named(params), [(0, a, 0, 8)], {}, np.random.default_rng(12))
    for p in params.parameters():
        p.reset_grad()
    # lanes of 8, 8 and 5 steps; piece 1 has two slices in the batch
    batch = [(0, a, 8, 16), (1, b, 0, 8), (1, b, 8, 13), (2, a, 0, 5)]
    tape = run_batch(dm.tape_batch_backward, params, batch, carry, 13)
    lane = run_batch(dm.lane_batch_backward, params, batch, carry, 13)

    npt.assert_allclose(lane[0], tape[0], rtol=1e-12)
    assert sorted(lane[1]) == sorted(tape[1]) == [0, 1, 2]
    for key in tape[1]:
        npt.assert_allclose(lane[1][key], tape[1][key], rtol=0, atol=1e-12)
    for name, g in tape[2].items():
        assert np.any(g != 0.0), name
        err = np.max(np.abs(lane[2][name] - g)) / np.max(np.abs(g))
        assert err <= 1e-10, (name, err)
    assert lane[3] == tape[3]


@st.composite
def lane_batches(draw):
    """A config and a batch of 1-4 slices from 1-3 pieces: each piece's
    slices are consecutive, of 1-6 steps, and a piece whose first slice
    starts past step 0 carries a random state in from the batch before."""
    cfg = ModelConfig(hidden=draw(st.integers(1, 8)), lstm_layers=draw(st.integers(1, 3)),
                      dropout=draw(st.sampled_from([0.0, 0.2])),
                      w_past=draw(st.integers(0, 8)), w_future=draw(st.integers(0, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(
        lambda c: sum(c) <= 4))
    batch, carry = [], {}
    for key, count in enumerate(counts):
        lengths = draw(st.lists(st.integers(1, 6), min_size=count, max_size=count))
        start = draw(st.integers(0, 4))
        steps = start + sum(lengths) + draw(st.integers(0, 2))
        words = np.stack([rng.integers(vocab, size=steps) for vocab in VOCAB_SIZES], axis=1)
        cond = (rng.random((steps, COND_DIM)) < 0.3).astype(np.float64)
        seq = EncodedSequence(words, cond, cfg.w_past, cfg.w_future)
        for n in lengths:
            batch.append((key, seq, start, start + n))
            start += n
        carry[key] = rng.normal(size=(2, 3, cfg.lstm_layers * cfg.hidden))
    # lanes x hidden up to which the LSTM ops hoist: none, one-lane waves, all
    hoist = draw(st.sampled_from([0, cfg.hidden, 4 * cfg.hidden]))
    return cfg, batch, carry, draw(st.booleans()), hoist


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lane_batches())
def test_lane_batch_matches_tape_path_on_drawn_batches(case):
    """Fuzzed oracle for lane_batch_backward, with the contracts of
    test_lane_batch_matches_tape_path: grouped and one stream at a time,
    each with the hoisted and the per-step recurrence order in every wave or
    in some."""
    cfg, batch, carry, grouped, hoist = case
    params = ModelParams(cfg, np.random.default_rng(len(batch)))
    randomized_heads(params, 11)
    with mock.patch.object(dm, "STACK_STREAMS_MAX_HIDDEN", cfg.hidden - (not grouped)), \
            mock.patch.object(dl, "HOIST_MAX_LANE_UNITS", hoist):
        lane = run_batch(dm.lane_batch_backward, params, batch, carry, 13)
    tape = run_batch(dm.tape_batch_backward, params, batch, carry, 13)

    npt.assert_allclose(lane[0], tape[0], rtol=1e-12)
    assert sorted(lane[1]) == sorted(tape[1]) == sorted(carry)
    for key in tape[1]:
        assert lane[1][key].shape == tape[1][key].shape == carry[key].shape
        npt.assert_allclose(lane[1][key], tape[1][key], rtol=0, atol=1e-12)
    for name, g in tape[2].items():
        assert np.max(np.abs(lane[2][name] - g)) <= 1e-10 * np.max(np.abs(g)), name
    assert lane[3] == tape[3]


def counting_groups(monkeypatch):
    """Patch model.lstm_lanes_forward to record each call's group size."""
    sizes = []
    real = dm.lstm_lanes_forward

    def wrapper(w, layers, *args):
        sizes.append(len(layers))
        return real(w, layers, *args)
    monkeypatch.setattr(dm, "lstm_lanes_forward", wrapper)
    return sizes


@pytest.mark.parametrize("dropout", [0.0, 0.2])
def test_lane_batch_same_with_streams_grouped_or_one_at_a_time(tiny_corpus, monkeypatch,
                                                                dropout):
    """Grouping K, H and T changes no float operation: losses, end states,
    gradients and the generator state are equal bit for bit."""
    params = ModelParams(tiny_config(dropout=dropout, hidden=5), np.random.default_rng(10))
    randomized_heads(params, 11)
    a, b = tiny_corpus
    _, carry = dm.lane_batch_backward(*named(params), [(0, a, 0, 8)], {}, np.random.default_rng(12))
    params.grads[...] = 0.0
    batch = [(0, a, 8, 16), (1, b, 0, 8), (1, b, 8, 13), (2, a, 0, 5)]
    sizes = counting_groups(monkeypatch)
    grouped = run_batch(dm.lane_batch_backward, params, batch, carry, 13)
    assert set(sizes) == {3}
    sizes.clear()
    monkeypatch.setattr(dm, "STACK_STREAMS_MAX_HIDDEN", 4)
    single = run_batch(dm.lane_batch_backward, params, batch, carry, 13)
    assert set(sizes) == {1}

    assert grouped[0] == single[0]
    assert list(grouped[1]) == list(single[1]) == [0, 1, 2]
    for key in grouped[1]:
        npt.assert_array_equal(grouped[1][key], single[1][key])
    for name, g in grouped[2].items():
        assert np.any(g != 0.0), name
        npt.assert_array_equal(single[2][name].view(np.uint64), g.view(np.uint64))
    assert grouped[3] == single[3]


@pytest.mark.parametrize("hidden, layers", [(48, 2), (5, 3)])
def test_lane_batch_same_in_the_hoisted_and_the_per_step_order(tiny_corpus, monkeypatch,
                                                                hidden, layers):
    """Up to layers.HOIST_MAX_LANE_UNITS lanes x hidden units the LSTM backward
    takes the element-wise BPTT factors before the time loop and stacks the
    streams' dZ Wh; the per-step order above it gives the same losses, end
    states and gradients within 1e-12 and the same generator state."""
    assert 3 * hidden <= dl.HOIST_MAX_LANE_UNITS  # the first wave has 3 lanes
    params = ModelParams(tiny_config(hidden=hidden, lstm_layers=layers), np.random.default_rng(10))
    randomized_heads(params, 11)
    a, b = tiny_corpus
    carry = {0: np.random.default_rng(12).normal(size=(2, 3, layers * hidden))}
    batch = [(0, a, 8, 16), (1, b, 0, 8), (1, b, 8, 13), (2, a, 0, 5)]
    hoisted = run_batch(dm.lane_batch_backward, params, batch, carry, 13)
    monkeypatch.setattr(dl, "HOIST_MAX_LANE_UNITS", 0)
    per_step = run_batch(dm.lane_batch_backward, params, batch, carry, 13)

    npt.assert_allclose(hoisted[0], per_step[0], rtol=1e-12)
    for key in carry:
        npt.assert_allclose(hoisted[1][key], per_step[1][key], rtol=0, atol=1e-12)
    for name, g in per_step[2].items():
        assert np.any(g != 0.0), name
        assert np.max(np.abs(hoisted[2][name] - g)) <= 1e-12 * np.max(np.abs(g)), name
    assert hoisted[3] == per_step[3]


def test_lane_path_carries_state_as_arrays_without_tensors(tiny_corpus, monkeypatch):
    """Ragged lanes and a carried piece run without one autodiff Tensor, and
    every end state is one [2, 3, layers*hidden] array."""
    params = ModelParams(tiny_config(hidden=5, lstm_layers=3), np.random.default_rng(10))
    carry = {0: np.random.default_rng(11).normal(size=(2, 3, 15))}

    def no_tensor(*args, **kwargs):
        raise AssertionError("the lane path built an autodiff Tensor")
    monkeypatch.setattr(dm, "Tensor", no_tensor)
    a, b = tiny_corpus
    batch = [(0, a, 8, 16), (1, b, 0, 8), (1, b, 8, 13), (2, a, 0, 5)]
    losses, states = dm.lane_batch_backward(*named(params), batch, carry,
                                           np.random.default_rng(12))
    assert len(losses) == len(batch)
    assert sorted(states) == [0, 1, 2]
    assert {state.shape for state in states.values()} == {(2, 3, 15)}


def test_train_resume_and_generate_build_no_tape_objects(tiny_corpus, tmp_path, monkeypatch):
    """train, a checkpoint's save and load, a resumed train and generate
    reach the weights by name: none of them builds an autodiff Parameter,
    Tensor or Tape, a ModelParams or a layer object."""
    def refuse(name):
        def build(*args, **kwargs):
            raise AssertionError(f"built a {name}")
        return build
    for module, names in ((ad, ("Parameter", "Tensor", "Tape")),
                          (dm, ("Tensor", "Tape", "ModelParams", "LinearLayer", "LSTMLayer")),
                          (dl, ("Parameter", "Tensor", "LinearLayer", "LSTMLayer"))):
        for name in names:
            monkeypatch.setattr(module, name, refuse(name))
    cfg = tiny_config(hidden=5, lstm_layers=2)
    ckpt = train(tiny_corpus, cfg, epochs=2, snapshot_epochs=(), seed=23)[-1]
    save_checkpoint(ckpt, tmp_path / "ckpt")
    resumed = train(tiny_corpus, None, epochs=3, resume=load_checkpoint(tmp_path / "ckpt"))[-1]
    assert (resumed.epoch, len(resumed.loss_history)) == (3, 3)
    seq = tiny_corpus[0]
    track = ConditionTrack(seq.cond, seq.targets)
    words = generate(resumed, track, GenerationConfig(seed_steps=4, rng_seed=1))
    assert words.shape == (len(seq), 3)


@pytest.mark.parametrize("hidden, layers", [(5, 3), (130, 2)])
def test_training_carry_and_inference_state_share_one_layout(tiny_corpus, hidden, layers):
    """After one slice, the carry of the lane path equals InferenceRun's
    [hs, cs] fed the same words: streams grouped (hidden 5) and one at a
    time (hidden 130)."""
    params = ModelParams(tiny_config(hidden=hidden, lstm_layers=layers, dropout=0.0),
                         np.random.default_rng(20))
    seq = tiny_corpus[0]
    _, carry = dm.lane_batch_backward(*named(params), [(0, seq, 0, 20)], {},
                                        np.random.default_rng(21))
    run = dm.InferenceRun(dm.Weights(params.config, params.values), seq.cond)
    for words in seq.inputs[:20]:
        run.step(words)
    assert carry[0].shape == (2, 3, layers * hidden)
    npt.assert_allclose(carry[0], np.stack([run.hs, run.cs])[:, :, 0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("hidden, group", [(4, 3), (130, 1)])
def test_train_groups_the_streams_only_at_small_hidden_sizes(tiny_corpus, monkeypatch,
                                                              hidden, group):
    """One lstm_lanes_forward call per layer and wave for all three
    streams up to STACK_STREAMS_MAX_HIDDEN, three above it."""
    waves = []
    real_wave = dm._wave
    monkeypatch.setattr(dm, "_wave", lambda *args: waves.append(1) or real_wave(*args))
    sizes = counting_groups(monkeypatch)
    train(tiny_corpus, tiny_config(hidden=hidden, lstm_layers=2), epochs=1,
          snapshot_epochs=(), seed=0)
    assert len(waves) > 1
    assert sizes == [group] * (2 * len(waves) * 3 // group)


@pytest.mark.parametrize("batch_size", [1, 4])
def test_train_matches_tape_step(tiny_corpus, monkeypatch, batch_size):
    """Whole epochs: batching, carried state and dropout draws line up."""
    cfg = tiny_config(batch_size=batch_size, seq_len=24)
    lane = train(tiny_corpus, cfg, epochs=2, snapshot_epochs=(), seed=14)[-1]
    monkeypatch.setattr(dm, "lane_batch_backward", dm.tape_batch_backward)
    tape = train(tiny_corpus, cfg, epochs=2, snapshot_epochs=(), seed=14)[-1]
    npt.assert_allclose(lane.loss_history, tape.loss_history, rtol=1e-12)
    assert lane.rng_state == tape.rng_state
    for name, arr in tape.tensors.items():
        npt.assert_allclose(lane.tensors[name], arr, rtol=0, atol=1e-12)


def test_optimizer_step_returns_norm_before_clipping():
    params = ModelParams(tiny_config(), np.random.default_rng(15))
    plist = params.parameters()
    plist[0].grad[...] = 3.0
    norm = Optimizer(params.config, params.values, params.grads).step(grad_scale=0.5)
    npt.assert_allclose(norm, 1.5 * np.sqrt(plist[0].data.size))


def test_clip_norm_is_one_reduction_over_the_flat_buffer():
    """Optimizer.step returns the gradient norm as one einsum over the flat
    gradient buffer (name order), bit for bit; on these gradients the sum of
    per-tensor dot products in ModelParams.parameters()' order is another float."""
    params = ModelParams(tiny_config(hidden=48), np.random.default_rng(0))
    params.grads[...] = np.random.default_rng(6).normal(size=params.grads.shape)
    want = math.sqrt(np.einsum("i,i->", params.grads, params.grads))
    assert np.sqrt(sum(float(np.dot(p.grad.ravel(), p.grad.ravel()))
                       for p in params.parameters())) != want
    assert Optimizer(params.config, params.values, params.grads).step() == want


THREADED_STEP = """
import hashlib
import numpy as np
from drumgen import model as dm
cfg = dm.ModelConfig(hidden=256)
values = dm.init_values(cfg, np.random.default_rng(0))
opt = dm.Optimizer(cfg, values, np.random.default_rng(6).normal(size=values.shape))
print(repr(opt.step()), *(hashlib.sha256(b).hexdigest() for b in (opt.values, opt.m, opt.v)))
"""


def test_optimizer_step_bits_do_not_depend_on_the_blas_thread_count():
    """A hidden-256 clip and Adam step, under 1 and 2 OpenBLAS threads in two
    processes, give the same norm and the same values, m and v bit for bit."""
    src = str(Path(dm.__file__).parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        outs.append(subprocess.run([sys.executable, "-c", THREADED_STEP], env=env, check=True,
                                   capture_output=True, text=True, timeout=120).stdout)
    assert outs[0] == outs[1] and float(outs[0].split()[0]) > dm.GRAD_CLIP_NORM


@pytest.mark.parametrize("hidden, layers", [(1, 1), (5, 3), (48, 2)])
def test_init_values_equals_model_params(hidden, layers):
    """init_values draws ModelParams' initial weights, bit for bit, and
    leaves the rng where ModelParams leaves it."""
    cfg = tiny_config(hidden=hidden, lstm_layers=layers)
    rng, model_rng = np.random.default_rng(24), np.random.default_rng(24)
    values = dm.init_values(cfg, rng)
    npt.assert_array_equal(values.view(np.uint64),
                           ModelParams(cfg, model_rng).values.view(np.uint64))
    assert rng.bit_generator.state == model_rng.bit_generator.state


def test_optimizer_step_equals_adam_over_the_whole_buffers():
    """Adam runs on ADAM_CHUNK slices, the shorter last one included; the
    update is that of one slot over the whole buffers, bit for bit."""
    params = ModelParams(tiny_config(hidden=48), np.random.default_rng(16))
    n = len(params.values)
    assert n > 2 * dm.ADAM_CHUNK and n % dm.ADAM_CHUNK
    opt = Optimizer(params.config, params.values, params.grads)
    value, m, v = params.values.copy(), np.zeros(n), np.zeros(n)
    rng = np.random.default_rng(17)
    for t in (1, 2):
        grad = rng.normal(size=n) * 1e-3  # norm about 0.35: no clipping
        params.grads[...] = grad
        opt.step()
        adam_step([(value, grad, m, v)], params.config.learning_rate, t)
        for got, want in ((params.values, value), (opt.m, m), (opt.v, v)):
            npt.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_train_raises_on_non_finite_values(tiny_corpus):
    ckpt = train(tiny_corpus, tiny_config(), epochs=1, snapshot_epochs=(), seed=16)[-1]
    ckpt.tensors["H.lstm1.Wh"][0, 0] = np.nan
    with pytest.raises(FloatingPointError, match=r"epoch 2: .*pieces \[[01]"):
        train(tiny_corpus, tiny_config(), epochs=2, snapshot_epochs=(), resume=ckpt)


def test_train_rejects_windows_of_other_lengths():
    cfg = SynthConfig(n_songs=1, bars_per_song=2, meters=((4, 4),), seed=17)
    seq = encode_sequence(quantize_song(synth_songs(STYLES["synthrock"], cfg)[0]), 8, 8)
    # 4.0 == 4, but it is no index
    for bad in (seq, dataclasses.replace(seq, w_past=4.0, w_future=4)):
        with pytest.raises(ValueError, match="piece 0: pre/post windows .* w_past=4"):
            train([bad], tiny_config(), epochs=1)


def test_train_rejects_non_finite_window(tiny_corpus):
    # the windows are sums of cond, so a non-finite window comes from cond
    for value in (np.nan, np.inf):
        bad = copy.deepcopy(tiny_corpus[1])
        bad.cond[3, 0] = value
        with pytest.raises(ValueError, match="piece 1: cond has non-finite values"):
            train([tiny_corpus[0], bad], tiny_config(), epochs=1)


def test_piece_stores_no_windows(tiny_corpus):
    seq = copy.deepcopy(tiny_corpus[0])
    assert [f.name for f in dataclasses.fields(seq)] == ["targets", "cond", "w_past", "w_future"]
    with pytest.raises(AttributeError):
        seq.inputs = np.zeros_like(seq.inputs)
    for name in ("windows", "pre", "post"):  # windows come from condition_windows only
        assert not hasattr(seq, name)
    seq.targets[5] = (1, 2, 3)  # an edit of targets shows in the inputs at once
    npt.assert_array_equal(seq.inputs[6], (1, 2, 3))


@pytest.mark.parametrize("name", ["targets"])
def test_train_rejects_float_words(tiny_corpus, name):
    bad = copy.deepcopy(tiny_corpus[0])
    setattr(bad, name, getattr(bad, name) + 0.5)
    with pytest.raises(ValueError, match=rf"integer words in piece 0: {name}, got .* float64"):
        train([bad], tiny_config(), epochs=1)


def test_train_rejects_words_and_cond_of_other_lengths(tiny_corpus):
    for name in ("targets", "cond"):
        bad = copy.deepcopy(tiny_corpus[0])
        setattr(bad, name, np.concatenate([getattr(bad, name)] * 2))
        with pytest.raises(ValueError, match="piece 0: targets and cond must have"):
            train([bad], tiny_config(), epochs=1)


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_param_shapes_match_model_params(layers):
    cfg = tiny_config(lstm_layers=layers)
    params = ModelParams(cfg, np.random.default_rng(0))
    assert dm.param_shapes(cfg) == {p.name: p.data.shape for p in params.parameters()}


def test_param_shapes_builds_no_model_params(monkeypatch):
    cfg = tiny_config(hidden=7, lstm_layers=3)
    want = {p.name: p.data.shape for p in ModelParams(cfg).parameters()}

    def refuse(*args, **kwargs):
        raise AssertionError("param_shapes built a ModelParams")
    monkeypatch.setattr(dm, "ModelParams", refuse)
    dm.param_shapes.cache_clear()
    assert list(dm.param_shapes(cfg).items()) == sorted(want.items())


def test_checkpoint_tensor_of_wrong_shape_rejected(tiny_corpus):
    """values of the wrong dtype: the message names the buffer and the
    length its config needs."""
    ckpt = train(tiny_corpus, tiny_config(), epochs=0, snapshot_epochs=(), seed=18)[-1]
    n = ckpt.values.size
    ckpt.values = ckpt.values.astype(np.float32)
    with pytest.raises(dm.CheckpointError, match=rf"checkpoint values .* length {n} .*float32"):
        dm.params_from_checkpoint(ckpt)


def test_checkpoint_missing_tensor_rejected(tiny_corpus):
    """values one number short, as if the last parameter lost an entry."""
    ckpt = train(tiny_corpus, tiny_config(), epochs=0, snapshot_epochs=(), seed=18)[-1]
    n = ckpt.values.size
    ckpt.values = ckpt.values[:-1]
    with pytest.raises(dm.CheckpointError, match=rf"values .* length {n} .*\({n - 1},\)"):
        dm.params_from_checkpoint(ckpt)


@pytest.mark.parametrize("name", ["m", "v"])
def test_checkpoint_moment_of_wrong_length_or_dtype_rejected(tiny_corpus, tmp_path, name):
    """Resume and save both check each moment buffer: its length, dtype
    and contiguity (save writes its memory as it is)."""
    ckpt = train(tiny_corpus, tiny_config(), epochs=1, snapshot_epochs=(), seed=18)[-1]
    n = ckpt.values.size
    for bad in (np.zeros(n + 1), np.zeros(n, np.float32), np.zeros(2 * n)[::2]):
        broken = dataclasses.replace(ckpt, **{name: bad})
        with pytest.raises(dm.CheckpointError, match=rf"checkpoint {name} .* length {n} "):
            train(tiny_corpus, None, epochs=2, snapshot_epochs=(), resume=broken)
        with pytest.raises(dm.CheckpointError, match=rf"checkpoint {name} .* length {n} "):
            save_checkpoint(broken, tmp_path / "ckpt.json")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Flat buffers

@pytest.mark.parametrize("layers", [1, 2, 3])
def test_parameters_are_views_of_the_flat_buffers(layers):
    params = ModelParams(tiny_config(lstm_layers=layers), np.random.default_rng(0))
    by_name = {p.name: p for p in params.parameters()}
    offset = 0
    for name, shape in dm.param_shapes(params.config).items():
        p = by_name.pop(name)
        for view, buf in ((p.data, params.values), (p.grad, params.grads)):
            assert view.shape == shape
            assert np.shares_memory(view, buf)
            assert view.ctypes.data == buf.ctypes.data + view.itemsize * offset
        offset += p.data.size
    assert by_name == {} and params.values.shape == params.grads.shape == (offset,)


def test_snapshot_equals_the_final_checkpoint_of_a_shorter_run(tiny_corpus):
    """A snapshot copies the buffers that training goes on updating."""
    snap = train(tiny_corpus, tiny_config(), epochs=2, snapshot_epochs=(1,), seed=19)[0]
    one = train(tiny_corpus, tiny_config(), epochs=1, snapshot_epochs=(), seed=19)[-1]
    for name in ("values", "m", "v"):
        npt.assert_array_equal(getattr(snap, name).view(np.uint64),
                               getattr(one, name).view(np.uint64))
    assert (snap.epoch, snap.adam_t) == (one.epoch, one.adam_t)
    assert snap.loss_history == one.loss_history and snap.rng_state == one.rng_state


def test_model_reads_the_windows_of_its_config():
    """The piece's own w_past/w_future do not reach the model: under a
    (4, 4) model one song encoded with (4, 4) and with (8, 0) gives equal
    losses and gradients."""
    cfg = SynthConfig(n_songs=1, bars_per_song=2, meters=((4, 4),), seed=17)
    grid = quantize_song(synth_songs(STYLES["synthrock"], cfg)[0])
    params = ModelParams(tiny_config(), np.random.default_rng(20))
    randomized_heads(params, 21)
    runs = []
    for windows in ((4, 4), (8, 0)):
        seq = encode_sequence(grid, *windows)
        loss, _ = sequence_loss(params, seq, 0, 16)
        losses, _, grads, _ = run_batch(dm.lane_batch_backward, params,
                                        [(0, seq, 0, 8)], {}, 22)
        runs.append((float(loss.data), losses, grads))
    assert runs[0][:2] == runs[1][:2]
    for name, g in runs[0][2].items():
        npt.assert_array_equal(runs[1][2][name], g)


def test_train_rejects_word_outside_vocabulary(tiny_corpus):
    bad = copy.deepcopy(tiny_corpus[0])
    bad.targets[5, 0] = 4  # K vocabulary has 4 words
    with pytest.raises(ValueError, match="piece 0: targets"):
        train([bad], tiny_config(), epochs=1)
