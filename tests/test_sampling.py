import dataclasses
import functools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drumgen.encoding import (COND_DIM, STREAM_NAMES, VOCAB_SIZES, encode_sequence,
                              quantize_song, window_post, window_pre)
from drumgen.model import (CheckpointError, InferenceRun, ModelConfig, ModelParams,
                           forward_step, load_weights, params_from_checkpoint,
                           Weights, save_checkpoint, train)
from drumgen.sampling import (GenerationConfig, condition_track_from_song,
                              generate, sample_categorical, temperature_adjust)
from drumgen.synth import STYLES, SynthConfig, synth_song, synth_songs


@pytest.fixture(scope="module")
def tiny_checkpoint():
    cfg = SynthConfig(n_songs=2, bars_per_song=4, meters=((4, 4),), seed=2)
    corpus = [encode_sequence(quantize_song(s))
              for s in synth_songs(STYLES["synthrock"], cfg)]
    mc = ModelConfig(hidden=6, seq_len=16, batch_size=2)
    return train(corpus, mc, epochs=2, snapshot_epochs=(), seed=0)[-1]


def eval_song(seed=77, meters=((4, 4),)):
    cfg = SynthConfig(n_songs=1, bars_per_song=4, meters=meters, seed=seed)
    return synth_song(STYLES["synthrock"], cfg, np.random.default_rng(seed))


def test_temperature_one_is_identity():
    p = np.array([0.1, 0.6, 0.3])
    npt.assert_array_equal(temperature_adjust(p, 1.0), p)


def test_temperature_symmetric_distribution_unchanged():
    p = np.array([0.5, 0.5])
    for t in (0.3, 1.0, 2.5):
        npt.assert_allclose(temperature_adjust(p, t), p, atol=1e-15)


def test_temperature_half_squares_probabilities():
    got = temperature_adjust(np.array([0.8, 0.2]), 0.5)
    npt.assert_allclose(got, [0.64 / 0.68, 0.04 / 0.68], rtol=1e-12)
    npt.assert_allclose(got, [0.9412, 0.0588], atol=1e-4)


def test_temperature_argmax_mode():
    npt.assert_array_equal(temperature_adjust(np.array([0.2, 0.5, 0.3]), 0.01),
                           [0.0, 1.0, 0.0])
    # exact tie: first max wins
    npt.assert_array_equal(temperature_adjust(np.array([0.4, 0.4, 0.2]), 0.005),
                           [1.0, 0.0, 0.0])


def test_temperature_rejects_nonpositive():
    with pytest.raises(ValueError):
        temperature_adjust(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        GenerationConfig(temperature=-1.0)


@pytest.mark.parametrize("field, value", [
    ("seed_steps", 2.5), ("seed_steps", True), ("rng_seed", 1.5), ("rng_seed", False),
    ("temperature", True), ("temperature", "1.0"),
])
def test_generation_config_rejects_values_of_wrong_type(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        GenerationConfig(**{field: value})


def test_generation_config_rejects_negative_rng_seed():
    with pytest.raises(ValueError, match="rng_seed must be non-negative, got -1"):
        GenerationConfig(rng_seed=-1)


@pytest.mark.parametrize("temperature", [float("nan"), float("inf"), -float("inf")])
def test_temperature_rejects_non_finite(temperature):
    with pytest.raises(ValueError, match="finite"):
        GenerationConfig(temperature=temperature)
    with pytest.raises(ValueError, match="finite"):
        temperature_adjust(np.array([0.2, 0.5, 0.3]), temperature)


def test_sample_one_hot_always_that_index():
    rng = np.random.default_rng(0)
    p = np.array([0.0, 0.0, 1.0, 0.0])
    assert all(sample_categorical(p, rng) == 2 for _ in range(50))


def test_sample_reproducible_with_fixed_seed():
    p = np.array([0.3, 0.3, 0.4])
    rng_a, rng_b = np.random.default_rng(42), np.random.default_rng(42)
    a = [sample_categorical(p, rng_a) for _ in range(200)]
    b = [sample_categorical(p, rng_b) for _ in range(200)]
    assert a == b


def test_sample_counts_concentrate():
    rng = np.random.default_rng(9)
    p = np.full(4, 0.25)
    counts = np.bincount([sample_categorical(p, rng) for _ in range(10_000)],
                         minlength=4)
    assert np.all(counts >= 2150) and np.all(counts <= 2850)


def test_generate_seed_covering_whole_track(tiny_checkpoint):
    song = eval_song()
    track = condition_track_from_song(song)
    gc = GenerationConfig(temperature=1.0, seed_steps=len(track), rng_seed=1)
    words = generate(tiny_checkpoint, track, gc)
    npt.assert_array_equal(words, track.seed_words)


def test_generate_output_length_and_vocab(tiny_checkpoint):
    song = eval_song()
    track = condition_track_from_song(song)
    words = generate(tiny_checkpoint, track,
                     GenerationConfig(temperature=1.2, seed_steps=16, rng_seed=3))
    assert len(words) == len(track) == quantize_song(song).total_steps
    for si, vocab in enumerate(VOCAB_SIZES):
        assert np.all(words[:, si] >= 0) and np.all(words[:, si] < vocab)


def test_generate_is_pure_function_of_inputs(tiny_checkpoint):
    song = eval_song()
    track = condition_track_from_song(song)
    gc = GenerationConfig(temperature=0.9, seed_steps=8, rng_seed=11)
    w1 = generate(tiny_checkpoint, track, gc)
    w2 = generate(tiny_checkpoint, track, gc)
    npt.assert_array_equal(w1, w2)


def test_generate_under_unseen_meter_completes(tiny_checkpoint):
    song = eval_song(meters=((9, 8),))
    track = condition_track_from_song(song)
    words = generate(tiny_checkpoint, track,
                     GenerationConfig(temperature=1.0, seed_steps=4, rng_seed=5))
    assert len(words) == 4 * 18  # four 9/8 bars


def test_generate_from_weights_equals_generate_from_checkpoint(tiny_checkpoint, tmp_path):
    save_checkpoint(tiny_checkpoint, tmp_path / "ckpt.json")
    weights = load_weights(tmp_path / "ckpt.json")
    track = condition_track_from_song(eval_song())
    gc = GenerationConfig(temperature=1.0, seed_steps=8, rng_seed=5)
    npt.assert_array_equal(generate(weights, track, gc), generate(tiny_checkpoint, track, gc))


def test_generate_rejects_oversized_seed(tiny_checkpoint):
    song = eval_song()
    track = condition_track_from_song(song)
    with pytest.raises(ValueError, match="seed"):
        generate(tiny_checkpoint, track,
                 GenerationConfig(seed_steps=len(track) + 1, rng_seed=0))


def test_trained_model_is_sensitive_to_post_window_tempo(tiny_checkpoint):
    from drumgen.encoding import TEMPO_BLOCK
    from drumgen.model import forward_step, params_from_checkpoint
    params = params_from_checkpoint(tiny_checkpoint)
    song = eval_song()
    track = condition_track_from_song(song)
    post = track.cond[:5].sum(axis=0)
    shifted = post.copy()  # move the whole window's tempo mass to another bin
    tempo = shifted[TEMPO_BLOCK]
    shifted[TEMPO_BLOCK] = np.roll(tempo, 2)
    outs = []
    for vec in (post, shifted):
        probs = forward_step(params, [1, 2, 3], track.cond[0], vec,
                             params.zero_state())
        outs.append([p.data for p in probs])
    tv = sum(0.5 * np.abs(a - b).sum() for a, b in zip(*outs))
    assert tv > 0.0


def test_entropy_rises_with_temperature(tiny_checkpoint):
    song = eval_song(seed=13)
    track = condition_track_from_song(song)

    def word_entropy(temperature):
        symbols = []
        for run in range(16):  # ~1000 sampled steps in total
            gc = GenerationConfig(temperature=temperature, seed_steps=1,
                                  rng_seed=run)
            words = generate(tiny_checkpoint, track, gc)
            symbols += [(si, w) for step in words[1:] for si, w in enumerate(step)]
        _, counts = np.unique(np.array(symbols), axis=0, return_counts=True)
        freq = counts / counts.sum()
        return float(-(freq * np.log(freq)).sum())

    assert word_entropy(1.2) >= word_entropy(0.5)


# ---------------------------------------------------------------------------
# Fail-fast checks at generate's boundary

def _with_word(words, column, value):
    words = words.copy()
    words[0, column] = value
    return words


@pytest.mark.parametrize("case, match", [
    ("cond_width", r"condition track must be \[T x 31\]"),
    ("cond_vector", r"condition track must be \[T x 31\]"),
    ("cond_complex", r"condition track must be \[T x 31\] real numbers"),
    ("cond_nan", "condition track has non-finite values"),
    ("cond_inf", "condition track has non-finite values"),
    ("seed_short", r"need \[>= 4 x 3\] integer seed words"),
    ("seed_width", r"need \[>= 4 x 3\] integer seed words"),
    ("seed_float", r"need \[>= 4 x 3\] integer seed words"),
    ("seed_negative", "seed words must lie inside the vocabularies"),
    ("seed_too_large", "seed words must lie inside the vocabularies"),
])
def test_generate_rejects_bad_request(tiny_checkpoint, case, match):
    track = condition_track_from_song(eval_song())
    cond, seed = track.cond, track.seed_words
    nan_row = cond.copy()
    nan_row[9, 0] = np.nan
    inf_row = cond.copy()
    inf_row[0, 3] = np.inf
    cond, seed = {
        "cond_width": (cond[:, :30], seed),
        "cond_vector": (cond[:, 0], seed),
        "cond_complex": (cond + 0j, seed),
        "cond_nan": (nan_row, seed),
        "cond_inf": (inf_row, seed),
        "seed_short": (cond, seed[:3]),
        "seed_width": (cond, seed[:, :2]),
        "seed_float": (cond, seed.astype(float)),
        "seed_negative": (cond, _with_word(seed, 1, -1)),
        "seed_too_large": (cond, _with_word(seed, 2, VOCAB_SIZES[2])),
    }[case]
    with pytest.raises(ValueError, match=match):
        generate(tiny_checkpoint, dataclasses.replace(track, cond=cond, seed_words=seed),
                 GenerationConfig(seed_steps=4))


def test_seed_words_past_seed_steps_are_not_checked(tiny_checkpoint):
    track = condition_track_from_song(eval_song())
    seed = track.seed_words.copy()
    seed[4:] = -1  # never read: only the first seed_steps rows are used
    words = generate(tiny_checkpoint, dataclasses.replace(track, seed_words=seed),
                     GenerationConfig(seed_steps=4))
    npt.assert_array_equal(words[:4], seed[:4])


def test_generate_rejects_checkpoint_of_wrong_shape(tiny_checkpoint):
    """values short by one column of T.head.W, in a Checkpoint or Weights."""
    n = tiny_checkpoint.values.size
    short = tiny_checkpoint.values[:n - len(tiny_checkpoint.tensors["T.head.W"])]
    track = condition_track_from_song(eval_song())
    for ckpt in (dataclasses.replace(tiny_checkpoint, values=short),
                 Weights(tiny_checkpoint.config, short)):
        with pytest.raises(CheckpointError, match=rf"checkpoint values .* length {n} "):
            generate(ckpt, track, GenerationConfig(seed_steps=4))


# ---------------------------------------------------------------------------
# The tape-free path against the tape path (forward_step)

def tape_generate(checkpoint, conditions, gen_config):
    """Reference for generate: each step through forward_step and the
    autodiff ops, with the windows summed step by step."""
    params = params_from_checkpoint(checkpoint)
    cfg = params.config
    cond = conditions.cond
    rng = np.random.default_rng(gen_config.rng_seed)
    words = np.zeros((len(cond), 3), dtype=np.intp)
    words[:gen_config.seed_steps] = conditions.seed_words[:gen_config.seed_steps]
    state = params.zero_state()
    prev = np.zeros(3, dtype=np.intp)  # silence words before step 0
    for t in range(len(cond)):
        pre = window_pre(cond, t, cfg.w_past)
        post = window_post(cond, t, cfg.w_future)
        probs = forward_step(params, prev, pre, post, state, training=False)
        if t >= gen_config.seed_steps:
            for si in range(3):
                row = temperature_adjust(probs[si].data, gen_config.temperature)
                words[t, si] = sample_categorical(row, rng)
        prev = words[t]
    return words


@functools.lru_cache(maxsize=None)
def trained_checkpoint(layers):
    cfg = SynthConfig(n_songs=2, bars_per_song=4, meters=((4, 4), (7, 8)), seed=4)
    corpus = [encode_sequence(quantize_song(s))
              for s in synth_songs(STYLES["synthrock"], cfg)]
    mc = ModelConfig(hidden=8, lstm_layers=layers, seq_len=16, batch_size=2)
    return train(corpus, mc, epochs=4, snapshot_epochs=(), seed=1)[-1]


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_inference_run_matches_forward_step(layers):
    ckpt = trained_checkpoint(layers)
    params = params_from_checkpoint(ckpt)
    cfg = params.config
    track = condition_track_from_song(eval_song(seed=21, meters=((7, 8),)))
    run = InferenceRun(ckpt, track.cond)
    state = params.zero_state()
    prev = np.zeros(3, dtype=np.intp)
    worst = 0.0
    for t in range(len(track)):
        tape = forward_step(params, prev, window_pre(track.cond, t, cfg.w_past),
                            window_post(track.cond, t, cfg.w_future), state)
        fast = run.step(prev)
        for si in range(3):
            worst = max(worst, np.max(np.abs(fast[si] - tape[si].data)))
        prev = track.seed_words[t]
    assert worst <= 1e-12


def model_with_random_heads(cfg, rng):
    """ModelParams drawn from rng, heads included: zero heads would give
    uniform rows whatever the stack does."""
    params = ModelParams(cfg, rng)
    for s in STREAM_NAMES:
        params.heads[s].W.data[...] = rng.normal(size=params.heads[s].W.data.shape)
        params.heads[s].b.data[...] = rng.normal(size=params.heads[s].b.data.shape)
    return params


@settings(max_examples=100, deadline=None, derandomize=True)
@given(hidden=st.integers(1, 8), layers=st.integers(1, 3), w_past=st.integers(0, 8),
       w_future=st.integers(0, 8), steps=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_inference_run_matches_forward_step_on_drawn_models(hidden, layers, w_past, w_future,
                                                            steps, seed):
    """Fuzzed oracle: random sizes, windows, 0/1 condition track, heads
    and fed-back words; every step's probabilities within 1e-12."""
    cfg = ModelConfig(hidden=hidden, lstm_layers=layers, w_past=w_past, w_future=w_future)
    rng = np.random.default_rng(seed)
    params = model_with_random_heads(cfg, rng)
    cond = (rng.random((steps, COND_DIM)) < 0.3).astype(np.float64)
    run = InferenceRun(Weights(cfg, params.values), cond)
    state = params.zero_state()
    prev = np.zeros(3, dtype=np.intp)
    for t in range(steps):
        tape = forward_step(params, prev, window_pre(cond, t, w_past),
                            window_post(cond, t, w_future), state)
        fast = run.step(prev)
        for si in range(3):
            npt.assert_allclose(fast[si], tape[si].data, rtol=0, atol=1e-12)
        prev = np.array([rng.integers(vocab) for vocab in VOCAB_SIZES])


def test_inference_run_matches_forward_step_where_blas_threads():
    """At hidden 256 the upper layer's [1024 x 512] product is large enough for
    OpenBLAS to split it across threads: 8 steps within 1e-12 of forward_step,
    and two runs equal bit for bit."""
    cfg = ModelConfig(hidden=256)
    rng = np.random.default_rng(5)
    params = model_with_random_heads(cfg, rng)
    cond = (rng.random((8, COND_DIM)) < 0.3).astype(np.float64)
    runs = [InferenceRun(Weights(cfg, params.values), cond) for _ in range(2)]
    state = params.zero_state()
    prev = np.zeros(3, dtype=np.intp)
    for t in range(len(cond)):
        tape = forward_step(params, prev, window_pre(cond, t, cfg.w_past),
                            window_post(cond, t, cfg.w_future), state)
        first, second = [run.step(prev) for run in runs]
        for si in range(3):
            npt.assert_allclose(first[si], tape[si].data, rtol=0, atol=1e-12)
            npt.assert_array_equal(second[si], first[si])
        prev = np.array([rng.integers(vocab) for vocab in VOCAB_SIZES])


def test_inference_run_only_reads_the_checkpoint():
    """The upper layers' [Wx | Wh] matrices are copies, never writes into values."""
    cfg = ModelConfig(hidden=4, lstm_layers=3)
    values = ModelParams(cfg, np.random.default_rng(0)).values
    before = values.copy()
    values.flags.writeable = False
    run = InferenceRun(Weights(cfg, values), np.ones((3, COND_DIM)))
    for _ in range(3):
        run.step(np.zeros(3, dtype=np.intp))
    npt.assert_array_equal(values, before)


@pytest.mark.parametrize("words, match", [((-1, 0, 0), "K word -1"), ((0, 8, 0), "H word 8"),
                                          ((0, 0, 16), "T word 16")])
def test_inference_step_rejects_word_outside_vocabulary(words, match):
    cfg = ModelConfig(hidden=4)
    run = InferenceRun(Weights(cfg, ModelParams(cfg, np.random.default_rng(0)).values),
                       np.zeros((2, COND_DIM)))
    with pytest.raises(ValueError, match=match):
        run.step(np.array(words))
    assert run.t == 0


def test_inference_step_rejects_step_past_track_end():
    cfg = ModelConfig(hidden=4)
    run = InferenceRun(Weights(cfg, ModelParams(cfg, np.random.default_rng(0)).values),
                       np.zeros((2, COND_DIM)))
    for _ in range(2):
        run.step(np.zeros(3, dtype=np.intp))
    with pytest.raises(ValueError, match="ends after 2 steps"):
        run.step(np.zeros(3, dtype=np.intp))


@pytest.mark.parametrize("temperature", [0.01, 0.5, 1.0, 1.2])
def test_generate_words_equal_tape_loop(temperature):
    ckpt = trained_checkpoint(2)
    track = condition_track_from_song(eval_song(seed=31, meters=((4, 4), (7, 8))))
    for rng_seed in range(4):
        gc = GenerationConfig(temperature=temperature, seed_steps=5, rng_seed=rng_seed)
        npt.assert_array_equal(generate(ckpt, track, gc), tape_generate(ckpt, track, gc))
