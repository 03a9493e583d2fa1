import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drumgen import autodiff as ad
from drumgen.autodiff import Parameter, Tensor, finite_diff_check
from drumgen.layers import (LinearLayer, LSTMLayer, dropout_apply, init_layer,
                            lstm_lanes_backward, lstm_lanes_forward, lstm_step,
                            stacked_lstm_step)


def drawn_layer(cls, name, rng, **shapes):
    """cls over new Parameters "<name>.<tensor>" of shapes, in keyword order,
    filled by init_layer from rng as init_values fills a model's layers."""
    arrays = [np.zeros(shape) for shape in shapes.values()]
    init_layer(arrays, rng)
    return cls(*(Parameter(a, f"{name}.{tensor}") for a, tensor in zip(arrays, shapes)))


def parameters(layer):
    """The Parameters a layer was built over, in its constructor's order."""
    return [p for p in vars(layer).values() if isinstance(p, Parameter)]


def lstm_layer(hidden, in_dim, rng=None, name="lstm"):
    return drawn_layer(LSTMLayer, name, rng, Wx=(4 * hidden, in_dim), Wh=(4 * hidden, hidden),
                       bias=(4 * hidden,))


def make_linear(w, b):
    return LinearLayer(Parameter(w, "linear.W"), Parameter(b, "linear.b"))


def test_linear_identity():
    layer = make_linear(np.eye(3), np.zeros(3))
    x = Tensor([1.0, -2.0, 0.5])
    npt.assert_array_equal(layer.forward(x).data, x.data)


def test_linear_constant_map():
    layer = make_linear(np.zeros((2, 3)), [1.0, 2.0])
    npt.assert_array_equal(layer.forward(Tensor([9.0, 9.0, 9.0])).data, [1.0, 2.0])


def test_linear_known_value():
    layer = make_linear([[1.0, 1.0]], [0.0])
    npt.assert_array_equal(layer.forward(Tensor([2.0, 3.0])).data, [5.0])


def test_linear_shape_error():
    layer = make_linear(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        layer.forward(Tensor([1.0, 2.0, 3.0]))


def zeroed_lstm(hidden, in_dim):
    layer = lstm_layer(hidden, in_dim)
    layer.bias.data[...] = 0.0
    return layer


def test_lstm_zero_everything():
    layer = zeroed_lstm(2, 3)
    h, c = lstm_step(layer, Tensor([1.0, 1.0, 1.0]), layer.zero_state())
    npt.assert_array_equal(h.data, [0.0, 0.0])
    npt.assert_array_equal(c.data, [0.0, 0.0])


def test_lstm_zero_weights_nonzero_cell():
    # all gates sigmoid(0)=0.5, candidate tanh(0)=0:
    # c' = 0.5*c, h' = 0.5*tanh(c')
    layer = zeroed_lstm(1, 1)
    state = [Tensor(np.zeros(1)), Tensor(np.ones(1))]
    h, c = lstm_step(layer, Tensor([0.0]), state)
    npt.assert_allclose(c.data, [0.5], rtol=1e-15)
    npt.assert_allclose(h.data, [0.5 * np.tanh(0.5)], rtol=1e-15)


def test_lstm_saturated_forget_gate_preserves_cell():
    layer = zeroed_lstm(1, 1)
    layer.bias.data[1] = 60.0  # forget-gate slice
    state = [Tensor(np.zeros(1)), Tensor(np.array([0.7]))]
    _, c = lstm_step(layer, Tensor([0.0]), state)
    npt.assert_allclose(c.data, [0.7], atol=1e-12)


def test_lstm_forget_bias_initialized_to_one():
    layer = lstm_layer(4, 3, np.random.default_rng(1))
    npt.assert_array_equal(layer.bias.data[4:8], np.ones(4))
    npt.assert_array_equal(layer.bias.data[:4], np.zeros(4))
    npt.assert_array_equal(layer.bias.data[8:], np.zeros(8))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_lstm_state_bounds(seed):
    rng = np.random.default_rng(seed)
    layer = lstm_layer(3, 2, rng)
    c_prev = rng.uniform(-3, 3, size=3)
    state = [Tensor(rng.uniform(-1, 1, size=3)), Tensor(c_prev)]
    h, c = lstm_step(layer, Tensor(rng.uniform(-2, 2, size=2)), state)
    assert np.all(np.abs(c.data) <= np.abs(c_prev) + 1.0)
    assert np.all(np.abs(h.data) < 1.0)


def test_lstm_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    layer = lstm_layer(3, 2, rng)
    x = Tensor(rng.uniform(-1, 1, size=2))

    def loss_fn():
        h, c = lstm_step(layer, x, layer.zero_state())
        return ad.add(ad.sum_all(ad.hadamard(h, h)), ad.sum_all(c))

    assert finite_diff_check(loss_fn, parameters(layer)) <= 1e-4


def test_linear_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    layer = drawn_layer(LinearLayer, "linear", rng, W=(3, 4), b=(3,))
    x = Tensor(rng.uniform(-1, 1, size=4))

    def loss_fn():
        y = layer.forward(x)
        return ad.sum_all(ad.hadamard(y, y))

    assert finite_diff_check(loss_fn, parameters(layer)) <= 1e-4


def test_dropout_identity_cases():
    x = Tensor(np.ones(8))
    rng = np.random.default_rng(0)
    assert dropout_apply(x, 0.0, True, rng) is x
    assert dropout_apply(x, 0.2, False, rng) is x


def test_dropout_rate_validation():
    with pytest.raises(ValueError):
        dropout_apply(Tensor(np.ones(2)), 1.0, True, np.random.default_rng(0))


def test_dropout_preserves_expectation():
    rng = np.random.default_rng(123)
    x = Tensor(np.ones(100_000))
    out = dropout_apply(x, 0.2, True, rng).data
    assert 0.98 <= out.mean() <= 1.02
    survivors = out[out != 0]
    npt.assert_allclose(survivors, 1.0 / 0.8)


def test_stacked_lstm_inference_is_deterministic():
    rng = np.random.default_rng(5)
    layers = [lstm_layer(3, 2, rng), lstm_layer(3, 3, rng)]
    x = Tensor(np.array([0.3, -0.4]))
    outs = []
    for _ in range(2):
        state = [l.zero_state() for l in layers]
        outs.append(stacked_lstm_step(layers, x, state, 0.2, False, None).data)
    npt.assert_array_equal(outs[0], outs[1])


def test_stacked_lstm_dropout_zero_matches_training_off():
    rng = np.random.default_rng(6)
    layers = [lstm_layer(3, 2, rng), lstm_layer(3, 3, rng)]
    x = Tensor(np.array([0.3, -0.4]))
    s1 = [l.zero_state() for l in layers]
    s2 = [l.zero_state() for l in layers]
    h_train = stacked_lstm_step(layers, x, s1, 0.0, True, np.random.default_rng(0))
    h_eval = stacked_lstm_step(layers, x, s2, 0.0, False, None)
    npt.assert_array_equal(h_train.data, h_eval.data)


def test_stacked_lstm_zero_layers_give_zero_output():
    layers = [zeroed_lstm(2, 3), zeroed_lstm(2, 2)]
    state = [l.zero_state() for l in layers]
    h = stacked_lstm_step(layers, Tensor(np.ones(3)), state, 0.0, False, None)
    npt.assert_array_equal(h.data, np.zeros(2))


def test_stacked_lstm_updates_state_in_place():
    rng = np.random.default_rng(7)
    layers = [lstm_layer(2, 1, rng), lstm_layer(2, 2, rng)]
    state = [l.zero_state() for l in layers]
    stacked_lstm_step(layers, Tensor([1.0]), state, 0.0, False, None)
    assert any(np.any(hc.data != 0) for pair in state for hc in pair)


def test_concat_merge():
    npt.assert_array_equal(
        ad.concat([Tensor([1.0, 2.0]), Tensor([3.0])]).data, [1.0, 2.0, 3.0])
    x = Tensor([4.0, 5.0])
    npt.assert_array_equal(ad.concat([x]).data, x.data)
    one4 = np.eye(4)[1]
    one2 = np.eye(2)[0]
    npt.assert_array_equal(ad.concat([Tensor(one4), Tensor(one2)]).data,
                           [0, 1, 0, 0, 1, 0])


def test_concat_merge_empty_list():
    with pytest.raises(ValueError):
        ad.concat([])


def test_merge_then_split_roundtrip():
    a = Tensor(np.arange(3.0))
    b = Tensor(np.arange(4.0) + 10)
    merged = ad.concat([a, b])
    npt.assert_array_equal(ad.slice_vec(merged, 0, 3).data, a.data)
    npt.assert_array_equal(ad.slice_vec(merged, 3, 7).data, b.data)


def test_lstm_lanes_forward_matches_lstm_step():
    """A group of three streams of different input widths, each lane of
    each stream checked against lstm_step from its own initial state."""
    rng = np.random.default_rng(3)
    hidden, steps, lanes = 3, 5, 2
    layers = [lstm_layer(hidden, width + hidden, rng, name=f"s{width}") for width in (4, 8, 16)]
    xs = [rng.normal(size=(steps, lanes, layer.in_dim)) for layer in layers]
    h0 = rng.normal(size=(3, lanes, hidden))
    c0 = rng.normal(size=(3, lanes, hidden))
    w = {p.name: p.data for layer in layers for p in parameters(layer)}
    hs, cs, _ = lstm_lanes_forward(w, ["s4", "s8", "s16"], xs, h0, c0)
    assert hs.shape == cs.shape == (3, steps + 1, lanes, hidden)
    for k, (layer, x) in enumerate(zip(layers, xs)):
        for j in range(lanes):
            state = [Tensor(h0[k, j]), Tensor(c0[k, j])]
            for t in range(steps):
                state = lstm_step(layer, Tensor(x[t, j]), state)
                npt.assert_allclose(hs[k, t + 1, j], state[0].data, rtol=0, atol=1e-15)
                npt.assert_allclose(cs[k, t + 1, j], state[1].data, rtol=0, atol=1e-15)


def test_lstm_lanes_backward_rejects_a_spent_cache():
    """Backward turns the cache's gates into dZ, so a second backward over
    the same cache raises instead of returning wrong gradients."""
    rng = np.random.default_rng(4)
    hidden, steps, lanes = 8, 16, 2
    layer = lstm_layer(hidden, 5, rng)
    w = {p.name: p.data for p in parameters(layer)}
    dw = {p.name: p.grad for p in parameters(layer)}
    xs = [rng.normal(size=(steps, lanes, 5))]
    h0 = c0 = np.zeros((1, lanes, hidden))
    _, _, cache = lstm_lanes_forward(w, ["lstm"], xs, h0, c0)
    dh = rng.normal(size=(1, steps, lanes, hidden))
    lstm_lanes_backward(w, dw, ["lstm"], cache, dh)
    with pytest.raises(ValueError, match="cache already spent"):
        lstm_lanes_backward(w, dw, ["lstm"], cache, dh)
