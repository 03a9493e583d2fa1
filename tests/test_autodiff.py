import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drumgen import autodiff as ad
from drumgen.autodiff import Parameter, Tape, Tensor, backward, finite_diff_check


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    npt.assert_array_equal(ad.matmul(a, b).data, b.data)


def test_matmul_known_product():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0], [6.0]])
    npt.assert_array_equal(ad.matmul(a, b).data, [[17.0], [39.0]])


def test_matmul_zero():
    z = Tensor(np.zeros((2, 3)))
    b = Tensor(np.arange(6.0).reshape(3, 2))
    npt.assert_array_equal(ad.matmul(z, b).data, np.zeros((2, 2)))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 2\).*\(3, 2\)"):
        ad.matmul(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))))


def test_matvec():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    x = Tensor([1.0, 1.0])
    npt.assert_array_equal(ad.matmul(a, x).data, [3.0, 7.0])


def test_elementwise_values():
    a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
    npt.assert_array_equal(ad.add(a, b).data, [4.0, 6.0])
    npt.assert_array_equal(ad.sub(b, a).data, [2.0, 2.0])
    npt.assert_array_equal(ad.hadamard(a, b).data, [3.0, 8.0])
    assert float(ad.sigmoid(Tensor(0.0)).data) == 0.5
    assert float(ad.tanh(Tensor(0.0)).data) == 0.0


def test_elementwise_shape_error():
    with pytest.raises(ValueError, match="shape mismatch"):
        ad.add(Tensor([1.0]), Tensor([1.0, 2.0]))


def test_sigmoid_tanh_bounded_and_finite_for_extremes():
    x = Tensor(np.array([-1e4, -50.0, 0.0, 50.0, 1e4]))
    s = ad.sigmoid(x).data
    t = ad.tanh(x).data
    assert np.all(np.isfinite(s)) and np.all((s >= 0) & (s <= 1))
    assert np.all(np.isfinite(t)) and np.all((t >= -1) & (t <= 1))


def test_softmax_uniform_and_shift_invariance():
    row = ad.softmax_rows(Tensor([[0.0, 0.0, 0.0]])).data
    npt.assert_allclose(row, [[1 / 3] * 3], atol=1e-15)
    base = np.array([[0.3, -1.2, 2.0]])
    shifted = ad.softmax_rows(Tensor(base + 7.5)).data
    npt.assert_allclose(shifted, ad.softmax_rows(Tensor(base)).data, atol=1e-12)


def test_softmax_known_values():
    row = ad.softmax_rows(Tensor(np.log([1.0, 2.0, 3.0]))).data
    npt.assert_allclose(row, [1 / 6, 2 / 6, 3 / 6], atol=1e-15)


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
def test_softmax_rows_sum_to_one(vals):
    row = ad.softmax_rows(Tensor([vals])).data
    assert abs(row.sum() - 1.0) <= 1e-12
    assert np.all(row >= 0)


def test_cross_entropy_values():
    assert float(ad.cross_entropy(Tensor([[0.0, 1.0]]), [1]).data) == 0.0
    n = 5
    uniform = Tensor(np.full((1, n), 1.0 / n))
    npt.assert_allclose(float(ad.cross_entropy(uniform, [0]).data), np.log(n), rtol=1e-15)
    got = float(ad.cross_entropy(Tensor([[0.25, 0.75]]), [1]).data)
    npt.assert_allclose(got, -np.log(0.75), rtol=1e-15)


def test_cross_entropy_clamps_zero_probability():
    loss = float(ad.cross_entropy(Tensor([[1.0, 0.0]]), [1]).data)
    npt.assert_allclose(loss, -np.log(1e-12))


def test_cross_entropy_index_error():
    with pytest.raises(IndexError):
        ad.cross_entropy(Tensor([[0.5, 0.5]]), [2])


def test_backward_quadratic():
    p = Parameter(np.array([1.0, 2.0, 3.0]))
    with Tape() as tape:
        loss = ad.sum_all(ad.hadamard(p, p))
    backward(loss, tape)
    npt.assert_array_equal(p.grad, [2.0, 4.0, 6.0])


def test_backward_unreachable_param_untouched():
    p = Parameter(np.array([1.0]))
    q = Parameter(np.array([2.0]))
    with Tape() as tape:
        loss = ad.sum_all(ad.hadamard(p, p))
    backward(loss, tape)
    npt.assert_array_equal(q.grad, [0.0])


def test_backward_accumulates_additively():
    p = Parameter(np.array([1.0, -2.0]))
    with Tape() as tape:
        loss = ad.sum_all(ad.hadamard(p, p))
    backward(loss, tape)
    once = p.grad.copy()
    backward(loss, tape)
    npt.assert_array_equal(p.grad, 2.0 * once)


def test_backward_rejects_non_scalar():
    p = Parameter(np.array([1.0, 2.0]))
    with Tape() as tape:
        y = ad.hadamard(p, p)
    with pytest.raises(ValueError, match="scalar"):
        backward(y, tape)


def test_no_tape_no_recording():
    p = Parameter(np.array([1.0, 2.0]))
    out = ad.hadamard(p, p)  # outside any tape
    assert not out.requires_grad


def test_slice_vec_and_concat_roundtrip():
    x = Tensor(np.arange(6.0))
    parts = [ad.slice_vec(x, 0, 2), ad.slice_vec(x, 2, 6)]
    npt.assert_array_equal(ad.concat(parts).data, x.data)


def test_concat_gradients_split_correctly():
    p = Parameter(np.array([1.0, 2.0]))
    q = Parameter(np.array([3.0]))
    with Tape() as tape:
        merged = ad.concat([p, q])
        loss = ad.sum_all(ad.hadamard(merged, merged))
    backward(loss, tape)
    npt.assert_array_equal(p.grad, [2.0, 4.0])
    npt.assert_array_equal(q.grad, [6.0])


def test_finite_diff_quadratic_tight():
    p = Parameter(np.array([0.5, -1.5, 2.0]))
    err = finite_diff_check(lambda: ad.sum_all(ad.hadamard(p, p)), [p])
    assert err <= 1e-9


def test_finite_diff_constant_function():
    p = Parameter(np.array([1.0]))
    c = Tensor(np.array(3.0))
    err = finite_diff_check(lambda: ad.scale(c, 1.0), [p])
    assert err == 0.0


def test_finite_diff_leaves_gradients_zero():
    w = Parameter(np.array([[0.5, -1.0], [2.0, 0.25]]))
    x = Tensor(np.array([1.0, -2.0]))
    finite_diff_check(lambda: ad.sum_all(ad.tanh(ad.matmul(w, x))), [w])
    npt.assert_array_equal(w.grad, np.zeros((2, 2)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_composite_graph_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    w = Parameter(rng.uniform(-2, 2, size=(3, 4)))
    b = Parameter(rng.uniform(-2, 2, size=3))
    x = Tensor(rng.uniform(-2, 2, size=4))

    def loss_fn():
        h = ad.tanh(ad.add(ad.matmul(w, x), b))
        probs = ad.softmax_rows(h)
        return ad.add(ad.cross_entropy(probs, 1), ad.sum_all(ad.hadamard(h, h)))

    assert finite_diff_check(loss_fn, [w, b]) <= 1e-4


def test_ops_are_bit_deterministic():
    rng = np.random.default_rng(7)
    a = Tensor(rng.normal(size=(4, 4)))
    b = Tensor(rng.normal(size=(4, 4)))
    r1 = ad.softmax_rows(ad.matmul(a, ad.sigmoid(b))).data
    r2 = ad.softmax_rows(ad.matmul(a, ad.sigmoid(b))).data
    assert np.array_equal(r1, r2)
