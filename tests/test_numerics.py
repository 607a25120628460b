import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from morphkv import apply_rope, scaled_dot_attention, softmax
from morphkv.errors import EmptyCache, InvalidParam, InvalidShape, NonFiniteInput
from morphkv.numerics import ROPE_BASE

finite = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)
vectors = st.lists(finite, min_size=1, max_size=12)


def int_position_rope(v: np.ndarray, position: int) -> np.ndarray:
    """The int-position rotation as the decoder first computed it, op for op."""
    half = v.shape[-1] // 2
    angles = position * ROPE_BASE ** (-np.arange(half, dtype=np.float64) * 2.0 / v.shape[-1])
    cos, sin = np.cos(angles), np.sin(angles)
    out = np.empty_like(v)
    out[..., 0::2] = v[..., 0::2] * cos - v[..., 1::2] * sin
    out[..., 1::2] = v[..., 0::2] * sin + v[..., 1::2] * cos
    return out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestSoftmax:
    def test_single_logit(self):
        assert softmax(np.array([3.7])) == pytest.approx([1.0], abs=0)

    def test_uniform_logits(self):
        np.testing.assert_array_equal(softmax(np.full(4, 2.5)), np.full(4, 0.25))

    def test_against_high_precision(self):
        logits = np.array([1.0, 2.0, 3.0])
        expected = reference.softmax_highprec(logits)
        np.testing.assert_allclose(softmax(logits), expected, atol=1e-9)

    def test_seeded_sweep_against_high_precision(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            logits = rng.uniform(-20, 20, size=rng.integers(1, 10))
            np.testing.assert_allclose(
                softmax(logits), reference.softmax_highprec(logits), atol=1e-9
            )

    @given(vectors)
    def test_sums_to_one(self, xs):
        w = softmax(np.array(xs))
        assert abs(w.sum() - 1.0) < 1e-9
        assert np.all(w >= 0.0) and np.all(w <= 1.0)

    @given(vectors, st.floats(min_value=-50, max_value=50))
    def test_shift_invariance(self, xs, c):
        base = softmax(np.array(xs))
        shifted = softmax(np.array(xs) + c)
        np.testing.assert_allclose(shifted, base, atol=1e-9)

    @given(vectors)
    def test_order_preserved(self, xs):
        # Monotone, not injective: inputs closer than exp's rounding
        # resolution may tie, so the input argmax must carry a maximal
        # weight rather than be the unique argmax of the output.
        w = softmax(np.array(xs))
        assert w[int(np.argmax(xs))] == np.max(w)

    def test_large_logits_do_not_overflow(self):
        w = softmax(np.array([1000.0, 1001.0]))
        assert np.isfinite(w).all()
        np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(InvalidShape):
            softmax(np.array([]))

    def test_rejects_matrix(self):
        with pytest.raises(InvalidShape):
            softmax(np.zeros((2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteInput):
            softmax(np.array([0.0, float("nan")]))


class TestScaledDotAttention:
    def test_single_entry_weight_is_one(self):
        q = np.array([0.3, -0.2])
        keys = np.array([[1.0, 2.0]])
        vals = np.array([[5.0, 6.0]])
        w, out = scaled_dot_attention(q, keys, vals)
        assert w[0] == 1.0
        np.testing.assert_array_equal(out, vals[0])

    def test_zero_query_averages_values(self):
        keys = np.arange(8.0).reshape(4, 2)
        vals = np.arange(8.0, 16.0).reshape(4, 2)
        w, out = scaled_dot_attention(np.zeros(2), keys, vals)
        np.testing.assert_allclose(w, np.full(4, 0.25), atol=1e-15)
        np.testing.assert_allclose(out, vals.mean(axis=0), atol=1e-12)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 17))
            d = int(rng.integers(2, 17))
            q = rng.normal(size=d)
            keys = rng.normal(size=(n, d))
            vals = rng.normal(size=(n, d))
            w, out = scaled_dot_attention(q, keys, vals)
            w_ref, out_ref = reference.attention_naive(q, keys, vals)
            np.testing.assert_allclose(w, w_ref, atol=1e-9)
            np.testing.assert_allclose(out, out_ref, atol=1e-9)

    def test_weights_span_entry_count(self):
        q = np.zeros(4)
        keys = np.ones((7, 4))
        vals = np.ones((7, 4))
        w, _ = scaled_dot_attention(q, keys, vals)
        assert w.shape == (7,)
        assert abs(w.sum() - 1.0) < 1e-12

    def test_rejects_empty_store(self):
        with pytest.raises(EmptyCache):
            scaled_dot_attention(np.zeros(2), np.zeros((0, 2)), np.zeros((0, 2)))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(InvalidShape):
            scaled_dot_attention(np.zeros(3), np.zeros((2, 2)), np.zeros((2, 2)))

    def test_rejects_key_value_count_mismatch(self):
        with pytest.raises(InvalidShape):
            scaled_dot_attention(np.zeros(2), np.zeros((2, 2)), np.zeros((3, 2)))


class TestRope:
    def test_position_zero_is_identity(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(apply_rope(v, 0), v)

    def test_matches_pairwise_reference(self):
        rng = np.random.default_rng(3)
        for position in (1, 2, 3, 17, 250):
            v = rng.normal(size=8)
            np.testing.assert_allclose(
                apply_rope(v, position),
                reference.rope_pairwise(v, position),
                atol=1e-9,
            )

    def test_first_pair_plain_rotation(self):
        v = np.array([1.0, 0.0])
        got = apply_rope(v, 3)
        np.testing.assert_allclose(got, [math.cos(3.0), math.sin(3.0)], atol=1e-12)

    @settings(max_examples=60)
    @given(st.lists(finite, min_size=2, max_size=16).filter(lambda v: len(v) % 2 == 0),
           st.integers(min_value=0, max_value=500))
    def test_preserves_norm(self, v, position):
        v = np.array(v)
        assert abs(np.linalg.norm(apply_rope(v, position)) - np.linalg.norm(v)) < 1e-9

    def test_distinct_positions_rotate_differently(self):
        v = np.ones(4)
        a = apply_rope(v, 1)
        b = apply_rope(v, 2)
        assert not np.allclose(a, b)

    def test_matrix_rows_rotate_independently(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(3, 6))
        got = apply_rope(m, 9)
        for i in range(3):
            np.testing.assert_allclose(got[i], apply_rope(m[i], 9), atol=0)

    def test_rejects_odd_dim(self):
        with pytest.raises(InvalidShape):
            apply_rope(np.zeros(5), 1)

    def test_rejects_negative_position(self):
        with pytest.raises(InvalidParam):
            apply_rope(np.zeros(4), -1)

    def test_int_position_bits_unchanged(self):
        rng = np.random.default_rng(11)
        for position in (0, 1, 2, 31, 32, 767, 100_000):
            for shape in [(2,), (16,), (8, 16), (3, 5, 4)]:
                v = rng.normal(size=shape)
                assert same_bits(apply_rope(v, position), int_position_rope(v, position))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 40),
        st.sampled_from([(), (1,), (3,), (10,)]),
        st.sampled_from([2, 4, 8, 16]),
        st.integers(0, 2**31 - 1),
    )
    def test_position_vector_rows_equal_single_calls(self, rows, heads, head_dim, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, *heads, head_dim))
        positions = rng.integers(0, 100_000, size=rows)
        got = apply_rope(x, positions)
        for i in range(rows):
            assert same_bits(got[i], apply_rope(x[i], int(positions[i])))

    def test_position_list_equals_position_array(self):
        x = np.random.default_rng(13).normal(size=(2, 3, 8))
        assert same_bits(apply_rope(x, [1, 2]), apply_rope(x, np.array([1, 2])))

    @pytest.mark.parametrize("where", [0, 3, 7])
    def test_position_vector_rejects_any_negative(self, where):
        positions = np.arange(8)
        positions[where] = -1
        with pytest.raises(InvalidParam):
            apply_rope(np.zeros((8, 2, 4)), positions)

    @pytest.mark.parametrize(
        "shape, positions",
        [
            ((4, 2, 4), np.arange(3)),
            ((4, 2, 4), [1, 2]),
            ((4, 4), np.arange(4).reshape(2, 2)),
            ((4,), np.arange(4)),
        ],
    )
    def test_position_vector_must_match_leading_axis(self, shape, positions):
        with pytest.raises(InvalidShape):
            apply_rope(np.zeros(shape), positions)
