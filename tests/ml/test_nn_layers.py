"""Tests for the NumPy CNN layers."""

import numpy as np
import pytest

from repro.ml.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU, im2col
from repro.ml.nn.vggish import MiniVGGish


class TestIm2col:
    def test_shapes(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 8, 8))
        cols = im2col(x, kernel=3)
        assert cols.shape == (2, 27, 36)

    def test_stride(self):
        x = np.zeros((1, 1, 8, 8))
        cols = im2col(x, kernel=2, stride=2)
        assert cols.shape == (1, 4, 16)

    def test_content(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        cols = im2col(x, kernel=2)
        # First patch is the top-left 2x2 block.
        assert np.allclose(cols[0, :, 0], [0, 1, 4, 5])

    def test_kernel_too_large(self):
        with pytest.raises(ValueError):
            im2col(np.zeros((1, 1, 3, 3)), kernel=5)


class TestConv2D:
    def test_identity_kernel(self):
        weights = np.zeros((1, 1, 3, 3))
        weights[0, 0, 1, 1] = 1.0
        conv = Conv2D(weights)
        x = np.random.default_rng(0).standard_normal((1, 1, 6, 6))
        assert np.allclose(conv(x), x)

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(1)
        weights = rng.standard_normal((2, 3, 3, 3))
        bias = rng.standard_normal(2)
        conv = Conv2D(weights, bias)
        x = rng.standard_normal((1, 3, 5, 5))
        out = conv(x)
        # Naive correlation for one output position.
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        expected = (
            np.sum(padded[0, :, 2:5, 3:6] * weights[1]) + bias[1]
        )
        assert out[0, 1, 2, 3] == pytest.approx(expected)

    def test_same_padding_shape(self):
        conv = Conv2D(np.zeros((4, 2, 3, 3)))
        out = conv(np.zeros((2, 2, 7, 9)))
        assert out.shape == (2, 4, 7, 9)

    def test_stride_two(self):
        conv = Conv2D(np.zeros((1, 1, 3, 3)), stride=2)
        out = conv(np.zeros((1, 1, 8, 8)))
        assert out.shape == (1, 1, 4, 4)

    def test_channel_mismatch(self):
        conv = Conv2D(np.zeros((1, 3, 3, 3)))
        with pytest.raises(ValueError, match="channels"):
            conv(np.zeros((1, 2, 5, 5)))

    def test_bad_weight_shape(self):
        with pytest.raises(ValueError):
            Conv2D(np.zeros((2, 2, 3, 5)))

    def test_bias_size_validated(self):
        with pytest.raises(ValueError, match="bias"):
            Conv2D(np.zeros((2, 1, 3, 3)), bias=np.zeros(3))


class TestActivationsAndPooling:
    def test_relu(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        assert np.allclose(ReLU()(x), [[0.0, 0.0, 2.0]])

    def test_maxpool(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2D(2)(x)
        assert out.shape == (1, 1, 2, 2)
        assert np.allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_truncates_ragged(self):
        out = MaxPool2D(2)(np.zeros((1, 1, 5, 5)))
        assert out.shape == (1, 1, 2, 2)

    def test_maxpool_too_small(self):
        with pytest.raises(ValueError):
            MaxPool2D(4)(np.zeros((1, 1, 2, 2)))

    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("hw", [(12, 12), (7, 9), (10, 11)])
    def test_maxpool_matches_reshape_reference(self, size, hw):
        h, w = hw
        x = np.random.default_rng(size).standard_normal((3, 4, h, w))
        ref = x[:, :, : h - h % size, : w - w % size]
        ref = ref.reshape(
            3, 4, h // size, size, w // size, size
        ).max(axis=(3, 5))
        assert np.array_equal(MaxPool2D(size)(x), ref)

    def test_flatten(self):
        out = Flatten()(np.zeros((3, 2, 4, 4)))
        assert out.shape == (3, 32)


class TestDense:
    def test_affine(self):
        dense = Dense(np.array([[1.0, 2.0]]), np.array([0.5]))
        out = dense(np.array([[3.0, 4.0]]))
        assert out[0, 0] == pytest.approx(11.5)

    def test_dim_check(self):
        dense = Dense(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            dense(np.zeros((1, 4)))


def test_vggish_batched_equals_per_image():
    # The streaming path featurises one beep at a time; it must agree
    # bit for bit with the batched path.
    rng = np.random.default_rng(7)
    images = [rng.standard_normal((48, 48)) for _ in range(4)]
    images.append(rng.standard_normal((40, 56)))
    model = MiniVGGish()
    batched = model.extract(images)
    per_image = np.vstack([model.extract([im]) for im in images])
    assert np.array_equal(batched, per_image)
