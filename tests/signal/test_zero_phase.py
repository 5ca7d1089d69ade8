"""Zero-phase filtering with a precomputed initial state matches scipy.

``BandpassFilter.apply`` and ``smooth_envelope`` build their filter design
and ``sosfilt_zi`` state once and run the forward-backward pass through
``zero_phase_filter``; the output must stay bitwise equal to
``scipy.signal.sosfiltfilt`` with a freshly designed ``butter``.
"""

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.signal.analytic import envelope, smooth_envelope
from repro.signal.filters import BandpassFilter

FS = 48_000.0
SHAPES = [(480,), (6, 480), (2, 3, 480)]


def _samples(shape):
    return np.random.default_rng(len(shape)).standard_normal(shape)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize(
    "low_hz, high_hz, order", [(2000.0, 3000.0, 4), (2250.0, 2500.0, 3)]
)
def test_bandpass_equals_sosfiltfilt(shape, low_hz, high_hz, order):
    x = _samples(shape)
    bp = BandpassFilter(low_hz, high_hz, FS, order)
    sos = sp_signal.butter(
        order, [low_hz / (FS / 2), high_hz / (FS / 2)],
        btype="bandpass", output="sos",
    )
    expected = sp_signal.sosfiltfilt(sos, x, axis=-1)
    assert np.array_equal(bp.apply(x), expected)
    # A second call reuses the stored state and must not drift.
    assert np.array_equal(bp.apply(x), expected)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("cutoff_hz, order", [(2000.0, 2), (800.0, 3)])
def test_smooth_envelope_equals_sosfiltfilt(shape, cutoff_hz, order):
    x = _samples(shape)
    sos = sp_signal.butter(order, cutoff_hz / (FS / 2), output="sos")
    expected = np.clip(
        sp_signal.sosfiltfilt(sos, envelope(x), axis=-1), 0.0, None
    )
    for _ in range(2):
        assert np.array_equal(
            smooth_envelope(x, FS, cutoff_hz=cutoff_hz, order=order),
            expected,
        )


def test_bandpass_too_short_boundary():
    bp = BandpassFilter()  # 4 sections: padding of 3 * (2 * 4 + 1) = 27
    with pytest.raises(ValueError, match="too short"):
        bp.apply(np.zeros((6, 27)))
    assert bp.apply(np.zeros((6, 28))).shape == (6, 28)


def test_smooth_envelope_too_short_raises():
    # Order 2 is one section: padding of 3 * (2 * 1 + 1) = 9.
    with pytest.raises(ValueError, match="too short"):
        smooth_envelope(np.ones(9), FS)
