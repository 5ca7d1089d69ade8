"""Analytic signals and envelope detection.

The distance estimator of Section V-B extracts the envelope of the
matched-filter output (its reference [38] uses Hilbert-transform envelope
detection followed by smoothing); the beamformers operate on the complex
analytic signal so the narrow-band phase model of Eq. (7) applies.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import signal as sp_signal

from repro.signal.filters import zero_phase_filter


def analytic_signal(samples: np.ndarray) -> np.ndarray:
    """Compute the complex analytic signal via the Hilbert transform.

    Args:
        samples: Real array of shape ``(..., num_samples)``.

    Returns:
        Complex array of the same shape whose real part equals the input.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape[-1] < 2:
        raise ValueError("need at least two samples for the Hilbert transform")
    return sp_signal.hilbert(samples, axis=-1)


def envelope(samples: np.ndarray) -> np.ndarray:
    """Instantaneous amplitude envelope of a real signal.

    Args:
        samples: Real array of shape ``(..., num_samples)``.

    Returns:
        Non-negative array of the same shape.
    """
    return np.abs(analytic_signal(samples))


@functools.lru_cache(maxsize=16)
def _lowpass(order: int, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Butterworth low-pass sections and their initial state, built once."""
    sos = sp_signal.butter(order, cutoff, btype="lowpass", output="sos")
    return sos, sp_signal.sosfilt_zi(sos)


def smooth_envelope(
    samples: np.ndarray,
    sample_rate: float,
    cutoff_hz: float = 2_000.0,
    order: int = 2,
) -> np.ndarray:
    """Envelope detection with low-pass smoothing.

    This follows the scheme of the paper's reference [38]: rectify via the
    Hilbert magnitude, then low-pass to capture the overall trend changes of
    the correlation sequence rather than its carrier ripple.

    Args:
        samples: Real array of shape ``(..., num_samples)``.
        sample_rate: Sampling rate in Hz.
        cutoff_hz: Smoothing cut-off frequency in Hz.
        order: Butterworth order of the smoother.

    Returns:
        Non-negative smoothed envelope of the same shape (clipped at zero to
        remove small filter undershoot).
    """
    if not 0 < cutoff_hz < sample_rate / 2:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz must lie in (0, {sample_rate / 2}) Hz"
        )
    raw = envelope(samples)
    sos, zi = _lowpass(order, cutoff_hz / (sample_rate / 2.0))
    smoothed = zero_phase_filter(sos, zi, raw)
    return np.clip(smoothed, 0.0, None)
