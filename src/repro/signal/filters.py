"""Band-pass filtering of the recorded microphone signals.

Section V-B: "A 2 to 3 kHz Butterworth bandpass filter is then applied to
remove environmental noises in other frequency band."  The filter is applied
zero-phase (forward-backward) so echo onsets are not delayed, which matters
for the correlation-based ranging downstream.  The design and its initial
state are built once per filter, not once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import signal as sp_signal

from repro import constants


def butter_bandpass(
    low_hz: float,
    high_hz: float,
    sample_rate: float,
    order: int = 4,
) -> np.ndarray:
    """Design a Butterworth band-pass filter as second-order sections.

    Args:
        low_hz: Lower pass-band edge in Hz.
        high_hz: Upper pass-band edge in Hz.
        sample_rate: Sampling rate in Hz.
        order: Filter order per edge.

    Returns:
        Second-order-section coefficient array suitable for
        :func:`scipy.signal.sosfiltfilt`.

    Raises:
        ValueError: If the band is empty or violates Nyquist.
    """
    nyquist = sample_rate / 2.0
    if not 0 < low_hz < high_hz < nyquist:
        raise ValueError(
            f"band [{low_hz}, {high_hz}] must lie strictly inside "
            f"(0, {nyquist})"
        )
    return sp_signal.butter(
        order, [low_hz / nyquist, high_hz / nyquist], btype="bandpass", output="sos"
    )


def zero_phase_filter(
    sos: np.ndarray, zi: np.ndarray, samples: np.ndarray
) -> np.ndarray:
    """Forward-backward SOS filtering along the last axis.

    Repeats :func:`scipy.signal.sosfiltfilt`'s default steps in order (odd
    extension, forward pass, reversed pass), so the output is bitwise equal
    to it, but takes the step-response initial state ``zi`` precomputed
    instead of solving for it on every call.

    Args:
        sos: Second-order sections, shape ``(n_sections, 6)``.
        zi: ``scipy.signal.sosfilt_zi(sos)``, shape ``(n_sections, 2)``.
        samples: Real array of shape ``(..., num_samples)``.

    Returns:
        Filtered array of the same shape.

    Raises:
        ValueError: If the signal is too short for the filter's padding.
    """
    samples = np.asarray(samples, dtype=float)
    # Pad by three filter lengths; first-order sections (odd low-pass
    # orders) have zero b2 and a2 and count one tap shorter.
    first_order = min(np.sum(sos[:, 2] == 0), np.sum(sos[:, 5] == 0))
    edge = 3 * (2 * sos.shape[0] + 1 - int(first_order))
    if samples.shape[-1] <= edge:
        raise ValueError(
            f"signal length {samples.shape[-1]} too short for zero-phase "
            f"filtering (need > {edge} samples)"
        )
    first, last = samples[..., :1], samples[..., -1:]
    ext = np.concatenate(
        (
            2 * first - samples[..., edge:0:-1],
            samples,
            2 * last - samples[..., -2 : -(edge + 2) : -1],
        ),
        axis=-1,
    )
    zi = zi.reshape((sos.shape[0],) + (1,) * (samples.ndim - 1) + (2,))
    y, _ = sp_signal.sosfilt(sos, ext, axis=-1, zi=zi * ext[..., :1])
    y, _ = sp_signal.sosfilt(sos, y[..., ::-1], axis=-1, zi=zi * y[..., -1:])
    return y[..., ::-1][..., edge:-edge]


@dataclass
class BandpassFilter:
    """Zero-phase Butterworth band-pass filter for multi-channel audio.

    Attributes:
        low_hz: Lower pass-band edge.
        high_hz: Upper pass-band edge.
        sample_rate: Sampling rate the filter is designed for.
        order: Butterworth order.
    """

    low_hz: float = constants.CHIRP_LOW_HZ
    high_hz: float = constants.CHIRP_HIGH_HZ
    sample_rate: float = constants.DEFAULT_SAMPLE_RATE
    order: int = 4
    _sos: np.ndarray = field(init=False, repr=False)
    _zi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._sos = butter_bandpass(
            self.low_hz, self.high_hz, self.sample_rate, self.order
        )
        self._zi = sp_signal.sosfilt_zi(self._sos)

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """Filter a signal along its last axis, zero-phase.

        Args:
            samples: Real array of shape ``(..., num_samples)``.

        Returns:
            Filtered array of the same shape.

        Raises:
            ValueError: If the signal is too short for the filter's padding.
        """
        return zero_phase_filter(self._sos, self._zi, samples)

    def frequency_response(self, freqs_hz: np.ndarray) -> np.ndarray:
        """Complex frequency response of the (single-pass) filter.

        Args:
            freqs_hz: Frequencies at which to evaluate, in Hz.

        Returns:
            Complex response values; magnitude is squared relative to the
            zero-phase application, which applies the filter twice.
        """
        freqs_hz = np.asarray(freqs_hz, dtype=float)
        _, response = sp_signal.sosfreqz(
            self._sos, worN=2 * np.pi * freqs_hz / self.sample_rate
        )
        return response
