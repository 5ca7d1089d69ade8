"""The per-attempt DSP front end shared by ranging and imaging.

Ranging (Section V-B, Eq. 10) and imaging (Section V-C, Eqs. 11–12)
both start from the same capture: band-passed to the chirp band, turned
into its analytic signal, and MVDR-steered with a noise covariance
estimated from the samples before the emission.  :class:`AttemptSignals`
computes each of those once per attempt and band-pass design, so the
distance estimator and the imager of one attempt share them — with the
default single imaging band, both use the same 2–3 kHz design and the
capture is filtered and Hilbert-transformed exactly once.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.acoustics.scene import BeepRecording
from repro.array.covariance import estimate_noise_covariance
from repro.signal.analytic import analytic_signal
from repro.signal.filters import BandpassFilter


class AttemptSignals:
    """Memoised band-passed analytic signals of one attempt's captures.

    Both methods are keyed by the band-pass design ``(low_hz, high_hz,
    order, sample_rate)``, so equal designs held by different stages
    share one entry.  The object is per attempt and not thread-safe:
    build one for each attempt a worker serves.

    Args:
        recordings: The L beep captures of the attempt.

    Example::

        signals = AttemptSignals(recordings)
        estimate = estimator.estimate(recordings, signals)
        images = imager.images(recordings, plane, signals)  # no refilter
    """

    def __init__(self, recordings: Sequence[BeepRecording]) -> None:
        self.recordings = tuple(recordings)
        self._analytic: dict[tuple, object] = {}
        self._noise: dict[tuple, np.ndarray] = {}
        self._parent: AttemptSignals | None = None
        self._index = 0

    def beep(self, index: int) -> "AttemptSignals":
        """The one-beep view of beep ``index``, sharing this attempt's memo."""
        view = AttemptSignals((self.recordings[index],))
        view._parent, view._index = self, index
        return view

    def analytic(self, bandpass: BandpassFilter):
        """Band-passed analytic captures, one row per beep.

        Returns:
            An ``(L, M, N)`` complex array when the captures are
            :func:`stackable` (filtered and Hilbert-transformed in one
            call, each row bitwise equal to the per-beep result),
            otherwise a tuple of L ``(M, N_l)`` arrays.  A one-beep view
            always returns a ``(1, M, N)`` array.
        """
        if self._parent is not None:
            return self._parent.analytic(bandpass)[self._index][None]
        key = _design(bandpass)
        value = self._analytic.get(key)
        if value is None:
            if stackable(self.recordings):
                value = analytic_signal(
                    bandpass.apply(
                        np.stack([rec.samples for rec in self.recordings])
                    )
                )
            else:
                value = tuple(
                    analytic_signal(bandpass.apply(rec.samples))
                    for rec in self.recordings
                )
            self._analytic[key] = value
        return value

    def noise_covariance(
        self, bandpass: BandpassFilter, beep: int
    ) -> np.ndarray:
        """Normalised noise covariance ``(M, M)`` of one beep's band.

        Estimated from the analytic samples before the emission (see
        :func:`repro.array.covariance.estimate_noise_covariance`).
        """
        if self._parent is not None:
            return self._parent.noise_covariance(bandpass, self._index + beep)
        key = (_design(bandpass), beep)
        cov = self._noise.get(key)
        if cov is None:
            cov = estimate_noise_covariance(
                self.analytic(bandpass)[beep],
                noise_samples=self.recordings[beep].emit_index,
            )
            self._noise[key] = cov
        return cov


def stackable(recordings: Sequence[BeepRecording]) -> bool:
    """Whether all captures share one shape, sample rate and emission
    sample, so one stacked call can process them all."""
    first = recordings[0]
    return all(
        rec.samples.shape == first.samples.shape
        and rec.sample_rate == first.sample_rate
        and rec.emit_index == first.emit_index
        for rec in recordings[1:]
    )


def _design(bandpass: BandpassFilter) -> tuple:
    """The memo key of a band-pass design."""
    return (
        bandpass.low_hz,
        bandpass.high_hz,
        bandpass.order,
        bandpass.sample_rate,
    )
