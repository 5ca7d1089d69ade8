"""Local-maximum search used by the distance estimator.

Section V-B defines ``MaxSet`` as the points ``{tau_w, E(tau_w)}`` of the
averaged envelope ``E(t)`` that dominate every neighbour within a small
window ``d`` and exceed a threshold ``th``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class LocalMaximum:
    """One element of the paper's ``MaxSet``.

    Attributes:
        index: Sample index of the maximum.
        time_s: Time of the maximum in seconds.
        value: Envelope value ``E(tau_w)`` at the maximum.
    """

    index: int
    time_s: float
    value: float


def find_local_maxima(
    values: np.ndarray,
    sample_rate: float,
    min_separation_s: float,
    threshold: float,
) -> list[LocalMaximum]:
    """Search a sequence for its dominant local maxima.

    A sample qualifies when it is strictly greater than every other sample
    within ``min_separation_s`` of it and exceeds ``threshold``.  Plateaus
    are resolved to their first sample.

    Args:
        values: 1-D non-negative sequence (the averaged envelope ``E(t)``).
        sample_rate: Sampling rate in Hz, used to express results in seconds.
        min_separation_s: The paper's window ``d``.
        threshold: The paper's absolute threshold ``th``.

    Returns:
        Local maxima ordered by time.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        return []
    if sample_rate <= 0:
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    if min_separation_s < 0:
        raise ValueError("min_separation_s must be non-negative")

    window = max(1, round(min_separation_s * sample_rate))
    # A candidate exceeds the threshold, equals the maximum of its
    # +-window neighbourhood and starts its plateau.
    padded = np.full(values.size + 2 * window, -np.inf)
    padded[window:-window] = values
    windows = sliding_window_view(padded, 2 * window + 1)
    neighbourhood_max = windows.max(axis=-1)
    first_of_plateau = np.ones(values.size, dtype=bool)
    first_of_plateau[1:] = values[:-1] < values[1:]
    candidates = np.flatnonzero(
        (values > threshold) & (values >= neighbourhood_max) & first_of_plateau
    )
    maxima: list[LocalMaximum] = []
    next_allowed = 0
    for index in candidates.tolist():
        if index < next_allowed:
            continue
        maxima.append(
            LocalMaximum(
                index=index,
                time_s=index / sample_rate,
                value=float(values[index]),
            )
        )
        # No other sample within the window can also dominate it.
        next_allowed = index + window
    return maxima
