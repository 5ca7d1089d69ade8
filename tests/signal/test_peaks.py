"""Tests for the MaxSet local-maximum search (Section V-B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.signal.peaks import find_local_maxima


class TestBasics:
    def test_single_peak(self):
        values = np.zeros(100)
        values[40] = 5.0
        peaks = find_local_maxima(values, 1000.0, 0.005, threshold=1.0)
        assert len(peaks) == 1
        assert peaks[0].index == 40
        assert peaks[0].value == 5.0
        assert peaks[0].time_s == pytest.approx(0.04)

    def test_threshold_filters(self):
        values = np.zeros(100)
        values[20] = 0.5
        values[60] = 5.0
        peaks = find_local_maxima(values, 1000.0, 0.005, threshold=1.0)
        assert [p.index for p in peaks] == [60]

    def test_min_separation_suppresses_smaller_neighbour(self):
        values = np.zeros(100)
        values[50] = 5.0
        values[53] = 4.0  # within the window of the larger peak
        peaks = find_local_maxima(values, 1000.0, 0.005, threshold=1.0)
        assert [p.index for p in peaks] == [50]

    def test_separated_peaks_both_found(self):
        values = np.zeros(200)
        values[50] = 5.0
        values[150] = 4.0
        peaks = find_local_maxima(values, 1000.0, 0.005, threshold=1.0)
        assert [p.index for p in peaks] == [50, 150]

    def test_ordered_by_time(self):
        values = np.zeros(300)
        for idx, v in [(250, 1.5), (50, 2.0), (150, 3.0)]:
            values[idx] = v
        peaks = find_local_maxima(values, 1000.0, 0.01, threshold=1.0)
        assert [p.index for p in peaks] == [50, 150, 250]

    def test_plateau_resolved_to_first_sample(self):
        values = np.zeros(100)
        values[40:44] = 5.0
        peaks = find_local_maxima(values, 1000.0, 0.002, threshold=1.0)
        assert [p.index for p in peaks] == [40]

    def test_empty_input(self):
        assert find_local_maxima(np.array([]), 1000.0, 0.01, 0.0) == []

    def test_invalid_sample_rate(self):
        with pytest.raises(ValueError):
            find_local_maxima(np.zeros(10), 0.0, 0.01, 0.0)

    def test_negative_separation_raises(self):
        with pytest.raises(ValueError):
            find_local_maxima(np.zeros(10), 1000.0, -1.0, 0.0)


class TestProperties:
    @given(
        arrays(
            float,
            st.integers(min_value=3, max_value=150),
            elements=st.floats(0, 100),
        ),
        st.floats(min_value=0.0, max_value=0.01),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_peak_dominates_window(self, values, separation):
        sample_rate = 1000.0
        peaks = find_local_maxima(values, sample_rate, separation, 1.0)
        window = max(1, round(separation * sample_rate))
        for peak in peaks:
            lo = max(0, peak.index - window)
            hi = min(values.size, peak.index + window + 1)
            assert values[peak.index] >= values[lo:hi].max()
            assert peak.value > 1.0

    @given(
        arrays(
            float,
            st.integers(min_value=3, max_value=150),
            elements=st.floats(0, 100),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_peaks_at_least_window_apart(self, values):
        sample_rate = 1000.0
        separation = 0.004
        peaks = find_local_maxima(values, sample_rate, separation, 0.5)
        window = max(1, round(separation * sample_rate))
        indices = [p.index for p in peaks]
        assert all(b - a >= window for a, b in zip(indices, indices[1:]))


def _loop_reference(values, sample_rate, min_separation_s, threshold):
    """The sample-by-sample MaxSet scan the vectorised search replaces."""
    values = np.asarray(values, dtype=float).ravel()
    window = max(1, round(min_separation_s * sample_rate))
    found = []
    index = 0
    while index < values.size:
        value = values[index]
        if value <= threshold:
            index += 1
            continue
        lo = max(0, index - window)
        hi = min(values.size, index + window + 1)
        first = index == 0 or values[index - 1] < values[index]
        if value >= values[lo:hi].max() and first:
            found.append((index, index / sample_rate, float(value)))
            index += window
        else:
            index += 1
    return found


class TestMatchesLoopReference:
    """The vectorised search returns exactly what the old loop returned."""

    @staticmethod
    def _assert_same(values, sample_rate, separation, threshold):
        peaks = find_local_maxima(values, sample_rate, separation, threshold)
        got = [(p.index, p.time_s, p.value) for p in peaks]
        assert got == _loop_reference(
            values, sample_rate, separation, threshold
        )

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("separation", [0.0, 2e-4, 4e-4, 3e-3])
    def test_random_envelopes(self, seed, separation):
        rng = np.random.default_rng(seed)
        values = np.abs(rng.normal(size=2_160)) ** 2
        threshold = 0.3 * float(values.max()) if seed % 2 else 0.0
        self._assert_same(values, 48_000.0, separation, threshold)

    @pytest.mark.parametrize("separation", [1e-3, 2e-3, 5e-3])
    def test_plateaus(self, separation):
        # Flat tops of several widths, some wider than the window.
        values = np.zeros(200)
        values[10:13] = 5.0
        values[40:60] = 7.0
        values[61] = 7.0
        values[100:101] = 3.0
        values[150:190] = 2.0
        self._assert_same(values, 1_000.0, separation, 1.0)

    @pytest.mark.parametrize("separation", [1e-3, 3e-3, 7e-3])
    def test_exact_ties(self, separation):
        # Equal, non-adjacent maxima inside one window, and at the edges.
        values = np.array(
            [4.0, 1.0, 4.0, 0.0, 2.0, 4.0, 3.0, 4.0, 1.0, 4.0, 0.0, 4.0]
        )
        self._assert_same(values, 1_000.0, separation, 0.5)
        self._assert_same(np.tile(values, 7), 1_000.0, separation, 0.5)

    @given(
        arrays(
            float,
            st.integers(min_value=1, max_value=150),
            elements=st.sampled_from([0.0, 1.0, 2.0, 3.0]),
        ),
        st.floats(min_value=0.0, max_value=0.01),
        st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_tie_heavy_property(self, values, separation, threshold):
        self._assert_same(values, 1_000.0, separation, threshold)
