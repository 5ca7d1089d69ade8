"""The shared per-attempt front end: computed once, bitwise stable."""

import numpy as np
import pytest

import repro.core.frontend as frontend
from repro.acoustics.scene import BeepRecording
from repro.config import AuthenticationConfig, EchoImageConfig, ImagingConfig
from repro.core.frontend import AttemptSignals
from repro.core.pipeline import EchoImagePipeline
from repro.signal.analytic import analytic_signal
from repro.signal.filters import BandpassFilter


def record(scene, chirp, subject, num_beeps, seed):
    rng = np.random.default_rng(seed)
    clouds = subject.beep_clouds(0.7, num_beeps, rng)
    return scene.record_beeps(chirp, clouds, rng)


def make_pipeline(subbands, batched_imaging=False):
    config = EchoImageConfig(
        imaging=ImagingConfig(grid_resolution=16, subbands=subbands),
        auth=AuthenticationConfig(svdd_margin=0.3),
    )
    return EchoImagePipeline(config=config, batched_imaging=batched_imaging)


@pytest.fixture
def calls(monkeypatch):
    """Counts of band-pass and front-end Hilbert-transform calls."""
    counts = {"bandpass": 0, "analytic": 0}
    original_apply = BandpassFilter.apply

    def counted_apply(self, samples):
        counts["bandpass"] += 1
        return original_apply(self, samples)

    def counted_analytic(samples):
        counts["analytic"] += 1
        return analytic_signal(samples)

    monkeypatch.setattr(BandpassFilter, "apply", counted_apply)
    monkeypatch.setattr(frontend, "analytic_signal", counted_analytic)
    return counts


class TestFrontEndRunsOnce:
    """Ranging and imaging of one attempt share one filter pass per band."""

    @pytest.mark.parametrize(
        "subbands, expected", [(1, 1), (3, 1 + 3)]
    )
    @pytest.mark.parametrize("batched", [False, True])
    def test_authenticate(
        self, calls, quiet_scene, chirp, subject, subbands, expected, batched
    ):
        pipeline = make_pipeline(subbands, batched_imaging=batched)
        pipeline.enroll_user(record(quiet_scene, chirp, subject, 8, 1))
        attempt = record(quiet_scene, chirp, subject, 4, 2)
        calls.update(bandpass=0, analytic=0)
        pipeline.authenticate(attempt)
        assert calls == {"bandpass": expected, "analytic": expected}

    @pytest.mark.parametrize(
        "subbands, expected", [(1, 1), (3, 1 + 3)]
    )
    def test_authenticate_streaming(
        self, calls, quiet_scene, chirp, subject, subbands, expected
    ):
        pipeline = make_pipeline(subbands)
        pipeline.enroll_user(record(quiet_scene, chirp, subject, 8, 1))
        attempt = record(quiet_scene, chirp, subject, 4, 2)
        calls.update(bandpass=0, analytic=0)
        result = pipeline.authenticate_streaming(attempt)
        assert result.beeps_used == len(attempt)
        assert calls == {"bandpass": expected, "analytic": expected}

    @pytest.mark.parametrize(
        "subbands, expected", [(1, 1), (3, 1 + 3)]
    )
    def test_enroll_user(
        self, calls, quiet_scene, chirp, subject, subbands, expected
    ):
        pipeline = make_pipeline(subbands)
        pipeline.enroll_user(record(quiet_scene, chirp, subject, 8, 1))
        assert calls == {"bandpass": expected, "analytic": expected}


def heterogeneous(recordings):
    """The same captures with the last one a few samples shorter."""
    last = recordings[-1]
    shorter = BeepRecording(
        samples=last.samples[:, :-7],
        sample_rate=last.sample_rate,
        emit_index=last.emit_index,
    )
    return [*recordings[:-1], shorter]


class TestStackedEqualsPerBeep:
    @pytest.fixture
    def attempt(self, quiet_scene, chirp, subject):
        return record(quiet_scene, chirp, subject, 4, 3)

    @pytest.mark.parametrize("order", [3, 4])
    def test_stacked_rows_bitwise_equal_per_beep(self, attempt, order):
        bandpass = BandpassFilter(order=order)
        signals = AttemptSignals(attempt)
        stacked = signals.analytic(bandpass)
        assert isinstance(stacked, np.ndarray)
        assert stacked.shape == (len(attempt), *attempt[0].samples.shape)
        for index, rec in enumerate(attempt):
            alone = AttemptSignals([rec])
            assert np.array_equal(stacked[index], alone.analytic(bandpass)[0])
            assert np.array_equal(
                signals.noise_covariance(bandpass, index),
                alone.noise_covariance(bandpass, 0),
            )
            view = signals.beep(index)
            assert np.array_equal(view.analytic(bandpass)[0], stacked[index])
            assert view.noise_covariance(bandpass, 0) is (
                signals.noise_covariance(bandpass, index)
            )

    def test_heterogeneous_fallback_bitwise_equal(self, attempt):
        mixed = heterogeneous(attempt)
        bandpass = BandpassFilter()
        signals = AttemptSignals(mixed)
        rows = signals.analytic(bandpass)
        assert isinstance(rows, tuple)
        stacked = AttemptSignals(attempt).analytic(bandpass)
        for index, rec in enumerate(mixed):
            alone = AttemptSignals([rec]).analytic(bandpass)[0]
            assert np.array_equal(rows[index], alone)
            assert signals.beep(index).analytic(bandpass).shape == (
                1,
                *rec.samples.shape,
            )
        for index in range(len(attempt) - 1):
            assert np.array_equal(rows[index], stacked[index])

    def test_memo_keyed_by_design(self, attempt):
        signals = AttemptSignals(attempt)
        first = signals.analytic(BandpassFilter(2_000.0, 3_000.0, order=4))
        # An equal design held by another object shares the entry ...
        same = BandpassFilter(
            np.float64(2_000.0), np.float64(3_000.0), order=4
        )
        assert signals.analytic(same) is first
        # ... and a different order does not.
        assert signals.analytic(BandpassFilter(order=3)) is not first

    def test_ranging_shared_equals_heterogeneous_path(
        self, attempt, array
    ):
        from repro.core.distance import DistanceEstimator

        estimator = DistanceEstimator(array=array)
        mixed = heterogeneous(attempt)
        shared = estimator.averaged_envelope(mixed, AttemptSignals(mixed))
        per_beep = [estimator.averaged_envelope([rec]) for rec in mixed]
        length = min(env.size for env in per_beep)
        expected = np.mean(
            np.stack([env[:length] for env in per_beep]), axis=0
        )
        assert np.array_equal(shared, expected)
        stacked = estimator.averaged_envelope(attempt)
        expected = np.mean(
            np.stack([estimator.averaged_envelope([rec]) for rec in attempt]),
            axis=0,
        )
        assert np.array_equal(stacked, expected)
