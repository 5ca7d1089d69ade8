"""Property-based bit-identity of streaming vs batch authentication.

``authenticate_streaming`` under a policy that never exits promises the
*same numbers* as ``authenticate_batch`` for any attempt on every
backend — not just the golden cases — whether the policy is disabled
(one chunk, the batch path itself) or enabled but unable to fire (one
beep per chunk).  These tests sample random attempts (beep count,
subject, capture seed; via ``hypothesis`` when available, a seeded
stdlib sweep otherwise) and require the decision, per-beep SVDD scores
and SVM margins to match bit-for-bit.

The guarantee holds by construction — per-beep imaging and feature
extraction are bitwise equal to their batched forms, and the final
decision is one batch rescore over the consumed rows — so any drift
here is a real regression in that construction, not tolerance noise.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.acoustics.noise import NoiseModel
from repro.acoustics.scene import AcousticScene
from repro.array.geometry import respeaker_array
from repro.body.subject import SyntheticSubject
from repro.config import ExitPolicy, ServingConfig
from repro.serve import AuthenticationRequest, BatchAuthenticator
from repro.signal.chirp import LFMChirp

from tests.serve.test_executor import run_guarded

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the dev extras
    HAVE_HYPOTHESIS = False

#: Every backend the serving layer offers; the process pool is spawned
#: once per module (see the ``servers`` fixture) and reused across
#: sampled attempts.
BACKENDS = ("serial", "thread", "process")


@pytest.fixture(scope="module")
def servers(bundle):
    """One live BatchAuthenticator per backend, module-shared."""
    live = {}
    for backend in BACKENDS:
        live[backend] = BatchAuthenticator(
            bundle, ServingConfig(backend=backend, max_workers=2)
        )
    yield live
    for server in live.values():
        server.close()


def _record_attempt(subject_id: int, num_beeps: int, seed: int):
    rng = np.random.default_rng(seed)
    scene = AcousticScene(
        array=respeaker_array(),
        noise=NoiseModel(kind="quiet", level_db_spl=30.0),
    )
    subject = SyntheticSubject(subject_id=subject_id)
    clouds = subject.beep_clouds(0.7, num_beeps, rng)
    return scene.record_beeps(LFMChirp(), clouds, rng)


def _assert_stream_matches_batch(servers, subject_id, num_beeps, seed):
    attempt = _record_attempt(subject_id, num_beeps, seed)
    request = AuthenticationRequest(
        f"prop-{subject_id}-{num_beeps}-{seed}", tuple(attempt)
    )
    # The disabled policy reads the attempt in one chunk, like the batch
    # path; the enabled one that can never fire reads it beep by beep.
    policies = (
        ExitPolicy(),
        ExitPolicy(min_beeps=num_beeps + 1, score_threshold=0.0),
    )
    for backend, policy in itertools.product(BACKENDS, policies):
        server = servers[backend]
        (batch,) = run_guarded(
            lambda: server.authenticate_batch([request])
        )
        (stream,) = run_guarded(
            lambda: server.authenticate_streaming([request], policy)
        )
        context = (
            f"backend={backend}, policy={policy}, subject={subject_id}, "
            f"beeps={num_beeps}, seed={seed}"
        )
        assert stream.status == batch.status, context
        assert not stream.early_exit, context
        assert stream.beeps_used == num_beeps, context
        b, s = batch.result, stream.result
        assert s.label == b.label, context
        assert s.accepted == b.accepted, context
        assert s.per_beep_labels == b.per_beep_labels, context
        assert np.array_equal(
            np.asarray(s.scores), np.asarray(b.scores)
        ), context
        assert np.array_equal(
            np.asarray(s.margins), np.asarray(b.margins)
        ), context


if HAVE_HYPOTHESIS:

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(
        subject_id=st.sampled_from([1, 9]),
        num_beeps=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_streaming_bit_identical_to_batch_property(
        servers, subject_id, num_beeps, seed
    ):
        _assert_stream_matches_batch(servers, subject_id, num_beeps, seed)

else:  # pragma: no cover - exercised only without the dev extras

    @pytest.mark.parametrize("sweep_seed", range(6))
    def test_streaming_bit_identical_to_batch_property(servers, sweep_seed):
        rng = np.random.default_rng(4200 + sweep_seed)
        _assert_stream_matches_batch(
            servers,
            subject_id=int(rng.choice([1, 9])),
            num_beeps=int(rng.integers(2, 5)),
            seed=int(rng.integers(0, 2**32)),
        )
