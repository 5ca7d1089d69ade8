"""The EchoImage benchmark workloads.

Each workload drives the unmodified program through its public API with
inputs made from ``--seed``, checks the outputs, and reports the
end-to-end metrics of ``BENCHMARK.json``.  A traced run (``trace=True``)
first runs the untimed phase, then replays exactly the same operations
with the layer probes of :mod:`layers` installed and reports the
per-layer metrics; its decisions must equal the untimed phase's.

Why each workload exists
------------------------

``speaker-closed``
    One smart speaker, one closed-loop client calling
    ``EchoImagePipeline.authenticate`` on 6-beep attempts (default grid 48,
    per-beep imaging loop) against a household enrolled with augmentation
    distances (Eqs. 13-15).  Every attempt runs the full core stack and
    nothing else: features take about 70% of an attempt and no serving
    or ``obs`` sink is involved, so a kernel change shows here first.
``fleet-open``
    Many independent speakers feeding one service: an open-loop Poisson
    schedule (one fixed arrival trace) from one generator thread at a
    fixed offered rate (9 rps at nominal host speed, about 60% of
    capacity), across skewed tenants, through ``RequestBroker`` ->
    ``BatchAuthenticator`` (thread backend, workers = nproc, batched
    imaging) -> ``authenticate_streaming`` with the calibrated early exit
    (``score_threshold`` 0.02, ``min_beeps`` 1) on 4-beep attempts, with
    the observability stack installed (metrics, flight recorder, audit
    ledger, sentinel, capture store).  Early exit images one beep of four
    but ranging still reads all four, so ranging, queue wait and the
    per-request sink fan-out dominate and features barely matter — the
    opposite of ``speaker-closed``.  It also covers the batched imaging
    path and the streaming authenticate path.
``registry-churn``
    A population ``EnrollmentStore`` (128 users, 256-dim embeddings from
    seeded synthetic clusters, because simulating real ones costs tens
    of seconds) driven by one closed-loop client: mostly ``identify``
    probes from enrolled, never-enrolled and just-revoked users,
    interleaved with ``enroll`` of new users and ``revoke`` of existing
    ones.  No acoustic layer runs, which isolates the store, the
    prefilter and persistence; writes cost a pure-Python SMO refit and
    sit beside cheap reads, so a change that makes writes lazy and moves
    their cost onto reads shows up here.

End-to-end metrics
------------------

Every time below is scaled to a nominal host speed (:mod:`hostspeed`):
divided by the host's slowness, the median time of the ~30 reference
slices run nearest the operation (between operations on the closed
loops; on ``fleet-open`` while no request is in flight, whose schedule
is stretched by the same slowness so its offered load stays one share
of capacity), or nearest the set-ups for ``setup_s``.  The times as the
clock read them are printed beside the result.

``setup_s``
    Median over the run's set-ups of enrollment, bundle build and pool
    warm-up; simulating inputs is excluded.
``latency_p50_ms``, ``latency_p95_ms``
    Per attempt (``speaker-closed``), per request timed from its due
    time (``fleet-open``) or per ``identify`` call (``registry-churn``);
    a run has at least 200 (300 requests on ``fleet-open``), so at least
    ten samples lie beyond p95.
``write_p50_ms``
    Per registry write: ``enroll``/``revoke`` on ``registry-churn``, the
    household enrollment of each set-up on the acoustic workloads.
``throughput_rps``
    Successful operations per second of client time (closed loops) or
    from the first due time to the last answer (open loop).
``slo_attainment``
    Share of operations sent that returned ok within the 250 ms
    ``SLOConfig`` limit; failures and sheds count as misses.
``success_rate``
    ``1 - failure_rate``: ok operations over operations attempted.
    End-to-end metrics must never be 0, so the failure rate itself is
    reported by the traced run, and the failures in ``failed``.
``rss_mb``
    Resident set size at the end of the timed phase.

``frr`` and ``far`` are decided by a handful of simulated subjects and
swing from 0 to over 0.4 between seeds, so they are reported by the
traced run, where no bound applies.

Which layer metric should move which end-to-end metric
------------------------------------------------------

======================================================  ==========================================  ===========================================
Layer metric                                            Should move                                 On workload
======================================================  ==========================================  ===========================================
``features.busy_ms``, ``features.images``,               ``latency_p50_ms``, ``latency_p95_ms``       ``speaker-closed`` (~70%); barely
``features.share``                                                                                  ``fleet-open``
``distance.busy_ms``, ``distance.share``                 ``latency_*``, ``slo_attainment``            ``fleet-open`` (dominant);
                                                        (queueing amplifies)                        ``speaker-closed`` (~25%)
``imaging.busy_ms``, ``imaging.beeps``,                  ``latency_*``                                ``speaker-closed`` (~20%)
``imaging.share``
``auth.busy_ms`` (decide and ``DecisionStream.push``)    nothing today (about 0.24 ms)                both auth workloads
``pipeline.self_ms`` (authenticate minus children)       ``latency_*``                                both auth workloads
``broker.queue_wait_p50_ms``/``_p95_ms``,                ``latency_p95_ms``, ``slo_attainment``,      ``fleet-open`` only
``broker.batch_size``, ``broker.shed``                   ``success_rate``
``executor.self_ms`` (response latency minus pipeline)   ``latency_*``                                ``fleet-open`` only
``obs.audit_ms``, ``obs.sentinel_ms``,                   ``latency_*``                                ``fleet-open`` only
``obs.flight_ms``, ``obs.capture_ms``
``serve.early_exit_rate``, ``serve.beeps_used_mean``     ``latency_*``                                ``fleet-open``
``prefilter.busy_ms``, ``store.shards_visited``          ``latency_*``                                ``registry-churn``
``svm.fit_ms``, ``svdd.fit_ms``, ``svm.fits``            ``write_p50_ms``; ``setup_s``                ``registry-churn``; ``speaker-closed``
                                                                                                    (enrollment)
``storage.write_ms``, ``storage.writes``                 ``write_p50_ms``, ``setup_s``                ``registry-churn``
``loadgen.lag_p95_ms``                                   none (validity of the open loop)            ``fleet-open``
======================================================  ==========================================  ===========================================

``acoustics`` and ``body`` generate the inputs and are never timed.
"""

from __future__ import annotations

import functools
import os
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from hostspeed import HostSpeed
from layers import PER_LAYER, Tracer, layer_metrics, percentile_ms

#: End-to-end metrics of every workload: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p95_ms": ("ms", "lower"),
    "write_p50_ms": ("ms", "lower"),
    "throughput_rps": ("1/s", "higher"),
    "slo_attainment": ("ratio", "higher"),
    "success_rate": ("ratio", "higher"),
    "rss_mb": ("MB", "lower"),
}

#: The ``SLOConfig`` latency limit every operation is held to.
SLO_LIMIT_S = 0.25

#: Offered rate of ``fleet-open``: about 60% of its capacity, measured
#: at 15-16 rps on 2 cores with every sink installed (p95 684 ms at
#: 12 rps).  At 6 rps the 5% tail sat on the
#: edge between requests served alone and requests overlapping another
#: under the interpreter lock, and p95 swung 71-191 ms between runs.
FLEET_RATE_RPS = 9.0

#: Early-exit policy of ``fleet-open`` (calibrated by the ``stream-exit``
#: experiment).
FLEET_EXIT = {"min_beeps": 1, "score_threshold": 0.02}

#: Tenants of ``fleet-open``; request shares fall off as 1/rank.
FLEET_TENANTS = 8

#: Reference slices (:mod:`hostspeed`) run around each set-up, and
#: before and after ``fleet-open``'s timed phase.
SETUP_BURST = 20
BRACKET_BURST = 100
#: ``fleet-open`` runs a reference slice only if the next request is
#: due at least this far ahead, so the slice never delays a send, and
#: at most one per ``IDLE_TICK_S``.
IDLE_GAP_S = 0.02
IDLE_TICK_S = 0.05

#: Standing distances of authentication attempts (m).
ATTEMPT_DISTANCES_M = (0.6, 1.0)

#: Seed of the household's enrollment session, fixed across runs.
ENROLL_SESSION_SEED = 20230048

#: Enrollment distance and the augmentation distances (Eqs. 13-15).
ENROLL_DISTANCE_M = 0.7
AUGMENT_DISTANCES_M = (0.55, 0.85)

#: ``registry-churn``: embedding dimension, per-user samples, spreads.
EMBED_DIM = 256
EMBED_SAMPLES = 24
EMBED_SPREAD = 0.5
#: One registry write (enroll or revoke) per this many operations; 16
#: gives about 150 writes a run, enough for a steady median.
CHURN_CYCLE = 16


@dataclass(frozen=True)
class Sizes:
    """How much work a run does; :meth:`smoke` is the test-size run."""

    household: int = 3
    enroll_beeps: int = 8
    #: Base attempts per class (genuine, visitor) that timed attempts
    #: cycle through with fresh noise.  ``fleet-open`` needs more: its
    #: work per request depends on which attempts exit early.
    base_attempts: int = 6
    fleet_base_attempts: int = 16
    min_ops: int = 200
    #: ``fleet-open`` requests per run: 15 samples beyond p95.
    fleet_requests: int = 300
    setups: int = 3
    store_users: int = 128
    store_shards: int = 16

    @classmethod
    def smoke(cls) -> "Sizes":
        return cls(
            household=2,
            enroll_beeps=6,
            base_attempts=2,
            fleet_base_attempts=2,
            min_ops=8,
            fleet_requests=8,
            setups=1,
            store_users=24,
            store_shards=4,
        )


@dataclass
class Op:
    """One timed operation and its decision."""

    kind: str
    latency_s: float
    ok: bool
    decision: object = None
    #: Expected label for genuine attempts, ``None`` for impostors and
    #: for writes.
    truth: object = None
    impostor: bool = False
    #: When the operation started (``perf_counter``; due time on the
    #: open loop) and the host slowness of the slices nearest then.
    at: float = 0.0
    factor: float = 1.0


@dataclass
class Phase:
    """The operations of one timed phase plus workload extras."""

    ops: list[Op] = field(default_factory=list)
    busy_s: float = 0.0
    wall_s: float = 0.0
    rss_mb: float = 0.0
    #: Open loop: the median stretch of its schedule (:mod:`hostspeed`).
    factor: float = 1.0
    extra: dict = field(default_factory=dict)


def rss_mb() -> float:
    """Resident set size of this process now, in MB."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _scale_ops(ops: list, meter: HostSpeed) -> None:
    """Give every operation the host slowness of the slices nearest it."""
    for op in ops:
        op.factor = meter.around(op.at)


def _stop(start: float, count: int, seconds: float, sizes: Sizes) -> bool:
    """Closed-loop stop rule: ``seconds`` elapsed and ``min_ops`` done
    (so p95 has at least ten samples beyond it), capped at 4x."""
    elapsed = perf_counter() - start
    if elapsed >= 4 * seconds + 30:
        return True
    return elapsed >= seconds and count >= sizes.min_ops


# ----------------------------------------------------------------------
# Acoustic inputs (speaker-closed, fleet-open)
# ----------------------------------------------------------------------


@dataclass
class Household:
    """Simulated captures: enrollment per user plus base attempts."""

    enroll: dict
    #: ``(truth label or None for visitors, recordings)``, genuine and
    #: visitor attempts alternating.
    attempts: list
    noise: object


def simulate_household(
    seed: int, attempt_beeps: int, base_attempts: int, sizes: Sizes
) -> Household:
    """Simulate the household and seed-drawn visitors once per run.

    The household — subjects ``1..household``, as in the repository's
    other synthetic households — and its enrollment session are the
    deployment under test and do not depend on the seed: how often
    early exit fires depends on them, and a seed-drawn enrollment
    changed the work per ``fleet-open`` request up to 3x between seeds.
    The seed draws the traffic: visitors (from a large id range, so
    impostors are never hand-picked), standing distances, sway and
    noise of every attempt.
    """
    from repro.acoustics.noise import NoiseModel
    from repro.acoustics.scene import AcousticScene
    from repro.body.subject import SyntheticSubject
    from repro.signal.chirp import LFMChirp

    rng = np.random.default_rng([seed, 0])
    enroll_rng = np.random.default_rng(ENROLL_SESSION_SEED)
    noise = NoiseModel(kind="quiet", level_db_spl=30.0)
    scene = AcousticScene(noise=noise)
    chirp = LFMChirp()
    members = list(range(1, sizes.household + 1))
    visitors = [
        int(i) for i in rng.choice(
            np.arange(sizes.household + 1, 100_000),
            size=base_attempts, replace=False,
        )
    ]

    def record(subject_id: int, distance: float, beeps: int, source=rng):
        subject = SyntheticSubject(subject_id=subject_id)
        clouds = subject.beep_clouds(distance, beeps, source)
        return scene.record_beeps(chirp, clouds, source)

    enroll = {
        member: record(member, ENROLL_DISTANCE_M, sizes.enroll_beeps,
                       enroll_rng)
        for member in members
    }
    attempts = []
    for index, visitor in enumerate(visitors):
        member = members[index % len(members)]
        low, high = ATTEMPT_DISTANCES_M
        attempts.append(
            (member, record(member, rng.uniform(low, high), attempt_beeps))
        )
        attempts.append(
            (None, record(visitor, rng.uniform(low, high), attempt_beeps))
        )
    return Household(enroll=enroll, attempts=attempts, noise=noise)


def with_fresh_noise(recordings, noise, rng) -> list:
    """The captures plus a fresh noise realisation, so no two timed
    requests are byte-identical and input-keyed caches cannot hit."""
    from repro.acoustics.scene import BeepRecording

    return [
        BeepRecording(
            samples=r.samples
            + noise.sample(rng, r.num_mics, r.num_samples, r.sample_rate),
            sample_rate=r.sample_rate,
            emit_index=r.emit_index,
        )
        for r in recordings
    ]


def pipeline_config():
    """Default stages (grid 48) with the bench SVDD margin of 0.3."""
    from repro.config import AuthenticationConfig, EchoImageConfig

    return EchoImageConfig(auth=AuthenticationConfig(svdd_margin=0.3))


def enrolled_pipeline(household: Household, batched_imaging: bool):
    """Enroll the household; returns ``(pipeline, enroll_seconds)``."""
    from repro.core.pipeline import EchoImagePipeline

    pipeline = EchoImagePipeline(
        config=pipeline_config(), batched_imaging=batched_imaging
    )
    started = perf_counter()
    pipeline.enroll_users(
        household.enroll, augment_distances_m=list(AUGMENT_DISTANCES_M)
    )
    return pipeline, perf_counter() - started


def _attempt_op(result, truth, latency_s: float) -> Op:
    return Op(
        kind="attempt",
        latency_s=latency_s,
        ok=True,
        decision=(result.label, result.per_beep_labels),
        truth=truth,
        impostor=truth is None,
    )


# ----------------------------------------------------------------------
# speaker-closed
# ----------------------------------------------------------------------


def speaker_closed(seed: int, seconds: float, trace: bool, sizes: Sizes):
    started = perf_counter()
    household = simulate_household(seed, 6, sizes.base_attempts, sizes)
    generated_s = perf_counter() - started
    problems: list = []

    def set_up():
        began = perf_counter()
        pipeline, enroll_s = enrolled_pipeline(household, False)
        # One warm-up attempt fills lazy state (steering caches).
        _, warm = household.attempts[0]
        pipeline.authenticate(
            with_fresh_noise(warm, household.noise, np.random.default_rng([seed, 9]))
        )
        return pipeline, perf_counter() - began, enroll_s

    meter = HostSpeed()
    setups, enrolls = [], []
    meter.burst(SETUP_BURST)
    for _ in range(sizes.setups):
        pipeline, setup_s, enroll_s = set_up()
        setups.append(setup_s)
        enrolls.append(enroll_s)
        meter.burst(SETUP_BURST)
    setup_factor = meter.factor()
    writes = [(seconds, setup_factor) for seconds in enrolls]

    def run(pipeline, count: int | None) -> Phase:
        phase = Phase()
        began = perf_counter()
        index = 0
        while (
            index < count if count is not None
            else not _stop(began, index, seconds, sizes)
        ):
            truth, base = household.attempts[index % len(household.attempts)]
            recordings = with_fresh_noise(
                base, household.noise, np.random.default_rng([seed, 1, index])
            )
            t0 = perf_counter()
            try:
                result = pipeline.authenticate(recordings)
            except Exception as exc:  # noqa: BLE001 — counted as failed
                latency = perf_counter() - t0
                phase.ops.append(Op("attempt", latency, False, repr(exc), truth))
            else:
                latency = perf_counter() - t0
                phase.ops.append(_attempt_op(result, truth, latency))
            phase.ops[-1].at = t0
            phase.busy_s += latency
            index += 1
            meter.tick()
        phase.wall_s = perf_counter() - began
        phase.rss_mb = rss_mb()
        meter.tick(0.0)
        _scale_ops(phase.ops, meter)
        return phase

    untimed = run(pipeline, None)
    _check_labels(untimed, set(household.enroll), problems)
    traced = per_layer = None
    if trace:
        with Tracer() as tracer:
            pipeline, _, _ = set_up()
            tracer.phase = "timed"
            traced = run(pipeline, len(untimed.ops))
        per_layer = layer_metrics(tracer, len(traced.ops), traced.busy_s)
        _compare_decisions(untimed, traced, problems)
    return _report(
        untimed, traced, per_layer, setups, writes, generated_s, problems,
        "closed loop, 1 client", closed_loop=True, setup_factor=setup_factor,
    )


def _check_labels(phase: Phase, allowed: set, problems: list) -> None:
    from repro.core.authenticator import SPOOFER_LABEL

    for index, op in enumerate(phase.ops):
        if op.ok and op.decision[0] not in allowed | {SPOOFER_LABEL}:
            problems.append(
                f"attempt {index}: label {op.decision[0]!r} is not enrolled"
            )


def _compare_decisions(untimed: Phase, traced: Phase, problems: list) -> None:
    """The traced replay must decide exactly like the untimed phase."""
    if len(untimed.ops) != len(traced.ops):
        problems.append(
            f"traced phase ran {len(traced.ops)} operations, "
            f"untimed {len(untimed.ops)}"
        )
        return
    for index, (a, b) in enumerate(zip(untimed.ops, traced.ops)):
        if a.ok and b.ok and a.decision != b.decision:
            problems.append(
                f"operation {index}: traced decision {b.decision!r} != "
                f"untimed {a.decision!r}"
            )


# ----------------------------------------------------------------------
# fleet-open
# ----------------------------------------------------------------------


@dataclass
class Sent:
    """One open-loop request: when it was due, sent and answered."""

    request: object
    due: float
    #: Host slowness the gap before this request was stretched by.
    stretch: float = 1.0
    sent: float = 0.0
    done: float = 0.0
    future: object = None
    answered: threading.Event = field(default_factory=threading.Event)


def _answered(sent: Sent, _future) -> None:
    sent.done = perf_counter()
    sent.answered.set()


def poisson_schedule(
    seed: int, seconds: float, num_attempts: int, sizes: Sizes
) -> list:
    """``(offset_s, tenant, attempt)`` arrivals: a Poisson process at
    ``FLEET_RATE_RPS`` conditioned on its count, i.e. ``N`` arrival
    times drawn uniformly over ``N / rate`` seconds, with ``N`` covering
    ``seconds`` and at least ``fleet_requests``.  Fixing the count
    keeps the offered load equal across seeds.

    The arrival times are one fixed realisation (seed
    ``ENROLL_SESSION_SEED``), replayed like a recorded trace: with 300
    requests, where the Poisson clusters fall decides most of p95, and
    seed-drawn arrivals moved p95 by a third between seeds (93-149 ms
    over five seeds on a 2-vCPU VM).  The run seed draws each arrival's
    tenant and the base attempt of the pool it replays."""
    arrivals = np.random.default_rng([ENROLL_SESSION_SEED, 2])
    rng = np.random.default_rng([seed, 2])
    count = max(sizes.fleet_requests, round(FLEET_RATE_RPS * seconds))
    offsets = np.sort(arrivals.uniform(0.0, count / FLEET_RATE_RPS, count))
    weights = 1.0 / np.arange(1, FLEET_TENANTS + 1)
    tenants = rng.choice(FLEET_TENANTS, size=count, p=weights / weights.sum())
    attempts = rng.integers(num_attempts, size=count)
    return [
        (float(offset), f"tenant-{int(tenant)}", int(attempt))
        for offset, tenant, attempt in zip(offsets, tenants, attempts)
    ]


class FleetService:
    """One set-up of the ``fleet-open`` service and its sinks."""

    def __init__(self, household: Household, root: Path, seed: int) -> None:
        from repro.config import BrokerConfig, ExitPolicy, ServingConfig
        from repro.obs import (
            AuditLedger,
            CaptureStore,
            FlightRecorder,
            MetricsRegistry,
            SecuritySentinel,
            set_audit_ledger,
            set_capture_store,
            set_flight_recorder,
            set_registry,
            set_security_sentinel,
        )
        from repro.serve import BatchAuthenticator, ModelBundle, RequestBroker

        began = perf_counter()
        pipeline, self.enroll_s = enrolled_pipeline(household, True)
        bundle = ModelBundle.from_pipeline(pipeline)
        root.mkdir(parents=True, exist_ok=True)
        self.ledger = AuditLedger(root / "audit.jsonl")
        self.capture = CaptureStore(
            root=root / "capture", max_captures=256, async_persist=True
        )
        self._previous = (
            set_registry(MetricsRegistry()),
            set_flight_recorder(FlightRecorder()),
            set_audit_ledger(self.ledger),
            set_security_sentinel(SecuritySentinel()),
            set_capture_store(self.capture),
        )
        self.workers = ServingConfig().resolve_workers()
        self.server = BatchAuthenticator(
            bundle, ServingConfig(backend="thread", max_workers=self.workers)
        )
        self.broker = RequestBroker(
            self.server,
            BrokerConfig(capacity=64),
            exit_policy=ExitPolicy(**FLEET_EXIT),
        )
        # Pool warm-up: enough requests that every worker thread builds
        # its pipeline before the timed phase.
        rng = np.random.default_rng([seed, 8])
        warm = [
            self.broker.submit(self._request(household, f"warm-{j}", j, rng,
                                             "tenant-0"))
            for j in range(2 * self.workers)
        ]
        for future in warm:
            future.result(timeout=120)
        self.setup_s = perf_counter() - began

    @staticmethod
    def _request(household, request_id, index, rng, tenant):
        from repro.serve import AuthenticationRequest

        _, base = household.attempts[index % len(household.attempts)]
        return AuthenticationRequest(
            request_id,
            tuple(with_fresh_noise(base, household.noise, rng)),
            tenant=tenant,
        )

    def run(
        self, household: Household, schedule: list, seed: int,
        problems: list, meter: HostSpeed,
    ) -> list[Sent]:
        """Send ``schedule`` from one generator thread; wait for all.

        The schedule's offsets are in nominal host time: each gap
        between two requests is stretched by the host's slowness over
        ``meter``'s latest slices, so the offered load stays the same
        share of capacity as the host speeds up and slows down.  While
        every request sent so far is answered and the next is not due
        for ``IDLE_GAP_S``, the generator runs a reference slice every
        ``IDLE_TICK_S``, so the meter follows the host through the timed
        phase without running beside a request.  Requests are built
        before the clock starts, so otherwise the generator only sleeps
        and submits.
        """
        sent = [
            Sent(self._request(
                household, f"fleet-{index}", attempt,
                np.random.default_rng([seed, 3, index]), tenant,
            ), offset)
            for index, (offset, tenant, attempt) in enumerate(schedule)
        ]
        threads: set = set()

        def generate() -> None:
            due, offset = perf_counter() + 0.05, 0.0
            oldest = 0
            for index, record in enumerate(sent):
                record.stretch = meter.recent()
                due += (record.due - offset) * record.stretch
                offset, record.due = record.due, due
                while True:
                    while oldest < index and sent[oldest].answered.is_set():
                        oldest += 1
                    delay = record.due - perf_counter()
                    if delay <= 0:
                        break
                    if oldest == index and delay > IDLE_GAP_S:
                        meter.tick(IDLE_TICK_S)
                        delay = record.due - perf_counter()
                    time.sleep(max(0.0, min(delay, IDLE_TICK_S)))
                threads.add(threading.get_ident())
                record.sent = perf_counter()
                record.future = self.broker.submit(record.request)
                record.future.add_done_callback(
                    functools.partial(_answered, record)
                )

        generator = threading.Thread(target=generate, name="perfbench-loadgen")
        generator.start()
        generator.join()
        if len(threads) != 1:
            problems.append(f"requests came from {len(threads)} threads")
        for record in sent:
            if record.future is None:
                problems.append(f"{record.request.request_id}: never sent")
            else:
                record.answered.wait(timeout=120)
        self.broker.drain(timeout=60)
        return sent

    def close(self) -> None:
        from repro.obs import (
            set_audit_ledger,
            set_capture_store,
            set_flight_recorder,
            set_registry,
            set_security_sentinel,
        )

        self.broker.close()
        self.server.close()
        self.capture.close()
        registry, recorder, ledger, sentinel, capture = self._previous
        set_registry(registry)
        set_flight_recorder(recorder)
        set_audit_ledger(ledger)
        set_security_sentinel(sentinel)
        set_capture_store(capture)


def _fleet_phase(
    service: FleetService, sent: list[Sent], truths: list,
    problems: list,
) -> Phase:
    """Turn answered requests into ops and run the correctness gate.

    ``truths`` holds each request's expected label (``None`` for a
    visitor).
    """
    from repro.serve import STATUS_SHED, STATUSES

    phase = Phase(rss_mb=rss_mb())
    served_ids = set()
    early = beeps = shed = 0
    for index, record in enumerate(sent):
        request = record.request
        if not record.answered.is_set():
            problems.append(f"{request.request_id}: no terminal status")
            continue
        response = record.future.result()
        if response.request_id != request.request_id:
            problems.append(
                f"{request.request_id}: response carries id "
                f"{response.request_id!r}"
            )
        if response.status not in STATUSES:
            problems.append(
                f"{request.request_id}: unknown status {response.status!r}"
            )
        truth = truths[index]
        latency = record.done - record.due
        if response.ok:
            op = _attempt_op(response.result, truth, latency)
            op.decision = (*op.decision, response.beeps_used)
            early += bool(response.early_exit)
            beeps += response.beeps_used
        else:
            op = Op("request", latency, False, response.status, truth)
        op.at = record.due
        phase.ops.append(op)
        if response.status == STATUS_SHED:
            shed += 1
        else:
            served_ids.add(request.request_id)
    # Exactly one terminal status per request: every served request has
    # exactly one audit entry, and shed requests have none.
    counts: dict = {}
    for entry in service.ledger.entries(include_rotated=True):
        counts[entry.get("request_id")] = counts.get(entry.get("request_id"), 0) + 1
    for record in sent:
        request_id = record.request.request_id
        expected = 1 if request_id in served_ids else 0
        if counts.get(request_id, 0) != expected:
            problems.append(
                f"{request_id}: {counts.get(request_id, 0)} audit entries, "
                f"expected {expected}"
            )
    if sent:
        phase.wall_s = max(r.done for r in sent) - sent[0].due
        phase.factor = statistics.median(r.stretch for r in sent)
    phase.busy_s = sum(op.latency_s for op in phase.ops)
    served = sum(op.ok for op in phase.ops)
    phase.extra = {
        "broker.shed": float(shed),
        "serve.early_exit_rate": early / served if served else 0.0,
        "serve.beeps_used_mean": beeps / served if served else 0.0,
        "loadgen.lag_p95_ms": percentile_ms([r.sent - r.due for r in sent], 95),
    }
    return phase


def fleet_open(seed: int, seconds: float, trace: bool, sizes: Sizes):
    started = perf_counter()
    # The pool of homes — household plus visitors, standing distances
    # and sessions — is fixed like the enrollment: which attempts exit
    # early sets the work per request, and a seed-drawn pool of 32 moved
    # p50 latency 36-79 ms and p95 81-210 ms between seeds.  The seed
    # draws the traffic: arrival times, tenants, which pool attempt each
    # request replays, and its fresh noise.
    household = simulate_household(
        ENROLL_SESSION_SEED, 4, sizes.fleet_base_attempts, sizes
    )
    schedule = poisson_schedule(
        seed, seconds, len(household.attempts), sizes
    )
    truths = [household.attempts[attempt][0] for _, _, attempt in schedule]
    generated_s = perf_counter() - started
    problems: list = []
    scratch = Path(tempfile.mkdtemp(prefix="fleet-", dir=_scratch_root()))
    meter = HostSpeed()
    try:
        setups, enrolls = [], []
        service = None
        meter.burst(SETUP_BURST)
        for index in range(sizes.setups):
            if service is not None:
                service.close()
            service = FleetService(household, scratch / f"setup-{index}", seed)
            setups.append(service.setup_s)
            enrolls.append(service.enroll_s)
            meter.burst(SETUP_BURST)
        setup_factor = meter.factor()
        writes = [(seconds, setup_factor) for seconds in enrolls]
        # The open loop runs slices only while no request is in flight
        # (see ``FleetService.run``), so bursts bracket its timed phase
        # too: the service is idle before it and closed after it.
        meter.burst(BRACKET_BURST)
        if service.workers > (os.cpu_count() or 1):
            problems.append(
                f"{service.workers} pool workers exceed nproc {os.cpu_count()}"
            )
        try:
            sent = service.run(household, schedule, seed, problems, meter)
            untimed = _fleet_phase(service, sent, truths, problems)
        finally:
            service.close()
        meter.burst(BRACKET_BURST)
        _scale_ops(untimed.ops, meter)
        load = (
            f"open loop, {FLEET_RATE_RPS:g} rps offered at nominal host "
            f"speed ({FLEET_RATE_RPS / untimed.factor:.2f} rps on this "
            f"host), {len(schedule)} requests, generator threads 1, pool "
            f"workers {service.workers}, nproc {os.cpu_count()}"
        )
        _check_labels(untimed, set(household.enroll), problems)
        traced = per_layer = None
        if trace:
            with Tracer() as tracer:
                service = FleetService(household, scratch / "traced", seed)
                meter.burst(BRACKET_BURST)
                try:
                    tracer.phase = "timed"
                    sent = service.run(household, schedule, seed, problems, meter)
                finally:
                    service.close()
            meter.burst(BRACKET_BURST)
            traced = _fleet_phase(service, sent, truths, problems)
            _scale_ops(traced.ops, meter)
            per_layer = layer_metrics(tracer, len(traced.ops), traced.busy_s)
            _compare_decisions(untimed, traced, problems)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return _report(
        untimed, traced, per_layer, setups, writes, generated_s, problems,
        load, closed_loop=False, setup_factor=setup_factor,
    )


# ----------------------------------------------------------------------
# registry-churn
# ----------------------------------------------------------------------


@dataclass
class Population:
    """Seeded synthetic embedding clusters."""

    centers: dict
    enroll: dict


def synthetic_population(sizes: Sizes) -> Population:
    """The store's initial users: like the household, the deployment
    under test, fixed across seeds; the seed draws the churn and the
    probes."""
    rng = np.random.default_rng(ENROLL_SESSION_SEED)
    centers, enroll = {}, {}
    for index in range(sizes.store_users):
        label = f"user-{index:04d}"
        centers[label] = rng.normal(0.0, 1.0, EMBED_DIM)
        enroll[label] = centers[label] + rng.normal(
            0.0, EMBED_SPREAD, (EMBED_SAMPLES, EMBED_DIM)
        )
    return Population(centers=centers, enroll=enroll)


def registry_churn(seed: int, seconds: float, trace: bool, sizes: Sizes):
    from repro.io.store import EnrollmentStore

    started = perf_counter()
    population = synthetic_population(sizes)
    generated_s = perf_counter() - started
    problems: list = []
    scratch = Path(tempfile.mkdtemp(prefix="registry-", dir=_scratch_root()))
    meter = HostSpeed()

    def set_up(name: str):
        began = perf_counter()
        store = EnrollmentStore.open(
            scratch / name, num_shards=sizes.store_shards, candidate_k=8
        )
        store.enroll_batch(population.enroll)
        return store, perf_counter() - began

    def run(store, count: int | None) -> Phase:
        phase = Phase()
        enrolled = list(population.enroll)
        centers = dict(population.centers)
        revoked: list = []
        began = perf_counter()
        index = 0
        while (
            index < count if count is not None
            else not _stop(began, index, seconds, sizes)
        ):
            rng = np.random.default_rng([seed, 5, index])
            slot = index % CHURN_CYCLE
            if slot == 0 and (index // CHURN_CYCLE) % 2 == 0:
                label = f"new-{index:06d}"
                centers[label] = rng.normal(0.0, 1.0, EMBED_DIM)
                samples = centers[label] + rng.normal(
                    0.0, EMBED_SPREAD, (EMBED_SAMPLES, EMBED_DIM)
                )
                t0 = perf_counter()
                store.enroll(label, samples)
                latency = perf_counter() - t0
                enrolled.append(label)
                phase.ops.append(Op("write", latency, True, ("enroll", label)))
            elif slot == 0:
                label = enrolled.pop(int(rng.integers(len(enrolled))))
                t0 = perf_counter()
                store.revoke(label)
                latency = perf_counter() - t0
                revoked.append(label)
                phase.ops.append(Op("write", latency, True, ("revoke", label)))
            else:
                group = slot % 8
                if group < 5:
                    truth = enrolled[int(rng.integers(len(enrolled)))]
                    center = centers[truth]
                elif group == 7 and revoked:
                    # A just-revoked user: one of the last few removed.
                    recent = revoked[-4:]
                    center = centers[recent[int(rng.integers(len(recent)))]]
                    truth = None
                else:
                    center = rng.normal(0.0, 1.0, EMBED_DIM)
                    truth = None
                probe = center + rng.normal(0.0, EMBED_SPREAD, (6, EMBED_DIM))
                t0 = perf_counter()
                result = store.identify(probe)
                latency = perf_counter() - t0
                if result.label in revoked:
                    problems.append(
                        f"operation {index}: identify returned revoked "
                        f"user {result.label!r}"
                    )
                elif result.accepted and result.label not in store:
                    problems.append(
                        f"operation {index}: identify returned unknown "
                        f"user {result.label!r}"
                    )
                phase.ops.append(
                    Op("identify", latency, True, result.label, truth,
                       impostor=truth is None)
                )
            phase.ops[-1].at = t0
            phase.busy_s += latency
            index += 1
            meter.tick()
        phase.wall_s = perf_counter() - began
        phase.rss_mb = rss_mb()
        meter.tick(0.0)
        _scale_ops(phase.ops, meter)
        return phase

    try:
        setups = []
        store = None
        meter.burst(SETUP_BURST)
        for index in range(sizes.setups):
            store, setup_s = set_up(f"setup-{index}")
            setups.append(setup_s)
            meter.burst(SETUP_BURST)
        setup_factor = meter.factor()
        untimed = run(store, None)
        writes = [
            (op.latency_s, op.factor) for op in untimed.ops if op.kind == "write"
        ]
        traced = per_layer = None
        if trace:
            with Tracer() as tracer:
                store, _ = set_up("traced")
                tracer.phase = "timed"
                traced = run(store, len(untimed.ops))
            per_layer = layer_metrics(tracer, len(traced.ops), traced.busy_s)
            _compare_decisions(untimed, traced, problems)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return _report(
        untimed, traced, per_layer, setups, writes, generated_s, problems,
        "closed loop, 1 client", closed_loop=True, reads="identify",
        setup_factor=setup_factor,
    )


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def _scratch_root() -> Path:
    """Temporary files live inside the working directory's
    ``.perfbench_tmp`` so a run reads and writes only its checkout."""
    root = Path.cwd() / ".perfbench_tmp"
    root.mkdir(exist_ok=True)
    return root


def _quality(phase: Phase) -> tuple[float, float]:
    from repro.core.authenticator import SPOOFER_LABEL

    genuine = [op for op in phase.ops if op.ok and op.truth is not None]
    impostor = [op for op in phase.ops if op.ok and op.impostor]

    def label(op):
        return op.decision[0] if isinstance(op.decision, tuple) else op.decision

    frr = (
        sum(label(op) != op.truth for op in genuine) / len(genuine)
        if genuine else 0.0
    )
    far = (
        sum(label(op) != SPOOFER_LABEL for op in impostor) / len(impostor)
        if impostor else 0.0
    )
    return frr, far


def _report(
    untimed: Phase,
    traced: Phase | None,
    per_layer: dict | None,
    setups: list,
    writes: list,
    generated_s: float,
    problems: list,
    load: str,
    closed_loop: bool,
    setup_factor: float,
    reads: str | None = None,
) -> dict:
    """The run's metrics.  ``writes`` holds ``(seconds, slowness)``
    pairs.  Every time is divided by the host slowness it was measured
    at (:mod:`hostspeed`): an operation's own, ``setup_factor`` for
    set-ups; ``measured`` keeps the times as the clock read them."""

    def timings(scaled: bool) -> dict:
        def cost(seconds: float, factor: float) -> float:
            return seconds / factor if scaled else seconds

        reads_s = [cost(op.latency_s, op.factor) for op in read_ops]
        if closed_loop:
            window = sum(cost(op.latency_s, op.factor) for op in ops)
        else:
            window = cost(untimed.wall_s, untimed.factor)
        return {
            "setup_s": cost(statistics.median(setups), setup_factor),
            "latency_p50_ms": percentile_ms(reads_s, 50),
            "latency_p95_ms": percentile_ms(reads_s, 95),
            "write_p50_ms": percentile_ms([cost(*w) for w in writes], 50),
            "throughput_rps": ok / window if window > 0 else 0.0,
            "slo_attainment": sum(
                op.ok and cost(op.latency_s, op.factor) <= SLO_LIMIT_S
                for op in ops
            ) / len(ops) if ops else 0.0,
        }

    ops = untimed.ops
    read_ops = [op for op in ops if reads is None or op.kind == reads]
    ok = sum(op.ok for op in ops)
    end_to_end = {
        **timings(scaled=True),
        "success_rate": ok / len(ops) if ops else 0.0,
        "rss_mb": untimed.rss_mb,
    }
    measured = timings(scaled=False)
    attempted = len(ops)
    failed = len(ops) - ok
    layers = None
    if traced is not None:
        frr, far = _quality(traced)
        traced_reads = [op for op in traced.ops if reads is None or op.kind == reads]
        layers = {name: 0.0 for name in PER_LAYER}
        layers.update(per_layer)
        layers.update(traced.extra)
        layers["trace.overhead_ms"] = (
            percentile_ms([op.latency_s / op.factor for op in traced_reads], 50)
            - end_to_end["latency_p50_ms"]
        )
        layers["frr"], layers["far"] = frr, far
        layers["failure_rate"] = (
            sum(not op.ok for op in traced.ops) / len(traced.ops)
            if traced.ops else 0.0
        )
        attempted += len(traced.ops)
        failed += sum(not op.ok for op in traced.ops)
    return {
        "end_to_end": end_to_end,
        "per_layer": layers,
        "attempted": attempted,
        "failed": failed,
        "problems": list(problems),
        "generated_s": generated_s,
        "load": load,
        "host": {
            "setup_factor": setup_factor,
            "timed_factor": statistics.median(op.factor for op in ops),
            "measured": measured,
        },
    }


WORKLOADS = {
    "speaker-closed": speaker_closed,
    "fleet-open": fleet_open,
    "registry-churn": registry_churn,
}


def run_workload(
    name: str, seed: int, seconds: float, trace: bool,
    sizes: Sizes | None = None,
) -> dict:
    """Run one workload in-process and return its report."""
    sizes = sizes or Sizes()
    if trace:
        # A traced run reports no setup_s, so one untimed set-up will do.
        sizes = replace(sizes, setups=1)
    return WORKLOADS[name](seed, seconds, trace, sizes)
