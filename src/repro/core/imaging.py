"""Acoustic image construction (Section V-C).

A virtual square imaging plane is placed at the estimated user distance
``D_p``, parallel to the x-o-z plane, and divided into K grids.  For grid k
centred at ``(x_k, D_p, z_k)`` the steering angles are (Eqs. 11–12)

.. math::

    \\theta_k = \\arccos \\frac{x_k}{\\sqrt{x_k^2 + D_p^2}}, \\qquad
    \\varphi_k = \\arccos \\frac{z_k}{\\sqrt{x_k^2 + D_p^2 + z_k^2}}

The array is MVDR-steered to every grid; from each beamformed signal the
segment whose round-trip delay matches the grid's range
``D_k = sqrt(x_k^2 + D_p^2 + z_k^2)`` (within a safeguard ``d'``) is
extracted, and the pixel value is the segment's L2 norm — the energy of
echoes arriving *from that direction at that range*, which is what
separates body echoes from same-direction clutter at other ranges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.array.beamforming import Beamformer, MVDRBeamformer
from repro.array.geometry import MicrophoneArray
from repro.acoustics.scene import BeepRecording
from repro.config import BeepConfig, ImagingConfig
from repro.core.frontend import AttemptSignals, stackable
from repro.core.telemetry import pipeline_metrics
from repro.obs import ensure_trace, trace
from repro.signal.filters import BandpassFilter


@dataclass(frozen=True)
class ImagingPlane:
    """The virtual imaging plane at distance ``D_p`` from the array.

    Grids are ordered row-major with rows spanning z from top to bottom and
    columns spanning x from left to right, so ``pixels.reshape(res, res)``
    renders the user upright.

    Attributes:
        distance_m: Plane distance ``D_p``.
        side_m: Side length of the square plane.
        resolution: Grids per side; ``K = resolution**2``.
        center_z_m: Vertical centre of the plane relative to the array
            (0 = array height).

    Example:
        >>> plane = ImagingPlane(distance_m=0.7, side_m=1.8, resolution=3)
        >>> plane.num_grids
        9
        >>> theta, phi = plane.grid_angles()      # Eqs. 11-12, cached
        >>> theta.shape, bool(theta.flags.writeable)
        ((9,), False)
        >>> float(plane.grid_ranges().min()) >= plane.distance_m
        True
    """

    distance_m: float
    side_m: float = 1.8
    resolution: int = 48
    center_z_m: float = 0.0

    def __post_init__(self) -> None:
        if self.distance_m <= 0:
            raise ValueError(f"distance must be positive, got {self.distance_m}")
        if self.side_m <= 0:
            raise ValueError(f"side must be positive, got {self.side_m}")
        if self.resolution < 2:
            raise ValueError(f"resolution must be >= 2, got {self.resolution}")

    @classmethod
    def from_config(
        cls, distance_m: float, config: ImagingConfig, center_z_m: float = 0.0
    ) -> "ImagingPlane":
        """Build the plane described by an :class:`ImagingConfig`.

        The distance is snapped to the config's plane-distance grid so
        ranging jitter between visits cannot move the plane.
        """
        return cls(
            distance_m=config.snap_distance(distance_m),
            side_m=config.plane_side_m,
            resolution=config.grid_resolution,
            center_z_m=center_z_m,
        )

    @property
    def num_grids(self) -> int:
        """Total number of grids K."""
        return self.resolution**2

    def _memo(self, key: str, compute):
        """Per-instance memo for the derived grid geometry.

        The plane is frozen, so every derived array is computed at most
        once per instance; results are returned read-only because they
        are shared between callers (the imager replays them for every
        beep of an attempt).
        """
        cache = getattr(self, "_geometry_memo", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_geometry_memo", cache)
        if key not in cache:
            value = compute()
            for array in value if isinstance(value, tuple) else (value,):
                array.setflags(write=False)
            cache[key] = value
        return cache[key]

    def grid_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened grid centres ``(x_k, z_k)``, each of shape ``(K,)``."""

        def compute() -> tuple[np.ndarray, np.ndarray]:
            half = self.side_m / 2.0
            # Cell centres, z descending so row 0 is the top of the image.
            offsets = (np.arange(self.resolution) + 0.5) / self.resolution
            xs = -half + offsets * self.side_m
            zs = self.center_z_m + half - offsets * self.side_m
            grid_z, grid_x = np.meshgrid(zs, xs, indexing="ij")
            return grid_x.ravel(), grid_z.ravel()

        return self._memo("coordinates", compute)

    def grid_angles(self) -> tuple[np.ndarray, np.ndarray]:
        """Steering angles ``(theta_k, phi_k)`` of Eqs. (11)–(12)."""

        def compute() -> tuple[np.ndarray, np.ndarray]:
            x_k, z_k = self.grid_coordinates()
            d_p = self.distance_m
            theta = np.arccos(x_k / np.sqrt(x_k**2 + d_p**2))
            phi = np.arccos(z_k / np.sqrt(x_k**2 + d_p**2 + z_k**2))
            return theta, phi

        return self._memo("angles", compute)

    def grid_ranges(self) -> np.ndarray:
        """Grid-to-origin distances ``D_k``, shape ``(K,)``."""

        def compute() -> np.ndarray:
            x_k, z_k = self.grid_coordinates()
            return np.sqrt(x_k**2 + self.distance_m**2 + z_k**2)

        return self._memo("ranges", compute)


class AcousticImager:
    """Beamforming-based acoustic imaging of Section V-C.

    Args:
        array: The microphone array.
        beep: Probing-signal parameters.
        config: Imaging parameters (plane size, resolution, safeguard).
        speed_of_sound: Speed of sound in m/s.
        beamformer_factory: Optional override producing the beamformer from
            ``(array, noise_covariance)`` for the ablation benches.
        steering_cache: Reuse the per-band steering matrices across the
            beeps imaged on one plane (default on).  The steering
            geometry depends only on ``(plane, sub-band)`` — not on the
            recording — so recomputing it for every beep × sub-band is
            pure waste; see ``scripts/profile_pipeline.py`` for the
            measured effect.  Disable only to benchmark the uncached
            path or when a custom beamformer's steering varies per call.

    Example::

        from repro import AcousticImager, ImagingPlane
        from repro.array.geometry import respeaker_array

        imager = AcousticImager(array=respeaker_array())
        plane = ImagingPlane(distance_m=0.7)
        image = imager.image(recording, plane)
        image.shape            # (plane.resolution, plane.resolution)

    Each call records an ``imaging.image`` span (one ``imaging.band``
    child per sub-band, with a ``steering_cached`` attribute) into the
    ambient :mod:`repro.obs` trace.  When imaging the L beeps of one
    attempt (``imager.images(recordings, plane)``), the first beep warms
    the steering cache and the rest reuse it.  The steering and
    segment-gather caches make an imager stateful: share one imager per
    worker, not across threads.
    """

    def __init__(
        self,
        array: MicrophoneArray,
        beep: BeepConfig | None = None,
        config: ImagingConfig | None = None,
        speed_of_sound: float = 343.0,
        beamformer_factory=None,
        steering_cache: bool = True,
    ) -> None:
        self.array = array
        self.beep = beep or BeepConfig()
        self.config = config or ImagingConfig()
        self.speed_of_sound = speed_of_sound
        self.steering_cache_enabled = steering_cache
        self._steering_plane: ImagingPlane | None = None
        self._steering_by_band: dict[int, np.ndarray] = {}
        self._gather_key: tuple | None = None
        self._gather: _SegmentGather | None = None
        self._beamformer_factory = beamformer_factory or (
            lambda arr, cov: MVDRBeamformer(
                array=arr,
                frequency_hz=self.beep.center_hz,
                noise_covariance=cov,
                loading=self.config.diagonal_loading,
            )
        )
        self._subband_edges = np.linspace(
            self.beep.low_hz, self.beep.high_hz, self.config.subbands + 1
        )
        self._bandpasses = [
            BandpassFilter(
                low_hz=self._subband_edges[i],
                high_hz=self._subband_edges[i + 1],
                sample_rate=self.beep.sample_rate,
                order=3 if self.config.subbands > 1 else 4,
            )
            for i in range(self.config.subbands)
        ]

    def image(
        self,
        recording: BeepRecording,
        plane: ImagingPlane,
        signals: AttemptSignals | None = None,
    ) -> np.ndarray:
        """Construct the acoustic image ``AI_l`` from one beep capture.

        With ``config.subbands == 1`` this is exactly the paper's imager
        (Section V-C); with more sub-bands the per-band pixel energies are
        averaged incoherently (frequency compounding).

        Args:
            recording: One multichannel beep capture.
            plane: The imaging plane (placed at the estimated distance).
            signals: The capture's front end — a one-beep view
                (:meth:`AttemptSignals.beep`) of the attempt's shared
                front end; built from ``recording`` when omitted.

        Returns:
            Image of shape ``(resolution, resolution)`` of non-negative
            pixel values (segment L2 norms).
        """
        signals = signals or AttemptSignals([recording])
        with ensure_trace(), trace(
            "imaging.image",
            resolution=plane.resolution,
            subbands=self.config.subbands,
            distance_m=plane.distance_m,
            bytes=int(recording.samples.nbytes),
        ) as span:
            (pixels,) = self._pixels(signals, plane)
            metrics = pipeline_metrics()
            if metrics is not None:
                # Imaging fidelity: how far the brightest pixel (the body
                # reflection of Eqs. 11-12) stands above the clutter floor.
                dynamic_range_db = _dynamic_range_db(pixels)
                metrics.image_dynamic_range_db.observe(dynamic_range_db)
                span.set("dynamic_range_db", dynamic_range_db)
            return pixels.reshape(plane.resolution, plane.resolution)

    def images(
        self,
        recordings: list[BeepRecording],
        plane: ImagingPlane,
        signals: AttemptSignals | None = None,
    ) -> list[np.ndarray]:
        """One acoustic image per beep capture.

        The first beep warms the per-band steering cache for ``plane``;
        every subsequent beep reuses it (see ``steering_cache``).  The
        beeps share one front end (``signals``, built from
        ``recordings`` when omitted), so the band-pass and Hilbert
        transform run once for the attempt, not once per beep.
        """
        signals = signals or AttemptSignals(recordings)
        return [
            self.image(rec, plane, signals.beep(index))
            for index, rec in enumerate(recordings)
        ]

    def image_batch(
        self,
        recordings: list[BeepRecording],
        plane: ImagingPlane,
        signals: AttemptSignals | None = None,
    ) -> list[np.ndarray]:
        """Batched equivalent of :meth:`images` for one attempt.

        The L beeps of an attempt share the imaging plane, so after the
        per-beep MVDR weights the range-gating kernel runs once over all
        L beeps instead of once per beep.  The kernel computes every
        beep's row exactly as :meth:`image` does, so the output matches
        the sequential path bit-for-bit (pinned by
        ``tests/serve/test_image_batch_properties.py`` and the golden
        harness under ``tests/golden``).

        Falls back to the sequential loop when the captures are
        heterogeneous (different channel counts, lengths, sample rates
        or emission samples).  An empty list returns ``[]``.

        Returns:
            One ``(resolution, resolution)`` image per recording, in
            input order.
        """
        if not recordings:
            return []
        signals = signals or AttemptSignals(recordings)
        if len(recordings) == 1 or not stackable(recordings):
            return self.images(recordings, plane, signals)
        with ensure_trace(), trace(
            "imaging.image_batch",
            num_beeps=len(recordings),
            resolution=plane.resolution,
            subbands=self.config.subbands,
            distance_m=plane.distance_m,
            bytes=int(sum(rec.samples.nbytes for rec in recordings)),
        ):
            pixels = self._pixels(signals, plane, num_beeps=len(recordings))
            metrics = pipeline_metrics()
            if metrics is not None:
                for row in pixels:
                    metrics.image_dynamic_range_db.observe(
                        _dynamic_range_db(row)
                    )
            return [
                row.reshape(plane.resolution, plane.resolution)
                for row in pixels
            ]

    def _pixels(
        self, signals: AttemptSignals, plane: ImagingPlane, **band_attrs
    ) -> np.ndarray:
        """Pixel values ``(L, K)`` of every beep of ``signals``."""
        energies = [
            self._band_energies(signals, plane, band_index, **band_attrs)
            for band_index in range(self.config.subbands)
        ]  # subbands x (L, K)
        return np.sqrt(np.mean(energies, axis=0))

    def _band_steering(
        self,
        beamformer: Beamformer,
        plane: ImagingPlane,
        band_index: int,
    ) -> tuple[np.ndarray | None, bool]:
        """The (possibly cached) steering matrix for one plane sub-band.

        Returns:
            ``(steering, was_cached)`` — ``steering`` is ``None`` when the
            cache is disabled or the beamformer ignores steering.
        """
        if not (self.steering_cache_enabled and beamformer.uses_steering):
            return None, False
        if self._steering_plane != plane:
            # New plane (new attempt): the old grid geometry is dead.
            self._steering_plane = plane
            self._steering_by_band = {}
        cached = self._steering_by_band.get(band_index)
        if cached is not None:
            return cached, True
        theta, phi = plane.grid_angles()
        steer = beamformer.steering_batch(theta, phi)
        self._steering_by_band[band_index] = steer
        return steer, False

    def _band_energies(
        self,
        signals: AttemptSignals,
        plane: ImagingPlane,
        band_index: int,
        **band_attrs,
    ) -> np.ndarray:
        """Per-grid segment energies of one sub-band, shape ``(L, K)``."""
        band_low = self._subband_edges[band_index]
        band_high = self._subband_edges[band_index + 1]
        bandpass = self._bandpasses[band_index]
        with trace(
            "imaging.band",
            band=band_index,
            low_hz=float(band_low),
            high_hz=float(band_high),
            num_grids=plane.num_grids,
            **band_attrs,
        ) as span:
            weights, cached = zip(
                *(
                    self._band_weights(
                        signals.noise_covariance(bandpass, index),
                        plane,
                        (band_low + band_high) / 2.0,
                        band_index,
                    )
                    for index in range(len(signals.recordings))
                )
            )
            span.set("steering_cached", any(cached))
            energies = _grid_energies(
                signals.analytic(bandpass),  # (L, M, N)
                np.stack(weights),
                self._segment_gather(plane, signals.recordings[0]),
            )
            metrics = pipeline_metrics()
            if metrics is not None:
                # The gauge holds the band energy of the last beep imaged.
                metrics.image_band_energy.labels(band=band_index).set(
                    float(energies[-1].sum())
                )
            return energies

    def _band_weights(
        self,
        noise_cov: np.ndarray,
        plane: ImagingPlane,
        frequency_hz: float,
        band_index: int,
    ) -> tuple[np.ndarray, bool]:
        """MVDR weights ``(K, M)`` of one beep for one sub-band.

        Returns ``(weights, steering_was_cached)``.
        """
        beamformer: Beamformer = self._beamformer_factory(
            self.array, noise_cov
        )
        # Steer at the sub-band centre frequency.
        beamformer.frequency_hz = frequency_hz
        theta, phi = plane.grid_angles()
        steering, was_cached = self._band_steering(
            beamformer, plane, band_index
        )
        weights = beamformer.weights_batch(theta, phi, steering=steering)
        return weights, was_cached

    def _segment_gather(
        self, plane: ImagingPlane, recording: BeepRecording
    ) -> "_SegmentGather":
        """Per-grid segment windows of a capture, grouped by start sample.

        Grid k's segment is centred on its round-trip delay ``2 D_k / c``
        after the emission, ``S = 2 * safeguard + 1`` samples long, and
        clamped inside the capture.  Because the delays are quantised to
        samples, the K grids share only ~O(delay spread) distinct
        windows, so the range-gating kernel computes one ``M x M``
        covariance per *window* rather than one beamformed segment per
        grid.  The grouping depends only on the plane and the capture
        geometry — not on the samples — so it is cached and replayed for
        every beep and sub-band of an attempt.
        """
        sample_rate = recording.sample_rate
        emit_index = recording.emit_index
        num_samples = recording.num_samples
        key = (plane, sample_rate, emit_index, num_samples)
        if self._gather_key == key and self._gather is not None:
            return self._gather
        ranges = plane.grid_ranges()
        delays = 2.0 * ranges / self.speed_of_sound
        centers = emit_index + np.round(delays * sample_rate).astype(int)
        half = max(1, round(self.config.safeguard_s * sample_rate))
        # Clamp segment windows inside the capture.
        starts = np.clip(centers - half, 0, num_samples - 1)
        length = 2 * half + 1
        starts = np.minimum(starts, num_samples - length)
        if np.any(starts < 0):
            raise ValueError(
                "capture too short for the imaging segments; increase the "
                "scene capture window or reduce the plane size"
            )
        window_starts, window_of = np.unique(starts, return_inverse=True)
        samples = window_starts[:, None] + np.arange(length)
        samples.setflags(write=False)
        window_of.setflags(write=False)
        gather = _SegmentGather(samples=samples, window_of=window_of)
        self._gather_key = key
        self._gather = gather
        return gather


@dataclass(frozen=True)
class _SegmentGather:
    """Grids grouped by shared segment window (see ``_segment_gather``).

    Attributes:
        samples: ``(G, S)`` capture sample indices of the G distinct
            windows, each ``S = 2 * safeguard + 1`` samples long.
        window_of: ``(K,)`` index of each grid's window in ``samples``.
    """

    samples: np.ndarray
    window_of: np.ndarray


def _grid_energies(
    analytic: np.ndarray, weights: np.ndarray, gather: _SegmentGather
) -> np.ndarray:
    """Range-gated beamformed energies per beep and grid, ``(L, K)``.

    Grid k's energy is the beamformed segment energy
    ``sum_s |w_k^H x_s|^2`` over its window g, computed as the quadratic
    form ``Re(w_k^H R_g w_k)`` of the window's ``M x M`` covariance
    ``R_g = X_g X_g^H``: one small covariance per distinct window
    instead of a ``(K, S)`` beamformed-segment tensor per beep.

    ``analytic`` is ``(L, M, N)`` and ``weights`` ``(L, K, M)``.  The
    beeps are processed one at a time, so a batched call is bitwise
    equal to L one-beep calls (the contract that keeps
    :meth:`AcousticImager.image_batch` equal to
    :meth:`AcousticImager.images`) and each beep's ``(K, M, M)``
    temporaries stay cache-sized; vectorising over L measured slower.
    """
    energies = np.empty(weights.shape[:2])
    for beep, beep_weights in enumerate(weights):
        windows = np.moveaxis(analytic[beep][:, gather.samples], 0, 1)
        covariance = windows @ windows.conj().swapaxes(-1, -2)  # (G, M, M)
        # R_g w_k per grid, then Re(w_k^H (R_g w_k)) as a real dot product.
        projected = covariance[gather.window_of] @ beep_weights[..., None]
        energies[beep] = np.einsum(
            "kf,kf->k", projected[..., 0].view(float), beep_weights.view(float)
        )
    return energies


def _dynamic_range_db(pixels: np.ndarray) -> float:
    """Brightest pixel over the median floor, in dB."""
    floor = float(np.median(pixels)) + 1e-30
    return float(20.0 * np.log10(float(pixels.max()) / floor + 1e-30))
