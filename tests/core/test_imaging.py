"""Tests for the acoustic imager (Section V-C)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acoustics.reflectors import ReflectorCloud
from repro.config import ImagingConfig
from repro.core.imaging import AcousticImager, ImagingPlane


class TestImagingPlane:
    def test_grid_count(self):
        plane = ImagingPlane(distance_m=0.7, resolution=10)
        assert plane.num_grids == 100
        xs, zs = plane.grid_coordinates()
        assert xs.shape == (100,)

    def test_grid_coordinates_span_plane(self):
        plane = ImagingPlane(distance_m=0.7, side_m=1.8, resolution=18)
        xs, zs = plane.grid_coordinates()
        assert xs.min() == pytest.approx(-0.9 + 0.05)
        assert xs.max() == pytest.approx(0.9 - 0.05)
        assert zs.max() == pytest.approx(0.9 - 0.05)

    def test_rows_are_top_down(self):
        plane = ImagingPlane(distance_m=0.7, resolution=4)
        _, zs = plane.grid_coordinates()
        grid = zs.reshape(4, 4)
        assert np.all(grid[0] > grid[-1])

    def test_angles_match_paper_equations(self):
        plane = ImagingPlane(distance_m=0.7, resolution=6)
        xs, zs = plane.grid_coordinates()
        theta, phi = plane.grid_angles()
        d_p = 0.7
        expected_theta = np.arccos(xs / np.sqrt(xs**2 + d_p**2))
        expected_phi = np.arccos(
            zs / np.sqrt(xs**2 + d_p**2 + zs**2)
        )
        assert np.allclose(theta, expected_theta)
        assert np.allclose(phi, expected_phi)

    def test_center_grid_faces_forward(self):
        plane = ImagingPlane(distance_m=0.7, resolution=3)
        theta, phi = plane.grid_angles()
        center = 4  # middle of a 3x3 grid
        assert theta[center] == pytest.approx(np.pi / 2)
        assert phi[center] == pytest.approx(np.pi / 2)

    def test_ranges(self):
        plane = ImagingPlane(distance_m=1.0, resolution=3)
        ranges = plane.grid_ranges()
        assert np.all(ranges >= 1.0 - 1e-12)

    def test_from_config(self):
        config = ImagingConfig(plane_side_m=2.0, grid_resolution=10)
        plane = ImagingPlane.from_config(0.9, config)
        assert plane.side_m == 2.0
        assert plane.resolution == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            ImagingPlane(distance_m=0.0)
        with pytest.raises(ValueError):
            ImagingPlane(distance_m=1.0, resolution=1)

    @given(
        st.floats(min_value=0.3, max_value=2.0),
        st.integers(min_value=2, max_value=30),
    )
    @settings(max_examples=30, deadline=None)
    def test_ranges_bounded_by_geometry(self, distance, resolution):
        plane = ImagingPlane(distance_m=distance, resolution=resolution)
        ranges = plane.grid_ranges()
        max_range = np.sqrt(distance**2 + 2 * (plane.side_m / 2) ** 2)
        assert np.all(ranges <= max_range + 1e-9)


class TestAcousticImager:
    def _image_of_point(self, array, scene, chirp, rng, position, res=24):
        body = ReflectorCloud(
            positions=np.array([position]), reflectivities=np.array([3.0])
        )
        rec = scene.record_beep(chirp, body, rng)
        plane = ImagingPlane(
            distance_m=float(position[1]), side_m=1.8, resolution=res
        )
        imager = AcousticImager(array)
        return imager.image(rec, plane), plane

    def test_image_shape_and_nonnegativity(
        self, array, silent_scene, chirp, rng
    ):
        image, _ = self._image_of_point(
            array, silent_scene, chirp, rng, [0.0, 0.7, 0.0]
        )
        assert image.shape == (24, 24)
        assert np.all(image >= 0)

    def test_bright_spot_follows_reflector_side(
        self, array, silent_scene, chirp, rng
    ):
        left, plane = self._image_of_point(
            array, silent_scene, chirp, rng, [-0.5, 0.7, 0.0]
        )
        right, _ = self._image_of_point(
            array, silent_scene, chirp, rng, [0.5, 0.7, 0.0]
        )
        # Column of the peak should move with the reflector.
        col_left = int(np.unravel_index(np.argmax(left), left.shape)[1])
        col_right = int(np.unravel_index(np.argmax(right), right.shape)[1])
        assert col_left < plane.resolution / 2 < col_right

    def test_range_gating_dims_wrong_distance(
        self, array, silent_scene, chirp, rng
    ):
        body = ReflectorCloud(
            positions=np.array([[0.0, 0.7, 0.0]]),
            reflectivities=np.array([3.0]),
        )
        rec = silent_scene.record_beep(chirp, body, rng)
        imager = AcousticImager(array)
        right_plane = ImagingPlane(distance_m=0.7, resolution=16)
        wrong_plane = ImagingPlane(distance_m=1.6, resolution=16)
        on = imager.image(rec, right_plane)
        off = imager.image(rec, wrong_plane)
        assert on.max() > 3 * off.max()

    def test_images_batch(self, array, silent_scene, chirp, rng):
        body = ReflectorCloud(
            positions=np.array([[0.0, 0.7, 0.0]]),
            reflectivities=np.array([1.0]),
        )
        recs = silent_scene.record_beeps(chirp, [body, body], rng)
        plane = ImagingPlane(distance_m=0.7, resolution=12)
        images = AcousticImager(array).images(recs, plane)
        assert len(images) == 2

    def test_subject_images_distinguish_users(
        self, array, quiet_scene, chirp, subject, other_subject
    ):
        rng = np.random.default_rng(0)
        imager = AcousticImager(array)
        plane = ImagingPlane(distance_m=0.62, resolution=32)

        def image_of(subj, seed):
            r = np.random.default_rng(seed)
            cloud = subj.beep_clouds(0.7, 1, r)[0]
            rec = quiet_scene.record_beep(chirp, cloud, r)
            return imager.image(rec, plane)

        a1 = image_of(subject, 1)
        a2 = image_of(subject, 2)
        b1 = image_of(other_subject, 3)

        def corr(u, v):
            u = u.ravel() - u.mean()
            v = v.ravel() - v.mean()
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

        assert corr(a1, a2) > corr(a1, b1)


class TestSteeringCache:
    """The steering-geometry cache must never change the images."""

    def _recordings(self, scene, chirp, rng, num_beeps=3):
        body = ReflectorCloud(
            positions=np.array([[0.1, 0.7, -0.2]]),
            reflectivities=np.array([2.0]),
        )
        return scene.record_beeps(chirp, [body] * num_beeps, rng)

    def test_cached_images_bit_identical(
        self, array, silent_scene, chirp, rng
    ):
        recs = self._recordings(silent_scene, chirp, rng)
        plane = ImagingPlane(distance_m=0.7, resolution=16)
        config = ImagingConfig(grid_resolution=16, subbands=2)
        cached = AcousticImager(array, config=config).images(recs, plane)
        uncached = AcousticImager(
            array, config=config, steering_cache=False
        ).images(recs, plane)
        for a, b in zip(cached, uncached):
            np.testing.assert_array_equal(a, b)

    def test_cache_reused_across_beeps_and_reset_on_new_plane(
        self, array, silent_scene, chirp, rng
    ):
        recs = self._recordings(silent_scene, chirp, rng)
        imager = AcousticImager(array)
        plane = ImagingPlane(distance_m=0.7, resolution=12)
        imager.images(recs, plane)
        assert imager._steering_plane == plane
        first = {k: v for k, v in imager._steering_by_band.items()}
        imager.image(recs[0], plane)
        # Same plane: the very same steering arrays are reused.
        assert all(
            imager._steering_by_band[k] is v for k, v in first.items()
        )
        other = ImagingPlane(distance_m=1.1, resolution=12)
        imager.image(recs[0], other)
        assert imager._steering_plane == other
        assert all(
            imager._steering_by_band[k] is not v for k, v in first.items()
        )

    def test_equal_plane_instances_share_cache(
        self, array, silent_scene, chirp, rng
    ):
        recs = self._recordings(silent_scene, chirp, rng, num_beeps=1)
        imager = AcousticImager(array)
        imager.image(recs[0], ImagingPlane(distance_m=0.7, resolution=12))
        first = dict(imager._steering_by_band)
        # A distinct but equal frozen plane must not invalidate the cache.
        imager.image(recs[0], ImagingPlane(distance_m=0.7, resolution=12))
        assert all(
            imager._steering_by_band[k] is v for k, v in first.items()
        )

    def test_geometry_memo_is_per_instance_and_read_only(self):
        plane = ImagingPlane(distance_m=0.7, resolution=8)
        theta_a, _ = plane.grid_angles()
        theta_b, _ = plane.grid_angles()
        assert theta_a is theta_b
        with pytest.raises(ValueError):
            theta_a[0] = 0.0


def _segment_starts(plane, recording, config, speed_of_sound=343.0):
    """Each grid's clamped window start, from the plane geometry alone."""
    fs = recording.sample_rate
    delays = 2.0 * plane.grid_ranges() / speed_of_sound
    centers = recording.emit_index + np.round(delays * fs).astype(int)
    half = max(1, round(config.safeguard_s * fs))
    length = 2 * half + 1
    starts = np.clip(centers - half, 0, recording.num_samples - 1)
    return np.minimum(starts, recording.num_samples - length), length


def _explicit_energies(analytic, weights, starts, length):
    """Gather ``(K, M, S)`` segments, beamform, then sum ``|.|^2``."""
    segments = np.stack(
        [analytic[:, start : start + length] for start in starts]
    )  # (K, M, S)
    beamformed = np.einsum("km,kms->ks", weights.conj(), segments)
    return np.sum(np.abs(beamformed) ** 2, axis=-1)


class TestRangeGatingKernel:
    """The windowed-covariance kernel against explicit segment energies."""

    # Near: the default plane.  Far: corners whose round trip runs past
    # the 50 ms capture, so their windows clamp at the capture edge.
    PLANES = {
        "near": dict(distance_m=0.7, side_m=1.8, resolution=12),
        "clamped": dict(distance_m=7.5, side_m=6.0, resolution=12),
    }

    @pytest.fixture
    def attempt(self, quiet_scene, chirp, subject, rng):
        return quiet_scene.record_beeps(
            chirp, subject.beep_clouds(0.7, 3, rng), rng
        )

    @pytest.mark.parametrize("plane_name", sorted(PLANES))
    @pytest.mark.parametrize("subbands", [1, 3])
    def test_pixels_match_explicit_reference(
        self, array, attempt, plane_name, subbands
    ):
        from repro.array.beamforming import MVDRBeamformer
        from repro.array.covariance import estimate_noise_covariance
        from repro.signal.analytic import analytic_signal

        config = ImagingConfig(subbands=subbands)
        imager = AcousticImager(array, config=config)
        plane = ImagingPlane(**self.PLANES[plane_name])
        starts, length = _segment_starts(plane, attempt[0], config)
        if plane_name == "clamped":
            assert np.any(starts == attempt[0].num_samples - length)
        theta, phi = plane.grid_angles()
        images = imager.images(attempt, plane)
        for recording, image in zip(attempt, images):
            energies = []
            for band, bandpass in enumerate(imager._bandpasses):
                analytic = analytic_signal(bandpass.apply(recording.samples))
                beamformer = MVDRBeamformer(
                    array=array,
                    frequency_hz=float(
                        imager._subband_edges[band]
                        + imager._subband_edges[band + 1]
                    )
                    / 2.0,
                    noise_covariance=estimate_noise_covariance(
                        analytic, noise_samples=recording.emit_index
                    ),
                    loading=config.diagonal_loading,
                )
                energies.append(
                    _explicit_energies(
                        analytic,
                        beamformer.weights_batch(theta, phi),
                        starts,
                        length,
                    )
                )
            expected = np.sqrt(np.mean(energies, axis=0))
            np.testing.assert_allclose(
                image.ravel(), expected, rtol=1e-12, atol=0.0
            )

    @pytest.mark.parametrize("plane_name", sorted(PLANES))
    def test_kernel_matches_explicit_on_random_input(self, array, plane_name):
        from repro.acoustics.scene import BeepRecording
        from repro.core.imaging import _grid_energies

        rng = np.random.default_rng(13)
        num_beeps, num_mics, num_samples = 3, array.num_mics, 2_400
        recording = BeepRecording(
            samples=np.zeros((num_mics, num_samples)),
            sample_rate=48_000,
            emit_index=240,
        )
        imager = AcousticImager(array)
        plane = ImagingPlane(**self.PLANES[plane_name])
        gather = imager._segment_gather(plane, recording)
        shape = (num_beeps, num_mics, num_samples)
        analytic = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        shape = (num_beeps, plane.num_grids, num_mics)
        weights = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        starts, length = _segment_starts(plane, recording, imager.config)
        energies = _grid_energies(analytic, weights, gather)
        for beep in range(num_beeps):
            np.testing.assert_allclose(
                energies[beep],
                _explicit_energies(
                    analytic[beep], weights[beep], starts, length
                ),
                rtol=1e-12,
                atol=0.0,
            )

    @pytest.mark.parametrize("plane_name", sorted(PLANES))
    @pytest.mark.parametrize("subbands", [1, 3])
    def test_batched_call_bitwise_equals_single_beep_calls(
        self, array, attempt, plane_name, subbands
    ):
        from repro.core.frontend import AttemptSignals
        from repro.core.imaging import _grid_energies

        imager = AcousticImager(array, config=ImagingConfig(subbands=subbands))
        plane = ImagingPlane(**self.PLANES[plane_name])
        signals = AttemptSignals(attempt)
        gather = imager._segment_gather(plane, attempt[0])
        theta, phi = plane.grid_angles()
        for band, bandpass in enumerate(imager._bandpasses):
            analytic = signals.analytic(bandpass)
            weights = np.stack(
                [
                    imager._band_weights(
                        signals.noise_covariance(bandpass, beep),
                        plane,
                        2_500.0,
                        band,
                    )[0]
                    for beep in range(len(attempt))
                ]
            )
            batched = _grid_energies(analytic, weights, gather)
            for beep in range(len(attempt)):
                single = _grid_energies(
                    analytic[beep][None], weights[beep][None], gather
                )
                assert np.array_equal(batched[beep], single[0])
        assert np.array_equal(
            np.stack(imager.image_batch(attempt, plane)),
            np.stack(imager.images(attempt, plane)),
        )
