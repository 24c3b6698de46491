import numpy as np
import pytest

from fiva import (
    NoiseSpec,
    NonFinite,
    ShapeMismatch,
    fgsm_defense,
    fraction_sweep,
    parameter_noise,
    toy_oracle,
    uniform_pixel_noise,
)


def central_difference(loss, x, h=1e-4):
    """Oracle: numeric gradient of a scalar loss, one coordinate at a time."""
    base = np.array(x, dtype=np.float64)
    grad = np.zeros_like(base)
    flat = grad.reshape(-1)
    for i in range(base.size):
        bumped = base.reshape(-1).copy()
        bumped[i] += h
        up = loss(bumped.reshape(base.shape))
        bumped[i] -= 2 * h
        down = loss(bumped.reshape(base.shape))
        flat[i] = (up - down) / (2 * h)
    return grad


class TestUniformPixelNoise:
    def test_exact_location_count(self, rng):
        image = rng.uniform(size=(10, 10, 3))
        spec = NoiseSpec(epsilon=0.15, fraction=0.5, seed=7)
        noised = uniform_pixel_noise(image, spec)
        changed = np.any(noised != image, axis=2).sum()
        assert changed == 50

    def test_floor_counts_across_fractions(self, rng):
        image = rng.uniform(0.3, 0.7, size=(10, 10, 3))
        for fraction, expected in ((0.1, 10), (0.47, 47), (0.99, 99), (1.0, 100)):
            spec = NoiseSpec(epsilon=0.15, fraction=fraction, seed=3)
            noised = uniform_pixel_noise(image, spec)
            changed = np.any(noised != image, axis=2).sum()
            # interior pixels plus a wide amplitude make a zero draw implausible
            assert changed == expected

    def test_unselected_pixels_bit_identical(self, rng):
        image = rng.uniform(size=(16, 16, 3))
        spec = NoiseSpec(epsilon=0.2, fraction=0.25, seed=11)
        noised = uniform_pixel_noise(image, spec)
        unchanged = np.all(noised == image, axis=2)
        assert unchanged.sum() == 16 * 16 - 64
        assert noised[unchanged].tobytes() == image[unchanged].tobytes()

    def test_deltas_bounded_before_clamp(self, rng):
        # interior values never hit the clamp, so deltas are the raw draws
        image = rng.uniform(0.3, 0.7, size=(12, 12, 3))
        spec = NoiseSpec(epsilon=0.1, fraction=1.0, seed=5)
        noised = uniform_pixel_noise(image, spec)
        assert np.abs(noised - image).max() <= 0.1

    def test_output_clamped(self, rng):
        image = np.zeros((8, 8, 3))
        image[:4] = 1.0
        spec = NoiseSpec(epsilon=0.5, fraction=1.0, seed=2)
        noised = uniform_pixel_noise(image, spec)
        assert noised.min() >= 0.0
        assert noised.max() <= 1.0

    def test_seed_determinism(self, rng):
        image = rng.uniform(size=(10, 10, 3))
        spec = NoiseSpec(epsilon=0.15, fraction=0.47, seed=123)
        a = uniform_pixel_noise(image, spec)
        b = uniform_pixel_noise(image, spec)
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self, rng):
        image = rng.uniform(size=(10, 10, 3))
        a = uniform_pixel_noise(image, NoiseSpec(0.15, 0.47, seed=1))
        b = uniform_pixel_noise(image, NoiseSpec(0.15, 0.47, seed=2))
        assert a.tobytes() != b.tobytes()

    def test_zero_epsilon_is_copy(self, rng):
        image = rng.uniform(size=(6, 6, 3))
        out = uniform_pixel_noise(image, NoiseSpec(0.0, 0.5, seed=1))
        assert out.tobytes() == image.tobytes()
        assert out is not image

    def test_tiny_fraction_floors_to_zero(self, rng):
        image = rng.uniform(size=(10, 10, 3))
        out = uniform_pixel_noise(image, NoiseSpec(0.15, 0.005, seed=1))
        assert out.tobytes() == image.tobytes()

    def test_input_not_mutated(self, rng):
        image = rng.uniform(size=(8, 8, 3))
        before = image.tobytes()
        uniform_pixel_noise(image, NoiseSpec(0.3, 1.0, seed=4))
        assert image.tobytes() == before

    def test_grayscale_image(self, rng):
        image = rng.uniform(size=(10, 10, 1))
        spec = NoiseSpec(epsilon=0.15, fraction=0.47, seed=9)
        noised = uniform_pixel_noise(image, spec)
        changed = np.any(noised != image, axis=2).sum()
        assert changed == 47

    def test_bad_shapes_and_specs(self):
        with pytest.raises(ShapeMismatch):
            uniform_pixel_noise(np.zeros((10, 10)), NoiseSpec(0.1, 0.5, seed=0))
        with pytest.raises(ValueError):
            NoiseSpec(epsilon=-0.1, fraction=0.5, seed=0)
        with pytest.raises(ValueError):
            NoiseSpec(epsilon=0.1, fraction=1.5, seed=0)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            NoiseSpec(epsilon=0.1, fraction=0.5, seed=-1)
        with pytest.raises(NonFinite):
            uniform_pixel_noise(np.full((4, 4, 3), np.nan), NoiseSpec(0.1, 0.5, seed=0))

    def test_out_of_range_image_rejected(self):
        with pytest.raises(ValueError):
            uniform_pixel_noise(np.full((4, 4, 3), 1.5), NoiseSpec(0.1, 0.5, seed=0))


class TestFractionSweep:
    def test_counts_follow_floor(self, rng):
        image = rng.uniform(0.3, 0.7, size=(10, 10, 3))
        outputs = fraction_sweep(image, epsilon=0.15, fractions=[0.1, 0.47], seed=9)
        assert [f for f, _ in outputs] == [0.1, 0.47]
        for (_, noised), expected in zip(outputs, (10, 47)):
            changed = np.any(noised != image, axis=2).sum()
            assert changed == expected

    def test_sweep_deterministic(self, rng):
        image = rng.uniform(size=(10, 10, 3))
        a = fraction_sweep(image, 0.15, [0.2, 0.5, 0.8], seed=21)
        b = fraction_sweep(image, 0.15, [0.2, 0.5, 0.8], seed=21)
        for (_, x), (_, y) in zip(a, b):
            assert x.tobytes() == y.tobytes()

    def test_entries_use_independent_streams(self, rng):
        # the same fraction twice must still draw different locations
        image = rng.uniform(0.3, 0.7, size=(10, 10, 3))
        (_, a), (_, b) = fraction_sweep(image, 0.15, [0.3, 0.3], seed=21)
        assert a.tobytes() != b.tobytes()

    def test_empty_fractions_rejected(self, rng):
        image = rng.uniform(size=(4, 4, 3))
        with pytest.raises(ValueError):
            fraction_sweep(image, 0.15, [], seed=0)


class TestParameterNoise:
    def test_moment_match(self):
        params = np.zeros(100000)
        noised = parameter_noise(params, epsilon=0.1, seed=42)
        noise = noised - params
        assert abs(noise.mean()) <= 0.002
        assert abs(noise.std() - 0.1) <= 0.002

    def test_zero_epsilon_copy(self, rng):
        params = rng.normal(size=256)
        out = parameter_noise(params, epsilon=0.0, seed=0)
        assert out.tobytes() == params.tobytes()
        assert out is not params

    def test_seed_determinism(self, rng):
        params = rng.normal(size=512)
        a = parameter_noise(params, 0.05, seed=7)
        b = parameter_noise(params, 0.05, seed=7)
        assert a.tobytes() == b.tobytes()

    def test_rejects_non_finite(self):
        params = np.array([1.0, np.nan, 2.0])
        with pytest.raises(NonFinite):
            parameter_noise(params, 0.1, seed=0)

    def test_rejects_non_1d(self):
        with pytest.raises(ShapeMismatch):
            parameter_noise(np.zeros((4, 4)), 0.1, seed=0)

    def test_negative_epsilon(self):
        with pytest.raises(ValueError):
            parameter_noise(np.zeros(8), -0.1, seed=0)


class TestToyOracle:
    def test_loss_is_squared_distance(self, rng):
        center = rng.uniform(size=(4, 4, 3))
        oracle = toy_oracle(center)
        x = rng.uniform(size=(4, 4, 3))
        loss, _ = oracle(x)
        expected = float(((x - center) ** 2).sum())
        assert abs(loss - expected) <= 1e-12
        assert oracle(center)[0] == 0.0

    def test_gradient_matches_central_difference(self, rng):
        center = rng.uniform(0.2, 0.8, size=(5, 5, 3))
        oracle = toy_oracle(center)
        x = rng.uniform(0.2, 0.8, size=(5, 5, 3))
        _, analytic = oracle(x)
        numeric = central_difference(lambda arr: oracle(arr)[0], x, h=1e-4)
        # skip coordinates where the true derivative is too small for a
        # relative comparison to mean anything
        mask = np.abs(analytic) > 1e-3
        assert mask.sum() >= 30
        rel = np.abs(analytic - numeric) / np.abs(numeric)
        assert rel[mask].max() <= 1e-4

    def test_gradient_sign_points_away_from_center(self, rng):
        center = np.full((2, 2, 1), 0.5)
        oracle = toy_oracle(center)
        x = np.array([[[0.9], [0.1]], [[0.5], [0.6]]])
        _, grad = oracle(x)
        assert np.array_equal(np.sign(grad), np.sign(x - center))

    def test_shape_guard(self):
        oracle = toy_oracle(np.zeros((3, 3, 3)))
        with pytest.raises(ShapeMismatch):
            oracle(np.zeros((2, 2, 3)))


class TestFgsm:
    def test_analytic_example(self):
        # oracle by hand: x + eps * sign(grad), then clamp to [0, 1]
        image = np.array([[[0.5], [0.98]], [[0.02], [0.4]]])
        grad = np.array([[[1.7], [3.0]], [[-2.0], [0.0]]])
        out = fgsm_defense(image, lambda x: (0.0, grad), epsilon=0.1)
        expected = np.array([[[0.6], [1.0]], [[0.0], [0.4]]])
        assert np.array_equal(out, expected)

    def test_sign_zero_leaves_pixel(self):
        image = np.full((2, 2, 1), 0.5)
        out = fgsm_defense(image, lambda x: (0.0, np.zeros((2, 2, 1))), epsilon=0.3)
        assert out.tobytes() == image.tobytes()

    def test_linf_bound(self, rng):
        image = rng.uniform(size=(8, 8, 3))
        oracle = toy_oracle(rng.uniform(size=(8, 8, 3)))
        for eps in (0.01, 0.1, 0.3):
            out = fgsm_defense(image, oracle, epsilon=eps)
            assert np.abs(out - image).max() <= eps + 1e-15
            assert out.min() >= 0.0
            assert out.max() <= 1.0

    def test_moves_toward_higher_loss(self, rng):
        center = rng.uniform(0.3, 0.7, size=(6, 6, 3))
        oracle = toy_oracle(center)
        x = rng.uniform(0.3, 0.7, size=(6, 6, 3))
        out = fgsm_defense(x, oracle, epsilon=0.05)
        assert oracle(out)[0] > oracle(x)[0]

    def test_zero_epsilon_copy(self, rng):
        image = rng.uniform(size=(4, 4, 3))
        out = fgsm_defense(image, toy_oracle(image), epsilon=0.0)
        assert out.tobytes() == image.tobytes()
        assert out is not image

    def test_gradient_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            fgsm_defense(
                np.zeros((4, 4, 3)), lambda x: (0.0, np.zeros((4, 4, 1))), epsilon=0.1
            )

    def test_negative_epsilon(self):
        with pytest.raises(ValueError):
            fgsm_defense(np.zeros((2, 2, 1)), toy_oracle(np.zeros((2, 2, 1))), epsilon=-0.1)


def test_fgsm_step_agrees_with_numeric_gradient(rng):
    # end to end: the numeric gradient's signs reproduce the analytic step
    center = rng.uniform(0.3, 0.7, size=(4, 4, 1))
    oracle = toy_oracle(center)
    x = rng.uniform(0.3, 0.7, size=(4, 4, 1))
    numeric = central_difference(lambda arr: oracle(arr)[0], x, h=1e-4)
    out_analytic = fgsm_defense(x, oracle, epsilon=0.02)
    out_numeric = fgsm_defense(x, lambda arr: (0.0, numeric), epsilon=0.02)
    assert np.allclose(out_analytic, out_numeric, atol=1e-12)
    assert abs(float(np.abs(out_analytic - x).max()) - 0.02) <= 1e-12
