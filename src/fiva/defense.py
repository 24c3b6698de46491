"""Defenses that disrupt reconstruction attacks on anonymized outputs.

Three families: seeded uniform noise on a fixed fraction of pixel
locations, Gaussian noise on a flat parameter vector, and a single
fixed-sign gradient step that ascends an attacker's loss. Images are
(H, W, C) float arrays with C in {1, 3} and values in [0, 1]; every
operation returns values clamped back into that range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NonFinite, ShapeMismatch
from .util import spawn_seed

__all__ = [
    "GradientOracle",
    "NoiseSpec",
    "uniform_pixel_noise",
    "fraction_sweep",
    "parameter_noise",
    "fgsm_defense",
    "toy_oracle",
]

# Maps an image to (loss, gradient-of-loss-w.r.t.-image).
GradientOracle = Callable[[np.ndarray], tuple[float, np.ndarray]]


def _check_epsilon(epsilon: float) -> float:
    """``epsilon``, once it is a finite amplitude >= 0."""
    if not math.isfinite(epsilon) or epsilon < 0.0:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    return epsilon


@dataclass(frozen=True)
class NoiseSpec:
    """Uniform pixel-noise parameters: amplitude, coverage, and seed."""

    epsilon: float
    fraction: float
    seed: int

    def __post_init__(self) -> None:
        _check_epsilon(self.epsilon)
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _check_image(image: np.ndarray) -> np.ndarray:
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] not in (1, 3):
        raise ShapeMismatch(
            f"image must be (H, W, C) with C in {{1, 3}}, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise NonFinite("image contains non-finite values")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError("image values must lie in [0, 1]")
    return arr


def uniform_pixel_noise(image: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """Add uniform noise to exactly floor(fraction * H * W) pixel locations.

    Locations are drawn without replacement from the seeded generator;
    each channel of a selected location gets an independent draw from
    U(-epsilon, +epsilon). Selected values are clamped to [0, 1];
    unselected locations come back bit-identical to the input.
    """
    img = _check_image(image)
    height, width, channels = img.shape
    pixel_count = height * width
    count = math.floor(spec.fraction * pixel_count)
    out = img.copy()
    if count == 0 or spec.epsilon == 0.0:
        return out
    rng = np.random.default_rng(spec.seed)
    locations = rng.choice(pixel_count, size=count, replace=False)
    deltas = rng.uniform(-spec.epsilon, spec.epsilon, size=(count, channels))
    flat = out.reshape(pixel_count, channels)
    flat[locations] = np.clip(flat[locations] + deltas, 0.0, 1.0)
    return out


def fraction_sweep(
    image: np.ndarray,
    epsilon: float,
    fractions: Sequence[float],
    seed: int,
) -> list[tuple[float, np.ndarray]]:
    """Noise the image once per fraction, each with an independent sub-seed.

    Returns (fraction, noised image) pairs in input order. The outputs are
    meant to be scored externally; nothing here ranks them.
    """
    fractions = list(fractions)
    if not fractions:
        raise ValueError("fraction sweep needs at least one fraction")
    results = []
    for index, fraction in enumerate(fractions):
        spec = NoiseSpec(epsilon, fraction, spawn_seed(seed, index))
        results.append((fraction, uniform_pixel_noise(image, spec)))
    return results


def parameter_noise(params: np.ndarray, epsilon: float, seed: int) -> np.ndarray:
    """Add N(0, epsilon^2) noise to a flat parameter vector.

    Raises:
        NonFinite: if the input contains NaN or infinities.
    """
    arr = np.asarray(params, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeMismatch(f"parameter vector must be 1-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFinite("parameter vector contains non-finite values")
    if _check_epsilon(epsilon) == 0.0:
        return arr.copy()
    rng = np.random.default_rng(seed)
    return arr + rng.normal(0.0, epsilon, size=arr.size)


def fgsm_defense(
    image: np.ndarray, oracle: GradientOracle, epsilon: float
) -> np.ndarray:
    """One fixed-magnitude step up the attacker's loss surface.

    Computes clamp(image + epsilon * sign(gradient), 0, 1), where the
    gradient comes from ``oracle`` and sign(0) is 0. Raising the
    attacker's loss degrades whatever the attacker reconstructs while
    moving no value by more than epsilon.
    """
    img = _check_image(image)
    if _check_epsilon(epsilon) == 0.0:
        return img.copy()
    _, gradient = oracle(img)
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.shape != img.shape:
        raise ShapeMismatch(
            f"oracle gradient shape {gradient.shape} != image shape {img.shape}"
        )
    return np.clip(img + epsilon * np.sign(gradient), 0.0, 1.0)


def toy_oracle(center: np.ndarray) -> GradientOracle:
    """A stand-in attacker objective for verification: L(x) = sum((x - c)^2).

    The returned oracle reports the loss and its exact gradient 2 (x - c),
    so gradient handling can be checked against finite differences without
    a real reconstruction model.
    """
    target = _check_image(center)

    def oracle(image: np.ndarray) -> tuple[float, np.ndarray]:
        arr = np.asarray(image, dtype=np.float64)
        if arr.shape != target.shape:
            raise ShapeMismatch(
                f"image shape {arr.shape} != oracle center shape {target.shape}"
            )
        diff = arr - target
        return float((diff * diff).sum()), 2.0 * diff

    return oracle
