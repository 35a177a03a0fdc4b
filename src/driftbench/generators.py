"""Synthetic concept samplers and CSV-backed concept pairs.

Each sampler draws i.i.d. feature vectors for one concept; pairs of
samplers feed the drift/permuted window construction.  For labeled
concepts the class label is appended as an extra feature coordinate, so
label drift becomes distributional drift.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .seeding import as_generator
from .windows import window_from_csv

SEA_THRESHOLDS = (8.0, 9.0, 7.0, 9.5)


@dataclass(frozen=True)
class SeaConcept:
    """Three uniform features on [0, 10]; label = 1 when f1 + f2 <= threshold."""

    variant: int
    labeled = True

    def __post_init__(self):
        if self.variant not in range(len(SEA_THRESHOLDS)):
            raise ParameterError(f"SEA variant must be one of 0..{len(SEA_THRESHOLDS) - 1}")

    def draw(self, n: int, rng) -> np.ndarray:
        rng = as_generator(rng)
        feats = rng.uniform(0.0, 10.0, size=(n, 3))
        label = (feats[:, 0] + feats[:, 1] <= SEA_THRESHOLDS[self.variant]).astype(float)
        return np.column_stack([feats, label])


def sea_pair(variant_before: int = 0, variant_after: int = 3) -> tuple[SeaConcept, SeaConcept]:
    if variant_before == variant_after:
        warnings.warn("identical SEA variants: the pair carries no drift", stacklevel=2)
    return SeaConcept(variant_before), SeaConcept(variant_after)


# size, color, shape, three values each; one-hot encoded, label appended.
STAGGER_RULES = {
    1: lambda size, color, shape: (size == 0) & (color == 0),
    2: lambda size, color, shape: (color == 1) | (shape == 0),
    3: lambda size, color, shape: (size == 1) | (size == 2),
}


@dataclass(frozen=True)
class StaggerConcept:
    """Three uniform categorical attributes, one-hot, plus a rule label."""

    concept: int
    labeled = True

    def __post_init__(self):
        if self.concept not in STAGGER_RULES:
            raise ParameterError("stagger concept must be 1, 2 or 3")

    def draw(self, n: int, rng) -> np.ndarray:
        rng = as_generator(rng)
        attrs = rng.integers(0, 3, size=(n, 3))
        onehot = np.zeros((n, 9))
        for j in range(3):
            onehot[np.arange(n), 3 * j + attrs[:, j]] = 1.0
        label = STAGGER_RULES[self.concept](attrs[:, 0], attrs[:, 1], attrs[:, 2]).astype(float)
        return np.column_stack([onehot, label])


def stagger_pair(concept_before: int = 1, concept_after: int = 2) -> tuple[StaggerConcept, StaggerConcept]:
    if concept_before == concept_after:
        warnings.warn("identical stagger concepts: the pair carries no drift", stacklevel=2)
    return StaggerConcept(concept_before), StaggerConcept(concept_after)


@dataclass(frozen=True)
class RbfConcept:
    """Gaussian mixture with fixed centroids, weights and scales."""

    centroids: np.ndarray
    weights: np.ndarray
    scales: np.ndarray
    labeled = False

    def draw(self, n: int, rng) -> np.ndarray:
        rng = as_generator(rng)
        comp = rng.choice(len(self.weights), size=n, p=self.weights)
        return self.centroids[comp] + self.scales[comp, None] * rng.standard_normal((n, self.centroids.shape[1]))


def rbf_pair(d: int = 2, n_centroids: int = 5, seed=0) -> tuple[RbfConcept, RbfConcept]:
    """Random-RBF pair: the after-concept redraws the centroid locations."""
    if d < 1 or n_centroids < 1:
        raise ParameterError("d and n_centroids must be >= 1")
    rng = as_generator(seed)
    weights = rng.uniform(0.1, 1.0, size=n_centroids)
    weights /= weights.sum()
    scales = rng.uniform(0.05, 0.15, size=n_centroids)
    before = rng.uniform(0.0, 1.0, size=(n_centroids, d))
    after = rng.uniform(0.0, 1.0, size=(n_centroids, d))
    return (
        RbfConcept(before, weights, scales),
        RbfConcept(after, weights, scales),
    )


@dataclass(frozen=True)
class HyperplaneConcept:
    """Uniform features on [0,1]^d; label = 1 on one side of a hyperplane."""

    normal: np.ndarray
    labeled = True

    def draw(self, n: int, rng) -> np.ndarray:
        rng = as_generator(rng)
        feats = rng.uniform(0.0, 1.0, size=(n, len(self.normal)))
        # threshold at the plane through the cube center keeps classes balanced
        label = (feats @ self.normal >= 0.5 * self.normal.sum()).astype(float)
        return np.column_stack([feats, label])


def rhp_pair(d: int = 2, rotation_angle: float = np.pi / 2, seed=0) -> tuple[HyperplaneConcept, HyperplaneConcept]:
    """Rotating-hyperplane pair: the label boundary rotates, marginals stay put."""
    if d < 2:
        raise ParameterError("rotating hyperplane needs d >= 2")
    rng = as_generator(seed)
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    # orthonormal partner spanning a random rotation plane containing w
    u = rng.standard_normal(d)
    u -= (u @ w) * w
    norm = np.linalg.norm(u)
    if norm < 1e-12:
        u = np.zeros(d)
        u[int(np.argmin(np.abs(w)))] = 1.0
        u -= (u @ w) * w
        norm = np.linalg.norm(u)
    u /= norm
    w_after = np.cos(rotation_angle) * w + np.sin(rotation_angle) * u
    return HyperplaneConcept(w), HyperplaneConcept(w_after)


@dataclass(frozen=True)
class ResampleConcept:
    """Draws uniformly with replacement from a fixed row pool."""

    rows: np.ndarray
    labeled: bool = False

    def draw(self, n: int, rng) -> np.ndarray:
        rng = as_generator(rng)
        return self.rows[rng.integers(0, len(self.rows), size=n)]


def csv_concept_pair(path: str, timestamp_split: float = 0.5) -> tuple[ResampleConcept, ResampleConcept]:
    """Bootstrap samplers from the rows before/after a timestamp split."""
    w = window_from_csv(path)
    before = w.x[w.t <= timestamp_split]
    after = w.x[w.t > timestamp_split]
    if len(before) == 0 or len(after) == 0:
        raise DataError(f"timestamp split {timestamp_split} leaves an empty side")
    return (
        ResampleConcept(before, w.label_feature_appended),
        ResampleConcept(after, w.label_feature_appended),
    )


@dataclass(frozen=True)
class NoiseAugmented:
    """Wraps a sampler, appending independent N(0,1) noise coordinates.

    Noise columns go before a labeled concept's label column, so the label
    stays last.
    """

    base: object
    extra_dims: int

    @property
    def labeled(self) -> bool:
        return bool(getattr(self.base, "labeled", False))

    def draw(self, n: int, rng) -> np.ndarray:
        rng = as_generator(rng)
        out = self.base.draw(n, rng)
        noise = rng.standard_normal((n, self.extra_dims))
        cut = out.shape[1] - int(self.labeled)
        return np.hstack([out[:, :cut], noise, out[:, cut:]])


def with_noise(sampler, extra_dims: int) -> object:
    """Append ``extra_dims`` standard-normal coordinates to a sampler."""
    if extra_dims < 0:
        raise ParameterError("extra_dims must be >= 0")
    if extra_dims == 0:
        return sampler
    return NoiseAugmented(sampler, extra_dims)
