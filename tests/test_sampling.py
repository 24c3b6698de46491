import numpy as np
import pytest

from fiva import (
    AnchorSet,
    DimensionMismatch,
    EmptyAnchorSet,
    build_anchor_set,
    cosine,
    normalize,
    sample_fake,
)
from conftest import random_unit


def brute_force_pick(z, anchors, m):
    """Oracle: plain python scan for the anchor minimizing |cos + m|."""
    best_index, best_objective = None, None
    for i, anchor in enumerate(anchors.anchors):
        dot = sum(float(x) * float(y) for x, y in zip(z.values, anchor.values))
        dot = max(-1.0, min(1.0, dot))
        objective = abs(dot + m)
        if best_objective is None or objective < best_objective:
            best_index, best_objective = i, objective
    return best_index


def make_anchors(rng, count, dim):
    return AnchorSet.from_embeddings([random_unit(rng, dim) for _ in range(count)])


class TestSampleFake:
    def test_matches_brute_force_oracle(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 33))
            count = int(rng.integers(1, 65))
            anchors = make_anchors(rng, count, dim)
            z = random_unit(rng, dim)
            m = float(rng.uniform(-1.0, 1.0))
            result = sample_fake(z, anchors, m)
            assert result.anchor_index == brute_force_pick(z, anchors, m)

    def test_margin_grid_against_oracle(self, rng):
        anchors = make_anchors(rng, 40, 16)
        for m in (-0.9, -0.5, 0.0, 0.5, 0.9):
            for _ in range(20):
                z = random_unit(rng, 16)
                result = sample_fake(z, anchors, m)
                assert result.anchor_index == brute_force_pick(z, anchors, m)

    def test_returns_the_indexed_anchor(self, rng):
        anchors = make_anchors(rng, 10, 8)
        z = random_unit(rng, 8)
        result = sample_fake(z, anchors, 0.2)
        picked = anchors.anchors[result.anchor_index]
        assert result.fake_identity == picked
        assert abs(result.achieved_cosine - cosine(z, picked)) <= 1e-12

    def test_zero_margin_picks_most_orthogonal(self):
        e1 = normalize([1.0, 0.0])
        near = normalize([0.9, np.sqrt(1 - 0.81)])
        ortho = normalize([0.1, np.sqrt(1 - 0.01)])
        anchors = AnchorSet.from_embeddings([near, ortho])
        result = sample_fake(e1, anchors, 0.0)
        assert result.anchor_index == 1

    def test_large_margin_pushes_toward_negation(self):
        # m = 0.9 targets cosine -0.9, so the near-opposite anchor wins
        e1 = normalize([1.0, 0.0])
        opposite = normalize([-0.9, np.sqrt(1 - 0.81)])
        ortho = normalize([0.0, 1.0])
        anchors = AnchorSet.from_embeddings([opposite, ortho])
        result = sample_fake(e1, anchors, 0.9)
        assert result.anchor_index == 0
        assert abs(result.achieved_cosine + 0.9) <= 1e-12

    def test_tie_breaks_to_first_index(self):
        e1 = normalize([1.0, 0.0, 0.0])
        a = normalize([0.0, 1.0, 0.0])
        b = normalize([0.0, 0.0, 1.0])
        anchors = AnchorSet.from_embeddings([a, b])
        # both anchors sit at cosine exactly 0
        assert sample_fake(e1, anchors, 0.0).anchor_index == 0

    def test_single_anchor(self, rng):
        anchors = make_anchors(rng, 1, 8)
        z = random_unit(rng, 8)
        assert sample_fake(z, anchors, 0.5).anchor_index == 0

    def test_empty_anchor_set(self, rng):
        empty = AnchorSet.from_embeddings(())
        with pytest.raises(EmptyAnchorSet):
            sample_fake(random_unit(rng, 8), empty, 0.0)

    def test_margin_out_of_range(self, rng):
        anchors = make_anchors(rng, 4, 8)
        z = random_unit(rng, 8)
        with pytest.raises(ValueError):
            sample_fake(z, anchors, 1.5)
        with pytest.raises(ValueError):
            sample_fake(z, anchors, -1.01)

    def test_dimension_mismatch(self, rng):
        anchors = make_anchors(rng, 4, 8)
        with pytest.raises(DimensionMismatch):
            sample_fake(random_unit(rng, 16), anchors, 0.0)

    def test_works_with_built_anchor_set(self, rng):
        means = [random_unit(rng, 12) for _ in range(6)]
        anchors = build_anchor_set(means, rounds=2)
        z = random_unit(rng, 12)
        result = sample_fake(z, anchors, 0.0)
        assert result.anchor_index == brute_force_pick(z, anchors, 0.0)
