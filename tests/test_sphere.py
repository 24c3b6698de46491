import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiva import (
    AnchorSet,
    AntipodalPair,
    DimensionMismatch,
    Embedding,
    EmptyList,
    NotUnitNorm,
    TooFewMeans,
    ZeroVector,
    build_anchor_set,
    cosine,
    cosine_distance,
    mean_embedding,
    negate,
    normalize,
    slerp,
)
from fiva.sphere import _slerp_rows
from conftest import random_unit

HALF_SQRT2 = math.sqrt(0.5)  # oracle: unit vector at 45 degrees has both coords sin(pi/4)


def unit_vectors(dim=8):
    return (
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=dim,
            max_size=dim,
        )
        .map(np.asarray)
        .filter(lambda v: 1e-6 < np.linalg.norm(v) < 1e6)
        .map(normalize)
    )


class TestNormalize:
    def test_unit_norm_postcondition(self, rng):
        for _ in range(100):
            v = rng.normal(size=rng.integers(2, 64)) * 10 ** rng.uniform(-3, 3)
            e = normalize(v)
            assert abs(e.norm - 1.0) <= 1e-6
            # positively proportional to the input
            assert np.dot(e.values, v) > 0

    def test_already_unit_is_fixed_point(self):
        e = normalize([3.0, 4.0])
        assert np.allclose(e.values, [0.6, 0.8], atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            normalize([0.0, 0.0, 0.0])
        with pytest.raises(ZeroVector):
            normalize([1e-13, 0.0])

    def test_short_and_non_1d_rejected(self):
        with pytest.raises(DimensionMismatch):
            normalize([1.0])
        with pytest.raises(DimensionMismatch):
            normalize(np.ones((2, 2)))


class TestCosine:
    def test_self_and_negation_identities(self, rng):
        for _ in range(1000):
            z = random_unit(rng, 16)
            assert abs(cosine(z, z) - 1.0) <= 1e-6
            assert abs(cosine(z, negate(z)) + 1.0) <= 1e-6

    def test_symmetric_bit_exact(self, rng):
        for _ in range(200):
            a, b = random_unit(rng, 32), random_unit(rng, 32)
            assert cosine(a, b) == cosine(b, a)

    def test_clamped_to_valid_range(self, rng):
        for _ in range(500):
            a, b = random_unit(rng, 8), random_unit(rng, 8)
            c = cosine(a, b)
            assert -1.0 <= c <= 1.0

    def test_orthogonal_axes(self):
        e1, e2 = normalize([1.0, 0.0]), normalize([0.0, 1.0])
        assert cosine(e1, e2) == 0.0
        assert cosine_distance(e1, e2) == 1.0

    def test_distance_range_and_extremes(self, rng):
        z = random_unit(rng, 24)
        assert cosine_distance(z, z) <= 1e-6
        assert abs(cosine_distance(z, negate(z)) - 2.0) <= 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine(normalize([1.0, 0.0]), normalize([1.0, 0.0, 0.0]))

    def test_unnormalized_rejected(self):
        raw = Embedding(np.array([2.0, 0.0]))
        with pytest.raises(NotUnitNorm):
            cosine(raw, normalize([1.0, 0.0]))


class TestNegate:
    def test_involution_bit_exact(self, rng):
        for _ in range(100):
            z = random_unit(rng, 12)
            back = negate(negate(z))
            assert back.values.tobytes() == z.values.tobytes()


class TestSlerp:
    def test_quarter_circle_midpoint(self):
        # oracle: midpoint of the arc between e1 and e2 is (cos 45, sin 45)
        e1, e2 = normalize([1.0, 0.0]), normalize([0.0, 1.0])
        mid = slerp(e1, e2, 0.5)
        assert abs(mid.values[0] - HALF_SQRT2) <= 1e-6
        assert abs(mid.values[1] - HALF_SQRT2) <= 1e-6

    def test_quarter_circle_gives_equal_angles(self):
        e1, e2 = normalize([1.0, 0.0]), normalize([0.0, 1.0])
        quarter = slerp(e1, e2, 0.25)
        # oracle: constant angular speed means angle(e1, q) = omega / 4
        assert abs(math.acos(cosine(e1, quarter)) - math.pi / 8) <= 1e-9

    def test_endpoints(self, rng):
        for _ in range(50):
            a, b = random_unit(rng, 10), random_unit(rng, 10)
            assert cosine_distance(slerp(a, b, 0.0), a) <= 1e-6
            assert cosine_distance(slerp(a, b, 1.0), b) <= 1e-6

    def test_unit_output_many_random_triples(self, rng):
        for _ in range(1000):
            a, b = random_unit(rng, 6), random_unit(rng, 6)
            t = float(rng.uniform())
            assert abs(slerp(a, b, t).norm - 1.0) <= 1e-6

    @settings(max_examples=150, deadline=None)
    @given(a=unit_vectors(), b=unit_vectors(), t=st.floats(0.0, 1.0))
    def test_path_symmetry(self, a, b, t):
        try:
            forward = slerp(a, b, t)
            backward = slerp(b, a, 1.0 - t)
        except AntipodalPair:
            return
        assert cosine_distance(forward, backward) <= 1e-6

    def test_antipodal_rejected(self):
        e = normalize([1.0, 0.0, 0.0])
        with pytest.raises(AntipodalPair):
            slerp(e, negate(e), 0.5)

    def test_t_out_of_range(self):
        e1, e2 = normalize([1.0, 0.0]), normalize([0.0, 1.0])
        with pytest.raises(ValueError):
            slerp(e1, e2, 1.5)

    def test_nearly_identical_inputs(self):
        a = normalize([1.0, 1e-9])
        b = normalize([1.0, 0.0])
        out = slerp(a, b, 0.5)
        assert abs(out.norm - 1.0) <= 1e-6
        assert cosine_distance(out, a) <= 1e-6


def reference_slerp(a, b, t):
    """The one-pair slerp formula, kept here as an independent reference;
    ``None`` for an antipodal pair."""
    c = float(np.clip(np.dot(a, b), -1.0, 1.0))
    if c <= -1.0 + 1e-6:
        return None
    if c >= 1.0 - 1e-12:
        mixed = (1.0 - t) * a + t * b
    else:
        omega = math.acos(c)
        mixed = (math.sin((1.0 - t) * omega) * a + math.sin(t * omega) * b) / math.sin(omega)
    return mixed / np.linalg.norm(mixed)


def unit_rows(rng, count, dim):
    rows = rng.normal(size=(count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def pair_kinds(rng, dim=64):
    """Row pairs of every kind: random, near-parallel (the chord path),
    identical, exactly antipodal and just inside the antipodal tolerance."""
    a = unit_rows(rng, 40, dim)
    b = unit_rows(rng, 40, dim)
    near = a[10:20] + 1e-9 * rng.normal(size=(10, dim))
    b[10:20] = near / np.linalg.norm(near, axis=1, keepdims=True)
    b[20:25] = a[20:25]
    b[25:30] = -a[25:30]
    tilted = -a[30:35] + 1e-7 * rng.normal(size=(5, dim))
    b[30:35] = tilted / np.linalg.norm(tilted, axis=1, keepdims=True)
    return a, b


class TestSlerpRows:
    @pytest.mark.parametrize("t", [0.3, 0.5])
    def test_bits_match_the_one_pair_reference(self, rng, t):
        a, b = pair_kinds(rng)
        expected = [reference_slerp(x, y, t) for x, y in zip(a, b)]
        keep, rows = _slerp_rows(a, b, t)
        assert keep.tolist() == [e is not None for e in expected]
        assert not keep[25:35].any() and keep[:25].all()
        assert rows.tobytes() == np.stack([e for e in expected if e is not None]).tobytes()
        for x, y, e in zip(a, b, expected):
            if e is None:
                with pytest.raises(AntipodalPair):
                    slerp(Embedding(x), Embedding(y), t)
            else:
                assert slerp(Embedding(x), Embedding(y), t).values.tobytes() == e.tobytes()

    def test_build_anchor_set_matches_a_per_pair_loop(self, rng):
        means = unit_rows(rng, 30, 32)
        means[5] = -means[4]  # antipodal: skipped in round 1
        means[9] = means[8]  # identical: the chord path
        anchors = build_anchor_set(means, rounds=3, t=0.3)
        rows, provenance, skipped = [], [], []
        current = list(means)
        for round_index in (1, 2, 3):
            produced = []
            for i in range(len(current)):
                j = (i + 1) % len(current)
                anchor = reference_slerp(current[i], current[j], 0.3)
                if anchor is None:
                    skipped.append((round_index, i, j))
                    continue
                produced.append(anchor)
                provenance.append((round_index, i, j, 0.3))
            rows += produced
            current = produced
        assert skipped == [(1, 4, 5)]
        assert anchors.matrix.tobytes() == np.stack(rows).tobytes()
        assert [
            (p.round_index, p.source_a, p.source_b, p.t) for p in anchors.provenance
        ] == provenance
        assert [(s.round_index, s.source_a, s.source_b) for s in anchors.skipped] == skipped
        from_embeddings = build_anchor_set([Embedding(row) for row in means], rounds=3, t=0.3)
        assert from_embeddings.matrix.tobytes() == anchors.matrix.tobytes()

    def test_a_round_after_an_empty_round_produces_nothing(self):
        e = np.eye(3)[0]
        anchors = build_anchor_set(np.stack([e, -e]), rounds=3)
        assert len(anchors) == 0 and anchors.matrix.shape == (0, 3)
        assert [(s.round_index, s.source_a, s.source_b) for s in anchors.skipped] == [
            (1, 0, 1), (1, 1, 0)
        ]


class TestMean:
    def test_two_axis_mean(self):
        # oracle: mean of e1 and e2 normalizes to the 45-degree vector
        e1, e2 = normalize([1.0, 0.0]), normalize([0.0, 1.0])
        mean = mean_embedding([e1, e2])
        assert abs(mean.values[0] - HALF_SQRT2) <= 1e-12
        assert abs(mean.values[1] - HALF_SQRT2) <= 1e-12

    def test_single_member_is_identity(self, rng):
        z = random_unit(rng, 16)
        assert cosine_distance(mean_embedding([z]), z) <= 1e-6

    def test_empty_rejected(self):
        with pytest.raises(EmptyList):
            mean_embedding([])

    def test_cancelling_members_rejected(self):
        e = normalize([1.0, 0.0])
        with pytest.raises(ZeroVector):
            mean_embedding([e, negate(e)])


class TestBuildAnchorSet:
    def test_count_and_provenance_single_round(self, rng):
        means = [random_unit(rng, 16) for _ in range(5)]
        anchors = build_anchor_set(means, rounds=1, t=0.5)
        assert len(anchors) == 5
        assert len(anchors.provenance) == 5
        assert anchors.rounds == 1
        assert anchors.skipped == ()
        for i, record in enumerate(anchors.provenance):
            assert (record.source_a, record.source_b) == (i, (i + 1) % 5)
            assert record.t == 0.5

    def test_count_scales_with_rounds(self, rng):
        means = [random_unit(rng, 16) for _ in range(7)]
        for rounds in (1, 2, 3):
            anchors = build_anchor_set(means, rounds=rounds, t=0.5)
            assert anchors.skipped == ()
            assert len(anchors) == rounds * 7

    def test_round1_matches_direct_slerp(self, rng):
        means = [random_unit(rng, 8) for _ in range(4)]
        anchors = build_anchor_set(means, rounds=1, t=0.3)
        for i in range(4):
            expected = slerp(means[i], means[(i + 1) % 4], 0.3)
            assert anchors.anchors[i] == expected

    def test_later_rounds_chain_previous_output(self, rng):
        means = [random_unit(rng, 8) for _ in range(3)]
        anchors = build_anchor_set(means, rounds=2, t=0.5)
        first_round = anchors.anchors[:3]
        for i in range(3):
            expected = slerp(first_round[i], first_round[(i + 1) % 3], 0.5)
            assert anchors.anchors[3 + i] == expected
            assert anchors.provenance[3 + i].round_index == 2

    def test_antipodal_means_all_skipped(self):
        e = normalize([1.0, 0.0, 0.0])
        anchors = build_anchor_set([e, negate(e)], rounds=1, t=0.5)
        assert len(anchors) == 0
        assert len(anchors.skipped) == 2
        assert {(s.source_a, s.source_b) for s in anchors.skipped} == {(0, 1), (1, 0)}

    def test_too_few_means(self, rng):
        with pytest.raises(TooFewMeans):
            build_anchor_set([random_unit(rng, 8)], rounds=1)

    def test_bad_parameters(self, rng):
        means = [random_unit(rng, 8) for _ in range(3)]
        with pytest.raises(ValueError):
            build_anchor_set(means, rounds=0)
        with pytest.raises(ValueError):
            build_anchor_set(means, rounds=1, t=1.0)

    def test_anchor_set_rejects_unnormalized(self):
        with pytest.raises(NotUnitNorm):
            AnchorSet.from_embeddings((Embedding(np.array([2.0, 0.0])),))

    def test_anchor_set_rejects_bad_shapes(self, rng):
        with pytest.raises(DimensionMismatch, match="1-D vector"):
            Embedding(np.eye(2))
        with pytest.raises(DimensionMismatch, match="anchor 1 has dimension 4, expected 8"):
            AnchorSet.from_embeddings([random_unit(rng, 8), random_unit(rng, 4)])
        anchors = build_anchor_set([random_unit(rng, 8) for _ in range(3)])
        with pytest.raises(DimensionMismatch, match="2 provenance records for 3 anchors"):
            AnchorSet(anchors.matrix, anchors.provenance[:2])

    def test_matrix_matches_anchor_rows(self, rng):
        means = [random_unit(rng, 8) for _ in range(4)]
        anchors = build_anchor_set(means, rounds=2)
        assert anchors.matrix.shape == (8, 8)
        for row, anchor in zip(anchors.matrix, anchors.anchors):
            assert np.array_equal(row, anchor.values)
