import itertools
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peg3d.fuzzy import (
    InputPartition,
    RuleBase,
    TriangularMF,
    _neighbor_footed,
    build_default_partitions,
    firing_entropy,
    infer,
    uniform_partition,
)


class TestTriangularMF:
    def test_interior_triangle(self):
        mf = TriangularMF(left=0.0, peak=1.0, right=3.0)
        assert mf.membership(1.0) == 1.0
        assert mf.membership(0.5) == 0.5
        assert mf.membership(2.0) == 0.5
        assert mf.membership(-0.1) == 0.0
        assert mf.membership(3.0) == 0.0

    def test_shoulders_hold_one_beyond_peak(self):
        low = TriangularMF(left=0.0, peak=0.0, right=2.0)
        high = TriangularMF(left=8.0, peak=10.0, right=10.0)
        assert low.membership(-5.0) == 1.0
        assert low.membership(0.0) == 1.0
        assert low.membership(1.0) == 0.5
        assert high.membership(15.0) == 1.0
        assert high.membership(9.0) == 0.5

    def test_ordering_validated(self):
        with pytest.raises(ValueError):
            TriangularMF(left=1.0, peak=0.0, right=2.0)


class TestPartitions:
    def test_default_distance_peaks(self):
        part = uniform_partition(0.0, 35.0, 5)
        assert part.peaks == (0.0, 8.75, 17.5, 26.25, 35.0)

    def test_default_angle_peaks(self):
        part = uniform_partition(-math.pi, math.pi, 5)
        assert part.peaks == pytest.approx(
            (-math.pi, -math.pi / 2.0, 0.0, math.pi / 2.0, math.pi), abs=1e-15
        )

    def test_interior_peak_activates_single_mf(self):
        part = uniform_partition(0.0, 35.0, 5)
        m = part.memberships(8.75)
        assert m[1] == 1.0
        assert np.count_nonzero(m) == 1

    def test_partition_of_unity(self):
        rng = np.random.default_rng(29)
        for lo, hi in ((0.0, 35.0), (-math.pi, math.pi)):
            part = uniform_partition(lo, hi, 5)
            for x in rng.uniform(lo, hi, size=2000):
                assert abs(part.memberships(x).sum() - 1.0) <= 1e-12

    def test_out_of_domain_clamped(self):
        part = uniform_partition(0.0, 35.0, 5)
        assert np.array_equal(part.memberships(60.0), part.memberships(35.0))
        assert np.array_equal(part.memberships(-3.0), part.memberships(0.0))

    def test_gapped_partition_rejected(self):
        mfs = (
            TriangularMF(left=0.0, peak=0.0, right=1.0),
            TriangularMF(left=2.0, peak=3.0, right=3.0),
        )
        with pytest.raises(ValueError):
            InputPartition(lo=0.0, hi=3.0, mfs=mfs)


class TestRuleBase:
    def test_default_layout(self):
        rb = build_default_partitions()
        assert rb.n_rules == 625
        assert rb.shape == (5, 5, 5, 5)

    def test_single_rule_activation_at_isolated_peaks(self):
        rb = build_default_partitions()
        phi = rb.fire((8.75, -math.pi / 2.0, 17.5, 0.0))
        assert np.count_nonzero(phi) == 1
        # row-major rule order: indices (1, 1, 2, 2)
        idx = ((1 * 5 + 1) * 5 + 2) * 5 + 2
        assert phi[idx] == 1.0

    def test_firing_normalized(self):
        rb = build_default_partitions()
        rng = np.random.default_rng(31)
        for _ in range(500):
            x = (
                rng.uniform(-5.0, 45.0),
                rng.uniform(-4.0, 4.0),
                rng.uniform(-5.0, 45.0),
                rng.uniform(-4.0, 4.0),
            )
            phi = rb.fire(x)
            assert abs(phi.sum() - 1.0) <= 1e-9
            assert phi.min() >= 0.0
            assert phi.max() <= 1.0

    def test_two_mf_toy_uniform_activation(self):
        parts = [uniform_partition(0.0, 1.0, 2) for _ in range(4)]
        rb = RuleBase(parts)
        assert rb.n_rules == 16
        phi = rb.fire((0.5, 0.5, 0.5, 0.5))
        assert np.allclose(phi, 1.0 / 16.0, atol=1e-15)

    def test_wrong_input_count(self):
        rb = build_default_partitions()
        with pytest.raises(ValueError):
            rb.fire((1.0, 2.0, 3.0))

    def test_continuity_under_small_perturbation(self):
        rb = build_default_partitions()
        rng = np.random.default_rng(37)
        eps = 1e-6
        for _ in range(200):
            x = np.array(
                [
                    rng.uniform(0.5, 34.5),
                    rng.uniform(-3.0, 3.0),
                    rng.uniform(0.5, 34.5),
                    rng.uniform(-3.0, 3.0),
                ]
            )
            dx = rng.normal(size=4)
            dx /= np.abs(dx).max()
            phi0 = rb.fire(tuple(x))
            phi1 = rb.fire(tuple(x + eps * dx))
            assert np.max(np.abs(phi1 - phi0)) < 1e-5


def dense_firing(rb, x):
    """Reference firing: the dense outer product of every membership, normalized."""
    degrees = [p.memberships(xi) for p, xi in zip(rb.partitions, x)]
    raw = reduce(np.multiply.outer, degrees).ravel()
    return raw / raw.sum()


def _layout(*inputs):
    """Rule base over ``(lo, hi, peaks)`` inputs with neighbor-footed triangles."""
    return RuleBase(
        InputPartition(lo=lo, hi=hi, mfs=_neighbor_footed(peaks)) for lo, hi, peaks in inputs
    )


FIRING_LAYOUTS = {
    "default": build_default_partitions(),
    "two-mf-toy": RuleBase([uniform_partition(0.0, 1.0, 2) for _ in range(4)]),
    "non-uniform": _layout(
        (0.0, 35.0, [0.0, 3.0, 10.0, 20.0, 35.0]),
        (-math.pi, math.pi, [-math.pi, -1.0, 0.0, 0.5, math.pi]),
        (0.0, 35.0, [0.0, 3.0, 10.0, 20.0, 35.0]),
        (-math.pi, math.pi, [-math.pi, -2.5, 1.0, math.pi]),
    ),
    # Domains wider than the peak range on one or both sides, and narrower.
    "domain-beyond-peaks": _layout(
        (-10.0, 35.0, [0.0, 8.75, 17.5, 26.25, 35.0]),
        (-4.0, 4.0, [-math.pi, 0.0, math.pi]),
        (0.0, 50.0, [0.0, 3.0, 10.0, 20.0, 35.0]),
        (-1.0, 1.0, [-2.0, -0.5, 0.0, 2.0]),
    ),
}


def _special_points(partition):
    """Peaks, domain ends and points beyond them, where the closed form can slip."""
    lo, hi = partition.lo, partition.hi
    return sorted({*partition.peaks, lo, hi, lo - 1.0, hi + 1.0})


class TestClosedFormFiring:
    """``RuleBase.fire`` is bit for bit the normalized dense product."""

    @pytest.mark.parametrize("name", FIRING_LAYOUTS)
    def test_matches_dense_reference_on_special_points(self, name):
        rb = FIRING_LAYOUTS[name]
        for x in itertools.product(*(_special_points(p) for p in rb.partitions)):
            assert np.array_equal(rb.fire(x), dense_firing(rb, x)), x

    @pytest.mark.parametrize("name", FIRING_LAYOUTS)
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_dense_reference(self, name, data):
        rb = FIRING_LAYOUTS[name]
        x = tuple(
            data.draw(
                st.one_of(
                    st.floats(p.lo - 20.0, p.hi + 20.0, allow_nan=False),
                    st.sampled_from(_special_points(p)),
                )
            )
            for p in rb.partitions
        )
        assert np.array_equal(rb.fire(x), dense_firing(rb, x))

    def test_rejects_single_mf_input(self):
        single = InputPartition(0.0, 1.0, (TriangularMF(0.5, 0.5, 0.5),))
        with pytest.raises(ValueError, match="input 1"):
            RuleBase([uniform_partition(0.0, 1.0, 2), single])

    def test_rejects_feet_off_the_neighboring_peaks(self):
        wide = InputPartition(
            0.0,
            2.0,
            (
                TriangularMF(0.0, 0.0, 2.0),
                TriangularMF(0.0, 1.0, 2.0),
                TriangularMF(0.0, 2.0, 2.0),
            ),
        )
        with pytest.raises(ValueError, match="input 2"):
            RuleBase([uniform_partition(0.0, 2.0, 3), uniform_partition(0.0, 2.0, 3), wide])

    def test_single_peak_layout_rejected_at_load(self):
        partitions = list(build_default_partitions().partitions)
        partitions[3] = InputPartition(lo=-math.pi, hi=math.pi, mfs=_neighbor_footed([0.0]))
        with pytest.raises(ValueError, match="input 3"):
            RuleBase(partitions)


class TestInfer:
    def test_constant_params(self):
        rb = build_default_partitions()
        phi = rb.fire((4.0, 0.3, 21.0, -2.0))
        assert infer(phi, np.full(625, 3.25)) == pytest.approx(3.25, abs=1e-12)

    def test_one_hot(self):
        phi = np.zeros(8)
        phi[5] = 1.0
        params = np.arange(8.0)
        assert infer(phi, params) == 5.0

    def test_weighted_mean(self):
        assert infer(np.array([0.25, 0.75]), np.array([0.0, 1.0])) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            infer(np.ones(3) / 3.0, np.ones(4))

    def test_linearity(self):
        rng = np.random.default_rng(43)
        rb = build_default_partitions()
        phi = rb.fire((12.0, 1.0, 30.0, 2.0))
        p = rng.normal(size=625)
        q = rng.normal(size=625)
        a, b = 1.7, -0.4
        assert infer(phi, a * p + b * q) == pytest.approx(
            a * infer(phi, p) + b * infer(phi, q), abs=1e-9
        )

    def test_gradient_equals_firing_strength(self):
        # d(infer)/d(param_l) == phi_l, cross-checked by central differences
        rb = build_default_partitions()
        rng = np.random.default_rng(47)
        eps = 1e-4
        for _ in range(20):
            x = (
                rng.uniform(0.0, 35.0),
                rng.uniform(-3.1, 3.1),
                rng.uniform(0.0, 35.0),
                rng.uniform(-3.1, 3.1),
            )
            phi = rb.fire(x)
            w = rng.normal(size=625)
            for l in rng.integers(0, 625, size=10):
                wp, wm = w.copy(), w.copy()
                wp[l] += eps
                wm[l] -= eps
                fd = (infer(phi, wp) - infer(phi, wm)) / (2.0 * eps)
                assert fd == pytest.approx(phi[l], abs=1e-6)


class TestEntropy:
    def test_one_hot_entropy_zero(self):
        phi = np.zeros(16)
        phi[3] = 1.0
        assert firing_entropy(phi) == 0.0

    def test_uniform_entropy(self):
        phi = np.full(16, 1.0 / 16.0)
        assert firing_entropy(phi) == pytest.approx(math.log(16.0), abs=1e-12)
