import itertools
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peg3d.fuzzy import Firing, InputPartition, RuleBase, firing_entropy, uniform_partition
from peg3d.scenarios import TrainConfig
from peg3d.training import build_rulebase

from floatbits import bits


def default_rulebase():
    return build_rulebase(TrainConfig())


def memberships(part: InputPartition, x: float) -> np.ndarray:
    """Membership degree of the clamped input in every function of ``part``, one by one.

    This is the dense reference that ``RuleBase.fire`` reproduces.
    """
    xc = min(max(x, part.lo), part.hi)
    peaks, last = part.peaks, len(part.peaks) - 1
    degrees = []
    for k, peak in enumerate(peaks):
        if xc < peak and k > 0:
            left = peaks[k - 1]
            degrees.append(0.0 if xc <= left else (xc - left) / (peak - left))
        elif xc > peak and k < last:
            right = peaks[k + 1]
            degrees.append(0.0 if xc >= right else (right - xc) / (right - peak))
        else:  # at the peak, or on a shoulder
            degrees.append(1.0)
    return np.array(degrees)


class TestInputPartition:
    def test_interior_triangle(self):
        part = InputPartition(0.0, 3.0, (0.0, 1.0, 3.0))
        assert memberships(part, 1.0).tolist() == [0.0, 1.0, 0.0]
        assert memberships(part, 0.5).tolist() == [0.5, 0.5, 0.0]
        assert memberships(part, 2.0).tolist() == [0.0, 0.5, 0.5]
        assert memberships(part, 3.0).tolist() == [0.0, 0.0, 1.0]

    def test_shoulders_hold_one_beyond_peak(self):
        part = InputPartition(-5.0, 15.0, (0.0, 2.0, 8.0, 10.0))
        assert memberships(part, -5.0).tolist() == [1.0, 0.0, 0.0, 0.0]
        assert memberships(part, 1.0).tolist() == [0.5, 0.5, 0.0, 0.0]
        assert memberships(part, 9.0).tolist() == [0.0, 0.0, 0.5, 0.5]
        assert memberships(part, 15.0).tolist() == [0.0, 0.0, 0.0, 1.0]

    @pytest.mark.parametrize(
        "lo, hi, peaks, message",
        [
            (1.0, 1.0, (0.0, 1.0), r"finite with lo < hi, got \(1.0, 1.0\)"),
            (2.0, 1.0, (0.0, 1.0), "finite with lo < hi"),
            (0.0, math.inf, (0.0, 1.0), r"finite with lo < hi, got \(0.0, inf\)"),
            (math.nan, 1.0, (0.0, 1.0), "finite with lo < hi"),
            (0.0, 1.0, (0.5,), "need at least 2 membership functions, got 1"),
            (0.0, 1.0, (), "need at least 2 membership functions, got 0"),
            (0.0, 3.0, (0.0, 2.0, 1.0, 3.0), "strictly increasing"),
            (0.0, 3.0, (0.0, 1.0, 1.0, 3.0), "strictly increasing"),
            (0.0, 3.0, (0.0, 1.0, math.inf), "finite and strictly increasing"),
            (0.0, 3.0, (math.nan, 1.0), "finite and strictly increasing"),
        ],
    )
    def test_invalid_partition_rejected(self, lo, hi, peaks, message):
        with pytest.raises(ValueError, match=message):
            InputPartition(lo, hi, peaks)


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
        m = memberships(part, 8.75)
        assert m[1] == 1.0
        assert np.count_nonzero(m) == 1

    def test_partition_of_unity(self):
        rng = np.random.default_rng(29)
        for lo, hi in ((0.0, 35.0), (-math.pi, math.pi)):
            part = uniform_partition(lo, hi, 5)
            for x in rng.uniform(lo, hi, size=2000):
                assert abs(memberships(part, x).sum() - 1.0) <= 1e-12

    def test_out_of_domain_clamped(self):
        part = uniform_partition(0.0, 35.0, 5)
        assert np.array_equal(memberships(part, 60.0), memberships(part, 35.0))
        assert np.array_equal(memberships(part, -3.0), memberships(part, 0.0))

    def test_uniform_partition_needs_two_peaks(self):
        with pytest.raises(ValueError, match="need at least 2 membership functions"):
            uniform_partition(0.0, 1.0, 1)


class TestRuleBase:
    def test_default_layout(self):
        rb = default_rulebase()
        assert rb.n_rules == 625
        assert rb.shape == (5, 5, 5, 5)

    def test_single_rule_activation_at_isolated_peaks(self):
        rb = default_rulebase()
        phi = np.asarray(rb.fire((8.75, -math.pi / 2.0, 17.5, 0.0)))
        assert np.count_nonzero(phi) == 1
        # row-major rule order: indices (1, 1, 2, 2)
        idx = ((1 * 5 + 1) * 5 + 2) * 5 + 2
        assert phi[idx] == 1.0

    def test_firing_normalized(self):
        rb = default_rulebase()
        rng = np.random.default_rng(31)
        for _ in range(500):
            x = (
                rng.uniform(-5.0, 45.0),
                rng.uniform(-4.0, 4.0),
                rng.uniform(-5.0, 45.0),
                rng.uniform(-4.0, 4.0),
            )
            phi = np.asarray(rb.fire(x))
            assert abs(phi.sum() - 1.0) <= 1e-9
            assert phi.min() >= 0.0
            assert phi.max() <= 1.0

    def test_two_mf_toy_uniform_activation(self):
        parts = [uniform_partition(0.0, 1.0, 2) for _ in range(4)]
        rb = RuleBase(parts)
        assert rb.n_rules == 16
        phi = np.asarray(rb.fire((0.5, 0.5, 0.5, 0.5)))
        assert np.allclose(phi, 1.0 / 16.0, atol=1e-15)

    def test_wrong_input_count(self):
        rb = default_rulebase()
        with pytest.raises(ValueError):
            rb.fire((1.0, 2.0, 3.0))

    def test_continuity_under_small_perturbation(self):
        rb = default_rulebase()
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
            phi0 = np.asarray(rb.fire(tuple(x)))
            phi1 = np.asarray(rb.fire(tuple(x + eps * dx)))
            assert np.max(np.abs(phi1 - phi0)) < 1e-5


def dense_products(rb, x):
    """The dense outer product of every input's memberships, in rule order."""
    degrees = [memberships(p, xi) for p, xi in zip(rb.partitions, x)]
    return reduce(np.multiply.outer, degrees).ravel()


def dense_firing(rb, x):
    """The old reference firing: the dense products over numpy's pairwise sum of all of them."""
    raw = dense_products(rb, x)
    return raw / raw.sum()


def left_to_right_firing(rb, x):
    """Reference firing: the dense products over their sum taken left to right in rule order."""
    raw = dense_products(rb, x)
    total = 0.0
    for value in raw.tolist():
        total += value
    return raw / total


def assert_fires_as_reference(rb, x):
    """``fire(x)`` is bit for bit the left-to-right reference, and the old one to rounding."""
    firing = rb.fire(x)
    assert isinstance(firing, Firing) and firing.size == rb.n_rules
    rules = [rule for rule, _ in firing.pairs]
    assert len(rules) == 2 ** len(rb.partitions) and rules == sorted(set(rules)), x
    assert all(type(strength) is float for _, strength in firing.pairs)
    phi = np.asarray(firing)
    assert np.array_equal(phi, left_to_right_firing(rb, x)), x
    # The sums differ in order only: a few units in the last place of a value <= 1.
    np.testing.assert_allclose(phi, dense_firing(rb, x), rtol=1e-14, atol=0.0)
    return phi


def _layout(*inputs):
    """Rule base over ``(lo, hi, peaks)`` inputs."""
    return RuleBase(InputPartition(lo, hi, tuple(peaks)) for lo, hi, peaks in inputs)


FIRING_LAYOUTS = {
    "default": default_rulebase(),
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


def _edge_cell_inputs(rb, edge):
    """Inputs each at or beyond its ``edge`` ("first" or "last") peak, or off the domain."""
    if edge == "first":
        choices = [(p.peaks[0], p.peaks[0] - 0.5, p.lo - 10.0, -math.inf) for p in rb.partitions]
    else:
        choices = [(p.peaks[-1], p.peaks[-1] + 0.5, p.hi + 10.0, math.inf) for p in rb.partitions]
    return itertools.product(*choices)


class TestClosedFormFiring:
    """``RuleBase.fire`` is bit for bit the dense product over its left-to-right sum."""

    @pytest.mark.parametrize("name", FIRING_LAYOUTS)
    def test_matches_dense_reference_on_special_points(self, name):
        rb = FIRING_LAYOUTS[name]
        for x in itertools.product(*(_special_points(p) for p in rb.partitions)):
            assert_fires_as_reference(rb, x)

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
        assert_fires_as_reference(rb, x)

    @pytest.mark.parametrize("edge", ["first", "last"])
    @pytest.mark.parametrize("name", ["default", "two-mf-toy"])
    def test_edge_cells_match_dense_reference(self, name, edge):
        # The corners of the grid's first and last cells land on its first and last rules:
        # the last cell's window, from its lowest corner ``base``, ends at the last rule.
        rb = FIRING_LAYOUTS[name]
        strides = np.cumprod((*rb.shape[1:], 1)[::-1])[::-1]
        cells = [0 if edge == "first" else n - 2 for n in rb.shape]
        base = int(np.dot(cells, strides))
        window_end = base + rb._offsets[-1]
        assert window_end == (rb.n_rules - 1 if edge == "last" else sum(strides))
        rule = 0 if edge == "first" else rb.n_rules - 1
        for x in _edge_cell_inputs(rb, edge):
            phi = assert_fires_as_reference(rb, x)
            assert np.flatnonzero(phi).tolist() == [rule] and phi[rule] == 1.0, x

    def test_dense_vectors_are_new_arrays(self):
        rb = FIRING_LAYOUTS["default"]
        firing = rb.fire((10.0, 0.5, 20.0, -1.0))
        first, second = np.asarray(firing), np.asarray(firing)
        assert first.dtype == np.float64 and not np.shares_memory(first, second)
        first[:] = 7.0
        assert np.array_equal(second, np.asarray(firing))
        assert np.array_equal(np.asarray(firing, dtype=np.float32), second.astype(np.float32))


def reference_entropy(phi):
    """``firing_entropy`` over the dense vector: ``s * log(s)`` of each ``s > 0``, left to right."""
    total = 0.0
    for s in phi.tolist():
        if s > 0.0:
            total += s * math.log(s)
    return -total


def numpy_entropy(phi):
    """The old ``firing_entropy``: a negated ndarray sum of ``np.log`` terms."""
    active = phi[phi > 0.0]
    return float(-(active * np.log(active)).sum())


class TestEntropy:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, data):
        rb = FIRING_LAYOUTS[data.draw(st.sampled_from(sorted(FIRING_LAYOUTS)))]
        x = tuple(
            data.draw(st.one_of(st.floats(p.lo - 5.0, p.hi + 5.0), st.sampled_from(p.peaks)))
            for p in rb.partitions
        )
        firing = rb.fire(x)
        entropy = firing_entropy(firing)
        assert type(entropy) is float
        phi = np.asarray(firing)
        assert bits(entropy) == bits(reference_entropy(phi))
        # The sums differ in order, and np.log may differ from math.log in the last place.
        assert entropy == pytest.approx(numpy_entropy(phi), rel=1e-13, abs=1e-15)

    def test_one_hot_entropy_zero(self):
        assert firing_entropy(Firing([(3, 1.0)], 16)) == 0.0

    def test_zero_strengths_are_skipped(self):
        assert firing_entropy(Firing([(0, 0.0), (1, 0.5), (5, 0.0), (6, 0.5)], 25)) == math.log(2.0)

    def test_uniform_entropy(self):
        phi = Firing([(rule, 1.0 / 16.0) for rule in range(16)], 16)
        assert firing_entropy(phi) == pytest.approx(math.log(16.0), abs=1e-12)
