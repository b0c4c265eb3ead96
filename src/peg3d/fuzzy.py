"""Product-inference fuzzy engine on triangular partitions.

Each input gets an ordered bank of triangular membership functions whose feet
sit at the neighboring peaks, with shouldered triangles at the domain edges.
Evenly spaced peaks make the bank a partition of unity, so the normalized
rule firing strengths of the full cross-product rule grid are exact and the
derivative of the inferred output with respect to a rule consequent is simply
that rule's firing strength.

Because every foot sits at a neighboring peak, an input between peaks ``k``
and ``k + 1`` has nonzero membership in those two functions only.  Rule
firing is therefore computed in closed form: one peak lookup per input gives
its cell and two degrees, and only the ``2 ** n_inputs`` rules at the corners
of that cell (16 of 625 for the default layout) get a nonzero strength.
:class:`RuleBase` rejects any other layout at construction.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TriangularMF",
    "InputPartition",
    "RuleBase",
    "uniform_partition",
    "build_default_partitions",
    "infer",
    "firing_entropy",
    "DISTANCE_DOMAIN",
    "ANGLE_DOMAIN",
]

DISTANCE_DOMAIN = (0.0, 35.0)
ANGLE_DOMAIN = (-math.pi, math.pi)


@dataclass(frozen=True)
class TriangularMF:
    """Triangular membership with optional shoulders.

    Membership is 1 at ``peak``, falls linearly to 0 at ``left`` and
    ``right``.  A degenerate side (``left == peak`` or ``right == peak``)
    marks a shoulder: membership stays 1 beyond the peak on that side.
    """

    left: float
    peak: float
    right: float

    def __post_init__(self):
        if not self.left <= self.peak <= self.right:
            raise ValueError(f"require left <= peak <= right, got {self}")

    def membership(self, x: float) -> float:
        if x < self.peak:
            if self.left == self.peak:
                return 1.0
            if x <= self.left:
                return 0.0
            return (x - self.left) / (self.peak - self.left)
        if x > self.peak:
            if self.right == self.peak:
                return 1.0
            if x >= self.right:
                return 0.0
            return (self.right - x) / (self.right - self.peak)
        return 1.0

    __call__ = membership


@dataclass(frozen=True)
class InputPartition:
    """Ordered bank of membership functions covering ``[lo, hi]``."""

    lo: float
    hi: float
    mfs: tuple[TriangularMF, ...]

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("partition domain must have lo < hi")
        peaks = [mf.peak for mf in self.mfs]
        if peaks != sorted(peaks):
            raise ValueError("membership functions must be ordered by peak")
        for a, b in zip(self.mfs, self.mfs[1:]):
            if a.right <= b.left:
                raise ValueError("adjacent membership functions must overlap")

    @property
    def peaks(self) -> tuple[float, ...]:
        return tuple(mf.peak for mf in self.mfs)

    def clamp(self, x: float) -> float:
        return min(max(x, self.lo), self.hi)

    def memberships(self, x: float) -> np.ndarray:
        """Membership degree of the clamped input in every bank member."""
        xc = self.clamp(x)
        return np.array([mf.membership(xc) for mf in self.mfs])


def _neighbor_footed(peaks) -> tuple[TriangularMF, ...]:
    """Shouldered triangles at ``peaks`` whose feet sit at the neighboring peaks."""
    last = len(peaks) - 1
    return tuple(
        TriangularMF(
            left=peaks[k - 1] if k > 0 else peak,
            peak=peak,
            right=peaks[k + 1] if k < last else peak,
        )
        for k, peak in enumerate(peaks)
    )


def uniform_partition(lo: float, hi: float, n_mfs: int = 5) -> InputPartition:
    """Evenly spaced shouldered triangles with feet at the neighboring peaks.

    This layout is a partition of unity on ``[lo, hi]``: memberships at any
    point sum to exactly 1.
    """
    if n_mfs < 2:
        raise ValueError("need at least 2 membership functions")
    peaks = [lo + k * (hi - lo) / (n_mfs - 1) for k in range(n_mfs)]
    return InputPartition(lo=lo, hi=hi, mfs=_neighbor_footed(peaks))


class RuleBase:
    """Full cross-product rule grid over the input partitions.

    Rule ``l`` pairs one membership function per input; rules are ordered
    row-major (the last input varies fastest), matching the flattening of
    the outer product in :meth:`fire`.  Every partition needs at least two
    membership functions with feet at the neighboring peaks (the layout
    :func:`uniform_partition` and :meth:`from_dict` build), because
    :meth:`fire` relies on it.
    """

    def __init__(self, partitions):
        self.partitions = tuple(partitions)
        if not self.partitions:
            raise ValueError("rule base needs at least one input partition")
        for i, p in enumerate(self.partitions):
            if len(p.mfs) < 2:
                raise ValueError(f"input {i}: need at least 2 membership functions")
            if p.mfs != _neighbor_footed(p.peaks):
                raise ValueError(
                    f"input {i}: membership function feet must sit at the neighboring peaks"
                )
        self.shape = tuple(len(p.mfs) for p in self.partitions)
        self.n_rules = int(np.prod(self.shape))
        strides = [int(np.prod(self.shape[i + 1 :])) for i in range(len(self.shape))]
        # Per input: the clamp range, the peaks, the last cell's index and
        # the row-major stride.  Below the first peak (or above the last) the
        # shoulder holds the degrees of that peak, so clamping the domain
        # ends into the peak range keeps every degree exact.
        self._cells = tuple(
            (
                min(max(p.lo, p.peaks[0]), p.peaks[-1]),
                min(max(p.hi, p.peaks[0]), p.peaks[-1]),
                p.peaks,
                len(p.peaks) - 2,
                stride,
            )
            for p, stride in zip(self.partitions, strides)
        )
        # Rule offsets of a cell's corners from its lowest corner, row-major.
        self._offsets = np.array(
            [
                sum(s for bit, s in zip(corner, strides) if bit)
                for corner in itertools.product((0, 1), repeat=len(strides))
            ],
            dtype=np.intp,
        )

    @property
    def n_inputs(self) -> int:
        return len(self.partitions)

    def fire(self, x) -> np.ndarray:
        """Normalized firing strength of every rule for input vector ``x``.

        Inputs are clamped to their partition domains.  Each rule's raw
        strength is the product of its per-input memberships; the vector is
        normalized to sum to 1.

        Closed form: input ``i`` clamped between peaks ``k`` and ``k + 1``
        has degrees ``(right - x) / w`` and ``(x - left) / w`` (``w`` the
        peak gap) in those two functions and 0 in every other, since the
        feet sit at the neighboring peaks.  The ``2 ** n_inputs`` corner
        products are scattered into a dense zero vector, so the result is
        bit for bit the normalized dense outer product of
        :meth:`InputPartition.memberships`.
        """
        if len(x) != len(self.partitions):
            raise ValueError(f"expected {len(self.partitions)} inputs, got {len(x)}")
        products = [1.0]
        base = 0
        for (x_lo, x_hi, peaks, last, stride), xi in zip(self._cells, x):
            xc = min(max(xi, x_lo), x_hi)
            k = min(bisect_right(peaks, xc) - 1, last)
            left, right = peaks[k], peaks[k + 1]
            width = right - left
            low, high = (right - xc) / width, (xc - left) / width
            products = [p * d for p in products for d in (low, high)]
            base += k * stride
        raw = np.zeros(self.n_rules)
        raw[base + self._offsets] = products
        return raw / raw.sum()

    def to_dict(self) -> dict:
        """Peak-parameterized layout, sufficient to rebuild the rule base."""
        return {
            "inputs": [
                {"lo": p.lo, "hi": p.hi, "peaks": list(p.peaks)} for p in self.partitions
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RuleBase":
        return cls(
            InputPartition(
                lo=float(spec["lo"]),
                hi=float(spec["hi"]),
                mfs=_neighbor_footed([float(v) for v in spec["peaks"]]),
            )
            for spec in data["inputs"]
        )


def build_default_partitions(
    distance_domain: tuple[float, float] = DISTANCE_DOMAIN,
    angle_domain: tuple[float, float] = ANGLE_DOMAIN,
    n_mfs: int = 5,
) -> RuleBase:
    """Rule base for the four chase features: [distance, angle, distance, angle]."""
    distance = uniform_partition(*distance_domain, n_mfs=n_mfs)
    angle = uniform_partition(*angle_domain, n_mfs=n_mfs)
    return RuleBase([distance, angle, distance, angle])


def infer(phi, params) -> float:
    """Firing-weighted sum of rule consequents: ``sum_l phi_l * params_l``."""
    phi = np.asarray(phi, dtype=float)
    params = np.asarray(params, dtype=float)
    if phi.shape != params.shape:
        raise ValueError(f"length mismatch: firing {phi.shape} vs params {params.shape}")
    return float(phi @ params)


def firing_entropy(phi) -> float:
    """Shannon entropy (nats) of a firing vector; a rule-activation spread diagnostic."""
    phi = np.asarray(phi, dtype=float)
    active = phi[phi > 0.0]
    return float(-(active * np.log(active)).sum())
