"""Product-inference fuzzy rule grid on triangular partitions.

Each input's domain is covered by shouldered triangular membership functions,
one per peak, whose feet sit at the neighboring peaks.  Evenly spaced peaks
make the bank a partition of unity, so the normalized rule firing strengths
of the full cross-product rule grid are exact and the derivative of the
inferred output with respect to a rule consequent is simply that rule's
firing strength.

Because every foot sits at a neighboring peak, an input between peaks ``k``
and ``k + 1`` has nonzero membership in those two functions only.  Rule
firing is therefore computed in closed form: one peak lookup per input gives
its cell and two degrees, and only the ``2 ** n`` rules at the corners of
that cell, for ``n`` inputs (16 of 625 for the default layout), get a nonzero
strength.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InputPartition",
    "RuleBase",
    "uniform_partition",
    "firing_entropy",
]


@dataclass(frozen=True)
class InputPartition:
    """Domain ``[lo, hi]`` and the peaks of its membership functions.

    Function ``k`` is 1 at ``peaks[k]`` and falls linearly to 0 at the
    neighboring peaks; the first and last are shouldered, holding 1 beyond
    their peak.  Inputs are clamped to the domain.
    """

    lo: float
    hi: float
    peaks: tuple[float, ...]

    def __post_init__(self):
        lo, hi, peaks = self.lo, self.hi, self.peaks
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"partition domain must be finite with lo < hi, got ({lo!r}, {hi!r})")
        if len(peaks) < 2:
            raise ValueError(f"need at least 2 membership functions, got {len(peaks)}")
        if not (all(map(math.isfinite, peaks)) and all(a < b for a, b in zip(peaks, peaks[1:]))):
            raise ValueError(f"peaks must be finite and strictly increasing, got {peaks!r}")


def uniform_partition(lo: float, hi: float, n_mfs: int) -> InputPartition:
    """``n_mfs`` evenly spaced peaks from ``lo`` to ``hi``.

    This layout is a partition of unity on ``[lo, hi]``: memberships at any
    point sum to exactly 1.
    """
    if n_mfs < 2:
        raise ValueError("need at least 2 membership functions")
    return InputPartition(lo, hi, tuple(lo + k * (hi - lo) / (n_mfs - 1) for k in range(n_mfs)))


class RuleBase:
    """Full cross-product rule grid over the input partitions.

    Rule ``l`` pairs one membership function per input; rules are ordered
    row-major (the last input varies fastest), matching the flattening of
    the outer product in :meth:`fire`.
    """

    def __init__(self, partitions):
        self.partitions = tuple(partitions)
        if not self.partitions:
            raise ValueError("rule base needs at least one input partition")
        self.shape = tuple(len(p.peaks) for p in self.partitions)
        self.n_rules = int(np.prod(self.shape))
        strides = [int(np.prod(self.shape[i + 1 :])) for i in range(len(self.shape))]
        # Per input: the clamp range, the peaks, the number of cells between
        # them and the row-major stride.  Below the first peak (or above the
        # last) the shoulder holds the degrees of that peak, so clamping the
        # domain ends into the peak range keeps every degree exact.
        self._cells = tuple(
            (
                min(max(p.lo, p.peaks[0]), p.peaks[-1]),
                min(max(p.hi, p.peaks[0]), p.peaks[-1]),
                p.peaks,
                len(p.peaks) - 1,
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

    def fire(self, x) -> np.ndarray:
        """Normalized firing strength of every rule for input vector ``x``.

        Inputs are clamped to their partition domains.  Each rule's raw
        strength is the product of its per-input memberships; the vector is
        normalized to sum to 1.

        Closed form: input ``i`` clamped between peaks ``k`` and ``k + 1``
        has degrees ``(right - x) / w`` and ``(x - left) / w`` (``w`` the
        peak gap) in those two functions and 0 in every other, since the
        feet sit at the neighboring peaks.  The ``2 ** len(x)`` corner
        products are scattered into a dense zero vector, so the result is
        bit for bit the normalized dense outer product of every input's
        membership degrees (``tests/test_fuzzy.py`` keeps that reference).
        """
        if len(x) != len(self.partitions):
            raise ValueError(f"expected {len(self.partitions)} inputs, got {len(x)}")
        products = [1.0]
        base = 0
        for (x_lo, x_hi, peaks, n_cells, stride), xi in zip(self._cells, x):
            # Same result as min(max(...)) (NaN too), at less cost.
            xc = x_lo if xi < x_lo else x_hi if xi > x_hi else xi
            k = bisect_right(peaks, xc, 0, n_cells) - 1  # the last peak closes the last cell
            left, right = peaks[k], peaks[k + 1]
            width = right - left
            low, high = (right - xc) / width, (xc - left) / width
            grown = []
            for p in products:  # row-major, as ((d0 * d1) * d2) * d3
                grown += (p * low, p * high)
            products = grown
            base += k * stride
        raw = np.zeros(self.n_rules)
        raw[base:].put(self._offsets, products)  # through the cell's window: no index array
        raw /= np.add.reduce(raw)  # the dense pairwise sum fixes the last bit, as in the reference
        return raw


def firing_entropy(phi) -> float:
    """Shannon entropy (nats) of a firing vector; a rule-activation spread diagnostic."""
    phi = np.asarray(phi, dtype=float)
    active = phi[phi > 0.0]
    return -float(np.add.reduce(active * np.log(active)))
