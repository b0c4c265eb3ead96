"""Apollonius-sphere geometry for a two-agent chase with unequal speeds.

The locus of points X whose distances to two fixed agents keep a constant
ratio ``|XE| / |XP| = a`` is a sphere when ``a != 1``.  With ``a`` the
evader/pursuer speed ratio and ``a < 1``, the sphere encloses exactly the
points the evader can reach before the pursuer, assuming both move in a
straight line at top speed.  The same construction yields the optimal motion
cones: the pursuer aims within ``asin(a)`` of the line of sight, the evader
keeps its heading at least 90 degrees away from the pursuer.

All functions are pure; inputs are 3-vectors: any iterable of 3 finite numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BOUNDARY_TOL",
    "ApolloniusSphere",
    "DegenerateInputError",
    "apollonius_sphere",
    "dominance",
    "pursuit_cone_halfangle",
    "pursuit_offset_angle",
    "EVADER_DOMINANT",
    "BOUNDARY",
    "PURSUER_DOMINANT",
]

# Width of the band around the sphere surface classified as "boundary".
BOUNDARY_TOL = 1e-9

# Below this separation / ratio margin the construction is undefined.
_DEGENERATE_TOL = 1e-12

EVADER_DOMINANT = "evader_dominant"
BOUNDARY = "boundary"
PURSUER_DOMINANT = "pursuer_dominant"


class DegenerateInputError(ValueError):
    """The requested construction is geometrically undefined."""


def _as_point(p, name: str) -> tuple[float, float, float]:
    try:
        point = tuple(map(float, p))
    except (TypeError, ValueError):
        point = ()
    if isinstance(p, (str, bytes)) or len(point) != 3 or not all(map(math.isfinite, point)):
        raise ValueError(f"{name} must be 3 finite numbers, got {p!r}")
    return point


@dataclass(frozen=True)
class ApolloniusSphere:
    """Center and radius of the constant-distance-ratio boundary."""

    center: tuple[float, float, float]
    radius: float


def apollonius_sphere(pursuer, evader, a: float) -> ApolloniusSphere:
    """Dominance boundary for a pursuer/evader pair with speed ratio ``a``.

    ``a`` is evader speed over pursuer speed.  Raises
    :class:`DegenerateInputError` when the agents coincide (within 1e-12 m)
    or ``a`` is 1 (the locus degenerates to the bisecting plane).
    """
    p = _as_point(pursuer, "pursuer")
    e = _as_point(evader, "evader")
    if not (a > 0.0 and math.isfinite(a)):
        raise DegenerateInputError(f"speed ratio must be positive and finite, got {a}")
    denom = 1.0 - a * a
    if abs(denom) < _DEGENERATE_TOL:
        raise DegenerateInputError("speed ratio 1 yields a plane, not a sphere")
    separation = math.dist(p, e)
    if separation < _DEGENERATE_TOL:
        raise DegenerateInputError("coincident agents admit no dominance sphere")
    center = tuple((ec - a * a * pc) / denom for pc, ec in zip(p, e))
    radius = abs(a / denom) * separation
    return ApolloniusSphere(center=center, radius=radius)


def dominance(point, sphere: ApolloniusSphere, a: float, tol: float = BOUNDARY_TOL) -> str:
    """Classify ``point`` against the dominance sphere for a slower evader.

    Returns one of ``"evader_dominant"`` (strictly inside), ``"boundary"``
    (within ``tol`` of the surface), or ``"pursuer_dominant"`` (outside).
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"dominance classification assumes speed ratio in (0, 1), got {a}")
    if not sphere.radius > 0.0:
        raise ValueError("sphere radius must be positive")
    dist = math.dist(_as_point(point, "point"), sphere.center)
    if abs(dist - sphere.radius) <= tol:
        return BOUNDARY
    return EVADER_DOMINANT if dist < sphere.radius else PURSUER_DOMINANT


def pursuit_cone_halfangle(v_pursuer: float, v_evader: float) -> float:
    """Half-angle of the optimal pursuit cone, ``asin(v_evader / v_pursuer)``.

    Only defined for a strictly faster pursuer; the result lies in (0, pi/2).
    """
    if v_pursuer <= 0.0 or v_evader <= 0.0:
        raise ValueError("speeds must be positive")
    if v_evader >= v_pursuer:
        raise ValueError(
            f"pursuit cone requires v_evader < v_pursuer, got {v_evader} >= {v_pursuer}"
        )
    return math.asin(v_evader / v_pursuer)


def pursuit_offset_angle(evader_offset: float, v_pursuer: float, v_evader: float) -> float:
    """Pursuer heading offset that meets an evader ray on the dominance sphere.

    For an evader ray tilted ``evader_offset`` radians off the evader-pursuer
    line, the law of sines at the meeting point gives the pursuer's matching
    offset from its own line of sight: ``asin((v_evader/v_pursuer) * sin(offset))``.
    Maximized at ``evader_offset = pi/2``, where it equals
    :func:`pursuit_cone_halfangle`.
    """
    if v_pursuer <= 0.0 or v_evader <= 0.0:
        raise ValueError("speeds must be positive")
    arg = (v_evader / v_pursuer) * math.sin(evader_offset)
    if not -1.0 <= arg <= 1.0:
        raise ValueError(f"no matching pursuit angle: sine argument {arg} outside [-1, 1]")
    return math.asin(arg)

