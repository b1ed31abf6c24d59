"""Exact piecewise-linear interval maps and the base homeomorphism.

The base map halves every point below 2/3 and stretches [2/3, 1] affinely
back onto [1/3, 1].  It fixes 0 and 1, moves every interior point down, and
flips the parity class of every dyadic it touches.

Breakpoints and arguments are checked Fractions; nothing here coerces them.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .rationals import format_rational

ZERO = Fraction(0)
ONE = Fraction(1)

#: Branch point of the arc attachments; every letter of an index word is
#: compared against it.
OMEGA = Fraction(1, 3)


@dataclass(frozen=True)
class PLMap:
    """Continuous piecewise-linear map given by its breakpoints.

    ``xs`` strictly increasing, ``ys`` of equal length; the map is affine
    between consecutive breakpoints.
    """

    xs: tuple[Fraction, ...]
    ys: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise DomainError("PLMap needs matching breakpoint lists, length >= 2")
        for a, b in zip(self.xs, self.xs[1:]):
            if not a < b:
                raise DomainError("PLMap breakpoints must strictly increase")

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return self.xs[0], self.xs[-1]

    def apply(self, t: Fraction) -> Fraction:
        if not (self.xs[0] <= t <= self.xs[-1]):
            raise DomainError(
                f"{format_rational(t)} outside domain "
                f"[{format_rational(self.xs[0])}, {format_rational(self.xs[-1])}]"
            )
        i = bisect.bisect_right(self.xs, t) - 1
        if i == len(self.xs) - 1:
            return self.ys[-1]
        x0, x1 = self.xs[i], self.xs[i + 1]
        y0, y1 = self.ys[i], self.ys[i + 1]
        return y0 + (t - x0) * (y1 - y0) / (x1 - x0)

    __call__ = apply

    def slopes(self) -> list[Fraction]:
        return [
            (y1 - y0) / (x1 - x0)
            for (x0, x1, y0, y1) in zip(self.xs, self.xs[1:], self.ys, self.ys[1:])
        ]

    def invert(self, v: Fraction) -> Fraction:
        """Unique preimage; the map must be strictly increasing, as
        ``BASE_MAP`` and every frame diagonal of a staged engine are."""
        if not (self.ys[0] <= v <= self.ys[-1]):
            raise DomainError(
                f"{format_rational(v)} outside image "
                f"[{format_rational(self.ys[0])}, {format_rational(self.ys[-1])}]"
            )
        i = bisect.bisect_right(self.ys, v) - 1
        if i == len(self.ys) - 1:
            return self.xs[-1]
        x0, x1 = self.xs[i], self.xs[i + 1]
        y0, y1 = self.ys[i], self.ys[i + 1]
        return x0 + (v - y0) * (x1 - x0) / (y1 - y0)


#: The base homeomorphism of [0, 1].
BASE_MAP = PLMap(
    xs=(ZERO, Fraction(2, 3), ONE),
    ys=(ZERO, OMEGA, ONE),
)


def base_forward(t: Fraction) -> Fraction:
    return BASE_MAP.apply(t)


def base_backward(v: Fraction) -> Fraction:
    return BASE_MAP.invert(v)


def frame_diagonal(
    source: tuple[Fraction, Fraction], target: tuple[Fraction, Fraction]
) -> PLMap:
    """Affine map carrying the source interval onto the target one."""
    (a, b), (a2, b2) = source, target
    if not a < b:
        raise DomainError("degenerate source interval")
    return PLMap(xs=(a, b), ys=(a2, b2))
