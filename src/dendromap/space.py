"""Dendrite point model: codes, arc lengths, convex metric, covers.

Points carry canonical codes.  A cut point is a word of dyadic letters plus a
parameter ``t`` in [0, 1]: the point at parameter ``t`` along the arc named by
the word.  Trailing structure collapses (parameter 0 folds into the word), so
code equality is point equality.  An end point is known only through a finite
prefix of its infinite word and stands for the whole cylinder of ends below
that prefix; every metric answer involving one is an exact rational interval
whose width is controlled by the declared depth.

Arc lengths follow a recursion driven by an injected word-shortening map: the
unit arc has length 1, single-letter arcs have length ``2**-q``, and longer
arcs divide the length of their image word by ``L_m = ((m+1)/m)**2`` once per
application needed to drop below the current length.  This makes every arc of
a length-``m`` word no longer than ``2/(m+1)**2``, which yields the tail
bounds used for end points.

The metric is the path metric induced by the lengths: for distinct codes it is
the displacement on the first arc where they diverge plus the full lengths of
all deeper arcs on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Union

from .errors import BudgetExceeded, DomainError, PrecisionError
from .rationals import as_fraction, dyadic_parts, format_rational
from .words import QWord, as_bits, as_word, parity_word

#: Defensive cap on length-recursion descent; the shortening map must reach a
#: shorter word well before this.
MAX_DESCENT = 4096


@dataclass(frozen=True)
class Interval:
    """Closed rational interval certifying a partially known quantity."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise DomainError(f"interval [{self.lo}, {self.hi}] is empty")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)


@dataclass(frozen=True)
class CutPoint:
    word: QWord
    t: Fraction


@dataclass(frozen=True)
class EndPoint:
    prefix: QWord

    @property
    def depth(self) -> int:
        return len(self.prefix)


PointRep = Union[CutPoint, EndPoint]


def cut(word, t) -> CutPoint:
    """Canonical cut point: parameter 0 folds into the word."""
    word = as_word(word)
    t = as_fraction(t)
    if not 0 <= t <= 1:
        raise DomainError(f"arc parameter {t} outside [0, 1]")
    if t == 0 and word:
        return CutPoint(word[:-1], word[-1])
    return CutPoint(word, t)


def end(prefix) -> EndPoint:
    prefix = as_word(prefix)
    if len(prefix) < 2:
        raise DomainError("end points need a declared depth of at least 2")
    return EndPoint(prefix)


ROOT = CutPoint((), Fraction(0))
TOP = CutPoint((), Fraction(1))


def point_to_json(x: PointRep) -> dict:
    if isinstance(x, CutPoint):
        return {
            "cut": {
                "word": [format_rational(r) for r in x.word],
                "t": format_rational(x.t),
            }
        }
    return {
        "end": {
            "prefix": [format_rational(r) for r in x.prefix],
            "depth": x.depth,
        }
    }


def seq_of(x: CutPoint) -> tuple[Fraction, ...]:
    """The code sequence with the parameter appended; trailing zero dropped."""
    if x.t == 0:
        return x.word
    return x.word + (x.t,)


class LengthTable:
    """Memoized arc lengths over an injected word-shortening map.

    A word is validated only when its length is not memoized yet; the map
    must return validated words, as ``RhoContext.rho`` does.
    """

    def __init__(self, rho: Callable[[QWord], QWord]):
        self._rho = rho
        self._memo: dict[QWord, Fraction] = {(): Fraction(1)}

    def lambda_of(self, word) -> Fraction:
        word = tuple(word)
        if word not in self._memo:
            word = as_word(word)
        if word in self._memo:
            return self._memo[word]
        m = len(word)
        if m == 1:
            _, q = dyadic_parts(word[0])
            value = Fraction(1, 2**q)
        else:
            cur = word
            p = 0
            while len(cur) >= m:
                cur = self._rho(cur)
                p += 1
                if p > MAX_DESCENT:
                    raise BudgetExceeded(f"length recursion stuck at {word}")
            L_m = Fraction((m + 1) ** 2, m * m)
            value = self.lambda_of(cur) / L_m**p
        if not 0 < value < 1:
            raise DomainError(f"length {value} for {word} outside (0, 1)")
        self._memo[word] = value
        return value

    @staticmethod
    def universal_bound(m: int) -> Fraction:
        """Every length-m word (m >= 1) has lambda <= 2/(m+1)**2."""
        if m < 1:
            return Fraction(1)
        return Fraction(2, (m + 1) ** 2)

    @staticmethod
    def tail_bound(depth: int) -> Fraction:
        """Strict bound on sum over i >= depth of lambda at length i."""
        # sum 2/(i+1)^2 < 2/(depth + 1/2) by the telescoping 1/(j^2 - 1/4).
        return Fraction(4, 2 * depth + 1)


def _known_sum(table: LengthTable, seq, start: int) -> Fraction:
    total = Fraction(0)
    for i in range(start, len(seq)):
        if seq[i] != 0:
            total += seq[i] * table.lambda_of(seq[:i])
    return total


def _first_diff(sx, sy, limit=None):
    n = max(len(sx), len(sy)) if limit is None else limit
    for i in range(n):
        a = sx[i] if i < len(sx) else Fraction(0)
        b = sy[i] if i < len(sy) else Fraction(0)
        if a != b:
            return i
    return None


def distance(x: PointRep, y: PointRep, table: LengthTable):
    """Exact distance for cut/cut; a certified Interval when ends are involved."""
    if isinstance(x, CutPoint) and isinstance(y, CutPoint):
        sx, sy = seq_of(x), seq_of(y)
        k = _first_diff(sx, sy)
        if k is None:
            return Fraction(0)
        a = sx[k] if k < len(sx) else Fraction(0)
        b = sy[k] if k < len(sy) else Fraction(0)
        head = abs(a - b) * table.lambda_of(sx[:k])
        return head + _known_sum(table, sx, k + 1) + _known_sum(table, sy, k + 1)
    if isinstance(x, CutPoint):
        return _end_cut(y, x, table)
    if isinstance(y, CutPoint):
        return _end_cut(x, y, table)
    return _end_end(x, y, table)


def _end_cut(x: EndPoint, y: CutPoint, table: LengthTable) -> Interval:
    P, D = x.prefix, x.depth
    sy = seq_of(y)
    k = _first_diff(P, sy, limit=D)
    tail = table.tail_bound(D)
    if k is None:
        # The cut point lies inside the cylinder below the prefix.
        extra = _known_sum(table, sy, D)
        return Interval(Fraction(0), extra + tail)
    b = sy[k] if k < len(sy) else Fraction(0)
    head = abs(P[k] - b) * table.lambda_of(P[:k])
    known = head + _known_sum(table, P, k + 1) + _known_sum(table, sy, k + 1)
    return Interval(known, known + tail)


def _end_end(x: EndPoint, y: EndPoint, table: LengthTable) -> Interval:
    if y.depth < x.depth:
        x, y = y, x
    P1, D1 = x.prefix, x.depth
    P2, D2 = y.prefix, y.depth
    tails = table.tail_bound(D1) + table.tail_bound(D2)
    k = _first_diff(P1, P2, limit=D1)
    if k is None:
        extra = _known_sum(table, P2, D1)
        return Interval(Fraction(0), extra + tails)
    head = abs(P1[k] - P2[k]) * table.lambda_of(P1[:k])
    known = head + _known_sum(table, P1, k + 1) + _known_sum(table, P2, k + 1)
    return Interval(known, known + tails)


def in_D_gamma(x: PointRep, gamma) -> str:
    """Classify a point against one cover cell: interior, boundary, outside."""
    gamma = as_bits(gamma)
    m = len(gamma)
    if m == 0:
        return "interior"
    if isinstance(x, EndPoint):
        if x.depth < m:
            raise PrecisionError(
                f"end prefix of depth {x.depth} cannot be classified at depth {m}"
            )
        return "interior" if parity_word(x.prefix[:m]) == gamma else "outside"
    if len(x.word) >= m:
        return "interior" if parity_word(x.word[:m]) == gamma else "outside"
    pw = parity_word(x.word)
    return "boundary" if pw == gamma[: len(pw)] else "outside"


def retraction(x: PointRep, m: int) -> CutPoint:
    """First point of the depth-m skeleton on the path from x."""
    if m < 0:
        raise DomainError("skeleton depth must be nonnegative")
    if isinstance(x, CutPoint):
        if len(x.word) <= m:
            return x
        return cut(x.word[:m], x.word[m])
    if x.depth < m + 1:
        raise PrecisionError(
            f"end prefix of depth {x.depth} cannot be retracted to depth {m}"
        )
    return cut(x.prefix[:m], x.prefix[m])


def factor_distance(x: PointRep, y: PointRep, m: int, table: LengthTable):
    """Distance after collapsing the depth-m skeleton to a point."""
    rx, ry = retraction(x, m), retraction(y, m)
    if rx == ry:
        return distance(x, y, table)
    dx = distance(x, rx, table)
    dy = distance(y, ry, table)
    if isinstance(dx, Fraction) and isinstance(dy, Fraction):
        return dx + dy
    if isinstance(dx, Fraction):
        dx = Interval(dx, dx)
    if isinstance(dy, Fraction):
        dy = Interval(dy, dy)
    return dx + dy


def arcs_of_skeleton(m: int, letters: Iterable[Fraction]) -> list[QWord]:
    """All arc words of depth <= m over a finite letter set, sorted shallow first."""
    letters = sorted(set(as_word(letters)))
    out: list[QWord] = [()]
    frontier: list[QWord] = [()]
    for _ in range(m):
        frontier = [w + (r,) for w in frontier for r in letters]
        out.extend(frontier)
    return out
