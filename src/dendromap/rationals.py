"""Exact rational helpers: dyadic decomposition, parity classes, canonical scans.

Every quantity in this package is a ``fractions.Fraction``.  Dyadic rationals
in (0, 1) are written p / 2**q with p odd; the *parity class* of such a number
is q mod 2.  The canonical enumeration orders dyadics by (q, p) lexicographic
and is the universal tie-breaker whenever a construction says "pick the first
available point".

Values enter through :func:`as_fraction`; every other helper here takes
Fractions (ints also work) and does not coerce its arguments again.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .errors import BudgetExceeded, DomainError

#: Defensive cap on the exponent scanned by :func:`dyadics_in`.  A scan for
#: a first free point of a nonempty open interval always terminates long
#: before this; hitting the cap indicates a caller bug (empty interval passed
#: as nonempty).
MAX_SCAN_EXPONENT = 4096


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like ``"3/8"``, and Fractions to Fraction.

    Floats are refused, and so are exponent literals: one as short as
    ``"1e99999999"`` takes minutes to expand.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if "e" in value.lower():
                raise ValueError("exponent literal")
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"not a rational literal: {value!r}") from exc
    raise DomainError(f"cannot interpret {value!r} as an exact rational")


def format_rational(x: Fraction) -> str:
    """Render ``x`` as ``"p/q"`` (or ``"n"`` for integers)."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def is_dyadic(x: Fraction) -> bool:
    """True when ``x`` is p / 2**q for some integers p, q >= 0."""
    d = x.denominator
    return d & (d - 1) == 0


def dyadic_parts(x: Fraction) -> tuple[int, int]:
    """Decompose a dyadic ``x`` in (0, 1) as (p, q) with x = p / 2**q, p odd.

    Raises DomainError when ``x`` is not a dyadic rational strictly between
    0 and 1.
    """
    if not (0 < x < 1):
        raise DomainError(f"dyadic_parts needs a point of (0, 1), got {x}")
    if not is_dyadic(x):
        raise DomainError(f"not a dyadic rational: {x}")
    p, d = x.numerator, x.denominator
    q = d.bit_length() - 1
    # p is automatically odd: Fraction is reduced and d is a power of two.
    return p, q


def parity_class(x: Fraction) -> int:
    """The parity class q mod 2 of a dyadic x = p / 2**q in (0, 1)."""
    _, q = dyadic_parts(x)
    return q & 1


def canonical_enumeration() -> Iterator[Fraction]:
    """Yield all dyadics of (0, 1) in (q, p)-lexicographic order.

    1/2, 1/4, 3/4, 1/8, 3/8, 5/8, 7/8, 1/16, ...
    """
    q = 1
    while True:
        denom = 1 << q
        for p in range(1, denom, 2):
            yield Fraction(p, denom)
        q += 1


def dyadic_grid(k: int) -> list[Fraction]:
    """The first 2**k - 1 dyadics of the canonical enumeration.

    These are all p / 2**q with 1 <= q <= k, in canonical order; callers that
    need numeric order sort the list.
    """
    dyadics = canonical_enumeration()
    return [next(dyadics) for _ in range((1 << k) - 1)]


def canonical_key(x: Fraction) -> tuple[int, int]:
    """Sort key realizing the canonical enumeration order."""
    p, q = dyadic_parts(x)
    return (q, p)


def canonical_min(values: Iterable[Fraction]) -> Fraction:
    """The canonically first element of a nonempty iterable of dyadics."""
    vals = list(values)
    if not vals:
        raise DomainError("canonical_min of an empty collection")
    return min(vals, key=canonical_key)


def dyadics_in(parity: int, lo: Fraction, hi: Fraction) -> Iterator[Fraction]:
    """Yield the parity-class dyadics of the open interval (lo, hi) in order.

    The order is the canonical one: the same subsequence as filtering
    :func:`canonical_enumeration` by parity class and by the interval, but
    each exponent q jumps straight to the first numerator above ``lo``, so a
    narrow window costs one step per exponent, not one per candidate.  The
    bounds are compared in integers (p/2**q < hi iff p*hd < hn*2**q); only a
    yielded candidate becomes a Fraction.  The scan stops after exponent
    :data:`MAX_SCAN_EXPONENT`.
    """
    ln, ld = lo.numerator, lo.denominator
    hn, hd = hi.numerator, hi.denominator
    for q in range(2 - parity, MAX_SCAN_EXPONENT + 1, 2):
        denom = 1 << q
        top = hn * denom
        # Smallest odd p with p/denom > lo.
        p = (ln * denom // ld + 1) | 1
        while p < denom and p * hd < top:
            yield Fraction(p, denom)
            p += 2


def first_dyadic_in(
    parity: int,
    interval: tuple[Fraction, Fraction],
    excluded: Iterable[Fraction] = (),
) -> Fraction:
    """Canonically first dyadic of the given parity class in an open interval.

    The first yield of :func:`dyadics_in` outside ``excluded`` wins.  A set,
    frozenset or dict (whose keys count) is used for membership as it is;
    any other iterable is read into a frozenset first.  Raises DomainError
    for an empty interval and BudgetExceeded if the defensive exponent cap
    is hit.
    """
    if parity not in (0, 1):
        raise DomainError(f"parity class must be 0 or 1, got {parity}")
    lo, hi = interval
    if not (lo < hi):
        raise DomainError(f"empty interval ({lo}, {hi})")
    if isinstance(excluded, (set, frozenset, dict)):
        skip = excluded
    else:
        skip = frozenset(excluded)
    for cand in dyadics_in(parity, lo, hi):
        if cand not in skip:
            return cand
    raise BudgetExceeded(
        f"no parity-{parity} dyadic found in ({lo}, {hi}) below exponent "
        f"{MAX_SCAN_EXPONENT}; the interval is effectively empty"
    )
