from fractions import Fraction
from itertools import dropwhile, islice, takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendromap.errors import DomainError
from dendromap.rationals import (
    as_fraction,
    canonical_enumeration,
    canonical_key,
    canonical_min,
    dyadic_parts,
    dyadics_in,
    first_dyadic_in,
    format_rational,
    is_dyadic,
    parity_class,
)


def brute_first_dyadic(parity, lo, hi, excluded=(), max_q=16):
    """Oracle: materialize the canonical list and filter it."""
    skip = set(excluded)
    out = []
    for q in range(1, max_q + 1):
        for p in range(1, 1 << q, 2):
            out.append((q, p, Fraction(p, 1 << q)))
    for q, _, x in out:
        if q % 2 == parity and lo < x < hi and x not in skip:
            return x
    raise AssertionError("oracle found nothing; widen max_q")


# Strategy: dyadics p/2^q with q <= 10, p odd.
dyadics = st.integers(min_value=1, max_value=10).flatmap(
    lambda q: st.integers(min_value=0, max_value=(1 << (q - 1)) - 1).map(
        lambda k: Fraction(2 * k + 1, 1 << q)
    )
)


class TestDyadicParts:
    def test_examples(self):
        assert dyadic_parts(Fraction(1, 2)) == (1, 1)
        assert dyadic_parts(Fraction(3, 8)) == (3, 3)
        assert dyadic_parts(Fraction(9, 16)) == (9, 4)

    def test_rejects_non_dyadic(self):
        with pytest.raises(DomainError):
            dyadic_parts(Fraction(1, 3))

    def test_rejects_endpoints(self):
        for bad in (Fraction(0), Fraction(1), Fraction(3, 2)):
            with pytest.raises(DomainError):
                dyadic_parts(bad)

    @given(dyadics)
    def test_roundtrip(self, x):
        p, q = dyadic_parts(x)
        assert p % 2 == 1
        assert 1 <= p < (1 << q)
        assert Fraction(p, 1 << q) == x


class TestParity:
    def test_examples(self):
        assert parity_class(Fraction(1, 2)) == 1
        assert parity_class(Fraction(1, 4)) == 0
        assert parity_class(Fraction(9, 16)) == 0
        assert parity_class(Fraction(5, 8)) == 1

    @given(dyadics)
    def test_halving_flips_parity(self, x):
        assert parity_class(x / 2) == 1 - parity_class(x)


class TestCanonicalOrder:
    def test_enumeration_prefix(self):
        gen = canonical_enumeration()
        got = [next(gen) for _ in range(7)]
        assert got == [
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(3, 4),
            Fraction(1, 8),
            Fraction(3, 8),
            Fraction(5, 8),
            Fraction(7, 8),
        ]

    def test_canonical_min(self):
        vals = [Fraction(3, 8), Fraction(3, 4), Fraction(7, 8)]
        assert canonical_min(vals) == Fraction(3, 4)

    @given(st.lists(dyadics, min_size=1, max_size=8))
    def test_min_agrees_with_sort(self, vals):
        assert canonical_min(vals) == sorted(vals, key=canonical_key)[0]


class TestFirstDyadicIn:
    def test_parity0_unit_interval(self):
        assert first_dyadic_in(0, (Fraction(0), Fraction(1))) == Fraction(1, 4)

    def test_parity1_unit_interval(self):
        assert first_dyadic_in(1, (Fraction(0), Fraction(1))) == Fraction(1, 2)

    def test_exclusion_skips_to_next_exponent(self):
        got = first_dyadic_in(
            1, (Fraction(0), Fraction(1)), excluded={Fraction(1, 2)}
        )
        assert got == Fraction(1, 8)

    def test_empty_interval_rejected(self):
        with pytest.raises(DomainError):
            first_dyadic_in(0, (Fraction(1, 2), Fraction(1, 2)))

    @given(
        st.integers(min_value=0, max_value=1),
        dyadics,
        dyadics,
        st.sets(dyadics, max_size=4),
    )
    def test_matches_brute_oracle(self, parity, a, b, excluded):
        lo, hi = min(a, b), max(a, b)
        if lo == hi:
            hi = lo + Fraction(1, 1024)
        got = first_dyadic_in(parity, (lo, hi), excluded)
        assert got == brute_first_dyadic(parity, lo, hi, excluded)
        assert lo < got < hi
        assert parity_class(got) == parity
        assert got not in excluded


#: The canonical enumeration through exponent CANON_Q, materialized once.
CANON_Q = 12
CANON = list(islice(canonical_enumeration(), (1 << CANON_Q) - 1))

# Window bounds: 0, dyadics, and non-dyadic rationals.
bounds = st.one_of(
    st.just(Fraction(0)),
    dyadics,
    st.fractions(min_value=0, max_value=1, max_denominator=1000),
)


class TestDyadicsIn:
    def test_prefix_examples(self):
        got = list(islice(dyadics_in(1, Fraction(0), Fraction(1)), 5))
        assert got == [
            Fraction(1, 2),
            Fraction(1, 8),
            Fraction(3, 8),
            Fraction(5, 8),
            Fraction(7, 8),
        ]
        got = list(islice(dyadics_in(0, Fraction(1, 3), Fraction(1, 2)), 3))
        assert got == [Fraction(7, 16), Fraction(23, 64), Fraction(25, 64)]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=1),
        bounds,
        st.one_of(
            # Windows narrower than the finest scanned exponent, and wide ones.
            st.integers(min_value=CANON_Q - 2, max_value=CANON_Q + 6).map(
                lambda k: Fraction(1, 1 << k)
            ),
            st.fractions(min_value=Fraction(1, 1 << 20), max_value=1),
        ),
    )
    def test_matches_filtered_canonical_enumeration(self, parity, lo, width):
        hi = lo + width
        deep = 1 << (CANON_Q + 1)
        brute = [x for x in CANON if parity_class(x) == parity and lo < x < hi]
        got = takewhile(lambda x: x.denominator < deep, dyadics_in(parity, lo, hi))
        assert list(got) == brute
        # A window inside (0, 1) holds dyadics of every depth, and the scan
        # goes on past the materialized prefix to find them.
        if hi <= 1:
            beyond = dropwhile(lambda x: x.denominator < deep, dyadics_in(parity, lo, hi))
            nxt = next(beyond)
            assert lo < nxt < hi and parity_class(nxt) == parity

    def test_stops_at_the_exponent_cap(self, monkeypatch):
        from dendromap import rationals

        monkeypatch.setattr(rationals, "MAX_SCAN_EXPONENT", 5)
        got = list(dyadics_in(1, Fraction(1, 3), Fraction(1, 2)))
        assert got == [Fraction(3, 8), Fraction(11, 32), Fraction(13, 32), Fraction(15, 32)]


class TestFormatting:
    def test_roundtrip_examples(self):
        for s in ("1/2", "17/64", "0", "1"):
            assert format_rational(as_fraction(s)) == s

    def test_bad_literal(self):
        with pytest.raises(DomainError):
            as_fraction("one half")

    @given(dyadics)
    def test_roundtrip_property(self, x):
        assert as_fraction(format_rational(x)) == x
