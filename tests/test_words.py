from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dendromap.errors import DomainError
from dendromap.words import (
    as_word,
    carry_letter,
    format_bits,
    odometer_add,
    parity_word,
    parse_bits,
)


def brute_odometer(bits, n):
    """Oracle: go through the integer the bits encode, LSB first."""
    value = sum(b << i for i, b in enumerate(bits))
    total = (value + n) % (1 << len(bits)) if bits else 0
    return tuple((total >> i) & 1 for i in range(len(bits)))


bit_words = st.lists(st.integers(0, 1), max_size=8).map(tuple)
nonempty_bit_words = st.lists(st.integers(0, 1), min_size=1, max_size=8).map(tuple)


class TestParityWord:
    def test_example(self):
        word = as_word([Fraction(1, 2), Fraction(1, 4), Fraction(3, 8)])
        assert parity_word(word) == (1, 0, 1)

    def test_rejects_non_dyadic_letter(self):
        with pytest.raises(DomainError):
            as_word([Fraction(1, 3)])

    def test_rejects_boundary_letter(self):
        with pytest.raises(DomainError):
            as_word([Fraction(0)])


class TestOdometer:
    def test_carry_falls_off_the_end(self):
        assert odometer_add((0, 1, 1), 2) == (0, 0, 0)

    def test_simple_increment(self):
        assert odometer_add((0, 0), 1) == (1, 0)
        assert odometer_add((1, 0), 1) == (0, 1)
        assert odometer_add((1, 1), 1) == (0, 0)

    def test_empty_word_absorbs(self):
        assert odometer_add((), 5) == ()

    @given(bit_words, st.integers(0, 300))
    def test_matches_integer_oracle(self, bits, n):
        assert odometer_add(bits, n) == brute_odometer(bits, n)

    @given(bit_words, st.integers(0, 40), st.integers(0, 40))
    def test_addition_composes(self, bits, a, b):
        assert odometer_add(odometer_add(bits, a), b) == odometer_add(bits, a + b)

    @given(bit_words, st.integers(0, 40), st.integers(0, 8))
    def test_truncation_commutes(self, bits, n, k):
        assert odometer_add(bits, n)[:k] == odometer_add(bits[:k], n)

    @given(nonempty_bit_words)
    def test_orbit_is_cyclic(self, bits):
        period = 1 << len(bits)
        seen = {odometer_add(bits, n) for n in range(period)}
        assert len(seen) == period
        assert odometer_add(bits, period) == bits


class TestCarryLetter:
    def test_examples(self):
        assert carry_letter((0,)) == 1
        assert carry_letter((1,)) == 0
        assert carry_letter((1, 0)) == 1
        assert carry_letter((0, 0)) == 0
        assert carry_letter((1, 1, 1)) == 0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            carry_letter(())

    @given(nonempty_bit_words)
    def test_is_last_letter_of_increment(self, bits):
        assert carry_letter(bits) == odometer_add(bits, 1)[-1]

    @given(bit_words)
    def test_distinguishes_final_bit(self, prefix):
        assert carry_letter(prefix + (0,)) != carry_letter(prefix + (1,))

    @given(bit_words, st.integers(0, 1), st.integers(0, 20))
    def test_splits_increment(self, prefix, c, n):
        # Adding through the extended word acts as the odometer on the
        # prefix, with the final letter tracking its own carries.
        word = prefix + (c,)
        stepped = word
        for _ in range(n):
            stepped = odometer_add(stepped, 1)
        assert stepped[: len(prefix)] == odometer_add(prefix, n)


class TestFormatting:
    def test_roundtrip(self):
        assert parse_bits("010") == (0, 1, 0)
        assert format_bits((0, 1, 0)) == "010"

    def test_rejects_junk(self):
        for text in ("0x1", "02", ""):
            with pytest.raises(DomainError):
                parse_bits(text)
