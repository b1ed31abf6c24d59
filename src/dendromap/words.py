"""Symbolic words: dyadic index words, their parity words, and the odometer.

An index word is a finite tuple of dyadic rationals in (0, 1).  Its parity
word is the tuple of parity classes of the letters.  Parity words are added
to by the odometer: least significant bit first, carry moving rightward,
overflow beyond the last position discarded.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DomainError
from .rationals import as_fraction, is_dyadic, parity_class

QWord = tuple[Fraction, ...]
Bits = tuple[int, ...]


def as_letter(value) -> Fraction:
    """Validate and normalize one letter: a dyadic rational of (0, 1)."""
    x = as_fraction(value)
    if not (0 < x < 1) or not is_dyadic(x):
        raise DomainError(f"letters must be dyadics of (0, 1), got {x}")
    return x


def as_word(letters: Sequence) -> QWord:
    """Validate and normalize a sequence of dyadic letters in (0, 1)."""
    return tuple(map(as_letter, letters))


def parity_word(word: Sequence[Fraction]) -> Bits:
    """Letterwise parity classes of an index word."""
    return tuple(parity_class(letter) for letter in word)


def as_bits(bits: Sequence[int]) -> Bits:
    for b in bits:
        if b not in (0, 1):
            raise DomainError(f"parity words hold bits only, got {b!r}")
    return tuple(bits)


def odometer_add(bits: Sequence[int], n: int) -> Bits:
    """Add ``n`` to a parity word, least significant bit first.

    Carry travels from position 0 toward the end; whatever carries past the
    last position is discarded.  The empty word absorbs everything.
    """
    bits = as_bits(bits)
    if n < 0:
        raise DomainError("odometer_add takes a nonnegative increment")
    value = sum(b << i for i, b in enumerate(bits))
    value = (value + n) % (1 << len(bits)) if bits else 0
    return tuple((value >> i) & 1 for i in range(len(bits)))


def carry_letter(bits: Sequence[int]) -> int:
    """Final bit of ``bits`` plus one.

    Equals the top bit unless the increment's carry reaches it, which happens
    exactly when every lower bit is 1.  Needs a nonempty word.
    """
    bits = as_bits(bits)
    if not bits:
        raise DomainError("carry_letter of the empty word is undefined")
    if all(b == 1 for b in bits[:-1]):
        return (bits[-1] + 1) & 1
    return bits[-1]


def parse_bits(text: str) -> Bits:
    """Parse a nonempty parity word written over 0/1, like ``"010"``."""
    if not text or any(ch not in "01" for ch in text):
        raise DomainError(f"parity words are nonempty 0/1 strings, got {text!r}")
    return tuple(int(ch) for ch in text)


def format_bits(bits: Sequence[int]) -> str:
    return "".join(str(b) for b in bits)
