from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dendromap.errors import DomainError
from dendromap.plmap import (
    BASE_MAP,
    OMEGA,
    PLMap,
    base_backward,
    base_forward,
    frame_diagonal,
)
from dendromap.rationals import parity_class

dyadics = st.integers(min_value=1, max_value=10).flatmap(
    lambda q: st.integers(min_value=0, max_value=(1 << (q - 1)) - 1).map(
        lambda k: Fraction(2 * k + 1, 1 << q)
    )
)

unit_rationals = st.fractions(min_value=0, max_value=1)


class TestPLMap:
    def test_apply_matches_segment_formula(self):
        f = PLMap(
            xs=(Fraction(0), Fraction(1, 2), Fraction(1)),
            ys=(Fraction(0), Fraction(1), Fraction(1, 4)),
        )
        assert f(Fraction(1, 4)) == Fraction(1, 2)
        assert f(Fraction(3, 4)) == Fraction(5, 8)
        assert f(Fraction(1)) == Fraction(1, 4)

    def test_validation(self):
        with pytest.raises(DomainError):
            PLMap(xs=(Fraction(0), Fraction(0)), ys=(Fraction(0), Fraction(1)))

    def test_range_errors_print_rationals(self):
        f = frame_diagonal((Fraction(0), Fraction(1, 3)), (Fraction(1, 4), Fraction(1)))
        with pytest.raises(DomainError, match=r"^1/2 outside domain \[0, 1/3\]$"):
            f.apply(Fraction(1, 2))
        with pytest.raises(DomainError, match=r"^1/8 outside image \[1/4, 1\]$"):
            f.invert(Fraction(1, 8))

    def test_frame_diagonal(self):
        ell = frame_diagonal(
            (Fraction(0), Fraction(1)), (Fraction(1, 4), Fraction(3, 4))
        )
        assert ell(Fraction(1, 2)) == Fraction(1, 2)
        assert ell.slopes() == [Fraction(1, 2)]


class TestBaseMap:
    def test_frozen_values(self):
        assert base_forward(Fraction(1, 2)) == Fraction(1, 4)
        assert base_forward(Fraction(3, 4)) == Fraction(1, 2)
        assert base_forward(Fraction(2, 3)) == OMEGA
        assert base_forward(Fraction(1)) == Fraction(1)
        assert base_backward(Fraction(1, 2)) == Fraction(3, 4)
        assert base_backward(Fraction(1, 4)) == Fraction(1, 2)
        assert base_backward(OMEGA) == Fraction(2, 3)

    def test_lipschitz_two_both_ways(self):
        assert max(abs(s) for s in BASE_MAP.slopes()) == 2
        assert max(Fraction(1) / s for s in BASE_MAP.slopes()) == 2

    @given(unit_rationals)
    def test_roundtrip(self, t):
        assert base_backward(base_forward(t)) == t

    @given(unit_rationals)
    def test_moves_interior_points_down(self, t):
        v = base_forward(t)
        if 0 < t < 1:
            assert v < t
        else:
            assert v == t

    @given(dyadics)
    def test_flips_parity(self, t):
        assert parity_class(base_forward(t)) == 1 - parity_class(t)
        assert parity_class(base_backward(t)) == 1 - parity_class(t)

    @given(dyadics, st.integers(1, 30))
    def test_backward_iterates_climb_to_one(self, t, n):
        v = t
        for _ in range(n):
            v = base_backward(v)
        assert v > t
        # Above the branch point the gap to 1 halves each backward step.
        if t >= OMEGA:
            assert 1 - v == (1 - t) / (1 << n)

    @given(dyadics)
    def test_forward_iterates_fall_below_any_bound(self, t):
        v = t
        for _ in range(200):
            if v < Fraction(1, 64):
                break
            v = base_forward(v)
        assert v < Fraction(1, 64)
