"""Point codes, arc lengths, the convex metric, covers, and retractions.

Length values here use simple injected shortening maps (drop the last letter,
or a small table with a two-step descent) so every expected number below is
hand-computable from the recursion alone.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendromap.errors import BudgetExceeded, DomainError, PrecisionError
from dendromap.space import (
    ROOT,
    TOP,
    Interval,
    LengthTable,
    arcs_of_skeleton,
    cut,
    distance,
    end,
    factor_distance,
    in_D_gamma,
    retraction,
    seq_of,
)

F = Fraction


def drop_last(word):
    return word[:-1]


@pytest.fixture()
def table():
    return LengthTable(drop_last)


class TestPoints:
    def test_parameter_zero_folds_into_word(self):
        assert cut((F(1, 2),), 0) == cut((), F(1, 2))
        assert cut((F(1, 2), F(1, 4)), 0) == cut((F(1, 2),), F(1, 4))

    def test_root_and_top(self):
        assert ROOT == cut((), 0)
        assert TOP == cut((), 1)
        assert seq_of(ROOT) == ()
        assert seq_of(TOP) == (F(1),)

    def test_validation(self):
        with pytest.raises(DomainError):
            cut((F(1, 3),), 0)
        with pytest.raises(DomainError):
            cut((), F(3, 2))
        with pytest.raises(DomainError):
            end((F(1, 2),))


class TestLengthTable:
    def test_base_lengths(self, table):
        assert table.lambda_of(()) == 1
        assert table.lambda_of((F(1, 2),)) == F(1, 2)
        assert table.lambda_of((F(3, 4),)) == F(1, 4)
        assert table.lambda_of((F(3, 8),)) == F(1, 8)

    def test_recursion_single_step(self, table):
        assert table.lambda_of((F(1, 2), F(1, 2))) == F(2, 9)
        assert table.lambda_of((F(1, 2), F(3, 4))) == F(2, 9)
        assert table.lambda_of((F(1, 4), F(1, 2))) == F(1, 9)
        assert table.lambda_of((F(1, 2), F(1, 2), F(1, 2))) == F(1, 8)

    def test_recursion_two_step_descent(self):
        special = {
            (F(1, 2), F(3, 8)): (F(1, 4), F(1, 2)),
            (F(1, 4), F(1, 2)): (F(1, 4),),
        }
        rho = lambda w: special.get(w, w[:-1])
        t = LengthTable(rho)
        # Two applications are needed to shorten, so divide by L_2 twice.
        assert t.lambda_of((F(1, 2), F(3, 8))) == F(1, 4) * F(16, 81)

    def test_stuck_recursion_trips_budget(self):
        t = LengthTable(lambda w: w)
        with pytest.raises(BudgetExceeded):
            t.lambda_of((F(1, 2), F(1, 2)))

    def test_universal_bound(self, table):
        words = [
            (F(1, 2),),
            (F(1, 2), F(1, 2)),
            (F(1, 2), F(1, 2), F(1, 2)),
            (F(3, 4), F(1, 4), F(5, 8), F(1, 2)),
        ]
        for w in words:
            assert table.lambda_of(w) <= LengthTable.universal_bound(len(w))
        # The bound is sharp along the all-halves words.
        assert table.lambda_of((F(1, 2), F(1, 2))) == LengthTable.universal_bound(2)

    def test_tail_bound_dominates_partial_sums(self):
        for depth in (2, 3, 4):
            partial = sum(
                (2 * Fraction(1, (i + 1) ** 2) for i in range(depth, depth + 60)),
                Fraction(0),
            )
            assert partial < LengthTable.tail_bound(depth)


class TestCutDistance:
    def test_root_arc(self, table):
        assert distance(cut((), F(1, 4)), cut((), F(3, 4)), table) == F(1, 2)
        assert distance(ROOT, TOP, table) == 1

    def test_same_arc(self, table):
        x = cut((F(1, 2),), F(1, 4))
        y = cut((F(1, 2),), F(5, 8))
        assert distance(x, y, table) == F(3, 8) * F(1, 2)

    def test_nested_codes(self, table):
        assert distance(cut((), F(1, 2)), cut((F(1, 2),), F(1, 4)), table) == F(1, 8)

    def test_across_branch(self, table):
        x = cut((F(1, 2),), F(1, 4))
        y = cut((F(1, 2), F(3, 4)), F(1, 2))
        assert distance(x, y, table) == F(1, 4) + F(1, 2) * F(2, 9)

    def test_through_root(self, table):
        x = cut((F(1, 4),), F(1, 2))
        y = cut((F(3, 4),), F(1, 2))
        assert distance(x, y, table) == F(3, 4)

    def test_equal_codes_give_zero(self, table):
        assert distance(cut((F(1, 2),), 0), cut((), F(1, 2)), table) == 0

    def test_additivity_through_branch_point(self, table):
        x = cut((F(1, 2), F(1, 4)), F(1, 2))
        a = cut((), F(1, 2))
        y = cut((F(1, 4),), F(1, 2))
        assert distance(x, y, table) == distance(x, a, table) + distance(a, y, table)


POOL = [
    ROOT,
    TOP,
    cut((), F(1, 4)),
    cut((), F(1, 2)),
    cut((), F(3, 4)),
    cut((F(1, 2),), F(1, 4)),
    cut((F(1, 2),), F(7, 8)),
    cut((F(1, 4),), F(1, 2)),
    cut((F(3, 4),), F(1, 3)),
    cut((F(1, 2), F(1, 2)), F(1, 2)),
    cut((F(1, 2), F(3, 4)), F(1, 5)),
    cut((F(1, 4), F(1, 2)), F(2, 3)),
]

points = st.sampled_from(POOL)


class TestMetricAxioms:
    @settings(max_examples=60, deadline=None)
    @given(points, points)
    def test_symmetry_and_identity(self, x, y):
        t = LengthTable(drop_last)
        d = distance(x, y, t)
        assert d == distance(y, x, t)
        assert d >= 0
        assert (d == 0) == (x == y)

    @settings(max_examples=60, deadline=None)
    @given(points, points, points)
    def test_triangle(self, x, y, z):
        t = LengthTable(drop_last)
        assert distance(x, z, t) <= distance(x, y, t) + distance(y, z, t)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(), (F(1, 2),), (F(3, 4), F(1, 4))]),
        st.permutations([F(1, 8), F(1, 2), F(6, 7)]),
    )
    def test_additivity_along_one_arc(self, word, params):
        t = LengthTable(drop_last)
        s, u, v = sorted(params)
        a, b, c = cut(word, s), cut(word, u), cut(word, v)
        assert distance(a, b, t) + distance(b, c, t) == distance(a, c, t)


class TestEndDistance:
    def test_end_versus_cut_outside(self, table):
        x = end((F(1, 2), F(1, 2)))
        d = distance(x, cut((), F(1, 4)), table)
        assert isinstance(d, Interval)
        assert d.lo == F(1, 2)
        assert d.width == LengthTable.tail_bound(2) == F(4, 5)

    def test_end_versus_cut_inside_cylinder(self, table):
        x = end((F(1, 2), F(1, 2)))
        y = cut((F(1, 2), F(1, 2)), F(1, 2))
        d = distance(x, y, table)
        assert d.lo == 0
        assert d.hi == F(1, 9) + F(4, 5)

    def test_end_versus_end_split(self, table):
        x = end((F(1, 2), F(1, 2)))
        y = end((F(1, 4), F(1, 2), F(1, 2)))
        d = distance(x, y, table)
        assert d.lo == F(49, 72)
        assert d.hi == F(49, 72) + F(4, 5) + F(4, 7)

    def test_end_versus_end_nested(self, table):
        x = end((F(1, 2), F(1, 2)))
        y = end((F(1, 2), F(1, 2), F(1, 4)))
        d = distance(x, y, table)
        assert d.lo == 0
        assert d.hi == F(1, 18) + F(4, 5) + F(4, 7)

    def test_same_prefix_still_an_interval(self, table):
        x = end((F(1, 2), F(1, 2)))
        d = distance(x, x, table)
        assert d.lo == 0 <= d.hi

    def test_width_shrinks_with_depth(self, table):
        y = cut((), F(1, 4))
        prefix = []
        widths = []
        for letter in (F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1, 2)):
            prefix.append(letter)
            if len(prefix) >= 2:
                widths.append(distance(end(tuple(prefix)), y, table).width)
        assert widths == sorted(widths, reverse=True)
        for depth, w in zip(range(2, 8), widths):
            assert w <= Fraction(8, depth + 1)


class TestCoverMembership:
    def test_depth_zero_cell_is_everything(self):
        assert in_D_gamma(ROOT, ()) == "interior"

    def test_interior_by_parity_prefix(self):
        assert in_D_gamma(cut((F(1, 2),), F(1, 2)), (1,)) == "interior"
        assert in_D_gamma(cut((F(1, 4),), F(1, 2)), (1,)) == "outside"
        assert in_D_gamma(cut((F(1, 2), F(1, 4)), F(1, 3)), (1, 0)) == "interior"
        assert in_D_gamma(cut((F(1, 2), F(1, 2)), F(1, 3)), (1, 0)) == "outside"

    def test_shallow_points_are_boundary_or_outside(self):
        assert in_D_gamma(cut((F(1, 2),), F(3, 8)), (1, 0)) == "boundary"
        assert in_D_gamma(cut((F(1, 4),), F(3, 8)), (1, 0)) == "outside"

    def test_root_is_boundary_of_every_cell(self):
        for gamma in [(0,), (1,), (0, 1), (1, 1, 0)]:
            assert in_D_gamma(ROOT, gamma) == "boundary"
            assert in_D_gamma(cut((), F(1, 2)), gamma) == "boundary"

    def test_end_points_classify_by_prefix_parity(self):
        x = end((F(1, 2), F(1, 4)))
        assert in_D_gamma(x, (1, 0)) == "interior"
        assert in_D_gamma(x, (1, 1)) == "outside"
        with pytest.raises(PrecisionError):
            in_D_gamma(x, (1, 0, 1))

    def test_cells_partition_interiors_at_each_depth(self):
        # A deep-enough point is interior to exactly one cell per depth.
        x = cut((F(1, 2), F(1, 4), F(3, 8)), F(1, 2))
        for m in (1, 2, 3):
            cells = [tuple((n >> i) & 1 for i in range(m)) for n in range(2**m)]
            verdicts = [in_D_gamma(x, gamma) for gamma in cells]
            assert verdicts.count("interior") == 1
            assert verdicts.count("outside") == 2**m - 1

    def test_bad_parity_word(self):
        with pytest.raises(DomainError):
            in_D_gamma(ROOT, (2,))


class TestRetraction:
    def test_shallow_points_are_fixed(self):
        x = cut((F(1, 2),), F(1, 4))
        assert retraction(x, 1) == x
        assert retraction(x, 5) == x
        assert retraction(ROOT, 0) == ROOT

    def test_deep_cut_truncates(self):
        x = cut((F(1, 2), F(1, 4), F(1, 2)), F(1, 3))
        assert retraction(x, 1) == cut((F(1, 2),), F(1, 4))
        assert retraction(x, 0) == cut((), F(1, 2))
        assert retraction(x, 3) == x

    def test_end_retraction_needs_depth(self):
        x = end((F(1, 2), F(1, 4)))
        assert retraction(x, 0) == cut((), F(1, 2))
        assert retraction(x, 1) == cut((F(1, 2),), F(1, 4))
        with pytest.raises(PrecisionError):
            retraction(x, 2)

    def test_negative_depth_rejected(self):
        with pytest.raises(DomainError):
            retraction(ROOT, -1)

    def test_retraction_is_idempotent(self):
        for x in POOL:
            r = retraction(x, 1)
            assert retraction(r, 1) == r
            assert len(r.word) <= 1

    def test_gate_identity(self, table):
        # Every path from x into the depth-m skeleton passes retraction(x, m).
        shallow = [p for p in POOL if len(p.word) <= 1]
        for x in POOL:
            r = retraction(x, 1)
            for y in shallow:
                assert distance(x, y, table) == distance(x, r, table) + distance(
                    r, y, table
                )


class TestFactorDistance:
    def test_same_retraction_keeps_distance(self, table):
        x = cut((F(1, 2),), F(1, 4))
        y = cut((F(1, 2),), F(3, 4))
        assert factor_distance(x, y, 0, table) == distance(x, y, table) == F(1, 4)

    def test_split_retractions_add_legs(self, table):
        x = cut((F(1, 4),), F(1, 2))
        y = cut((F(3, 4),), F(1, 2))
        # Full distance is 3/4; the collapsed skeleton removes the root leg.
        assert distance(x, y, table) == F(3, 4)
        assert factor_distance(x, y, 0, table) == F(1, 4)

    def test_skeleton_points_collapse_to_zero(self, table):
        x = cut((), F(1, 4))
        y = cut((), F(3, 4))
        assert factor_distance(x, y, 0, table) == 0

    def test_end_legs_stay_certified(self, table):
        x = end((F(1, 2), F(1, 2)))
        y = cut((F(3, 4),), F(1, 2))
        d = factor_distance(x, y, 0, table)
        assert isinstance(d, Interval)
        assert d.lo == F(1, 4) + F(1, 8)
        assert d.hi == d.lo + F(4, 5)

    def test_never_exceeds_distance(self, table):
        for x in POOL:
            for y in POOL:
                full = distance(x, y, table)
                hi = full.hi if isinstance(full, Interval) else full
                factored = factor_distance(x, y, 1, table)
                if isinstance(factored, Fraction):
                    assert factored <= hi
                else:
                    assert factored.lo <= hi


class TestSkeletonEnumeration:
    def test_counts_and_order(self):
        words = arcs_of_skeleton(2, [F(1, 2), F(1, 4)])
        assert len(words) == 7
        assert words[0] == ()
        assert {len(w) for w in words} == {0, 1, 2}
        assert [len(w) for w in words] == sorted(len(w) for w in words)

    def test_rejects_bad_letters(self):
        with pytest.raises(DomainError):
            arcs_of_skeleton(1, [F(1, 3)])


class TestInterval:
    def test_width_and_contains(self):
        box = Interval(F(1, 4), F(1, 2))
        assert box.width == F(1, 4)
        assert box.lo <= F(1, 3) <= box.hi
        assert not box.lo <= F(3, 4) <= box.hi

    def test_addition(self):
        assert Interval(F(0), F(1)) + Interval(F(1, 2), F(1, 2)) == Interval(
            F(1, 2), F(3, 2)
        )

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            Interval(F(1), F(0))
