"""Word dynamics, the point map, and certificate producers.

Frozen values below were derived by composing the separately tested layers:
the base-letter engine's settled values (17/64 at 1/2, ladder rungs), the
staged arc engines' evaluations, and the piecewise-linear base map.  Laws are
checked over sampled word pools; certificates re-verify themselves and the
tests assert the verified flags plus frozen shapes.
"""

import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendromap.dynamics import (
    CylinderSpec,
    RhoContext,
    ScanGrid,
    WitnessBudget,
)
from dendromap.errors import DomainError, PrecisionError
from dendromap.plmap import OMEGA
from dendromap.rationals import parity_class
from dendromap.space import ROOT, TOP, cut, end
from dendromap.words import odometer_add, parity_word

HALF = F(1, 2)


@pytest.fixture(scope="module")
def ctx():
    return RhoContext()


LETTER_POOL = [F(1, 2), F(1, 4), F(3, 4), F(3, 8), F(1, 8)]


def small_words(max_len):
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (r,) for w in frontier for r in LETTER_POOL[:3]]
        words.extend(frontier)
    return words


class TestTheta:
    def test_short_words_never_shift(self, ctx):
        assert ctx.theta(()) == 0
        assert ctx.theta((HALF,)) == 0

    def test_second_letter_decides(self, ctx):
        assert ctx.theta((HALF, F(1, 4))) == 1
        assert ctx.theta((HALF, HALF)) == 0
        assert ctx.theta((HALF, F(1, 4), HALF)) == 1
        assert ctx.theta((HALF, HALF, F(1, 4))) == 0


class TestRhoValues:
    def test_empty_word_fixed(self, ctx):
        assert ctx.rho(()) == ()

    def test_single_letters_follow_base_engine(self, ctx):
        assert ctx.rho((HALF,)) == (F(17, 64),)
        assert ctx.rho((F(1, 4),)) == (F(3, 8),)
        assert ctx.rho((F(3, 8),)) == (F(9, 16),)
        assert ctx.rho((F(9, 16),)) == (F(97, 128),)

    def test_fold_branch_shortens(self, ctx):
        assert ctx.rho((HALF, F(1, 4))) == (F(65, 256),)

    def test_keep_branch_splits_letters(self, ctx):
        assert ctx.rho((HALF, HALF)) == (F(17, 64), F(1, 16))

    def test_longer_words_extend_the_head_image(self, ctx):
        assert ctx.rho((HALF, HALF, F(9, 16))) == (F(17, 64), F(1, 16), F(3, 8))
        assert ctx.rho((HALF, HALF, HALF)) == (F(17, 64), F(1, 16), F(1, 4))

    def test_length_law_over_pool(self, ctx):
        for word in small_words(3):
            if not word:
                continue
            image = ctx.rho(word)
            assert len(image) == len(word) - ctx.theta(word)

    def test_head_image_is_a_prefix(self, ctx):
        for word in small_words(3):
            if len(word) < 3:
                continue
            image = ctx.rho(word)
            head = ctx.rho(word[:-1])
            assert image[: len(head)] == head

    def test_keep_branch_head_is_prefix_at_length_two(self, ctx):
        for r in LETTER_POOL:
            image = ctx.rho((r, HALF))
            assert image[:1] == ctx.rho((r,))

    def test_image_letters_are_dyadic_interior(self, ctx):
        for word in small_words(3):
            for v in ctx.rho(word):
                assert 0 < v < 1
                assert (v.denominator & (v.denominator - 1)) == 0

    def test_long_words_need_no_recursion(self):
        # The image is built letter by letter, so the word length is not
        # bounded by the interpreter's recursion limit.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            image = RhoContext().rho((HALF,) * 300)
        finally:
            sys.setrecursionlimit(limit)
        assert len(image) == 300


class TestRhoIterate:
    def test_profile_records_lengths(self, ctx):
        word, profile = ctx.rho_iterate((HALF, HALF, HALF), 2)
        assert profile == [3, 3, 2]
        assert word == (F(69, 512), F(1, 16))

    def test_zero_iterations(self, ctx):
        word, profile = ctx.rho_iterate((HALF,), 0)
        assert word == (HALF,)
        assert profile == [1]

    def test_negative_count_rejected(self, ctx):
        with pytest.raises(DomainError):
            ctx.rho_iterate((HALF,), -1)

    def test_first_hit_length_one(self, ctx):
        assert ctx.first_hit_length_one((HALF, F(1, 4))) == 1
        assert ctx.first_hit_length_one((HALF, HALF)) == 2
        assert ctx.first_hit_length_one((F(17, 64),)) == 0

    def test_first_hit_rejects_empty(self, ctx):
        with pytest.raises(DomainError):
            ctx.first_hit_length_one(())


class TestParityShift:
    def test_keep_branch_advances_full_word(self, ctx):
        rep = ctx.parity_shift_check((HALF, HALF))
        assert rep["ok"] and rep["theta"] == 0
        assert rep["parity"] == "11" and rep["image_parity"] == "00"

    def test_fold_branch_advances_truncation(self, ctx):
        rep = ctx.parity_shift_check((HALF, F(1, 4)))
        assert rep["ok"] and rep["theta"] == 1
        assert rep["image_parity"] == "0"

    def test_holds_over_pool(self, ctx):
        for word in small_words(4):
            assert ctx.parity_shift_check(word)["ok"], word


class TestRhoSection:
    def test_single_letter_prefers_canonical_branch(self, ctx):
        assert ctx.rho_section((F(3, 8),)) == (F(1, 4),)

    def test_two_letter_roundtrip(self, ctx):
        assert ctx.rho_section((F(17, 64), F(1, 16))) == (HALF, HALF)

    def test_sections_of_sampled_images(self, ctx):
        for word in small_words(3):
            if not word or ctx.theta(word):
                continue
            image = ctx.rho(word)
            section = ctx.rho_section(image)
            assert len(section) == len(image)
            assert ctx.rho(section) == image

    def test_empty_section(self, ctx):
        assert ctx.rho_section(()) == ()

    def test_deterministic_across_contexts(self):
        a = RhoContext().rho_section((F(17, 64), F(1, 16)))
        b = RhoContext().rho_section((F(17, 64), F(1, 16)))
        assert a == b


class TestApplyF:
    def test_base_arc_uses_fixed_pl_map(self, ctx):
        assert ctx.apply_F(cut((), HALF)) == cut((), F(1, 4))
        assert ctx.apply_F(ROOT) == ROOT
        assert ctx.apply_F(TOP) == TOP

    def test_first_level_low_parameter_lands_on_base(self, ctx):
        assert ctx.apply_F(cut((HALF,), F(1, 4))) == cut((), F(65, 256))

    def test_first_level_split_point_is_exact(self, ctx):
        assert ctx.apply_F(cut((HALF,), OMEGA)) == cut((), F(17, 64))

    def test_first_level_high_parameter_moves_up(self, ctx):
        assert ctx.apply_F(cut((HALF,), HALF)) == cut((F(17, 64),), F(1, 16))

    def test_top_parameter_rides_the_chain(self, ctx):
        assert ctx.apply_F(cut((HALF,), F(1))) == cut((F(17, 64),), F(1))

    def test_deep_arc_moves_to_image_arc(self, ctx):
        got = ctx.apply_F(cut((HALF, HALF), HALF))
        assert got == cut((F(17, 64), F(1, 16)), F(1, 4))

    def test_branch_points_follow_words(self, ctx):
        got = ctx.apply_F(cut((), HALF, ))
        assert got.word == ()

    def test_deep_split_parameter_needs_approx(self, ctx):
        with pytest.raises(PrecisionError):
            ctx.apply_F(cut((HALF, HALF), OMEGA))

    def test_approx_brackets_deep_split(self, ctx):
        # The arc engine brackets the image parameter of the split point
        # that apply_F cannot resolve exactly.
        tol = F(1, 1024)
        assert ctx.rho((HALF, HALF)) == (F(17, 64), F(1, 16))
        engine = ctx.tau_alpha((HALF, HALF))
        value = engine.eval_approx(OMEGA, tol)
        assert engine.tail_bound() <= tol
        assert 0 < value < 1

    def test_end_prefixes_follow_rho(self, ctx):
        assert ctx.apply_F(end((HALF, HALF))) == end((F(17, 64), F(1, 16)))

    def test_end_image_too_short_raises(self, ctx):
        with pytest.raises(PrecisionError):
            ctx.apply_F(end((HALF, F(1, 4))))

    def test_end_deeper_prefix_survives_fold(self, ctx):
        got = ctx.apply_F(end((HALF, F(1, 4), HALF)))
        assert got.prefix[:1] == (F(65, 256),)
        assert got.depth == 2


class TestCellAudit:
    def test_interior_points_advance_one_cell(self, ctx):
        grid = ScanGrid(letter_exponent=2, param_exponent=3)
        for m in (1, 2):
            pts = [p for p in grid.points(3) if len(p.word) >= m and 0 < p.t < 1]
            rep = ctx.decomposition_audit(m, pts)
            assert rep["counts"]["fail"] == 0
            assert rep["counts"]["pass"] == len(pts)
            assert rep["ok"]

    def test_depth_three_cells_need_depth_three_words(self, ctx):
        grid = ScanGrid(letter_exponent=1, param_exponent=2)
        pts = [p for p in grid.points(4) if len(p.word) >= 3 and 0 < p.t < 1]
        assert pts
        rep = ctx.decomposition_audit(3, pts)
        assert rep["counts"]["fail"] == 0
        assert rep["counts"]["pass"] > 0

    def test_skeleton_points_are_boundary(self, ctx):
        rep = ctx.decomposition_audit(2, [cut((HALF,), HALF)])
        assert rep["counts"]["boundary"] == 1

    def test_end_points_audit_through_prefix(self, ctx):
        rep = ctx.decomposition_audit(2, [end((HALF, HALF, HALF))])
        assert rep["counts"]["pass"] == 1

    def test_shallow_end_is_inconclusive(self, ctx):
        rep = ctx.decomposition_audit(3, [end((HALF, HALF))])
        assert rep["counts"]["inconclusive"] == 1

    def test_bad_depth_rejected(self, ctx):
        with pytest.raises(DomainError):
            ctx.decomposition_audit(0, [])


class TestImageDescriptions:
    def test_single_letter_gives_segment_with_fan(self, ctx):
        img = ctx.image_of_X_alpha((HALF,))
        assert img.case == "segment-with-fan"
        assert img.base == (F(17, 64),)
        assert img.segment == (F(1, 4), F(17, 64))
        assert img.child_parity == 0

    def test_segment_fan_is_right_closed(self, ctx):
        img = ctx.image_of_X_alpha((HALF,))
        assert img.contains_subtree((F(17, 64),))
        assert img.contains_subtree((F(65, 256),))
        assert not img.contains_subtree((F(1, 4),))
        assert not img.contains_subtree((F(3, 8),))

    def test_fan_membership_matches_fold_images(self, ctx):
        img = ctx.image_of_X_alpha((HALF,))
        assert img.contains_subtree(ctx.rho((HALF, F(1, 4))))

    def test_keep_branch_gives_full_subtree(self, ctx):
        img = ctx.image_of_X_alpha((HALF, HALF))
        assert img.case == "subtree"
        assert img.base == (F(17, 64), F(1, 16))
        assert img.contains_subtree((F(17, 64), F(1, 16)))
        assert img.contains_subtree((F(17, 64), F(1, 16), HALF))
        assert not img.contains_subtree((F(17, 64),))

    def test_fold_branch_gives_arc_with_fans(self, ctx):
        img = ctx.image_of_X_alpha((HALF, F(1, 4)))
        assert img.case == "arc-with-fans"
        assert img.base == (F(65, 256),)
        assert img.child_parity == 1
        assert img.contains_subtree((F(65, 256), HALF))
        assert not img.contains_subtree((F(65, 256), F(1, 4)))

    def test_fan_parity_matches_child_images(self, ctx):
        img = ctx.image_of_X_alpha((HALF, F(1, 4)))
        image = ctx.rho((HALF, F(1, 4), HALF))
        assert img.contains_subtree(image)

    def test_empty_word_rejected(self, ctx):
        with pytest.raises(DomainError):
            ctx.image_of_X_alpha(())


class TestCylinders:
    def test_one_step_spec_shape(self, ctx):
        spec = ctx.cylinder_image((HALF, HALF), (0,), 1)
        assert spec.base == (F(17, 64), F(1, 16))
        assert spec.parity == (0, 0, 1)
        assert spec.length == 3

    def test_forward_inclusion_sampled(self, ctx):
        spec = ctx.cylinder_image((HALF, HALF), (0,), 1)
        for u in (F(1, 4), F(3, 4), F(1, 16), F(5, 16)):
            assert parity_class(u) == 0
            image = ctx.rho((HALF, HALF, u))
            assert spec.matches(image), (u, image)

    def test_members_have_preimages_in_the_cylinder(self, ctx):
        spec = ctx.cylinder_image((HALF, HALF), (0,), 1)
        target = (F(17, 64), F(1, 16), F(3, 8))
        assert spec.matches(target)
        (u,) = ctx.tau_alpha((HALF, HALF)).preimages(F(3, 8))
        assert parity_class(u) == 0
        assert ctx.rho((HALF, HALF, u)) == target

    def test_two_steps_cross_the_fold(self, ctx):
        spec = ctx.cylinder_image((HALF, HALF), (0,), 2)
        assert spec.base == (F(69, 512),)
        assert spec.parity == (1, 0)
        for u in (F(1, 4), F(3, 4)):
            word, _ = ctx.rho_iterate((HALF, HALF, u), 2)
            assert spec.matches(word)

    def test_iterates_must_stay_long_enough(self, ctx):
        with pytest.raises(DomainError):
            ctx.cylinder_image((HALF, HALF), (0,), 3)

    def test_short_base_rejected(self, ctx):
        with pytest.raises(DomainError):
            ctx.cylinder_image((HALF,), (0,), 1)

    def test_spec_validates_parity_prefix(self):
        with pytest.raises(DomainError):
            CylinderSpec(base=(HALF,), parity=(0, 1))


class TestWitnesses:
    def test_single_letter_witness_both_parities(self, ctx):
        for bit in (0, 1):
            rec = ctx.transitivity_witness((HALF,), HALF, (bit,))
            assert rec.c == parity_class(rec.u)
            word = rec.alpha + (rec.u,)
            image, _ = ctx.rho_iterate(word, rec.n)
            assert image == (HALF,)
            ledger = odometer_add(parity_word(word), rec.n)
            assert ledger == (parity_class(HALF), bit)

    def test_frozen_single_letter_record(self, ctx):
        rec = ctx.transitivity_witness((HALF,), HALF, (0,))
        assert (rec.n, rec.c, rec.u) == (4, 0, F(15, 16))

    def test_other_start_letters(self, ctx):
        # The exact lift depends on how finely the backward engine has
        # settled when the fold engine is built, so only the shape is frozen.
        rec = ctx.transitivity_witness((F(1, 4),), F(3, 8), (0,))
        assert rec.n == 3 and rec.c == 1
        assert parity_class(rec.u) == rec.c
        word, _ = ctx.rho_iterate((F(1, 4), rec.u), rec.n)
        assert word == (F(3, 8),)

    def test_two_letter_witness(self, ctx):
        rec = ctx.transitivity_witness((F(3, 8), F(1, 4)), HALF, (0, 1))
        assert rec.n == 4 and rec.u == F(15, 16)
        assert rec.profile[0] == 3 and rec.profile[-1] == 1

    def test_records_are_deterministic(self):
        a = RhoContext().transitivity_witness((HALF,), HALF, (1,))
        b = RhoContext().transitivity_witness((HALF,), HALF, (1,))
        assert a == b

    def test_length_mismatch_rejected(self, ctx):
        with pytest.raises(DomainError):
            ctx.transitivity_witness((HALF,), HALF, (0, 1))

    def test_non_dyadic_target_rejected(self, ctx):
        with pytest.raises(DomainError):
            ctx.transitivity_witness((HALF,), F(1, 3), (0,))

    def test_budget_fields_round_trip(self):
        b = WitnessBudget(backward_depth=3)
        assert b.backward_depth == 3 and b.ladder_steps == 64


class TestOrbitProbe:
    def test_cells_rotate_uniformly(self, ctx):
        rep = ctx.orbit_density_probe((HALF,) * 6, 16, 2, exact_steps=2)
        assert rep["cells"] == {"11": 4, "00": 4, "10": 4, "01": 4}
        assert rep["verified_steps"] == 2

    def test_depth_three_rotation(self, ctx):
        rep = ctx.orbit_density_probe((HALF,) * 6, 64, 3, exact_steps=1)
        assert set(rep["cells"].values()) == {8}
        assert len(rep["cells"]) == 8

    def test_verification_stops_at_depth_floor(self, ctx):
        rep = ctx.orbit_density_probe((HALF, HALF), 4, 2)
        assert 1 <= rep["verified_steps"] <= 4

    def test_depth_beyond_prefix_rejected(self, ctx):
        with pytest.raises(DomainError):
            ctx.orbit_density_probe((HALF,), 4, 2)


class TestPeriodicScan:
    def test_only_the_two_ends_return(self, ctx):
        rep = ctx.fixed_periodic_scan(2, 6, ScanGrid(param_exponent=4))
        assert rep["periodic"] == []
        assert rep["unresolved"] == 0
        assert sorted(rep["fixed"], key=lambda x: x.t) == [ROOT, TOP]

    def test_deeper_grid_agrees(self, ctx):
        rep = ctx.fixed_periodic_scan(3, 6, ScanGrid(param_exponent=3))
        assert sorted(rep["fixed"], key=lambda x: x.t) == [ROOT, TOP]
        assert rep["periodic"] == []


class TestHorseshoe:
    @pytest.mark.parametrize("m", [-4, -3, -2])
    def test_certificates_verify(self, ctx, m):
        cert = ctx.horseshoe_certificate(m)
        assert cert.verified
        assert cert.assembly["pair_disjoint"]
        assert cert.assembly["through"] == m + 1

    def test_frozen_rungs_at_minus_three(self, ctx):
        cert = ctx.horseshoe_certificate(-3)
        assert cert.rungs[-4] == F(7, 64)
        assert cert.rungs[-3] == F(5, 32)
        assert cert.rungs[-2] == F(1, 4)
        assert cert.rungs[-1] == F(3, 8)
        assert cert.rungs[0] == F(9, 16)

    def test_entropy_bound_is_symbolic(self, ctx):
        cert = ctx.horseshoe_certificate(-2)
        assert cert.entropy_coefficient == F(1, 2)
        assert cert.entropy_log_base == 2

    def test_parities_alternate_along_the_ladder(self, ctx):
        cert = ctx.horseshoe_certificate(-3)
        for j, z in cert.rungs.items():
            assert parity_class(z) == j % 2


class TestLipschitzAudits:
    def test_arc_scope_ratio_bounded(self, ctx):
        word = (HALF, HALF)
        params = [F(p, 32) for p in range(1, 32, 2)]
        pairs = [
            (cut(word, a), cut(word, b))
            for i, a in enumerate(params)
            for b in params[i + 1 :]
        ]
        rep = ctx.lipschitz_audit(("arc", word), pairs)
        assert rep["ok"] and rep["violations"] == 0
        assert rep["bound"] == "81/16"
        assert rep["checked"] == len(pairs)
        assert F(rep["max_ratio"]) <= F(81, 16)

    def test_subtree_scope_covers_children(self, ctx):
        # Child letters are chosen so the image words keep folding on
        # shallow letters; generic children would exhaust the backward
        # engine budget instead of producing exact lengths.
        word = (F(3, 8), F(1, 4))
        pts = [
            cut(word, F(1, 4)),
            cut(word, F(3, 4)),
            cut(word + (F(1, 4),), HALF),
            cut(word + (F(1, 4),), F(7, 8)),
            cut(word + (F(1, 8),), HALF),
        ]
        pairs = [(a, b) for i, a in enumerate(pts) for b in pts[i + 1 :]]
        rep = ctx.lipschitz_audit(("subtree", word), pairs)
        assert rep["violations"] == 0
        assert rep["checked"] == len(pairs)
        assert F(rep["max_ratio"]) > 0

    def test_factor_scope_uses_fourth_power_bound(self, ctx):
        deep = (F(3, 8), F(1, 4), F(1, 4))
        pairs = [
            (cut(deep, F(1, 4)), cut(deep, F(3, 4))),
            (cut(deep, HALF), cut(deep, F(7, 8))),
            (cut((HALF,), HALF), cut(deep, HALF)),
        ]
        rep = ctx.lipschitz_audit(("factor", 2), pairs)
        assert rep["violations"] == 0
        assert rep["checked"] == len(pairs)
        assert rep["bound"] == "81/16"

    def test_deep_pairs_are_skipped_not_guessed(self):
        small = RhoContext(tau0_rounds=64)
        deep = (HALF, HALF, HALF)
        pairs = [(cut(deep, F(1, 4)), cut(deep, F(3, 4)))]
        rep = small.lipschitz_audit(("factor", 2), pairs)
        assert rep["skipped"] == 1 and rep["checked"] == 0
        assert rep["ok"]

    def test_factor_bound_at_depth_ten(self, ctx):
        rep = ctx.lipschitz_audit(("factor", 10), [])
        assert rep["bound"] == "14641/10000"

    def test_short_words_rejected(self, ctx):
        with pytest.raises(DomainError):
            ctx.lipschitz_audit(("arc", (HALF,)), [])
        with pytest.raises(DomainError):
            ctx.lipschitz_audit(("factor", 1), [])
        with pytest.raises(DomainError):
            ctx.lipschitz_audit(("mystery", 2), [])


class TestFactorMap:
    def test_hub_is_absorbing_for_shallow_points(self, ctx):
        assert ctx.apply_G(2, cut((HALF,), HALF)) == ROOT
        assert ctx.apply_G(2, ROOT) == ROOT

    def test_deep_points_move_as_usual(self, ctx):
        got = ctx.apply_G(2, cut((HALF, HALF, HALF), HALF))
        assert got == cut((F(17, 64), F(1, 16), F(1, 4)), F(1, 4))

    def test_image_collapsing_to_hub_returns_hub(self, ctx):
        got = ctx.apply_G(3, cut((HALF, HALF, HALF), HALF))
        assert got == ROOT

    def test_factor_equality_identifies_the_skeleton(self, ctx):
        assert ctx.same_factor_point(2, cut((HALF,), HALF), ROOT)
        assert not ctx.same_factor_point(
            2, cut((HALF, HALF, HALF), HALF), ROOT
        )

    def test_shallow_depth_rejected(self, ctx):
        with pytest.raises(DomainError):
            ctx.apply_G(1, ROOT)

    def test_semiconjugacy_on_samples(self, ctx):
        m = 2
        for x in [
            cut((HALF, HALF, HALF), HALF),
            cut((HALF, HALF, HALF, HALF), F(3, 4)),
            cut((HALF,), F(3, 4)),
        ]:
            lhs = ctx.apply_G(m, x if ctx.is_hub(m, x) else x)
            rhs = ctx.apply_F(x)
            if ctx.is_hub(m, rhs):
                rhs = ROOT
            if ctx.is_hub(m, x):
                assert lhs == ROOT
            else:
                assert ctx.same_factor_point(m, lhs, rhs)


class TestNoninjectivity:
    def test_two_arcs_share_an_image(self, ctx):
        x1, x2, target = ctx.noninjectivity_witness(HALF)
        assert x1 == cut((), F(17, 32))
        assert x2 == cut((HALF,), OMEGA)
        assert target == cut((), F(17, 64))

    def test_first_enumerated_letters_all_witness(self, ctx):
        from dendromap.rationals import canonical_enumeration

        it = canonical_enumeration()
        for _ in range(6):
            r = next(it)
            x1, x2, target = ctx.noninjectivity_witness(r)
            assert x1 != x2
            assert ctx.apply_F(x1) == target == ctx.apply_F(x2)

    def test_non_dyadic_rejected(self, ctx):
        with pytest.raises(DomainError):
            ctx.noninjectivity_witness(OMEGA)


class TestEndSemiconjugacy:
    def test_prefix_dynamics_match_parity_odometer(self, ctx):
        for prefix in [w for w in small_words(4) if len(w) >= 3]:
            try:
                image = ctx.apply_F(end(prefix))
            except PrecisionError:
                continue
            gamma = parity_word(prefix)
            got = parity_word(image.prefix)
            want = odometer_add(gamma, 1)[: len(got)]
            assert got == want, prefix


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.sampled_from([F(1, 2), F(1, 4), F(3, 4)]), min_size=1, max_size=4
    )
)
def test_parity_shift_property(word):
    assert _SHARED.parity_shift_check(tuple(word))["ok"]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=31).map(lambda p: F(p, 32)),
    st.integers(min_value=1, max_value=31).map(lambda p: F(p, 32)),
)
def test_arc_contraction_property(t, u):
    word = (HALF, HALF)
    table = _SHARED.length_table()
    from dendromap.space import distance

    d0 = distance(cut(word, t), cut(word, u), table)
    fx, fy = _SHARED.apply_F(cut(word, t)), _SHARED.apply_F(cut(word, u))
    d1 = distance(fx, fy, table)
    assert d1 <= F(81, 16) * d0


_SHARED = RhoContext()


def test_settled_values_depend_on_query_history():
    from itertools import islice

    from dendromap.rationals import canonical_enumeration

    word = (HALF, F(1, 4), F(3, 8))
    assert RhoContext().rho(word) == (F(65, 256), F(5, 32))
    warmed = RhoContext()
    engine = warmed.tau_alpha(word[:2])
    for t in islice(canonical_enumeration(), 32):
        engine.eval_exact(t)
    assert warmed.rho(word) == (F(65, 256), F(7, 32))


def test_rho_validates_its_word_once(monkeypatch):
    from dendromap import dynamics, space, tau12

    calls = []

    def counting(letters, _as_word=dynamics.as_word):
        calls.append(len(letters))
        return _as_word(letters)

    for module in (dynamics, space, tau12):
        monkeypatch.setattr(module, "as_word", counting)
    ctx = RhoContext()
    for n in (4, 40):
        word = (HALF,) * n
        ctx.rho(word)  # builds and settles the prefix engines
        calls.clear()
        assert len(ctx.rho(word)) == n
        # The warmed prefix engines are cache hits: no prefix is validated.
        assert calls == [n]


def test_engine_cache_keys_are_validated_forms():
    ctx = RhoContext()
    for bad in ("1/3", "junk", 0.5):
        with pytest.raises(DomainError):
            ctx.tau_prime(bad)
        with pytest.raises(DomainError):
            ctx.tau_dp(bad)
    for bad in [("1/2",), ("1/2", "1/3"), ["1/2", "junk"], (HALF, 0), (0.5, 0.25)]:
        with pytest.raises(DomainError):
            ctx.tau_alpha(bad)
    assert ctx.engine_count == 1
    arc = ctx.tau_alpha((HALF, F(1, 4)))
    prime, dp = ctx.tau_prime(HALF), ctx.tau_dp(HALF)
    assert ctx.tau_alpha(("1/2", "1/4")) is arc
    assert ctx.tau_alpha(["1/2", F(1, 4)]) is arc
    assert ctx.tau_prime("1/2") is prime
    assert ctx.tau_dp("1/2") is dp
    # A key is checked on a miss only: a float equal to a cached letter is
    # served that letter's engine.
    assert ctx.tau_prime(0.5) is prime
    assert ctx.engine_count == 4
