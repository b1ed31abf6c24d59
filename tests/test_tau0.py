from fractions import Fraction

import pytest

from dendromap.errors import BudgetExceeded, DomainError
from dendromap.plmap import base_forward
from dendromap.rationals import parity_class
from dendromap.tau0 import Tau0Engine

F = Fraction


@pytest.fixture(scope="module")
def engine():
    eng = Tau0Engine()
    eng.ensure_rounds(6)
    return eng


# Hand-derived expected values: each is the canonically first dyadic of the
# required parity inside the exact constraint window, worked out on paper
# for the first rounds of the schedule.

LADDER = {
    -6: F(3, 64),
    -5: F(9, 128),
    -4: F(7, 64),
    -3: F(5, 32),
    -2: F(1, 4),
    -1: F(3, 8),
    0: F(9, 16),
    1: F(97, 128),
    2: F(897, 1024),
    3: F(7681, 8192),
}


class TestLadder:
    def test_frozen_rungs(self, engine):
        for m, value in LADDER.items():
            assert engine.rung(m) == value, f"rung {m}"

    def test_rungs_increase_and_bracket(self, engine):
        lo, hi = engine.rung_range
        for m in range(lo + 1, hi + 1):
            below, here = engine.rung(m - 1), engine.rung(m)
            assert base_forward(here) < below < here

    def test_rung_parity(self, engine):
        lo, hi = engine.rung_range
        for m in range(lo, hi + 1):
            assert parity_class(engine.rung(m)) == m % 2

    def test_upper_rungs_in_dyadic_shells(self, engine):
        for m in range(1, engine.rung_range[1] + 1):
            z = engine.rung(m)
            assert 1 - F(1, 2 ** (m + 1)) < z < 1 - F(1, 2 ** (m + 2))

    def test_ladder_climbs(self, engine):
        for m in range(-5, 3):
            assert engine.eval(LADDER[m]) == LADDER[m + 1]


class TestStages:
    def test_stage1(self, engine):
        st = engine.stage(1)
        assert st.start == F(1, 2)
        assert st.parity == 1
        assert st.length == 1
        assert st.anchor == -1
        assert st.forward == [F(1, 2), F(17, 64)]

    def test_stage2(self, engine):
        st = engine.stage(2)
        assert st.start == F(3, 4)
        assert st.parity == 0
        assert st.length == 4
        assert st.anchor == -3
        assert st.forward == [
            F(3, 4),
            F(1025, 2048),
            F(257, 1024),
            F(17, 128),
            F(5, 64),
        ]

    def test_stage3(self, engine):
        st = engine.stage(3)
        assert st.start == F(1, 8)
        assert st.length == 1
        assert st.anchor == -5
        assert st.forward == [F(1, 8), F(65, 1024)]

    def test_anchors_strictly_decrease(self, engine):
        anchors = [engine.stage(j).anchor for j in range(1, 7)]
        assert all(a > b for a, b in zip(anchors, anchors[1:]))

    def test_chain_links(self, engine):
        assert engine.eval(F(1, 2)) == F(17, 64)
        assert engine.eval(F(17, 64)) == F(3, 8)
        assert engine.eval(F(5, 64)) == F(5, 32)
        assert engine.eval(F(65, 1024)) == F(9, 128)

    def test_backward_chain_stage1(self, engine):
        st = engine.stage(1)
        assert st.backward[:3] == [F(11, 16), F(23, 32), F(13, 16)]

    def test_backward_chain_stage2(self, engine):
        st = engine.stage(2)
        assert st.backward[:2] == [F(25, 32), F(51, 64)]

    def test_backward_chain_stage3(self, engine):
        st = engine.stage(3)
        assert st.backward[:2] == [F(3, 16), F(7, 32)]

    def test_forward_chains_descend_below_anchor(self, engine):
        for j in range(1, 7):
            st = engine.stage(j)
            for a, b in zip(st.forward, st.forward[1:]):
                assert b < a
            assert st.forward[-1] < engine.rung(st.anchor)

    def test_backward_chains_ascend(self, engine):
        for j in range(1, 7):
            st = engine.stage(j)
            chain = [st.start] + st.backward
            for a, b in zip(chain, chain[1:]):
                assert a < b

    def test_anchor_below_stage_tolerance(self, engine):
        for j in range(1, 7):
            st = engine.stage(j)
            assert engine.rung(st.anchor) < st.epsilon


class TestMapProperties:
    def test_parity_alternates_everywhere(self, engine):
        for x, v in engine.xi_items():
            assert parity_class(v) == 1 - parity_class(x)

    def test_moves_above_base_map(self, engine):
        for x, v in engine.xi_items():
            assert base_forward(x) < v

    def test_chain_steps_within_stage_tolerance(self, engine):
        for j in range(1, engine.stage_count + 1):
            st = engine.stage(j)
            chain = list(reversed(st.backward)) + st.forward
            for a, b in zip(chain, chain[1:]):
                assert b - base_forward(a) < st.epsilon

    def test_no_double_assignment(self, engine):
        values = [x for x, _ in engine.xi_items()]
        assert len(values) == len(set(values))

    def test_rejects_non_dyadic(self, engine):
        with pytest.raises(DomainError):
            engine.eval(F(1, 3))
        with pytest.raises(DomainError):
            engine.eval(F(0))

    @pytest.mark.parametrize("bad", ["junk", "1/0", 0.5])
    def test_rejects_what_as_fraction_refuses(self, engine, bad):
        # Junk literals and floats get the same DomainError as everywhere else.
        with pytest.raises(DomainError):
            engine.eval(bad)


class TestPreimages:
    def test_anchor_rung_has_two(self, engine):
        got = engine.preimages(F(3, 8))
        assert got == sorted([F(1, 4), F(17, 64)])
        for x in got:
            assert engine.eval(x) == F(3, 8)

    def test_plain_rung_has_one(self, engine):
        assert engine.preimages(F(9, 16)) == [F(3, 8)]
        assert engine.preimages(F(97, 128)) == [F(9, 16)]

    def test_chain_point(self, engine):
        assert engine.preimages(F(17, 64)) == [F(1, 2)]

    def test_stage_start_preimage_is_backward_chain(self, engine):
        assert engine.preimages(F(1, 2)) == [F(11, 16)]


class TestBackwardTrajectory:
    def test_short_trajectory(self, engine):
        got = engine.backward_trajectory(F(17, 64), F(1, 2))
        assert got == [F(17, 64), F(1, 2), F(11, 16)]

    def test_through_ladder_and_anchor(self, engine):
        got = engine.backward_trajectory(F(9, 16), F(6, 10))
        assert got == [F(9, 16), F(3, 8), F(17, 64), F(1, 2), F(11, 16)]

    def test_forward_verification(self, engine):
        traj = engine.backward_trajectory(F(5, 32), F(7, 8))
        assert traj[-1] > F(7, 8)
        for earlier, later in zip(traj[1:], traj):
            assert engine.eval(earlier) == later

    def test_trivial_when_above_threshold(self, engine):
        assert engine.backward_trajectory(F(7, 8), F(0)) == [F(7, 8)]


class TestStructureQueries:
    def test_forward_to_rung(self, engine):
        assert engine.forward_to_rung(F(1, 2)) == (2, -1)
        assert engine.forward_to_rung(F(3, 8)) == (0, -1)
        assert engine.forward_to_rung(F(11, 16)) == (3, -1)
        assert engine.forward_to_rung(F(3, 4)) == (5, -3)

    def test_roles(self, engine):
        assert engine.role(F(9, 16)) == ("rung", 0)
        assert engine.role(F(17, 64)) == ("chain", 1, 1)
        assert engine.role(F(11, 16)) == ("chain", 1, -1)

    def test_quota_window_pairs(self, engine):
        # Stage 1 must have placed two consecutive points in window 0.
        st = engine.stage(1)
        wins = st.backward_windows
        assert any(a == b == 0 for a, b in zip(wins, wins[1:]))
        assert st.window_counts[0] >= 2


class TestDeviationMonitor:
    def test_large_step_set_stabilizes(self):
        def large_steps(eng):
            return {x for x, v in eng.xi_items() if v - base_forward(x) > F(1, 4)}

        eng = Tau0Engine()
        eng.ensure_rounds(4)
        early = large_steps(eng)
        assert early == {F(9, 16), F(97, 128), F(3, 8)}
        eng.ensure_rounds(8)
        assert large_steps(eng) == early


class TestDeterminism:
    def test_query_order_is_irrelevant(self):
        a = Tau0Engine()
        a.ensure_rounds(4)

        b = Tau0Engine()
        b.eval(F(1, 2))
        b.preimages(F(3, 8))
        b.backward_trajectory(F(9, 16), F(1, 2))
        b.ensure_rounds(4)

        assert a.round_count == b.round_count == 4
        assert a.state_digest() == b.state_digest()

    def test_budget_guard(self):
        eng = Tau0Engine(max_rounds=2)
        with pytest.raises(BudgetExceeded):
            eng.ensure_rounds(3)
