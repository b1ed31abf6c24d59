"""Staged PL engine tests: frozen refinement traces and stage invariants.

The expected values were computed by hand from the construction rules: each
round's pick window is an exact intersection of open intervals, and the pick
is the canonically first dyadic of the required parity class inside it.
"""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendromap.errors import BudgetExceeded, DomainError
from dendromap.plmap import OMEGA
from dendromap.rationals import first_dyadic_in, format_rational, parity_class
from dendromap.suites import _tau12_engines
from dendromap.tau12 import (
    TauEngine,
    make_tau_alpha,
    make_tau_doubleprime,
    make_tau_prime,
    replay_check,
)

F = Fraction


def settled_map(engine):
    return {x: v for x, v in engine.settled_items()}


class TestHomeoAlpha:
    """Word (1/2, 1/2): disjoint target classes, strictly increasing."""

    def test_mode_and_frame(self):
        eng = make_tau_alpha((F(1, 2), F(1, 2)))
        assert eng.is_homeomorphism_mode
        assert eng.target_parity == (1, 0)
        assert eng.lipschitz_budget == F(9, 4)
        assert eng.domain == (F(0), F(1))
        assert eng.codomain == (F(0), F(1))

    def test_seed(self):
        eng = make_tau_alpha((F(1, 2), F(1, 2)))
        assert settled_map(eng) == {F(1, 4): F(1, 8)}
        assert eng.round_count == 0

    def test_round_one(self):
        eng = make_tau_alpha((F(1, 2), F(1, 2)))
        eng.ensure_rounds(1)
        assert settled_map(eng) == {
            F(1, 4): F(1, 8),
            F(1, 2): F(1, 4),
            F(7, 8): F(3, 4),
        }

    def test_round_two(self):
        eng = make_tau_alpha((F(1, 2), F(1, 2)))
        eng.ensure_rounds(2)
        assert settled_map(eng) == {
            F(1, 4): F(1, 8),
            F(1, 2): F(1, 4),
            F(9, 16): F(3, 8),
            F(3, 4): F(1, 2),
            F(7, 8): F(3, 4),
        }

    def test_family_membership(self):
        eng = make_tau_alpha((F(1, 2), F(1, 2)))
        eng.ensure_rounds(2)
        assert eng.settled_points(0) == {F(1, 4), F(9, 16), F(3, 4)}
        assert eng.settled_points(1) == {F(1, 2), F(7, 8)}
        assert eng.settled_targets(0) == {F(1, 8), F(3, 8), F(1, 2)}
        assert eng.settled_targets(1) == {F(1, 4), F(3, 4)}

    def test_eval_exact_settled(self):
        eng = make_tau_alpha((F(1, 2), F(1, 2)))
        eng.ensure_rounds(2)
        before = eng.round_count
        assert eng.eval_exact(F(9, 16)) == F(3, 8)
        assert eng.eval_exact(F(0)) == F(0)
        assert eng.eval_exact(F(1)) == F(1)
        assert eng.round_count == before

    def test_preimages_single_family(self):
        eng = make_tau_alpha((F(1, 2), F(1, 2)))
        eng.ensure_rounds(2)
        assert eng.preimages(F(1, 4)) == [F(1, 2)]
        assert eng.preimages(F(3, 8)) == [F(9, 16)]

    def test_monotone_stage(self):
        eng = make_tau_alpha((F(1, 2), F(1, 2)))
        eng.ensure_rounds(6)
        stage = eng.current_stage()
        assert all(
            v0 < v1 for v0, v1 in zip(stage.values, stage.values[1:])
        )

    def test_invariants(self):
        eng = make_tau_alpha((F(1, 2), F(1, 2)))
        eng.ensure_rounds(6)
        checks = eng.verify_invariants()
        assert checks == {name: True for name in checks}
        assert checks["monotone"]


class TestDemandOrder:
    """Settled values depend on the call sequence, invariants never do."""

    def test_demanded_point_jumps_the_queue(self):
        eng = make_tau_alpha((F(1, 2), F(1, 2)))
        assert eng.eval_exact(F(5, 8)) == F(1, 4)
        assert eng.round_count == 1
        assert settled_map(eng) == {
            F(1, 4): F(1, 8),
            F(5, 8): F(1, 4),
            F(7, 8): F(3, 4),
        }

    def test_divergence_from_canonical_order(self):
        canonical = make_tau_alpha((F(1, 2), F(1, 2)))
        canonical.ensure_rounds(1)
        demand = make_tau_alpha((F(1, 2), F(1, 2)))
        demand.eval_exact(F(5, 8))
        assert settled_map(canonical) != settled_map(demand)
        assert canonical.state_digest() != demand.state_digest()
        for eng in (canonical, demand):
            checks = eng.verify_invariants()
            assert checks == {name: True for name in checks}

    def test_same_sequence_same_digest(self):
        one = make_tau_alpha((F(1, 2), F(1, 2)))
        two = make_tau_alpha((F(1, 2), F(1, 2)))
        for eng in (one, two):
            eng.eval_exact(F(5, 8))
            eng.preimages(F(1, 4))
            eng.ensure_rounds(4)
        assert one.state_digest() == two.state_digest()


class TestTauPrime:
    """Fold of [0, 1/3] onto a thin interval above the base map."""

    def make(self):
        return make_tau_prime(F(1, 2), F(17, 64))

    def test_frame(self):
        eng = self.make()
        assert not eng.is_homeomorphism_mode
        assert eng.target_parity == (0, 0)
        assert eng.domain == (F(0), OMEGA)
        assert eng.codomain == (F(1, 4), F(17, 64))
        assert eng.lipschitz_budget == F(4)

    def test_seed(self):
        eng = self.make()
        assert settled_map(eng) == {F(1, 4): F(65, 256)}

    def test_round_one(self):
        eng = self.make()
        eng.ensure_rounds(1)
        assert settled_map(eng) == {
            F(1, 8): F(257, 1024),
            F(1, 4): F(65, 256),
            F(9, 32): F(65, 256),
        }

    def test_fold_preimages(self):
        eng = self.make()
        assert eng.preimages(F(65, 256)) == [F(1, 4), F(9, 32)]

    def test_preimages_stable_under_later_rounds(self):
        eng = self.make()
        first = eng.preimages(F(65, 256))
        eng.ensure_rounds(eng.round_count + 6)
        assert eng.preimages(F(65, 256)) == first

    def test_plateau_segment(self):
        eng = self.make()
        eng.ensure_rounds(1)
        stage = eng.current_stage()
        idx = stage.breakpoints.index(F(1, 4))
        assert stage.breakpoints[idx + 1] == F(9, 32)
        assert stage.values[idx] == stage.values[idx + 1] == F(65, 256)

    def test_endpoints(self):
        eng = self.make()
        assert eng.eval_exact(F(0)) == F(1, 4)
        assert eng.eval_exact(OMEGA) == F(17, 64)

    def test_invariants(self):
        eng = self.make()
        eng.ensure_rounds(6)
        checks = eng.verify_invariants()
        assert checks == {name: True for name in checks}
        assert "monotone" not in checks

    def test_degenerate_image_rejected(self):
        with pytest.raises(DomainError):
            make_tau_prime(F(1, 2), F(1, 5))
        with pytest.raises(DomainError):
            make_tau_prime(F(1, 3), F(1, 2))


class TestTauDoubleprime:
    """Homeomorphism of [1/3, 1] onto the full interval."""

    def make(self):
        return make_tau_doubleprime(F(1, 2))

    def test_frame(self):
        eng = self.make()
        assert eng.is_homeomorphism_mode
        assert eng.target_parity == (1, 0)
        assert eng.domain == (OMEGA, F(1))
        assert eng.codomain == (F(0), F(1))

    def test_parity_table_flips_with_r(self):
        assert make_tau_doubleprime(F(1, 4)).target_parity == (0, 1)
        assert make_tau_doubleprime(F(3, 4)).target_parity == (0, 1)
        assert make_tau_doubleprime(F(3, 8)).target_parity == (1, 0)

    def test_seed(self):
        eng = self.make()
        assert settled_map(eng) == {F(3, 4): F(1, 2)}

    def test_round_one(self):
        eng = self.make()
        eng.ensure_rounds(1)
        assert settled_map(eng) == {
            F(1, 2): F(1, 16),
            F(5, 8): F(1, 4),
            F(3, 4): F(1, 2),
        }

    def test_preimages(self):
        eng = self.make()
        assert eng.preimages(F(1, 2)) == [F(3, 4)]

    def test_invariants(self):
        eng = self.make()
        eng.ensure_rounds(6)
        checks = eng.verify_invariants()
        assert checks == {name: True for name in checks}


class TestFoldAlpha:
    """Word (1/2, 1/4): both families share target class 1."""

    def make(self):
        return make_tau_alpha((F(1, 2), F(1, 4)))

    def test_frame(self):
        eng = self.make()
        assert not eng.is_homeomorphism_mode
        assert eng.target_parity == (1, 1)
        assert eng.lipschitz_budget == F(9, 4)

    def test_two_rounds(self):
        eng = self.make()
        eng.ensure_rounds(2)
        assert settled_map(eng) == {
            F(1, 4): F(1, 8),
            F(1, 2): F(3, 8),
            F(5, 8): F(1, 2),
            F(11, 16): F(1, 2),
            F(3, 4): F(5, 8),
        }

    def test_fold_preimages(self):
        eng = self.make()
        assert eng.preimages(F(1, 2)) == [F(5, 8), F(11, 16)]

    def test_settled_values_single_class(self):
        eng = self.make()
        eng.ensure_rounds(8)
        for _, value in eng.settled_items():
            p, q = value.numerator, value.denominator
            assert q & (q - 1) == 0 and p % 2 == 1
            assert (q.bit_length() - 1) % 2 == 1

    def test_invariants(self):
        eng = self.make()
        eng.ensure_rounds(8)
        checks = eng.verify_invariants()
        assert checks == {name: True for name in checks}


class TestEvalApprox:
    def test_tolerance_forces_rounds(self):
        eng = make_tau_alpha((F(1, 2), F(1, 2)))
        eng.eval_approx(F(1, 3), F(1, 64))
        assert eng.tail_bound() <= F(1, 64)
        assert eng.round_count >= 7

    def test_endpoint_exact(self):
        eng = make_tau_prime(F(1, 2), F(17, 64))
        assert eng.eval_approx(F(0), F(1)) == F(1, 4)
        assert eng.eval_approx(OMEGA, F(1)) == F(17, 64)

    def test_successive_tolerances_cauchy(self):
        eng = make_tau_alpha((F(1, 2), F(1, 2)))
        coarse = eng.eval_approx(F(1, 3), F(1, 16))
        fine = eng.eval_approx(F(1, 3), F(1, 1024))
        assert abs(coarse - fine) <= F(1, 16)

    def test_non_dyadic_exact_rejected(self):
        eng = make_tau_alpha((F(1, 2), F(1, 2)))
        with pytest.raises(DomainError):
            eng.eval_exact(F(1, 3))
        with pytest.raises(DomainError):
            eng.eval_exact(F(2))

    def test_bad_tolerance(self):
        eng = make_tau_alpha((F(1, 2), F(1, 2)))
        with pytest.raises(DomainError):
            eng.eval_approx(F(1, 2), F(0))


class TestBudget:
    def test_round_budget_trips(self):
        eng = make_tau_alpha((F(1, 2), F(1, 2)), max_rounds=2)
        with pytest.raises(BudgetExceeded):
            eng.eval_approx(F(1, 3), F(1, 2**20))
        assert eng.round_count == 2

    def test_construction_within_budget(self):
        eng = make_tau_alpha((F(1, 2), F(1, 2)), max_rounds=0)
        assert eng.round_count == 0
        with pytest.raises(BudgetExceeded):
            eng.ensure_rounds(1)


class TestReplayDump:
    def drive(self, eng):
        eng.eval_exact(F(5, 8))
        eng.preimages(F(1, 4))
        eng.ensure_rounds(4)
        eng.eval_approx(F(1, 3), F(1, 32))
        eng.settle_target(F(9, 16), 1)
        return eng

    def test_replay_round_trip(self):
        eng = self.drive(make_tau_alpha((F(1, 2), F(1, 2))))
        ok, msg = replay_check(eng.dump())
        assert ok, msg

    def test_replay_detects_tampered_node(self):
        eng = self.drive(make_tau_alpha((F(1, 2), F(1, 2))))
        dumped = eng.dump()
        dumped["nodes"][1][1] = "3/16"
        ok, msg = replay_check(dumped)
        assert not ok

    def test_replay_detects_tampered_op(self):
        eng = self.drive(make_tau_alpha((F(1, 2), F(1, 2))))
        dumped = eng.dump()
        dumped["ops"][0]["args"][0] = "3/8"
        ok, _ = replay_check(dumped)
        assert not ok

    def test_digest_stable(self):
        eng = self.drive(make_tau_alpha((F(1, 2), F(1, 2))))
        assert eng.state_digest() == eng.state_digest()

    def test_fold_replay(self):
        eng = make_tau_prime(F(1, 2), F(17, 64))
        eng.preimages(F(65, 256))
        eng.ensure_rounds(5)
        ok, msg = replay_check(eng.dump())
        assert ok, msg


class TestRepeatedReads:
    def test_a_repeat_logs_one_freshly_equal_entry(self):
        eng = make_tau_alpha((F(1, 2), F(1, 4)))
        value = eng.eval_exact(F(3, 16))
        pre = eng.preimages(value)
        ops = eng.dump()["ops"]
        n = len(ops)
        assert eng.eval_exact("3/16") == value
        assert len(ops) == n + 1
        assert ops[-1] == {
            "op": "eval_exact", "args": ["3/16"], "result": format_rational(value),
        }
        got = eng.preimages(value)
        assert got == pre and got is not pre
        got.clear()
        assert len(ops) == n + 2
        assert ops[-1] == {
            "op": "preimages",
            "args": [format_rational(value)],
            "result": [format_rational(x) for x in pre],
        }
        assert eng.preimages(value) == pre
        ok, msg = replay_check(eng.dump())
        assert ok, msg

    def test_a_failed_read_is_not_kept(self):
        eng = make_tau_alpha((F(1, 2), F(1, 4)))
        n = len(eng.dump()["ops"])
        for _ in range(2):
            with pytest.raises(DomainError):
                eng.eval_exact(F(1, 3))
            with pytest.raises(DomainError):
                eng.preimages(F(3, 2))
        assert len(eng.dump()["ops"]) == n

    def test_repeats_retain_one_list_slot(self):
        eng = _tau12_engines(512)["arc-fold"]
        eng.ensure_rounds(64)
        items = eng.settled_items()
        t = items[len(items) // 2][0]
        v = eng.eval_exact(t)
        eng.preimages(v)
        reads = 10_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(reads):
                eng.eval_exact(t)
                eng.preimages(v)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept / (2 * reads) < 32


class TestFactoryValidation:
    def test_short_word_rejected(self):
        with pytest.raises(DomainError):
            make_tau_alpha((F(1, 2),))

    def test_non_dyadic_parameter_rejected(self):
        with pytest.raises(DomainError):
            make_tau_doubleprime(F(1, 3))

    def test_fold_vs_homeo_split_on_second_letter(self):
        low = make_tau_alpha((F(1, 2), F(1, 4), F(1, 2)))
        high = make_tau_alpha((F(1, 2), F(1, 2), F(1, 4)))
        assert low.target_parity[0] == low.target_parity[1]
        assert high.target_parity[0] != high.target_parity[1]

    def test_lipschitz_budget_shrinks(self):
        word = (F(1, 2), F(1, 2))
        budgets = []
        for length in (2, 3, 4):
            eng = make_tau_alpha(word + (F(1, 2),) * (length - 2))
            budgets.append(eng.lipschitz_budget)
            assert eng.lipschitz_budget == F((length + 1) ** 2, length**2)
        assert budgets[0] > budgets[1] > budgets[2]

    def test_bad_frame_rejected(self):
        with pytest.raises(DomainError):
            TauEngine((F(0), F(1)), (F(0), F(1)), (0, 1), F(1, 2))


ENGINE_POOL = [
    lambda: make_tau_alpha((F(1, 2), F(1, 2))),
    lambda: make_tau_alpha((F(1, 2), F(1, 4))),
    lambda: make_tau_prime(F(1, 2), F(17, 64)),
    lambda: make_tau_doubleprime(F(1, 2)),
]


@pytest.mark.parametrize("build", ENGINE_POOL)
def test_stage_respects_budgets_everywhere(build):
    eng = build()
    eng.ensure_rounds(10)
    stage = eng.current_stage()
    L = eng.lipschitz_budget
    xs, ys = stage.breakpoints, stage.values
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        assert abs(y1 - y0) < L * (x1 - x0)
    a, b = eng.domain
    a2, b2 = eng.codomain
    diag_slope = (b2 - a2) / (b - a)
    for x, v in eng.settled_items():
        assert a2 < v < a2 + diag_slope * (x - a)


@pytest.mark.parametrize("build", ENGINE_POOL)
def test_families_partition_settled_points(build):
    eng = build()
    eng.ensure_rounds(10)
    zero, one = eng.settled_points(0), eng.settled_points(1)
    assert not zero & one
    assert {x for x, _ in eng.settled_items()} == zero | one
    for c, points in ((0, zero), (1, one)):
        for x in points:
            q = x.denominator.bit_length() - 1
            assert q % 2 == c


@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    pick=st.sampled_from(
        [F(1, 5), F(2, 7), F(1, 3), F(5, 11), F(9, 13), F(17, 23)]
    ),
)
def test_approx_eval_lipschitz(data, pick):
    eng = make_tau_alpha((F(1, 2), F(1, 2)))
    eng.ensure_rounds(6)
    other = data.draw(
        st.sampled_from([F(1, 7), F(3, 8), F(1, 2), F(23, 31), F(7, 8)])
    )
    tol = F(1, 256)
    u, v = eng.eval_approx(pick, tol), eng.eval_approx(other, tol)
    if pick != other:
        assert abs(u - v) < eng.lipschitz_budget * abs(pick - other)


# Dyadics p/2^q of (0, 1) with q <= 10.
_dyadics = st.integers(min_value=1, max_value=10).flatmap(
    lambda q: st.integers(min_value=0, max_value=(1 << (q - 1)) - 1).map(
        lambda k: F(2 * k + 1, 1 << q)
    )
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("rounds"), st.integers(min_value=0, max_value=12)),
        st.tuples(st.just("eval"), _dyadics),
        st.tuples(st.just("preimages"), _dyadics),
    ),
    max_size=12,
)


def _brute_preimages(eng, v):
    stage = eng.current_stage()
    return [
        x
        for x, u in zip(stage.breakpoints[1:-1], stage.values[1:-1])
        if u == v
    ]


@settings(max_examples=40, deadline=None)
@given(build=st.sampled_from(ENGINE_POOL), ops=_ops)
def test_preimages_match_a_node_scan(build, ops):
    eng = build()
    a, b = eng.domain
    a2, b2 = eng.codomain
    for kind, arg in ops:
        if kind == "rounds":
            eng.ensure_rounds(eng.round_count + arg)
        elif kind == "eval":
            if a < arg < b:
                eng.eval_exact(arg)
        elif a2 < arg < b2 and parity_class(arg) in eng.target_parity:
            assert eng.preimages(arg) == _brute_preimages(eng, arg)
    for c in (0, 1):
        for v in sorted(eng.settled_targets(c)):
            assert eng.preimages(v) == _brute_preimages(eng, v)


@settings(max_examples=40, deadline=None)
@given(build=st.sampled_from(ENGINE_POOL), ops=_ops, more=st.integers(0, 12))
def test_repeated_reads_match_the_stage(build, ops, more):
    """Re-asked reads still agree with the stage after later rounds."""
    eng = build()
    a, b = eng.domain
    a2, b2 = eng.codomain
    points, values = [], []
    for kind, arg in ops:
        if kind == "rounds":
            eng.ensure_rounds(eng.round_count + arg)
        elif kind == "eval":
            if a < arg < b:
                eng.eval_exact(arg)
                points.append(arg)
        elif a2 < arg < b2 and parity_class(arg) in eng.target_parity:
            eng.preimages(arg)
            values.append(arg)
    for extra in (0, more):
        eng.ensure_rounds(eng.round_count + extra)
        settled = settled_map(eng)
        for t in points:
            assert eng.eval_exact(t) == settled[t]
        for v in values:
            assert eng.preimages(v) == _brute_preimages(eng, v)


def _brute_straddlers(vals, rp, skip=None):
    """The full segment scan that `_straddlers` replaces."""
    return [
        i
        for i in range(len(vals) - 1)
        if i != skip
        and vals[i] != vals[i + 1]
        and min(vals[i], vals[i + 1]) < rp < max(vals[i], vals[i + 1])
    ]


@settings(max_examples=40, deadline=None)
@given(
    build=st.sampled_from(ENGINE_POOL),
    start=st.integers(min_value=0, max_value=48),
    ops=_ops,
    data=st.data(),
)
def test_straddlers_match_a_segment_scan(build, start, ops, data):
    eng = build()
    eng.ensure_rounds(start)
    a, b = eng.domain
    for kind, arg in ops:
        if kind == "rounds":
            eng.ensure_rounds(eng.round_count + arg)
        elif kind == "eval" and a < arg < b:
            eng.eval_exact(arg)
    a2, b2 = eng.codomain
    vals = eng.current_stage().values
    distinct = sorted(set(vals))
    # Every node value and every gap midpoint, which reaches the narrow gaps
    # under fold notches, where the straddlers decrease.
    probes = distinct + [(u + v) / 2 for u, v in zip(distinct, distinct[1:])]
    inside = _dyadics.map(lambda d: a2 + (b2 - a2) * d)
    above_floor = st.integers(min_value=4, max_value=40).map(lambda q: a2 + F(1, 2**q))
    probes += data.draw(st.lists(inside | above_floor, max_size=8))
    skip = data.draw(st.integers(min_value=0, max_value=len(vals) - 2))
    for rp in probes:
        hits = _brute_straddlers(vals, rp)
        assert eng._straddlers(rp) == hits
        assert eng._straddlers(rp, skip) == _brute_straddlers(vals, rp, skip)
        for i in hits:
            assert eng._straddlers(rp, i) == [j for j in hits if j != i]


class TestPerCommitChecks:
    """Each commit checks its picks locally; a bad pick list must still raise."""

    def test_omitted_straddler_is_caught(self):
        eng = make_tau_alpha((F(1, 2), F(1, 4)))
        eng.ensure_rounds(30)
        assert not eng.is_homeomorphism_mode
        c = 1
        vals = eng.current_stage().values
        values = sorted(set(vals))
        gaps = (
            first_dyadic_in(eng.target_parity[c], gap)
            for gap in zip(values, values[1:])
        )
        rp = next(v for v in gaps if len(_brute_straddlers(vals, v)) >= 2)
        hits = _brute_straddlers(vals, rp)
        a2, b2 = eng.codomain
        eps = b2 - a2
        picks = [eng._cascade_pick(c, i, rp, eps) for i in hits[:-1]]
        with pytest.raises(BudgetExceeded, match="still straddled"):
            eng._commit(c, rp, picks, kind="target", base=None, eps=None)

    def test_value_out_of_order_is_caught(self):
        eng = make_tau_alpha((F(1, 2), F(1, 2)))
        eng.ensure_rounds(6)
        assert eng.is_homeomorphism_mode
        stage = eng.current_stage()
        nodes, vals = stage.breakpoints, stage.values
        # A pick in segment (x0, x1) valued just above u1 turns (x, x1) down.
        i = len(nodes) // 2
        x0, x1, u0, u1 = nodes[i], nodes[i + 1], vals[i], vals[i + 1]
        rp = u1 + F(1, 2**20)
        c = eng.target_parity.index(parity_class(rp))
        lip = eng.lipschitz_budget
        # Both new slopes stay within the budget, so only the order is wrong.
        x = first_dyadic_in(c, (x0 + (rp - u0) / lip, x1 - (rp - u1) / lip))
        with pytest.raises(BudgetExceeded, match="monotonicity lost"):
            eng._commit(c, rp, [x], kind="target", base=None, eps=None)


def _seg_reads(build, n, monkeypatch):
    eng = build()
    eng.ensure_rounds(n)
    reads = [0]
    seg = TauEngine._seg

    def counted(self, i):
        reads[0] += 1
        return seg(self, i)

    with monkeypatch.context() as m:
        m.setattr(TauEngine, "_seg", counted)
        eng.ensure_rounds(n + 2)
    return reads[0] / 2


@pytest.mark.parametrize(
    "build",
    [lambda: make_tau_doubleprime(F(1, 2)), lambda: make_tau_alpha((F(1, 2), F(1, 4)))],
    ids=["doubleprime", "arc-fold"],
)
def test_round_cost_does_not_grow_with_the_stage(build, monkeypatch):
    """Segment reads per round stay bounded: no round scans the whole stage."""
    at_100 = _seg_reads(build, 100, monkeypatch)
    at_200 = _seg_reads(build, 200, monkeypatch)
    assert at_100 < 64 and at_200 < 64
    assert at_200 <= at_100
