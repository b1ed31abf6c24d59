"""Fast tests of the benchmark's output checks.

Each test feeds a check one good input and at least one deliberately broken
one, and shows that only the broken input is rejected.  Run with

    python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import json
import os
import sys
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from dendromap.suites import SuiteConfig  # noqa: E402
from dendromap.tau12 import make_tau_alpha, make_tau_prime  # noqa: E402


def test_odometer_and_parity():
    assert checks.odometer((1, 1, 0)) == (0, 0, 1)
    assert checks.odometer((1, 1, 1)) == (0, 0, 0)
    assert checks.odometer((0, 1), 3) == (1, 0)
    assert checks.parity(F(3, 8)) == 1 and checks.parity(F(1, 4)) == 0
    assert checks.base_map(F(1, 2)) == F(1, 4) and checks.base_map(F(5, 6)) == F(2, 3)


def test_frames_match_the_factories():
    for word in ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 4)), (F(3, 8), F(3, 4), F(1, 4))):
        engine = make_tau_alpha(word)
        spec = checks.frame("alpha", word)
        assert engine.target_parity == spec["target_parity"]
        assert engine.lipschitz_budget == spec["lipschitz"]


def _dump(engine, rounds):
    engine.ensure_rounds(rounds)
    return engine.dump()


def test_dump_check_accepts_engines_and_rejects_a_nudged_value():
    dump = _dump(make_tau_alpha((F(1, 2), F(1, 2))), 12)
    spec = checks.frame("alpha", (F(1, 2), F(1, 2)))
    assert checks.check_dump(dump, spec) == []
    broken = copy.deepcopy(dump)
    v = F(broken["nodes"][5][1])
    # One extra binary digit moves the value into the other parity class.
    broken["nodes"][5][1] = str(v + F(1, 2 * v.denominator))
    assert any("target class" in p for p in checks.check_dump(broken, spec))


def test_dump_check_rejects_order_slope_and_endpoint_faults():
    dump = _dump(make_tau_alpha((F(1, 2), F(1, 2))), 12)
    spec = checks.frame("alpha", (F(1, 2), F(1, 2)))
    swapped = copy.deepcopy(dump)
    n = swapped["nodes"]
    n[3][1], n[4][1] = n[4][1], n[3][1]
    assert any("increase" in p for p in checks.check_dump(swapped, spec))
    steep = copy.deepcopy(dump)
    steep["nodes"][1][1] = steep["nodes"][2][1]
    assert checks.check_dump(steep, spec)
    moved = copy.deepcopy(dump)
    moved["nodes"][-1][1] = "7/8"
    assert any("endpoint" in p for p in checks.check_dump(moved, spec))


def _fold_dump(value_at_half):
    """A hand-made fold-mode dump for the word (1/2, 1/4): target classes (1, 1)."""
    nodes = [
        ("0", "0"), ("1/8", "1/32"), ("1/4", "1/8"), ("3/8", "1/32"),
        ("1/2", value_at_half), ("1", "1"),
    ]
    return {
        "label": "tau[1/2,1/4]",
        "codomain": ["0", "1"],
        "lipschitz": "9/4",
        "target_parity": [1, 1],
        "nodes": [list(n) for n in nodes],
    }


def test_dump_check_rejects_a_value_inside_a_segment_image():
    spec = checks.frame("alpha", (F(1, 2), F(1, 4)))
    assert checks.check_dump(_fold_dump("1/8"), spec) == []
    # 3/32 keeps every slope, window and class, but lies strictly inside the
    # image (1/32, 1/8) of the segments next to it.
    problems = checks.check_dump(_fold_dump("3/32"), spec)
    assert problems and all("inside the image" in p for p in problems)


def test_dump_check_compares_recorded_answers():
    engine = make_tau_alpha((F(1, 2), F(1, 4)))
    t = F(3, 16)
    value = engine.eval_exact(t)
    approx = engine.eval_approx(F(1, 3), F(1, 8))
    pre = engine.preimages(value)
    spec = checks.frame("alpha", (F(1, 2), F(1, 4)))
    answers = {
        "eval_exact": [((t,), value)],
        "eval_approx": [((F(1, 3), F(1, 8)), approx)],
        "preimages": [((value,), pre)],
    }
    assert checks.check_dump(engine.dump(), spec, answers) == []
    wrong = {"eval_exact": [((t,), value + F(1, 1024))]}
    assert checks.check_dump(engine.dump(), spec, wrong)
    wrong = {"preimages": [((value,), pre[1:])]}
    assert checks.check_dump(engine.dump(), spec, wrong)
    wrong = {"eval_approx": [((F(1, 3), F(1, 8)), approx + F(1, 4))]}
    assert checks.check_dump(engine.dump(), spec, wrong)


# -- the report ---------------------------------------------------------------

HORSESHOE_RUNGS = {
    -4: {"-1": "3/8", "-2": "1/4", "-3": "5/32", "-4": "7/64", "-5": "9/128"},
    -3: {"-1": "3/8", "-2": "1/4", "-3": "5/32", "-4": "7/64", "0": "9/16"},
    -2: {"-1": "3/8", "-2": "1/4", "-3": "5/32", "0": "9/16", "1": "97/128"},
}


def _report(config):
    entries = []
    for eid, want in checks._counts(config).items():
        detail = dict(want or {})
        if eid.startswith("tau12/invariants/"):
            detail = {"endpoints": True, "slopes": True}
        elif eid.startswith("horseshoe/"):
            m = int(eid.split("=")[1])
            detail = {
                "entropy_coefficient": "1/2",
                "entropy_log_base": 2,
                "rungs": HORSESHOE_RUNGS[m],
            }
        elif eid.startswith("lipschitz/"):
            detail["max_ratio"] = "1/1"
        entries.append({"id": eid, "ref": "", "verdict": "pass", "detail": detail})
    entries.sort(key=lambda e: e["id"])
    return {
        "schema": "dendromap-report/1",
        "config": config,
        "entries": entries,
        "summary": {"pass": len(entries), "fail": 0, "inconclusive": 0},
    }


def _bytes(report):
    return (json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n").encode()


def test_scan_size_matches_the_default_grid():
    assert checks.scan_size(3) == 417


def test_report_check_accepts_the_expected_report():
    config = SuiteConfig(seed=3).to_json()
    assert checks.check_report(_bytes(_report(config)), config) == []


def test_report_check_rejects_a_count_off_by_one():
    config = SuiteConfig().to_json()
    report = _report(config)
    entry = next(e for e in report["entries"] if e["id"] == "rho/descent")
    entry["detail"]["checked"] -= 1
    assert any("rho/descent" in p for p in checks.check_report(_bytes(report), config))


def test_report_check_rejects_a_failed_entry_and_loose_bytes():
    config = SuiteConfig().to_json()
    report = _report(config)
    report["entries"][0]["verdict"] = "fail"
    assert checks.check_report(_bytes(report), config)
    good = _report(config)
    loose = json.dumps(good, sort_keys=True).encode() + b"\n"
    assert any("re-serialise" in p for p in checks.check_report(loose, config))
    missing = _report(config)
    missing["entries"].pop()
    missing["summary"]["pass"] -= 1
    assert any("missing" in p for p in checks.check_report(_bytes(missing), config))


def test_report_check_rejects_a_broken_rung_ladder():
    config = SuiteConfig().to_json()
    report = _report(config)
    entry = next(e for e in report["entries"] if e["id"] == "horseshoe/m=-3")
    entry["detail"]["rungs"]["-3"] = "3/16"
    assert any("horseshoe/m=-3" in p for p in checks.check_report(_bytes(report), config))


# -- map queries ----------------------------------------------------------------


def test_rho_check_rejects_length_and_odometer_faults():
    word = (F(1, 2), F(3, 4))  # no fold: parities (1, 0) advance to (0, 1)
    assert checks.check_rho(word, (F(1, 4), F(1, 2))) == []
    assert checks.check_rho(word, (F(1, 2), F(1, 2)))  # parities off by one step
    assert checks.check_rho(word, (F(1, 4),))
    fold = (F(1, 2), F(1, 4), F(1, 2))  # second letter below 1/3 drops one letter
    assert checks.check_rho(fold, (F(1, 4), F(1, 2))) == []
    assert checks.check_rho(fold, (F(1, 4), F(1, 2), F(1, 2)))


def test_apply_f_check_uses_the_base_map_and_successor_cells():
    assert checks.check_apply_f((), F(1, 2), (), F(1, 4)) == []
    assert checks.check_apply_f((), F(3, 4), (), F(1, 2)) == []
    assert checks.check_apply_f((), F(1, 2), (), F(3, 8))
    assert checks.check_apply_f((F(1, 2),), F(1, 2), (F(1, 4),), F(1, 8)) == []
    assert checks.check_apply_f((F(1, 2),), F(1, 2), (F(1, 2),), F(1, 8))
    assert checks.check_apply_f((F(1, 2),), F(1, 4), (), F(1, 2)) == []
    assert checks.check_apply_f((F(1, 2),), F(1, 4), (), F(1, 8))


def test_section_and_witness_checks():
    beta = (F(1, 4), F(1, 2))
    alpha = (F(1, 2), F(3, 4))
    assert checks.check_section(beta, alpha, beta) == []
    assert checks.check_section(beta, alpha, (F(1, 4), F(3, 8)))
    assert checks.check_section(beta, (F(1, 2), F(1, 2)), beta)
    word = (F(1, 2), F(1, 4))  # parities (1, 0); two steps give (1, 1)
    assert checks.check_witness((F(1, 2),), F(3, 8), (1,), word, 2, (F(3, 8),)) == []
    assert checks.check_witness((F(1, 2),), F(3, 8), (1,), word, 3, (F(3, 8),))
    assert checks.check_witness((F(1, 2),), F(3, 8), (1,), word, 2, (F(1, 8),))


def test_distance_check_rejects_asymmetry_and_wrong_closed_forms():
    base = ((), F(1, 4)), ((), F(3, 4)), ((), F(1, 2))
    x, y, z = base
    good = (x, y, z, F(1, 2), F(1, 2), F(1, 4), F(1, 4), "distance")
    assert checks.check_distances([good]) == []
    assert checks.check_distances([(x, y, z, F(1, 2), F(1, 3), F(1, 4), F(1, 4), "distance")])
    assert checks.check_distances([(x, y, z, F(1, 3), F(1, 3), F(1, 4), F(1, 4), "distance")])
    assert checks.check_distances([(x, y, z, F(1, 2), F(1, 2), F(1, 1), F(1, 4), "distance")])
    arc = ((F(3, 8),), F(1, 4)), ((F(3, 8),), F(3, 4))
    assert checks.check_distances([(*arc, x, F(1, 16), F(1, 16), F(1), F(1), "distance")]) == []
    assert checks.check_distances([(*arc, x, F(1, 8), F(1, 8), F(1), F(1), "distance")])
    assert checks.check_distances([(x, x, y, F(1, 8), F(1, 8), F(1), F(1), "factor")])
