"""Output checks that the benchmark computes apart from the program.

Nothing here imports ``dendromap``: parity classes, the odometer, the base
map, engine frames and the report's expected counts are all recomputed from
the construction's definitions.  Every check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from fractions import Fraction

OMEGA = Fraction(1, 3)
TWO_THIRDS = Fraction(2, 3)


# -- arithmetic of the construction ---------------------------------------


def parity(x: Fraction) -> int:
    """q mod 2 for a dyadic x = p / 2**q in (0, 1)."""
    d = x.denominator
    if not 0 < x < 1 or d & (d - 1):
        raise ValueError(f"not a dyadic of (0, 1): {x}")
    return (d.bit_length() - 1) & 1


def parities(word) -> tuple[int, ...]:
    return tuple(parity(x) for x in word)


def odometer(bits, n: int = 1) -> tuple[int, ...]:
    """Add n to a bit word read least significant bit first; overflow drops."""
    value = 0
    for i, b in enumerate(bits):
        value |= b << i
    value = (value + n) % (1 << len(bits)) if bits else 0
    return tuple((value >> i) & 1 for i in range(len(bits)))


def base_map(t: Fraction) -> Fraction:
    """The base fold: t/2 up to 2/3, then 2t - 1."""
    return t / 2 if t <= TWO_THIRDS else 2 * t - 1


def carry_bit(bits) -> int:
    """Last bit of ``bits`` after adding one."""
    return odometer(bits)[-1]


def frame(name: str, letters) -> dict:
    """Frame of a staged engine, from the factory rules.

    ``name`` is ``prime``, ``doubleprime`` or ``alpha``; ``letters`` is the
    factory letter (one-tuple) or the arc word.  The top of a fold engine's
    codomain is the index map's value and is not part of the frame.
    """
    if name == "prime":
        (r,) = letters
        e = 1 - parity(r)
        return {
            "domain": (Fraction(0), OMEGA),
            "floor": base_map(r),
            "lipschitz": Fraction(4),
            "target_parity": (e, e),
        }
    if name == "doubleprime":
        (r,) = letters
        d = parity(r)
        return {
            "domain": (OMEGA, Fraction(1)),
            "floor": Fraction(0),
            "top": Fraction(1),
            "lipschitz": Fraction(4),
            "target_parity": (carry_bit((d, 0)), carry_bit((d, 1))),
        }
    word = tuple(letters)
    m = len(word)
    gamma = parities(word)
    if word[1] < OMEGA:
        e = carry_bit(gamma)
        tp = (e, e)
    else:
        tp = (carry_bit(gamma + (0,)), carry_bit(gamma + (1,)))
    return {
        "domain": (Fraction(0), Fraction(1)),
        "floor": Fraction(0),
        "top": Fraction(1),
        "lipschitz": Fraction((m + 1) ** 2, m * m),
        "target_parity": tp,
    }


# -- staged engine dumps ---------------------------------------------------


def _interp(nodes, t: Fraction) -> Fraction:
    xs = [x for x, _ in nodes]
    i = bisect_right(xs, t) - 1
    if i >= len(nodes) - 1:
        return nodes[-1][1]
    (x0, v0), (x1, v1) = nodes[i], nodes[i + 1]
    return v0 + (v1 - v0) * (t - x0) / (x1 - x0)


def check_dump(dump: dict, spec: dict, answers=None) -> list[str]:
    """Check a staged engine dump against its frame and recorded answers.

    ``answers`` maps op names to recorded (args, result) pairs of
    ``eval_exact``, ``eval_approx`` and ``preimages``.
    """
    bad = []
    label = dump.get("label", "?")
    nodes = [(Fraction(x), Fraction(v)) for x, v in dump["nodes"]]
    a, b = spec["domain"]
    a2 = spec["floor"]
    b2 = spec.get("top", Fraction(dump["codomain"][1]))
    lip, tp = spec["lipschitz"], spec["target_parity"]
    if Fraction(dump["lipschitz"]) != lip or tuple(dump["target_parity"]) != tp:
        bad.append(f"{label}: frame differs from the factory rules")
    if nodes[0] != (a, a2) or nodes[-1] != (b, b2):
        bad.append(f"{label}: endpoint values are not exact")
    xs = [x for x, _ in nodes]
    if any(x0 >= x1 for x0, x1 in zip(xs, xs[1:])):
        bad.append(f"{label}: breakpoints do not strictly increase")
        return bad
    for (x0, v0), (x1, v1) in zip(nodes, nodes[1:]):
        if not abs(v1 - v0) < lip * (x1 - x0):
            bad.append(f"{label}: slope on [{x0}, {x1}] reaches the budget {lip}")
            break
    slope = (b2 - a2) / (b - a)
    for x, v in nodes[1:-1]:
        if not a2 < v < a2 + (x - a) * slope:
            bad.append(f"{label}: value {v} at {x} leaves the floor/diagonal window")
            break
        if parity(v) != tp[parity(x)]:
            bad.append(f"{label}: value {v} at {x} is outside its target class")
            break
    values = [v for _, v in nodes]
    if tp[0] != tp[1] and any(v0 >= v1 for v0, v1 in zip(values, values[1:])):
        bad.append(f"{label}: values do not strictly increase in homeomorphism mode")
    ordered = sorted(set(values))
    for v0, v1 in zip(values, values[1:]):
        if v0 != v1:
            lo, hi = min(v0, v1), max(v0, v1)
            if bisect_left(ordered, hi) - bisect_right(ordered, lo):
                bad.append(f"{label}: a node value lies inside the image ({lo}, {hi})")
                break
    value_at = dict(nodes)
    for (t,), got in (answers or {}).get("eval_exact", ()):
        if value_at.get(t) != got:
            bad.append(f"{label}: eval_exact({t}) = {got} disagrees with the dump")
    for (v,), got in (answers or {}).get("preimages", ()):
        want = sorted(x for x, u in nodes[1:-1] if u == v)
        if list(got) != want:
            bad.append(f"{label}: preimages({v}) = {got} disagrees with the dump")
    for (t, tol), got in (answers or {}).get("eval_approx", ()):
        if abs(got - _interp(nodes, t)) > tol:
            bad.append(f"{label}: eval_approx({t}, {tol}) is off by more than tol")
    return bad


# -- the verification report ----------------------------------------------

TAU12_NAMES = (
    "arc-fold",
    "arc-plain",
    "doubleprime-even",
    "doubleprime-odd",
    "prime-even",
    "prime-odd",
)


def scan_size(depth: int, letter_exponent: int = 2, param_exponent: int = 5) -> int:
    """Distinct cut points of the periodic scan grid.

    Parameter 0 on a nonempty word is the same point as that word's last
    letter on the parent arc, so each nonempty word loses one point.
    """
    letters = 2**letter_exponent - 1
    words = sum(letters**i for i in range(depth))
    params = 2 + 2**param_exponent - 1
    return words * params - (words - 1)


def _counts(config: dict) -> dict:
    """Expected detail fields of every report entry, from the scales."""
    half = config["triples"] // 2
    want = {}
    for claim in ("descent", "chain-parity", "step-window", "anchor"):
        want[f"tau0/{claim}"] = {"checked": config["stages"], "passed": config["stages"]}
    for claim in ("parity-flip", "value-window"):
        n = config["first_values"]
        want[f"tau0/{claim}"] = {"checked": n, "passed": n}
    n = min(50, config["first_values"])
    want["tau0/backward-closure"] = {"checked": n, "passed": n}
    for name in TAU12_NAMES:
        want[f"tau12/invariants/{name}"] = None
        want[f"tau12/replay/{name}"] = {"message": "replay matches"}
    for claim in ("length-law", "descent"):
        want[f"rho/{claim}"] = {"checked": config["words"], "passed": config["words"]}
    n = config["sections"]
    want["rho/section-roundtrip"] = {"checked": n, "passed": n}
    n = config["samples"]
    depths = (config["m"],) if config["m"] is not None else range(1, 5)
    for m in depths:
        want[f"decomposition/forward/m={m}"] = {
            "pass": n, "fail": 0, "boundary": 0, "inconclusive": 0
        }
    want["decomposition/cover/nesting"] = {"checked": n, "passed": n}
    want["decomposition/cover/disjoint"] = {"checked": n, "passed": n}
    n = config["words"]
    want["decomposition/odometer-semiconjugacy"] = {
        "requested": n, "checked": n, "skipped": 0, "passed": n
    }
    want["metric/axioms"] = {"checked": half, "passed": half}
    rest = config["triples"] - half
    want["metric/arc-additivity"] = {"checked": rest, "passed": rest}
    want["period/fixed-scan"] = {
        "scanned": scan_size(config["depth"]), "fixed": 2, "periodic": 0, "unresolved": 0
    }
    for m in (-4, -3, -2):
        want[f"horseshoe/m={m}"] = None
    for m in (2, 5, 10):
        bound = Fraction((m + 1) ** 4, m**4)
        for scope in ("arc", "subtree", "factor"):
            want[f"lipschitz/{scope}/m={m}"] = {
                "bound": f"{bound.numerator}/{bound.denominator}",
                "checked": config["pairs"],
                "skipped": 0,
                "violations": 0,
            }
    n = config["witnesses_one"]
    want["witness/single-letter"] = {"requested": n, "verified": n}
    n = config["witnesses_two"]
    want["witness/two-letter"] = {"requested": n, "verified": n}
    # Two lifted bases x four step counts x three suffix lengths x four draws.
    want["witness/cylinder-brute-force"] = {"checked": 96, "passed": 96}
    return want


def _check_horseshoe(eid: str, detail: dict) -> list[str]:
    bad = []
    if detail.get("entropy_coefficient") != "1/2" or detail.get("entropy_log_base") != 2:
        bad.append(f"{eid}: entropy bound is not (1/2) log 2")
    m = int(eid.split("=")[1])
    z = {int(j): Fraction(v) for j, v in detail["rungs"].items()}
    if sorted(z) != list(range(m - 1, m + 4)):
        bad.append(f"{eid}: rungs {sorted(z)} are not m-1..m+3")
        return bad
    if any(z[j] >= z[j + 1] for j in range(m - 1, m + 3)):
        bad.append(f"{eid}: rungs do not increase")
    for j in (m, m + 1, m + 2):
        if not base_map(z[j]) < z[j - 1] < z[j + 1]:
            bad.append(f"{eid}: rung {j} does not bracket its neighbours")
        if not parity(z[j - 1]) == parity(z[j + 1]) == 1 - parity(z[j]):
            bad.append(f"{eid}: rung parities do not alternate at {j}")
    return bad


def check_report(data: bytes, config: dict) -> list[str]:
    """Check the canonical verify report against the scales it ran at."""
    bad = []
    report = json.loads(data)
    again = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if again.encode() != data:
        bad.append("report bytes do not re-serialise to themselves")
    if report.get("config") != config:
        bad.append("report config differs from the configured scales")
    want = _counts(config)
    entries = {e["id"]: e for e in report["entries"]}
    if set(entries) != set(want):
        missing = sorted(set(want) - set(entries))
        extra = sorted(set(entries) - set(want))
        bad.append(f"entry ids differ: missing {missing}, unexpected {extra}")
    n = len(report["entries"])
    if report.get("summary") != {"pass": n, "fail": 0, "inconclusive": 0}:
        bad.append(f"summary {report.get('summary')} is not all-pass")
    for eid, entry in sorted(entries.items()):
        if entry["verdict"] != "pass":
            bad.append(f"{eid}: verdict {entry['verdict']}")
        detail = entry["detail"]
        if eid.startswith("tau12/invariants/"):
            if not detail or not all(v is True for v in detail.values()):
                bad.append(f"{eid}: an invariant is false")
        elif eid.startswith("horseshoe/"):
            bad.extend(_check_horseshoe(eid, detail))
        expected = want.get(eid)
        for key, value in (expected or {}).items():
            if detail.get(key) != value:
                bad.append(f"{eid}: {key} = {detail.get(key)!r}, expected {value!r}")
        if eid.startswith("lipschitz/"):
            if Fraction(detail["max_ratio"]) > Fraction(detail["bound"]):
                bad.append(f"{eid}: max ratio exceeds the bound")
    return bad


# -- map queries -----------------------------------------------------------


def check_rho(word, image) -> list[str]:
    """Length law and parity law of one word-map step."""
    fold = len(word) >= 2 and word[1] < OMEGA
    if len(image) != len(word) - fold:
        return [f"rho{word}: length {len(image)}, expected {len(word) - fold}"]
    if parities(image) != odometer(parities(word))[: len(image)]:
        return [f"rho{word}: image parities break the odometer step"]
    return []


def check_apply_f(word, t, image_word, image_t) -> list[str]:
    """Base-arc images follow the base map; others land in the successor cell."""
    if not word:
        if image_word or image_t != base_map(t):
            return [f"F(cut((), {t})) = ({image_word}, {image_t}), expected {base_map(t)}"]
        return []
    if len(word) == 1 and t < OMEGA:
        # The lower piece of a first-level arc folds onto the base arc above
        # the base image of its letter.
        if image_word or not base_map(word[0]) < image_t < 1:
            return [f"F(cut({word}, {t})) does not fold above {base_map(word[0])}"]
        return []
    succ = odometer(parities(word))
    got = parities(image_word)
    k = min(len(got), len(succ))
    if got[:k] != succ[:k]:
        return [f"F(cut({word}, {t})) lands outside the successor cell"]
    if not 0 <= image_t <= 1:
        return [f"F(cut({word}, {t})) has parameter {image_t} outside [0, 1]"]
    return []


def check_section(beta, alpha, forward) -> list[str]:
    """A section has the target's length and maps forward onto it."""
    if len(alpha) != len(beta) or tuple(forward) != tuple(beta):
        return [f"section of {beta} does not map onto it at equal length"]
    if parities(beta) != odometer(parities(alpha)):
        return [f"section of {beta} breaks the odometer step"]
    return []


def check_witness(alpha, s, delta, word, n, iterate) -> list[str]:
    """The witness iterate ends at (s,) with the odometer's parity ledger."""
    bad = []
    if tuple(word[: len(alpha)]) != tuple(alpha) or len(word) != len(alpha) + 1:
        bad.append(f"witness for {alpha} does not extend the start word")
    if tuple(iterate) != (s,):
        bad.append(f"witness for {alpha} ends at {iterate}, not ({s},)")
    if odometer(parities(word), n) != (parity(s),) + tuple(delta):
        bad.append(f"witness for {alpha} breaks the parity ledger")
    return bad


def check_distances(rows) -> list[str]:
    """Metric laws over recorded rows.

    Each row is (x, y, z, dxy, dyx, dxz, dyz, kind) where a point is
    (word, t) in canonical form and kind is "distance" or "factor".  Both
    kinds are symmetric, non-negative and zero at equal points.  The path
    metric is also zero only at equal points, satisfies the triangle
    inequality and has closed forms on the base arc and single-letter arcs;
    the factor metric collapses the skeleton, so it has none of these.
    """
    bad = []
    for x, y, z, dxy, dyx, dxz, dyz, kind in rows:
        if dxy != dyx:
            bad.append(f"{kind}({x}, {y}) is not symmetric")
        if x == y and dxy != 0:
            bad.append(f"{kind}({x}, {x}) = {dxy} is not zero")
        if kind == "distance" and x != y and dxy == 0:
            bad.append(f"distance({x}, {y}) is zero between distinct points")
        if dxy < 0:
            bad.append(f"{kind}({x}, {y}) is negative")
        if kind != "distance":
            continue
        if dxz > dxy + dyz:
            bad.append(f"triangle inequality fails on {x}, {y}, {z}")
        (wx, tx), (wy, ty) = x, y
        if not wx and not wy and dxy != abs(tx - ty):
            bad.append(f"base-arc distance({x}, {y}) = {dxy}, expected {abs(tx - ty)}")
        if len(wx) == 1 and wx == wy:
            q = wx[0].denominator.bit_length() - 1
            if dxy != abs(tx - ty) / 2**q:
                bad.append(f"single-letter distance({x}, {y}) = {dxy} is not |a-b|/2^q")
    return bad
