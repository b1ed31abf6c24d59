"""The word-shortening map, the dendrite map, and certificate producers.

A shared context owns one base-letter engine plus a cache of staged arc
engines, keyed by the exact construction parameters, so replays of the same
query sequence are bit-identical.  On top of it:

* ``rho`` rewrites index words (lengths drop by one exactly when the second
  letter is below the split point), with iteration profiles and a
  length-preserving section;
* ``apply_F`` moves points by the case table: the base arc by the fixed
  piecewise-linear self-map, first-level arcs by the split pair of engines,
  deeper arcs onto the image arc by their own engine, end prefixes by ``rho``;
* the remaining operations produce checkable certificates: parity-shift and
  cover audits, symbolic image descriptions, cylinder pushforwards, reachability
  witnesses, orbit probes, periodic scans, a two-subtree entropy certificate,
  Lipschitz audits, and a non-injectivity witness.

Every certificate re-verifies its own output by independent forward
computation before returning; a verification miss raises instead of returning
a wrong record.  Searches take explicit budgets and raise ``BudgetExceeded``
rather than truncating silently.  The context serializes engine access; share
it across threads only under an external lock.

Feasibility: base-letter values drawn inside a deviation window inherit the
window's dyadic depth, and window widths shrink roughly doubly exponentially
along fold chains.  One fold generation (images of grid words, single
applications, natural forward chains) stays cheap; asking the base engine for
the value at a letter born from a second fold generation exhausts its round
budget.  Long-running operations therefore either cut off early on a
structural invariant (an orbit whose word has shortened can never return) or
report the budgeted failure honestly instead of stalling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import BudgetExceeded, DendromapError, DomainError, PrecisionError
from .plmap import OMEGA, base_backward, base_forward
from .rationals import (
    as_fraction,
    canonical_min,
    dyadic_grid,
    format_rational,
    is_dyadic,
    parity_class,
)
from .space import (
    ROOT,
    CutPoint,
    EndPoint,
    LengthTable,
    PointRep,
    arcs_of_skeleton,
    cut,
    distance,
    end,
    factor_distance,
    in_D_gamma,
    point_to_json,
)
from .tau0 import Tau0Engine
from .tau12 import TauEngine, make_tau_alpha, make_tau_doubleprime, make_tau_prime
from .words import (
    Bits,
    QWord,
    as_bits,
    as_letter,
    as_word,
    carry_letter,
    format_bits,
    odometer_add,
    parity_word,
)


def _bit_at(bits: Bits, position: int, value_shift: int) -> int:
    """Bit at ``position`` of (integer value of bits) + value_shift."""
    value = sum(b << i for i, b in enumerate(bits)) + value_shift
    return (value >> position) & 1


class RhoContext:
    """Shared engine cache; all word and point dynamics go through one context.

    An engine cache key is validated on a miss only, before its factory runs,
    so a key equal to a cached one (the float 0.5 for 1/2) is served as is.
    """

    def __init__(self, tau0_rounds: int = 512):
        self._tau0 = Tau0Engine(max_rounds=tau0_rounds)
        self._prime: dict[Fraction, TauEngine] = {}
        self._dp: dict[Fraction, TauEngine] = {}
        self._alpha: dict[QWord, TauEngine] = {}
        self._table: Optional[LengthTable] = None

    @property
    def tau0(self) -> Tau0Engine:
        return self._tau0

    def xi(self, r) -> Fraction:
        return self._tau0.eval(r)

    def tau_prime(self, r) -> TauEngine:
        if r not in self._prime:
            r = as_fraction(r)
        if r not in self._prime:
            self._prime[r] = make_tau_prime(r, self.xi(r))
        return self._prime[r]

    def tau_dp(self, r) -> TauEngine:
        if r not in self._dp:
            r = as_fraction(r)
        if r not in self._dp:
            self._dp[r] = make_tau_doubleprime(r)
        return self._dp[r]

    def tau_alpha(self, alpha) -> TauEngine:
        alpha = tuple(alpha)
        if alpha not in self._alpha:
            alpha = as_word(alpha)
        if alpha not in self._alpha:
            self._alpha[alpha] = make_tau_alpha(alpha)
        return self._alpha[alpha]

    @property
    def engine_count(self) -> int:
        return 1 + len(self._prime) + len(self._dp) + len(self._alpha)

    def length_table(self) -> LengthTable:
        if self._table is None:
            self._table = LengthTable(self.rho)
        return self._table

    # -- the word map --------------------------------------------------

    def theta(self, alpha) -> int:
        alpha = as_word(alpha)
        return 1 if len(alpha) >= 2 and alpha[1] < OMEGA else 0

    def rho(self, alpha) -> QWord:
        alpha = as_word(alpha)
        if len(alpha) == 0:
            return ()
        if len(alpha) == 1:
            return (self.xi(alpha[0]),)
        r, s = alpha[:2]
        if s < OMEGA:
            image = [self.tau_prime(r).eval_exact(s)]
        else:
            image = [self.xi(r), self.tau_dp(r).eval_exact(s)]
        # Each later letter moves by the engine of the word before it.
        for k in range(2, len(alpha)):
            image.append(self.tau_alpha(alpha[:k]).eval_exact(alpha[k]))
        return tuple(image)

    def rho_iterate(self, alpha, n: int) -> tuple[QWord, list[int]]:
        """n-fold image plus the descent profile of word lengths."""
        alpha = as_word(alpha)
        if n < 0:
            raise DomainError("iteration count must be nonnegative")
        profile = [len(alpha)]
        for _ in range(n):
            alpha = self.rho(alpha)
            profile.append(len(alpha))
        return alpha, profile

    def first_hit_length_one(self, alpha, budget: int = 512) -> int:
        alpha = as_word(alpha)
        if not alpha:
            raise DomainError("the empty word never reaches length one")
        steps = 0
        while len(alpha) > 1:
            alpha = self.rho(alpha)
            steps += 1
            if steps > budget:
                raise BudgetExceeded(f"no length-one hit within {budget} steps")
        return steps

    def rho_section(self, beta, chooser=None) -> QWord:
        """A word of the same length mapping forward onto ``beta``.

        ``chooser`` picks among equally valid backward branches (default:
        canonical minimum); any choice is forward-verified before return.
        """
        beta = as_word(beta)
        alpha = self._section(beta, chooser or canonical_min)
        if self.rho(alpha) != beta or len(alpha) != len(beta):
            raise DendromapError(f"section of {beta} failed forward verification")
        return alpha

    def _section(self, beta: QWord, choose) -> QWord:
        if len(beta) == 0:
            return ()
        if len(beta) == 1:
            return (choose(self._tau0.preimages(beta[0])),)
        if len(beta) == 2:
            r = choose(self._tau0.preimages(beta[0]))
            (u,) = self.tau_dp(r).preimages(beta[1])
            return (r, u)
        head = self._section(beta[:-1], choose)
        (u,) = self.tau_alpha(head).preimages(beta[-1])
        return head + (u,)

    # -- the point map -------------------------------------------------

    def apply_F(self, x: PointRep) -> PointRep:
        """Exact image of a point; raises PrecisionError where finite engine
        state cannot pin the value (a non-dyadic parameter inside an arc)."""
        if isinstance(x, EndPoint):
            word = self.rho(x.prefix)
            if len(word) < 2:
                raise PrecisionError(
                    "image prefix shorter than 2; deepen the input prefix"
                )
            return end(word)
        w, t = x.word, x.t
        if len(w) == 0:
            return cut((), base_forward(t))
        if len(w) == 1:
            r = w[0]
            if t == OMEGA:
                return cut((), self.xi(r))
            if t < OMEGA:
                return cut((), self._eval_or_raise(self.tau_prime(r), t))
            return cut((self.xi(r),), self._eval_or_raise(self.tau_dp(r), t))
        return cut(self.rho(w), self._eval_or_raise(self.tau_alpha(w), t))

    @staticmethod
    def _eval_or_raise(engine: TauEngine, t: Fraction) -> Fraction:
        if 0 < t < 1 and not is_dyadic(t):
            raise PrecisionError(
                f"parameter {t} is not a dyadic, so no settled value pins its image"
            )
        return engine.eval_exact(t)

    def apply_G(self, m: int, y: PointRep) -> PointRep:
        """Factor dynamics: the depth-m skeleton is one hub point (ROOT
        stands for its class); everything else moves as under apply_F."""
        if m < 2:
            raise DomainError("factor dynamics start at depth 2")
        if self.is_hub(m, y):
            return ROOT
        z = self.apply_F(y)
        return ROOT if self.is_hub(m, z) else z

    @staticmethod
    def is_hub(m: int, y: PointRep) -> bool:
        return isinstance(y, CutPoint) and len(y.word) <= m

    @staticmethod
    def same_factor_point(m: int, y1: PointRep, y2: PointRep) -> bool:
        if RhoContext.is_hub(m, y1) and RhoContext.is_hub(m, y2):
            return True
        return y1 == y2

    # -- parity and cover certificates ---------------------------------

    def parity_shift_check(self, alpha) -> dict:
        alpha = as_word(alpha)
        gamma = parity_word(alpha)
        th = self.theta(alpha)
        image = self.rho(alpha)
        pw = parity_word(image)
        m = len(alpha)
        truncated_ok = (
            pw[: m - 1] == odometer_add(gamma[:-1], 1) if m >= 1 else pw == ()
        )
        full_ok = th == 1 or pw == odometer_add(gamma, 1)
        return {
            "alpha": [format_rational(a) for a in alpha],
            "theta": th,
            "parity": format_bits(gamma),
            "image_parity": format_bits(pw),
            "ok": truncated_ok and full_ok,
        }

    def cell_of(self, x: PointRep, m: int) -> Optional[Bits]:
        """Parity word of the depth-m cover cell holding x in its interior;
        None on the shared boundary skeleton."""
        if isinstance(x, EndPoint):
            if x.depth < m:
                raise PrecisionError(
                    f"end prefix of depth {x.depth} has no depth-{m} cell"
                )
            return parity_word(x.prefix[:m])
        if len(x.word) < m:
            return None
        return parity_word(x.word[:m])

    def decomposition_audit(self, m: int, samples) -> dict:
        if m < 1:
            raise DomainError("cover audits start at depth 1")
        counts = {"pass": 0, "fail": 0, "boundary": 0, "inconclusive": 0}
        for x in samples:
            try:
                gamma = self.cell_of(x, m)
                if gamma is None:
                    verdict = "boundary"
                else:
                    y = self.apply_F(x)
                    inside = in_D_gamma(y, odometer_add(gamma, 1)) != "outside"
                    verdict = "pass" if inside else "fail"
            except (PrecisionError, BudgetExceeded):
                verdict = "inconclusive"
            counts[verdict] += 1
        return {"counts": counts, "ok": counts["fail"] == 0}

    # -- symbolic images -----------------------------------------------

    def image_of_X_alpha(self, alpha) -> "ImageDescription":
        alpha = as_word(alpha)
        if not alpha:
            raise DomainError("the image description needs a nonempty word")
        gamma = parity_word(alpha)
        beta = self.rho(alpha)
        if len(alpha) >= 2 and alpha[1] > OMEGA:
            return ImageDescription(case="subtree", base=beta)
        e = carry_letter(gamma)
        if len(alpha) >= 2:
            return ImageDescription(case="arc-with-fans", base=beta, child_parity=e)
        lo = base_forward(alpha[0])
        hi = beta[0]
        return ImageDescription(
            case="segment-with-fan", base=beta, child_parity=e, segment=(lo, hi)
        )

    # -- cylinders under iteration -------------------------------------

    def cylinder_image(self, alpha, delta, n: int) -> "CylinderSpec":
        alpha = as_word(alpha)
        delta = as_bits(delta)
        if len(alpha) < 2:
            raise DomainError("cylinder images need a base word of length >= 2")
        if not delta or n < 1:
            raise DomainError("need a nonempty parity suffix and n >= 1")
        # Validate length before each step so a doomed request fails before
        # the next (possibly expensive) iterate is computed.
        word = alpha
        for step in range(n):
            if len(word) < 2:
                raise DomainError(
                    f"iterate {step} dropped below length 2 before step {n}"
                )
            word = self.rho(word)
        gamma = parity_word(alpha)
        parity = odometer_add(gamma + delta, n)[: len(word) + len(delta)]
        return CylinderSpec(base=word, parity=parity)

    # -- reachability witnesses ----------------------------------------

    def transitivity_witness(
        self, alpha, s, delta, budget: "WitnessBudget" = None
    ) -> "WitnessRecord":
        alpha = as_word(alpha)
        s = as_letter(s)
        delta = as_bits(delta)
        if not alpha:
            raise DomainError("witnesses need a nonempty start word")
        if len(delta) != len(alpha):
            raise DomainError("parity target must have the start word's length")
        budget = budget or WitnessBudget()
        levels: list[dict] = []
        n, c, u = self._witness(alpha, s, delta, budget, levels)
        word = alpha + (u,)
        image, profile = self.rho_iterate(word, n)
        ledger = odometer_add(parity_word(word), n)
        target = (parity_class(s),) + delta
        if image != (s,) or ledger != target:
            raise DendromapError("witness failed forward verification")
        return WitnessRecord(
            alpha=alpha,
            s=s,
            delta=delta,
            n=n,
            c=c,
            u=u,
            profile=tuple(profile),
            levels=tuple(levels),
        )

    def _witness(self, alpha, s, delta, budget, levels) -> tuple[int, int, Fraction]:
        if len(alpha) == 1:
            return self._witness_base(alpha[0], s, delta[0], budget, levels)
        gamma = parity_word(alpha)
        k = len(alpha)
        # Descend until the length first drops, then recurse one level down.
        p = 0
        word = alpha
        while self.theta(word) == 0:
            word = self.rho(word)
            p += 1
            if p > budget.descent_steps:
                raise BudgetExceeded(f"no length drop within {budget.descent_steps}")
        abar = self.rho(word)
        nbar, _cbar, ubar = self._witness(abar, s, delta[:-1], budget, levels)
        n = p + 1 + nbar
        if odometer_add(gamma, n) != (parity_class(s),) + delta[:-1]:
            raise DendromapError("parity ledger broke during descent")
        c = (delta[-1] - _bit_at(gamma, k, n)) & 1
        # Lift the witness letter backward: one fold preimage at the drop,
        # then unique preimages along the length-preserving steps.
        chain = [alpha]
        for _ in range(p):
            chain.append(self.rho(chain[-1]))
        req = odometer_add(gamma + (c,), p)[k]
        fold = self.tau_alpha(chain[p])
        picks = [v for v in fold.preimages(ubar) if parity_class(v) == req]
        if not picks:
            raise DendromapError("fold lift found no parity-matching preimage")
        u = picks[0]
        for j in range(p - 1, -1, -1):
            (u,) = self.tau_alpha(chain[j]).preimages(u)
        if parity_class(u) != c:
            raise DendromapError("lifted letter landed in the wrong parity class")
        levels.append({"length": k, "p": p, "u": format_rational(u)})
        return n, c, u

    def _witness_base(self, r, s, d1, budget, levels) -> tuple[int, int, Fraction]:
        g = parity_class(r)
        d = parity_class(s)
        ladder = [r]

        def rung_at(i: int) -> Fraction:
            while len(ladder) <= i:
                ladder.append(self.xi(ladder[-1]))
            return ladder[i]

        found = None
        level = [s]
        nodes = 0
        for h in range(budget.backward_depth + 1):
            for t in level:
                # parity(t) == d - h; a ladder slot k0 must satisfy
                # g + k0 + 1 == parity(t) (mod 2) and put t strictly inside
                # the step interval at xi^k0(r).
                for k0 in range(budget.ladder_steps + 1):
                    if (
                        k0 > 0
                        and rung_at(k0) > rung_at(k0 - 1)
                        and base_forward(rung_at(k0)) >= t
                    ):
                        break
                    if (g + k0 + 1 - (d - h)) % 2 != 0:
                        continue
                    if base_forward(rung_at(k0)) < t < rung_at(k0 + 1):
                        found = (h, k0, t)
                        break
                if found:
                    break
            if found:
                break
            nxt = []
            for t in level:
                nxt.extend(self._tau0.preimages(t))
                nodes += 1
                if nodes > budget.tree_nodes:
                    raise BudgetExceeded("backward tree budget exhausted")
            level = sorted(set(nxt))
        if not found:
            raise BudgetExceeded(
                f"no reachable step window within depth {budget.backward_depth}"
            )
        h, k0, t = found
        n = k0 + 1 + h
        c = (d1 - _bit_at((g,), 1, n)) & 1
        rp = rung_at(k0)
        req = odometer_add((g, c), k0)[1]
        prime = self.tau_prime(rp)
        picks = [v for v in prime.preimages(t) if parity_class(v) == req]
        if not picks:
            raise DendromapError("entry lift found no parity-matching preimage")
        u = picks[0]
        for j in range(k0 - 1, -1, -1):
            (u,) = self.tau_dp(rung_at(j)).preimages(u)
        if parity_class(u) != c:
            raise DendromapError("lifted letter landed in the wrong parity class")
        levels.append(
            {
                "length": 1,
                "h": h,
                "k0": k0,
                "t": format_rational(t),
                "u": format_rational(u),
            }
        )
        return n, c, u

    # -- orbit statistics and limits -----------------------------------

    def orbit_density_probe(
        self, prefix, horizon: int, m: int, exact_steps: Optional[int] = None
    ) -> dict:
        """Predicted cell-visit counts over the horizon, plus direct exact
        verification of the first steps.  ``exact_steps`` caps the verified
        stretch; deep-generation letters make later steps expensive."""
        prefix = as_word(prefix)
        if m < 1 or m > len(prefix):
            raise DomainError("cell depth must be within the declared prefix")
        cap = horizon if exact_steps is None else min(exact_steps, horizon)
        gamma0 = parity_word(prefix[:m])
        counts: dict[str, int] = {}
        for i in range(horizon):
            key = format_bits(odometer_add(gamma0, i))
            counts[key] = counts.get(key, 0) + 1
        x: PointRep = end(prefix)
        verified = 0
        while verified < cap:
            try:
                actual = self.cell_of(x, m)
            except PrecisionError:
                break
            if actual != odometer_add(gamma0, verified):
                raise DendromapError("orbit left its predicted cover cell")
            verified += 1
            if verified >= cap:
                break
            try:
                x = self.apply_F(x)
            except (PrecisionError, BudgetExceeded):
                break
        return {
            "start": point_to_json(end(prefix)),
            "depth": m,
            "horizon": horizon,
            "cells": counts,
            "verified_steps": verified,
        }

    def fixed_periodic_scan(
        self, depth: int, period_bound: int, grid: "ScanGrid" = None
    ) -> dict:
        """Grid points whose orbit returns within ``period_bound`` steps."""
        grid = grid or ScanGrid()
        points = grid.points(depth)
        fixed, periodic = [], []
        unresolved = 0
        for x in points:
            start_len = len(x.word)
            y = x
            period = None
            try:
                for step in range(1, period_bound + 1):
                    y = self.apply_F(y)
                    if y == x:
                        period = step
                        break
                    # Words never lengthen under the map, so an orbit that
                    # has shortened below its start can never come back.
                    if len(y.word) < start_len:
                        break
            except (PrecisionError, BudgetExceeded):
                unresolved += 1
                continue
            if period is not None:
                (fixed if period == 1 else periodic).append(x)
        return {
            "scanned": len(points),
            "fixed": fixed,
            "periodic": periodic,
            "unresolved": unresolved,
        }

    # -- entropy and Lipschitz certificates ----------------------------

    def horseshoe_certificate(self, m: int) -> "HorseshoeCertificate":
        rungs = {j: self._tau0.rung(j) for j in range(m - 1, m + 4)}
        steps = []
        for j in (m, m + 1, m + 2):
            z = rungs[j]
            image = self.image_of_X_alpha((z,))
            checks = {
                "forward_is_next_rung": self.xi(z) == rungs[j + 1],
                "step_interval_holds_lower": base_forward(z) < rungs[j - 1] < rungs[j + 1],
                "parity_alternates": parity_class(rungs[j - 1])
                == parity_class(rungs[j + 1])
                == 1 - parity_class(z),
                "image_covers_lower": image.contains_subtree((rungs[j - 1],)),
                "image_covers_upper": image.contains_subtree((rungs[j + 1],)),
            }
            steps.append(
                {"index": j, "rung": format_rational(z), "checks": checks}
            )
        assembly = {
            "pair": [m, m + 2],
            "through": m + 1,
            "pair_disjoint": rungs[m] != rungs[m + 2],
        }
        ok = assembly["pair_disjoint"] and all(
            all(s["checks"].values()) for s in steps
        )
        return HorseshoeCertificate(
            m=m,
            rungs={j: rungs[j] for j in sorted(rungs)},
            single_steps=tuple(steps),
            assembly=assembly,
            verified=ok,
        )

    def lipschitz_audit(self, scope: tuple, pairs) -> dict:
        """Exact ratio audit d(Fx, Fy) <= bound * d(x, y) over given pairs.

        scope is ("arc", word), ("subtree", word) with |word| >= 2, or
        ("factor", m).  Pairs whose image needs approximation are skipped
        and counted.
        """
        kind = scope[0]
        table = self.length_table()
        if kind in ("arc", "subtree"):
            word = as_word(scope[1])
            if len(word) < 2:
                raise DomainError("arc and subtree audits need length >= 2")
            m = len(word)
        elif kind == "factor":
            m = int(scope[1])
            if m < 2:
                raise DomainError("factor audits start at depth 2")
        else:
            raise DomainError(f"unknown audit scope {kind!r}")
        bound = Fraction((m + 1) ** 4, m**4)
        max_ratio = Fraction(0)
        checked = skipped = violations = 0
        for x, y in pairs:
            try:
                fx, fy = self.apply_F(x), self.apply_F(y)
                if kind == "factor":
                    d0 = factor_distance(x, y, m, table)
                    d1 = factor_distance(fx, fy, m, table)
                else:
                    d0 = distance(x, y, table)
                    d1 = distance(fx, fy, table)
            except (PrecisionError, BudgetExceeded):
                skipped += 1
                continue
            if not isinstance(d0, Fraction) or not isinstance(d1, Fraction):
                skipped += 1
                continue
            checked += 1
            if d0 == 0:
                if d1 != 0:
                    violations += 1
                continue
            ratio = d1 / d0
            max_ratio = max(max_ratio, ratio)
            if ratio > bound:
                violations += 1
        return {
            "bound": format_rational(bound),
            "checked": checked,
            "skipped": skipped,
            "violations": violations,
            "max_ratio": format_rational(max_ratio),
            "ok": violations == 0,
        }

    def noninjectivity_witness(self, r) -> tuple[CutPoint, CutPoint, CutPoint]:
        """Two distinct points with the same image, one per arc level."""
        r = as_letter(r)
        s = self.xi(r)
        x1 = cut((), base_backward(s))
        x2 = cut((r,), OMEGA)
        target = cut((), s)
        if self.apply_F(x1) != target or self.apply_F(x2) != target or x1 == x2:
            raise DendromapError("non-injectivity witness failed verification")
        return x1, x2, target


@dataclass(frozen=True)
class WitnessBudget:
    backward_depth: int = 12
    ladder_steps: int = 64
    descent_steps: int = 512
    tree_nodes: int = 4096


@dataclass(frozen=True)
class WitnessRecord:
    alpha: QWord
    s: Fraction
    delta: Bits
    n: int
    c: int
    u: Fraction
    profile: tuple[int, ...]
    levels: tuple[dict, ...]


@dataclass(frozen=True)
class ImageDescription:
    """Exact shape of a subtree image, one of three symbolic cases."""

    case: str
    base: QWord
    child_parity: Optional[int] = None
    segment: Optional[tuple[Fraction, Fraction]] = None

    def contains_subtree(self, word) -> bool:
        word = as_word(word)
        b = len(self.base)
        if self.case == "subtree":
            return len(word) >= b and word[:b] == self.base
        if self.case == "arc-with-fans":
            return (
                len(word) > b
                and word[:b] == self.base
                and parity_class(word[b]) == self.child_parity
            )
        lo, hi = self.segment
        return (
            len(word) >= 1
            and parity_class(word[0]) == self.child_parity
            and lo < word[0] <= hi
        )


@dataclass(frozen=True)
class CylinderSpec:
    """Finite words extending ``base`` whose full parity word is ``parity``."""

    base: QWord
    parity: Bits

    def __post_init__(self):
        if len(self.parity) < len(self.base):
            raise DomainError("parity word shorter than the base word")
        if parity_word(self.base) != self.parity[: len(self.base)]:
            raise DomainError("parity word disagrees with the base word")

    @property
    def length(self) -> int:
        return len(self.parity)

    def matches(self, word) -> bool:
        word = as_word(word)
        return (
            len(word) == self.length
            and word[: len(self.base)] == self.base
            and parity_word(word) == self.parity
        )


@dataclass(frozen=True)
class HorseshoeCertificate:
    """Two disjoint subtrees whose second images each cover both."""

    m: int
    rungs: dict
    single_steps: tuple
    assembly: dict
    verified: bool

    @property
    def entropy_coefficient(self) -> Fraction:
        return Fraction(1, 2)

    @property
    def entropy_log_base(self) -> int:
        return 2


@dataclass(frozen=True)
class ScanGrid:
    """Finite point grid: short words over small letters, dyadic parameters."""

    letter_exponent: int = 2
    param_exponent: int = 5

    def points(self, depth: int) -> list[CutPoint]:
        if depth < 1:
            raise DomainError("scan depth must be positive")
        words = arcs_of_skeleton(depth - 1, dyadic_grid(self.letter_exponent))
        params = [Fraction(0), Fraction(1)] + dyadic_grid(self.param_exponent)
        out: list[CutPoint] = []
        seen = set()
        for w in words:
            for t in params:
                point = cut(w, t)
                if point not in seen:
                    seen.add(point)
                    out.append(point)
        return out
