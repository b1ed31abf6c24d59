"""Staged piecewise-linear engines assigning prescribed values to dyadics.

A :class:`TauEngine` carries a frame ``I = [a, b] -> I' = [a', b']`` and two
dyadic families: domain points split by parity class, and per-family target
parity classes inside the codomain.  The engine maintains a piecewise-linear
stage that starts as the three-node seed map and is refined in rounds, one
family per round.  Every round runs two modifications with tolerance
``eps_j = |I'| * 2**-j``:

* a point step: the next unprocessed domain point of the round's family gets
  a value picked from the family's target class, close to the current stage
  value, splitting whichever other segments would straddle the new value;
* a target step: the next unprocessed target of the family is realized as the
  value of freshly picked domain points, one per straddled segment, or by a
  plateau next to an existing node that already carries the value.

Picks are always the canonically first dyadic of the required parity inside
an exactly computed open window, so a given call sequence reproduces the same
stage bit for bit.  Each modification keeps the stage invariants: endpoint
values exact, every slope strictly below the Lipschitz budget, interior node
values strictly between the codomain floor and the frame diagonal, and no
non-constant segment whose open image meets a node value (strong linearity).
When the two target classes are disjoint the stage additionally stays
strictly increasing.

Every commit checks, at a cost independent of the stage size: the step
against the round's tolerance, the new value below the diagonal at each
pick, the slopes of the two segments beside each pick, that no segment
straddles the new value any more, and, in homeomorphism mode, the order
around each pick.  The straddler lookup relies on strong linearity, and the
local order check on the stage having been increasing before the commit;
full strong linearity and full monotonicity are checked only by
:meth:`TauEngine.verify_invariants`.

Evaluation at unprocessed points enqueues them for their family's next
rounds, so settled values depend on the engine's call history; any replay of
the same recorded operations is byte-identical (see :func:`replay_check`).
Approximate evaluation relies on the tail bound ``|I'| * 2**(1 - j)`` after
round ``j``.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, DomainError
from .plmap import OMEGA, ONE, ZERO, base_forward, frame_diagonal
from .rationals import (
    as_fraction,
    dyadics_in,
    first_dyadic_in,
    format_rational,
    is_dyadic,
    parity_class,
)
from .words import as_letter, as_word, carry_letter, parity_word

SCHEMA = "dendromap-engine/1"


@dataclass(frozen=True)
class PLStage:
    """Immutable snapshot of one piecewise-linear stage."""

    domain: tuple[Fraction, Fraction]
    codomain: tuple[Fraction, Fraction]
    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    lipschitz: Fraction


class TauEngine:
    """Two-family staged PL map on a rational frame."""

    def __init__(
        self,
        domain: tuple[Fraction, Fraction],
        codomain: tuple[Fraction, Fraction],
        target_parity: tuple[int, int],
        lipschitz,
        *,
        label: str = "tau",
        max_rounds: int = 100_000,
    ):
        a, b = as_fraction(domain[0]), as_fraction(domain[1])
        a2, b2 = as_fraction(codomain[0]), as_fraction(codomain[1])
        if not a < b or not a2 < b2:
            raise DomainError("degenerate frame interval")
        if tuple(target_parity) not in ((0, 0), (0, 1), (1, 0), (1, 1)):
            raise DomainError(f"bad target parity table {target_parity!r}")
        self._a, self._b, self._a2, self._b2 = a, b, a2, b2
        self._tp = (int(target_parity[0]), int(target_parity[1]))
        self._lip = as_fraction(lipschitz)
        self._width2 = b2 - a2
        if not self._lip > self._width2 / (b - a):
            raise DomainError("Lipschitz budget below the frame slope")
        self._homeo = self._tp[0] != self._tp[1]
        self._label = label
        self._max_rounds = max_rounds

        self._diag = frame_diagonal((a, b), (a2, b2))

        self._nodes: list[Fraction] = [a, b]
        self._values: dict[Fraction, Fraction] = {a: a2, b: b2}
        self._vals_sorted: list[Fraction] = sorted((a2, b2))
        # Settled value -> the sorted interior nodes that carry it.
        self._holders: dict[Fraction, list[Fraction]] = {}
        self._settled_by: tuple[set, set] = (set(), set())
        self._targets: tuple[set, set] = (set(), set())
        self._dq: tuple[deque, deque] = (deque(), deque())
        self._tq: tuple[deque, deque] = (deque(), deque())
        self._dom_iters = (dyadics_in(0, a, b), dyadics_in(1, a, b))
        self._tgt_iters = (
            dyadics_in(self._tp[0], a2, b2),
            dyadics_in(self._tp[1], a2, b2),
        )
        self._round = 0
        self._log: list[dict] = []
        self._ops: list[dict] = []
        # Settled read input -> (answer, the log entry that records it).  A
        # settled value never changes and gains no new holders once it is a
        # target of every family of its class, so a repeat re-logs the entry.
        self._exact_reads: dict[Fraction, tuple[Fraction, dict]] = {}
        self._preimage_reads: dict[Fraction, tuple[tuple[Fraction, ...], dict]] = {}
        self._seed()

    # -- construction -----------------------------------------------------

    def _seed(self) -> None:
        r = self._next_domain(0)
        lo = max(self._a2, self._b2 - self._lip * (self._b - r))
        hi = self._diag(r)
        rp = first_dyadic_in(self._tp[0], (lo, hi), self._targets[0])
        self._commit(0, rp, [r], kind="seed", base=None, eps=None)

    def _next_domain(self, c: int) -> Fraction:
        queue = self._dq[c]
        while queue and queue[0] in self._values:
            queue.popleft()
        if queue:
            return queue.popleft()
        for cand in self._dom_iters[c]:
            if cand not in self._values:
                return cand
        raise BudgetExceeded("domain enumeration exhausted")

    def _next_target(self, c: int) -> Fraction:
        queue = self._tq[c]
        while queue and queue[0] in self._targets[c]:
            queue.popleft()
        if queue:
            return queue.popleft()
        for cand in self._tgt_iters[c]:
            if cand not in self._targets[c]:
                return cand
        raise BudgetExceeded("target enumeration exhausted")

    def _run_round(self) -> None:
        j = self._round + 1
        if j > self._max_rounds:
            raise BudgetExceeded(f"{self._label}: round budget {self._max_rounds} exhausted")
        c = j % 2
        eps = self._width2 * Fraction(1, 2**j)
        r1 = self._next_domain(c)
        self._refine_point(c, r1, eps)
        rp = self._next_target(c)
        self._refine_target(c, rp, eps)
        self._round = j

    # -- geometry helpers -------------------------------------------------

    def _segment_of(self, t: Fraction) -> int:
        i = bisect_right(self._nodes, t) - 1
        if not self._nodes[i] < t < self._nodes[i + 1]:
            raise DomainError(f"{t} is not strictly inside a segment")
        return i

    def _seg(self, i: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        x0, x1 = self._nodes[i], self._nodes[i + 1]
        return x0, x1, self._values[x0], self._values[x1]

    def _stage_value(self, t: Fraction) -> Fraction:
        if t == self._a:
            return self._a2
        if t == self._b:
            return self._b2
        if t in self._values:
            return self._values[t]
        x0, x1, u0, u1 = self._seg(self._segment_of(t))
        return u0 + (u1 - u0) * (t - x0) / (x1 - x0)

    def _straddlers(self, rp: Fraction, skip: int | None = None) -> list[int]:
        # Strong linearity (no open segment image holds a node value) puts the
        # lower end of a segment straddling rp at a node carrying w < rp.
        idx = bisect_left(self._vals_sorted, rp) - 1
        if idx < 0:
            return []
        w = self._vals_sorted[idx]
        ends = [self._a] if w == self._a2 else self._holders.get(w, ())
        hits = []
        # Holders ascend and a segment between two of them is constant, so
        # the hits come out sorted and without repeats.
        for x in ends:
            k = bisect_left(self._nodes, x)
            for i in (k - 1, k):
                if i < 0 or i == skip:
                    continue
                _, _, u0, u1 = self._seg(i)
                if u0 != u1 and min(u0, u1) < rp < max(u0, u1):
                    hits.append(i)
        return hits

    def _largest_value_below(self, v: Fraction) -> Fraction:
        idx = bisect_left(self._vals_sorted, v) - 1
        if idx < 0:
            raise DomainError(f"no node value below {v}")
        return self._vals_sorted[idx]

    def _cascade_pick(self, c: int, i: int, rp: Fraction, eps: Fraction) -> Fraction:
        x0, x1, u0, u1 = self._seg(i)
        slope = (u1 - u0) / (x1 - x0)
        xstar = x0 + (rp - u0) / slope
        halfw = eps / abs(slope)
        lo = max(x0, xstar - halfw, x0 + abs(rp - u0) / self._lip, self._diag.invert(rp))
        hi = min(x1, xstar + halfw, x1 - abs(u1 - rp) / self._lip)
        if not lo < hi:
            raise BudgetExceeded(f"{self._label}: empty cascade window in segment {i}")
        return first_dyadic_in(c, (lo, hi), self._values)

    # -- refinement steps -------------------------------------------------

    def _refine_point(self, c: int, r1: Fraction, eps: Fraction) -> None:
        i = self._segment_of(r1)
        x0, x1, u0, u1 = self._seg(i)
        if u0 == u1:
            if self._homeo:
                raise BudgetExceeded(f"{self._label}: constant segment in homeomorphism mode")
            # Notch just below the plateau, clearing every node value.
            w = self._largest_value_below(u0)
            lo = max(
                w,
                u0 - eps,
                u0 - self._lip * (r1 - x0),
                u0 - self._lip * (x1 - r1),
            )
            rp = first_dyadic_in(self._tp[c], (lo, u0), self._targets[c])
        else:
            g1 = u0 + (u1 - u0) * (r1 - x0) / (x1 - x0)
            lo = max(
                min(u0, u1),
                g1 - eps,
                u0 - self._lip * (r1 - x0),
                u1 - self._lip * (x1 - r1),
            )
            hi = min(
                max(u0, u1),
                g1 + eps,
                u0 + self._lip * (r1 - x0),
                u1 + self._lip * (x1 - r1),
                self._diag(r1),
            )
            if not lo < hi:
                raise BudgetExceeded(f"{self._label}: empty value window at {r1}")
            rp = first_dyadic_in(self._tp[c], (lo, hi), self._targets[c])
        picks = [r1]
        for j in self._straddlers(rp, skip=i):
            picks.append(self._cascade_pick(c, j, rp, eps))
        self._commit(c, rp, picks, kind="point", base=r1, eps=eps)

    def _refine_target(self, c: int, rp: Fraction, eps: Fraction) -> None:
        hits = self._straddlers(rp)
        if hits:
            if self._homeo and len(hits) != 1:
                raise BudgetExceeded(f"{self._label}: fold detected in homeomorphism mode")
            picks = [self._cascade_pick(c, i, rp, eps) for i in hits]
        else:
            # The value is already attained at a node; thicken it rightward.
            holders = self._holders.get(rp)
            if not holders:
                raise BudgetExceeded(f"{self._label}: unreachable target {rp}")
            x0 = holders[0]
            x1 = self._nodes[bisect_right(self._nodes, x0)]
            u1 = self._values[x1]
            if u1 == rp:
                lo, hi = x0, x1
            else:
                slope = (u1 - rp) / (x1 - x0)
                lo = x0
                hi = min(x1, x0 + eps / abs(slope), x1 - abs(u1 - rp) / self._lip)
            if not lo < hi:
                raise BudgetExceeded(f"{self._label}: empty plateau window at {rp}")
            picks = [first_dyadic_in(c, (lo, hi), self._values)]
        self._commit(c, rp, picks, kind="target", base=None, eps=eps)

    def _commit(
        self,
        c: int,
        rp: Fraction,
        picks: list[Fraction],
        *,
        kind: str,
        base: Fraction | None,
        eps: Fraction | None,
    ) -> None:
        if parity_class(rp) != self._tp[c]:
            raise BudgetExceeded(f"{self._label}: target {rp} leaves family {c}'s class")
        old = {x: self._stage_value(x) for x in picks}
        for x in picks:
            insort(self._nodes, x)
            self._values[x] = rp
            insort(self._vals_sorted, rp)
            insort(self._holders.setdefault(rp, []), x)
            self._settled_by[c].add(x)
        self._targets[c].add(rp)
        step = max((abs(old[x] - rp) for x in picks), default=ZERO)
        self._log.append(
            {
                "round": self._round + (0 if kind == "seed" else 1),
                "family": c,
                "kind": kind,
                "base": None if base is None else format_rational(base),
                "target": format_rational(rp),
                "picks": [format_rational(x) for x in picks],
                "step": format_rational(step),
                "eps": None if eps is None else format_rational(eps),
            }
        )
        self._check_local(c, rp, picks, eps, step)

    def _check_local(self, c, rp, picks, eps, step) -> None:
        if eps is not None and not step < eps:
            raise BudgetExceeded(f"{self._label}: stage moved {step}, tolerance {eps}")
        for x in picks:
            if not rp < self._diag(x):
                raise BudgetExceeded(f"{self._label}: value at {x} reaches the diagonal")
            i = bisect_left(self._nodes, x)
            for lo_i in (i - 1, i):
                x0, x1, u0, u1 = self._seg(lo_i)
                if not abs(u1 - u0) < self._lip * (x1 - x0):
                    raise BudgetExceeded(f"{self._label}: slope bound broken at {x}")
                # The stage was increasing before this commit, so only the
                # two segments beside each pick can break the order.
                if self._homeo and not u0 < u1:
                    raise BudgetExceeded(f"{self._label}: monotonicity lost")
        if self._straddlers(rp):
            raise BudgetExceeded(f"{self._label}: value {rp} still straddled")

    # -- public API -------------------------------------------------------

    @property
    def label(self) -> str:
        return self._label

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return (self._a, self._b)

    @property
    def codomain(self) -> tuple[Fraction, Fraction]:
        return (self._a2, self._b2)

    @property
    def target_parity(self) -> tuple[int, int]:
        return self._tp

    @property
    def lipschitz_budget(self) -> Fraction:
        return self._lip

    @property
    def is_homeomorphism_mode(self) -> bool:
        return self._homeo

    @property
    def round_count(self) -> int:
        return self._round

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def settled_points(self, c: int) -> frozenset:
        return frozenset(self._settled_by[c])

    def settled_targets(self, c: int) -> frozenset:
        return frozenset(self._targets[c])

    def settled_items(self) -> list[tuple[Fraction, Fraction]]:
        return [
            (x, self._values[x])
            for x in self._nodes
            if x != self._a and x != self._b
        ]

    def ensure_rounds(self, n: int) -> int:
        while self._round < n:
            self._run_round()
        self._record("ensure_rounds", [str(n)], str(self._round))
        return self._round

    def eval_exact(self, t) -> Fraction:
        t = as_fraction(t)
        hit = self._exact_reads.get(t)
        if hit is not None:
            self._ops.append(hit[1])
            return hit[0]
        self._validate_domain(t)
        if t == self._a:
            result = self._a2
        elif t == self._b:
            result = self._b2
        else:
            if not is_dyadic(t):
                raise DomainError(
                    f"{t} is outside both dyadic families; use eval_approx"
                )
            if t not in self._values:
                self._dq[parity_class(t)].append(t)
                while t not in self._values:
                    self._run_round()
            result = self._values[t]
        entry = self._record("eval_exact", [format_rational(t)], format_rational(result))
        self._exact_reads[t] = (result, entry)
        return result

    def eval_approx(self, t, tol) -> Fraction:
        t, tol = as_fraction(t), as_fraction(tol)
        self._validate_domain(t)
        if not tol > 0:
            raise DomainError("tolerance must be positive")
        while self._width2 * Fraction(2, 2**self._round) > tol:
            self._run_round()
        result = self._stage_value(t)
        self._record(
            "eval_approx",
            [format_rational(t), format_rational(tol)],
            format_rational(result),
        )
        return result

    def tail_bound(self) -> Fraction:
        return self._width2 * Fraction(2, 2**self._round)

    def _settle(self, v: Fraction, c: int) -> None:
        if v in self._targets[c]:
            return
        self._tq[c].append(v)
        while v not in self._targets[c]:
            self._run_round()

    def settle_target(self, v, c: int) -> None:
        v = as_fraction(v)
        if c not in (0, 1) or parity_class(v) != self._tp[c]:
            raise DomainError(f"{v} is not a family-{c} target")
        if not self._a2 < v < self._b2:
            raise DomainError(f"target {v} outside the open codomain")
        self._settle(v, c)
        self._record("settle_target", [format_rational(v), str(c)], None)

    def preimages(self, v) -> list[Fraction]:
        v = as_fraction(v)
        hit = self._preimage_reads.get(v)
        if hit is not None:
            self._ops.append(hit[1])
            return list(hit[0])
        families = [c for c in (0, 1) if parity_class(v) == self._tp[c]]
        if not families or not self._a2 < v < self._b2:
            raise DomainError(f"{v} is not in any target family")
        for c in families:
            self._settle(v, c)
        result = tuple(self._holders.get(v, ()))
        entry = self._record(
            "preimages",
            [format_rational(v)],
            [format_rational(x) for x in result],
        )
        self._preimage_reads[v] = (result, entry)
        return list(result)

    def current_stage(self) -> PLStage:
        return PLStage(
            domain=(self._a, self._b),
            codomain=(self._a2, self._b2),
            breakpoints=tuple(self._nodes),
            values=tuple(self._values[x] for x in self._nodes),
            lipschitz=self._lip,
        )

    def verify_invariants(self) -> dict[str, bool]:
        nodes, values = self._nodes, self._values
        vals = [values[x] for x in nodes]
        checks = {
            "endpoints": vals[0] == self._a2 and vals[-1] == self._b2,
            "interior_window": all(
                self._a2 < values[x] < self._diag(x) for x in nodes[1:-1]
            ),
            "slopes": all(
                abs(v1 - v0) < self._lip * (x1 - x0)
                for x0, x1, v0, v1 in zip(nodes, nodes[1:], vals, vals[1:])
            ),
            "partition": (
                set(nodes[1:-1]) == self._settled_by[0] | self._settled_by[1]
                and not self._settled_by[0] & self._settled_by[1]
            ),
            "family_classes": all(
                parity_class(values[x]) == self._tp[parity_class(x)]
                for x in nodes[1:-1]
            ),
            "targets_in_codomain": all(
                self._a2 < v < self._b2
                for c in (0, 1)
                for v in self._targets[c]
            ),
            "step_log": all(
                entry["eps"] is None
                or as_fraction(entry["step"]) < as_fraction(entry["eps"])
                for entry in self._log
            ),
        }
        strong = True
        for i in range(len(nodes) - 1):
            v0, v1 = vals[i], vals[i + 1]
            if v0 == v1:
                continue
            lo, hi = min(v0, v1), max(v0, v1)
            inside = bisect_left(self._vals_sorted, hi) - bisect_right(
                self._vals_sorted, lo
            )
            if inside:
                strong = False
                break
        checks["strong_linearity"] = strong
        if self._homeo:
            checks["monotone"] = all(v0 < v1 for v0, v1 in zip(vals, vals[1:]))
        return checks

    # -- persistence ------------------------------------------------------

    def _validate_domain(self, t: Fraction) -> None:
        if not self._a <= t <= self._b:
            raise DomainError(f"{t} outside domain [{self._a}, {self._b}]")

    def _record(self, op: str, args: list, result) -> dict:
        entry = {"op": op, "args": args, "result": result}
        self._ops.append(entry)
        return entry

    def dump(self) -> dict:
        """The engine's frame, stage, round log and op log as JSON data.

        The dump shares the engine's live lists, and every repeat of a
        settled ``eval_exact`` or ``preimages`` read is the same entry object
        as its first call, so treat a dump as read-only (copy it to edit).
        """
        return {
            "schema": SCHEMA,
            "label": self._label,
            "domain": [format_rational(self._a), format_rational(self._b)],
            "codomain": [format_rational(self._a2), format_rational(self._b2)],
            "target_parity": list(self._tp),
            "lipschitz": format_rational(self._lip),
            "rounds": self._round,
            "nodes": [
                [format_rational(x), format_rational(self._values[x])]
                for x in self._nodes
            ],
            "log": self._log,
            "ops": self._ops,
        }

    def state_digest(self) -> str:
        payload = json.dumps(self.dump(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def replay_check(dumped: dict) -> tuple[bool, str]:
    """Re-drive a dumped engine's operation log and compare states byte-wise."""
    try:
        engine = TauEngine(
            dumped["domain"],
            dumped["codomain"],
            dumped["target_parity"],
            dumped["lipschitz"],
            label=dumped["label"],
        )
        for entry in dumped["ops"]:
            op, args = entry["op"], entry["args"]
            if op == "eval_exact":
                engine.eval_exact(args[0])
            elif op == "eval_approx":
                engine.eval_approx(args[0], args[1])
            elif op == "preimages":
                engine.preimages(args[0])
            elif op == "settle_target":
                engine.settle_target(args[0], int(args[1]))
            elif op == "ensure_rounds":
                engine.ensure_rounds(int(args[0]))
            else:
                return False, f"unknown operation {op!r}"
    except Exception as exc:  # replay must never crash the caller
        return False, f"replay aborted: {exc!r}"
    fresh = json.dumps(engine.dump(), sort_keys=True, separators=(",", ":"))
    given = json.dumps(dumped, sort_keys=True, separators=(",", ":"))
    if fresh != given:
        return False, "replayed state differs from the dumped state"
    return True, "replay matches"


# -- factories ------------------------------------------------------------


def make_tau_prime(r, xi_r, **kwargs) -> TauEngine:
    """Fold engine from the lower arc piece onto the gap above the base map."""
    r, xi_r = as_letter(r), as_fraction(xi_r)
    floor = base_forward(r)
    if not floor < xi_r < 1:
        raise DomainError(f"image interval ({floor}, {xi_r}) is degenerate")
    e = 1 - parity_class(r)
    return TauEngine(
        (ZERO, OMEGA),
        (floor, xi_r),
        (e, e),
        Fraction(4),
        label=f"tau_prime[{format_rational(r)}]",
        **kwargs,
    )


def make_tau_doubleprime(r, **kwargs) -> TauEngine:
    """Homeomorphism engine from the upper arc piece onto the full interval."""
    r = as_letter(r)
    d = parity_class(r)
    tp = (carry_letter((d, 0)), carry_letter((d, 1)))
    return TauEngine(
        (OMEGA, ONE),
        (ZERO, ONE),
        tp,
        Fraction(4),
        label=f"tau_dp[{format_rational(r)}]",
        **kwargs,
    )


def make_tau_alpha(alpha, **kwargs) -> TauEngine:
    """Unit-interval engine for a word of length two or more.

    The second letter decides the mode: below the branch parameter the two
    domain families share one target class (fold); above it they get disjoint
    classes (homeomorphism).  The Lipschitz budget shrinks with the length.
    """
    word = as_word(alpha)
    m = len(word)
    if m < 2:
        raise DomainError("needs a word of length at least 2")
    gamma = parity_word(word)
    if word[1] < OMEGA:
        e = carry_letter(gamma)
        tp = (e, e)
    else:
        tp = (carry_letter(gamma + (0,)), carry_letter(gamma + (1,)))
    label = "tau[" + ",".join(format_rational(x) for x in word) + "]"
    return TauEngine(
        (ZERO, ONE),
        (ZERO, ONE),
        tp,
        Fraction((m + 1) ** 2, m * m),
        label=label,
        **kwargs,
    )
