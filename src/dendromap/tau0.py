"""The dyadic index map with its two-sided anchor ladder.

This engine builds, lazily and deterministically, a surjection xi of the
dyadics of (0, 1) onto themselves together with a bi-infinite increasing
"ladder" (z_m): xi climbs the ladder (xi(z_m) = z_{m+1}), and every other
dyadic belongs to exactly one stage chain that descends toward 0, lands on a
ladder rung (its anchor), and extends backward toward 1.

All of the structure is produced by a fixed round schedule; round r

  1. materializes ladder rungs through indices +-r,
  2. creates stage r (start point, anchor, forward chain),
  3. extends the backward chain of every stage j <= r by one point.

Every public query only ever advances whole rounds, so the state after any
sequence of queries depends on nothing but the number of rounds run.  "Pick
the first available point" always means the canonical (q, p) enumeration
subject to exact open-interval constraints, minus everything already used.

Structural guarantees maintained per pick (checked by the verification
suite, not assumed):

  - parity alternation: parity(xi(x)) = parity(x) + 1 mod 2;
  - phi(x) < xi(x), with |xi(x) - phi(x)| < 2^-j along stage-j chains;
  - rung bracketing phi(z_m) < z_{m-1} < z_m, rungs -> 0 and -> 1;
  - forward chains strictly decrease and stay below the anchor;
  - backward chains strictly increase to 1 and, once past the stage's start
    window, place two consecutive points in every ladder window where the
    step-size budget makes that possible (the quota is forced by capping
    picks at the next rung; a window is skipped only when the cap is proven
    unsatisfiable, which the engine asserts).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetExceeded, DomainError
from .plmap import base_backward, base_forward
from .rationals import (
    as_fraction,
    canonical_enumeration,
    first_dyadic_in,
    format_rational,
    parity_class,
)
from .words import as_letter


@dataclass
class Stage:
    """One chain of the construction.  Read-only outside the engine."""

    index: int
    start: Fraction
    parity: int
    epsilon: Fraction
    length: int
    anchor: int
    forward: list[Fraction]
    start_window: int
    quota_window: int
    backward: list[Fraction] = field(default_factory=list)
    backward_windows: list[int] = field(default_factory=list)
    window_counts: dict[int, int] = field(default_factory=dict)
    underfilled: list[int] = field(default_factory=list)


class Tau0Engine:
    """Deterministic lazily materialized index map on the dyadics."""

    def __init__(self, max_rounds: int = 512):
        self.max_rounds = max_rounds
        self._rungs: dict[int, Fraction] = {}
        self._rung_lo = 0
        self._rung_hi = 0
        self._xi: dict[Fraction, Fraction] = {}
        # Every assigned point, with its role; also the exclusion set of
        # every pick.
        self._role: dict[Fraction, tuple] = {}
        self._stages: list[Stage] = []
        # Cursor of the stage-start search: the assigned set only grows, so
        # the canonically first free point only moves forward.
        self._starts = canonical_enumeration()
        self._next_start = next(self._starts)
        self._round = 0
        z0 = first_dyadic_in(0, (Fraction(1, 2), Fraction(3, 4)))
        self._add_rung(0, z0)

    # -- ladder ---------------------------------------------------------

    def _add_rung(self, m: int, value: Fraction) -> None:
        self._rungs[m] = value
        self._role[value] = ("rung", m)
        below = self._rungs.get(m - 1)
        if below is not None:
            self._xi[below] = value
        above = self._rungs.get(m + 1)
        if above is not None:
            self._xi[value] = above

    def _extend_up(self) -> None:
        m = self._rung_hi + 1
        prev = self._rungs[m - 1]
        lo = max(1 - Fraction(1, 2 ** (m + 1)), prev)
        hi = min(1 - Fraction(1, 2 ** (m + 2)), base_backward(prev))
        z = first_dyadic_in(m % 2, (lo, hi), self._role)
        self._rung_hi = m
        self._add_rung(m, z)

    def _extend_down(self) -> None:
        n = self._rung_lo - 1
        nxt = self._rungs[n + 1]
        lo = base_forward(nxt)
        hi = (lo + nxt) / 2
        z = first_dyadic_in(n % 2, (lo, hi), self._role)
        self._rung_lo = n
        self._add_rung(n, z)

    def _bracket(self, x: Fraction) -> None:
        # Construction-internal: materialize rungs until z_lo <= x < z_hi.
        while self._rungs[self._rung_lo] > x:
            self._extend_down()
        while self._rungs[self._rung_hi] <= x:
            self._extend_up()

    def _window_index(self, x: Fraction) -> int:
        # Assumes x is bracketed by materialized rungs.
        lo, hi = self._rung_lo, self._rung_hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._rungs[mid] <= x:
                lo = mid
            else:
                hi = mid
        return lo

    # -- stages ---------------------------------------------------------

    def _assign(self, x: Fraction, role: tuple) -> None:
        if x in self._role:
            raise BudgetExceeded(f"double assignment of {x}; construction bug")
        self._role[x] = role

    def _run_stage(self, j: int) -> None:
        while self._next_start in self._role:
            self._next_start = next(self._starts)
        start = self._next_start
        c = parity_class(start)
        eps = Fraction(1, 2**j)
        prev_anchor = self._stages[-1].anchor if self._stages else None

        # ys[i] is the i-th base iterate of start; it grows by one step per
        # candidate length.
        ys = [start]
        anchor = None
        length = 0
        while anchor is None:
            length += 1
            if length > 8 * (j + 60):
                raise BudgetExceeded(f"no anchor found for stage {j}")
            yl = base_forward(ys[-1])
            ys.append(yl)
            if yl >= eps:
                continue
            while self._rungs[self._rung_lo] > yl:
                self._extend_down()
            want = (c + length + 1) % 2
            for m in range(self._rung_hi, self._rung_lo - 1, -1):
                z = self._rungs[m]
                if z >= eps:
                    continue
                if z <= yl:
                    break
                if m % 2 != want:
                    continue
                if prev_anchor is not None and m >= prev_anchor:
                    continue
                anchor = m
                break

        gap = self._rungs[anchor] - ys[length]
        self._assign(start, ("chain", j, 0))
        forward = [start]
        for i in range(1, length + 1):
            margin = gap / (2 * 4 ** (length - i))
            prev = forward[-1]
            fp = base_forward(prev)
            cap = min(fp + eps, prev, ys[i] + margin)
            pick = first_dyadic_in((c + i) % 2, (fp, cap), self._role)
            self._assign(pick, ("chain", j, i))
            self._xi[prev] = pick
            forward.append(pick)
        self._xi[forward[-1]] = self._rungs[anchor]

        self._bracket(start)
        ws = self._window_index(start)
        self._stages.append(
            Stage(
                index=j,
                start=start,
                parity=c,
                epsilon=eps,
                length=length,
                anchor=anchor,
                forward=forward,
                start_window=ws,
                quota_window=ws + 1,
            )
        )

    def _extend_backward(self, stage: Stage) -> None:
        cur = stage.backward[-1] if stage.backward else stage.start
        k = len(stage.backward)
        lo = cur
        floor = cur - stage.epsilon
        if floor > 0:
            lo = max(cur, base_backward(floor))
        hi = base_backward(cur)

        while True:
            w = stage.quota_window
            while self._rung_hi < w + 1:
                self._extend_up()
            cap = self._rungs[w + 1]
            if cap <= lo:
                if stage.window_counts.get(w, 0) < 2:
                    # Skipping is only legal when the step budget cannot
                    # keep the chain inside the window.
                    if cap - base_forward(cap) <= stage.epsilon:
                        raise BudgetExceeded(
                            f"stage {stage.index} dropped feasible window {w}"
                        )
                    stage.underfilled.append(w)
                stage.quota_window = w + 1
                continue
            if stage.window_counts.get(w, 0) >= 2:
                stage.quota_window = w + 1
                continue
            break

        pick = first_dyadic_in(
            (stage.parity + k + 1) % 2, (lo, min(hi, cap)), self._role
        )
        self._assign(pick, ("chain", stage.index, -(k + 1)))
        self._xi[pick] = cur
        stage.backward.append(pick)
        self._bracket(pick)
        w_pick = self._window_index(pick)
        stage.backward_windows.append(w_pick)
        if w_pick >= stage.start_window + 1:
            stage.window_counts[w_pick] = stage.window_counts.get(w_pick, 0) + 1

    # -- schedule -------------------------------------------------------

    def _run_round(self) -> None:
        r = self._round + 1
        if r > self.max_rounds:
            raise BudgetExceeded(
                f"round budget {self.max_rounds} exhausted; raise max_rounds"
            )
        while self._rung_hi < r:
            self._extend_up()
        while self._rung_lo > -r:
            self._extend_down()
        self._run_stage(r)
        for stage in self._stages:
            self._extend_backward(stage)
        self._round = r

    @property
    def round_count(self) -> int:
        return self._round

    def ensure_rounds(self, r: int) -> None:
        while self._round < r:
            self._run_round()

    # -- queries (all advance whole rounds only) ------------------------

    def eval(self, r) -> Fraction:
        r = as_letter(r)
        while r not in self._xi:
            self._run_round()
        return self._xi[r]

    def role(self, x) -> tuple:
        x = as_letter(x)
        while x not in self._role:
            self._run_round()
        return self._role[x]

    def rung(self, m: int) -> Fraction:
        while not (self._rung_lo <= m <= self._rung_hi):
            self._run_round()
        return self._rungs[m]

    def stage(self, j: int) -> Stage:
        if j < 1:
            raise DomainError("stages are numbered from 1")
        while len(self._stages) < j:
            self._run_round()
        return self._stages[j - 1]

    @property
    def stage_count(self) -> int:
        return len(self._stages)

    @property
    def rung_range(self) -> tuple[int, int]:
        return self._rung_lo, self._rung_hi

    def anchor_stage_at(self, m: int) -> Stage | None:
        """The stage anchored at rung m, if any; decided by advancing until
        all anchors at or above m are known (anchors strictly decrease)."""
        while not self._stages or self._stages[-1].anchor >= m:
            self._run_round()
        for stage in self._stages:
            if stage.anchor == m:
                return stage
        return None

    def preimages(self, v) -> list[Fraction]:
        v = as_letter(v)
        while v not in self._role:
            self._run_round()
        role = self._role[v]
        if role[0] == "rung":
            m = role[1]
            while self._rung_lo > m - 1:
                self._run_round()
            out = [self._rungs[m - 1]]
            anchored = self.anchor_stage_at(m)
            if anchored is not None:
                out.append(anchored.forward[-1])
            return sorted(out)
        _, j, i = role
        stage = self._stages[j - 1]
        if i >= 1:
            return [stage.forward[i - 1]]
        k = -i
        while len(stage.backward) <= k:
            self._run_round()
        return [stage.backward[k]]

    def backward_step(self, v) -> Fraction:
        """Canonical backward move: rungs descend the ladder, hopping onto a
        stage chain at its anchor; chain points step to their predecessor."""
        v = as_letter(v)
        while v not in self._role:
            self._run_round()
        role = self._role[v]
        if role[0] == "rung":
            m = role[1]
            anchored = self.anchor_stage_at(m)
            if anchored is not None:
                return anchored.forward[-1]
            while self._rung_lo > m - 1:
                self._run_round()
            return self._rungs[m - 1]
        _, j, i = role
        stage = self._stages[j - 1]
        if i >= 1:
            return stage.forward[i - 1]
        k = -i
        while len(stage.backward) <= k:
            self._run_round()
        return stage.backward[k]

    def backward_trajectory(self, s, threshold) -> list[Fraction]:
        """Backward orbit (t_0 = s, t_-1, ...) ending above the threshold."""
        s = as_letter(s)
        threshold = as_fraction(threshold)
        if threshold >= 1:
            raise DomainError("threshold must be below 1")
        out = [s]
        while out[-1] <= threshold:
            out.append(self.backward_step(out[-1]))
        return out

    def forward_to_rung(self, x) -> tuple[int, int]:
        """(steps, rung index) for the first ladder hit of x's orbit."""
        x = as_letter(x)
        steps = 0
        while True:
            role = self.role(x)
            if role[0] == "rung":
                return steps, role[1]
            x = self.eval(x)
            steps += 1

    # -- bulk views for the verification suite --------------------------

    def xi_items(self):
        return self._xi.items()

    def state_digest(self) -> str:
        payload = {
            "round": self._round,
            "rungs": [
                [m, format_rational(v)] for m, v in sorted(self._rungs.items())
            ],
            "stages": [
                {
                    "start": format_rational(st.start),
                    "length": st.length,
                    "anchor": st.anchor,
                    "forward": [format_rational(x) for x in st.forward],
                    "backward": [format_rational(x) for x in st.backward],
                    "underfilled": st.underfilled,
                }
                for st in self._stages
            ],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()
