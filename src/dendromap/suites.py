"""Named verification suites producing canonical report entries.

Each suite re-derives one family of claims at configurable scale and
returns :class:`~dendromap.reports.Entry` rows; the CLI assembles them
into a report.  All sampling is seeded and deterministic, and the seed
only ever selects inputs — every verdict is an exact rational check.

Sampling note: uniformly random deep letters inherit the dyadic depth of
the deviation windows they fall in and exhaust any round budget, so word
samples are built by lifting shallow seed letters backward through the
engines instead.  Lifted words are forward-verified on the spot, so no
claim rests on how they were produced; the scheme only guarantees the
forward orbits stay inside settled territory.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .dynamics import RhoContext, ScanGrid, WitnessBudget
from .errors import BudgetExceeded, DendromapError, DomainError, PrecisionError
from .plmap import base_forward
from .rationals import canonical_enumeration, dyadic_grid, format_rational, parity_class
from .reports import Entry
from .space import ROOT, TOP, cut, distance, end, in_D_gamma
from .tau0 import Tau0Engine
from .tau12 import (
    make_tau_alpha,
    make_tau_doubleprime,
    make_tau_prime,
    replay_check,
)
from .words import carry_letter, odometer_add, parity_word

F = Fraction

SUITE_NAMES = (
    "tau0",
    "tau12",
    "rho",
    "decomposition",
    "metric",
    "period",
    "horseshoe",
    "lipschitz",
    "witness",
)


@dataclass(frozen=True)
class SuiteConfig:
    """Scales for one verification run; defaults are the acceptance scales."""

    first_values: int = 200
    stages: int = 30
    words: int = 1000
    sections: int = 200
    samples: int = 500
    triples: int = 1000
    pairs: int = 1000
    witnesses_one: int = 20
    witnesses_two: int = 5
    depth: int = 3
    period_bound: int = 8
    horizon: int = 64
    budget: int = 512
    seed: int = 0
    m: Optional[int] = None

    def __post_init__(self):
        if self.m is not None and not 1 <= self.m <= 4:
            raise DomainError("cover depth m must be between 1 and 4")
        for name in ("samples", "depth", "horizon", "budget"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be at least 1")

    def to_json(self) -> dict:
        # Kept from the retired dump-cache option so report bytes stay stable.
        return {**self.__dict__, "cache_dir": False}


def _verdict(checked: int, passed: int) -> str:
    """pass when at least one check ran and every one passed, else fail."""
    return "pass" if checked and passed == checked else "fail"


def _tally(entry_id: str, ref: str, checked: int, passed: int) -> Entry:
    """A count entry, judged by :func:`_verdict`."""
    return Entry(
        id=entry_id,
        ref=ref,
        verdict=_verdict(checked, passed),
        detail={"checked": checked, "passed": passed},
    )


# -- word lifting ------------------------------------------------------


def _shallow_pick(rng: random.Random, options):
    """Mostly the coarsest dyadic among ``options``, sometimes the runner-up."""
    ranked = sorted(options, key=lambda s: s.denominator)
    if len(ranked) > 1 and rng.random() < 0.3:
        return ranked[1]
    return ranked[0]


def _fold_lift(ctx: RhoContext, rng: random.Random, beta, pool):
    """A word one letter longer than ``beta`` folding forward onto it.

    Parities are forced throughout: the head's fold family must contain
    the first letter, and each later backward branch must leave a carry
    that reproduces the parity of the letter it lifts.  Head candidates
    come from the shallow pool plus the anchor ladder, whose forward
    values are linked rather than enumerated, so deep rungs stay cheap.
    Choices beyond parity are free; ties break toward coarse dyadics.
    """
    n = len(beta)
    pb = parity_word(beta)
    # Heads climb one rung per lift, so the ladder must outrun the word.
    ladder = [ctx.tau0.rung(j) for j in range(-6, n + 4)]
    heads = [
        r
        for r in pool + ladder
        if parity_class(r) == 1 - pb[0] and base_forward(r) < beta[0] < ctx.xi(r)
    ]
    heads.sort(key=lambda r: r.denominator)
    for r0 in heads:
        cands = ctx.tau_prime(r0).preimages(beta[0])
        if n >= 2:
            want = carry_letter((1 - pb[0], pb[1]))
            cands = [s for s in cands if parity_class(s) == want]
        if not cands:
            continue
        word = (r0, _shallow_pick(rng, cands))
        bits = [parity_class(word[0]), parity_class(word[1])]
        ok = True
        for i in range(1, n):
            try:
                options = ctx.tau_alpha(word).preimages(beta[i])
            except DomainError:
                ok = False
                break
            if i + 1 < n:
                want = carry_letter(bits + [pb[i + 1]])
                options = [u for u in options if parity_class(u) == want]
            if not options:
                ok = False
                break
            u = _shallow_pick(rng, options)
            word = word + (u,)
            bits.append(parity_class(u))
        # Preimage sets reflect how far the backward engine had settled
        # when they were computed, so the branch only counts once a full
        # forward pass reproduces the requested word.
        if ok and ctx.rho(word) == beta:
            return word
    return None


def lifted_words(
    ctx: RhoContext,
    rng: random.Random,
    count: int,
    max_len: int,
    min_len: int = 1,
    homeo_steps: int = 0,
) -> list[tuple]:
    """Seeded words whose full forward descent stays in settled territory.

    Starts from shallow letters and grows by backward lifts; an optional
    tail of ``homeo_steps`` length-preserving lifts guarantees that many
    fold-free forward steps before the first length drop.
    """
    pool = dyadic_grid(3)
    out = []
    starving = 0
    while len(out) < count:
        if starving > 40 * count + 200:
            raise DendromapError("word lift generator is starving")
        starving += 1
        target = rng.randint(min_len, max_len)
        word = (rng.choice(pool),)
        attempts = 0
        while len(word) < target and attempts < 3 * target + 8:
            attempts += 1
            grown = _fold_lift(ctx, rng, word, pool)
            if grown is not None:
                word = grown
            elif rng.random() < 0.5:
                try:
                    word = ctx.rho_section(word, chooser=rng.choice)
                except (DendromapError, DomainError, BudgetExceeded):
                    pass
        if len(word) != target:
            continue
        ok = True
        for _ in range(homeo_steps):
            try:
                word = ctx.rho_section(word, chooser=rng.choice)
            except (DendromapError, DomainError, BudgetExceeded):
                ok = False
                break
        if ok:
            out.append(word)
    return out


# -- individual suites -------------------------------------------------


def suite_tau0(config: SuiteConfig) -> list[Entry]:
    eng = Tau0Engine(max_rounds=config.budget)
    eng.stage(config.stages)

    desc = par = eps_ok = anchors = 0
    prev_anchor = None
    for j in range(1, config.stages + 1):
        s = eng.stage(j)
        ch = s.forward
        desc += all(ch[i + 1] < ch[i] for i in range(len(ch) - 1))
        par += all(
            parity_class(ch[i]) == (s.parity + i) % 2 for i in range(len(ch))
        )
        eps_ok += all(
            F(0) < eng.eval(ch[i]) - base_forward(ch[i]) < s.epsilon
            for i in range(len(ch) - 1)
        )
        anchored = eng.eval(ch[-1]) == eng.rung(s.anchor)
        alternates = s.anchor % 2 == (s.parity + s.length + 1) % 2
        decreasing = prev_anchor is None or s.anchor < prev_anchor
        anchors += anchored and alternates and decreasing
        prev_anchor = s.anchor

    values = list(itertools.islice(canonical_enumeration(), config.first_values))
    flips = windows = 0
    for r in values:
        v = eng.eval(r)
        flips += parity_class(v) == 1 - parity_class(r)
        windows += base_forward(r) < v
    closure = 0
    back_n = min(50, config.first_values)
    for r in values[:back_n]:
        v = eng.eval(r)
        closure += eng.eval(eng.backward_step(v)) == v

    n = config.stages
    return [
        _tally("tau0/descent", "stage chains strictly decrease", n, desc),
        _tally("tau0/chain-parity", "chain letters alternate parity class", n, par),
        _tally(
            "tau0/step-window",
            "chain steps stay within the stage epsilon of the base map",
            n,
            eps_ok,
        ),
        _tally(
            "tau0/anchor",
            "stages anchor on alternating, strictly descending rungs",
            n,
            anchors,
        ),
        _tally(
            "tau0/parity-flip",
            "the index map flips parity class",
            len(values),
            flips,
        ),
        _tally(
            "tau0/value-window",
            "values stay above the base map image",
            len(values),
            windows,
        ),
        _tally(
            "tau0/backward-closure",
            "backward steps are forward inverses",
            back_n,
            closure,
        ),
    ]


def _tau12_engines(budget: int):
    t0 = Tau0Engine(max_rounds=budget)
    half, quarter = F(1, 2), F(1, 4)
    return {
        "prime-even": make_tau_prime(quarter, t0.eval(quarter), max_rounds=budget),
        "prime-odd": make_tau_prime(half, t0.eval(half), max_rounds=budget),
        "doubleprime-even": make_tau_doubleprime(quarter, max_rounds=budget),
        "doubleprime-odd": make_tau_doubleprime(half, max_rounds=budget),
        "arc-fold": make_tau_alpha((half, quarter), max_rounds=budget),
        "arc-plain": make_tau_alpha((half, half), max_rounds=budget),
    }


def suite_tau12(config: SuiteConfig) -> list[Entry]:
    engines = _tau12_engines(config.budget)
    entries = []
    for name, eng in sorted(engines.items()):
        checks = eng.verify_invariants()
        verdict = "pass" if all(checks.values()) else "fail"
        entries.append(
            Entry(
                id=f"tau12/invariants/{name}",
                ref="endpoints, stage slopes, parity families, linear bound",
                verdict=verdict,
                detail={k: bool(v) for k, v in sorted(checks.items())},
            )
        )
        ok, msg = replay_check(eng.dump())
        entries.append(
            Entry(
                id=f"tau12/replay/{name}",
                ref="staged construction replays to identical state",
                verdict="pass" if ok else "fail",
                detail={"message": msg},
            )
        )
    return entries


def suite_rho(ctx: RhoContext, config: SuiteConfig) -> list[Entry]:
    rng = random.Random(config.seed)
    pool = dyadic_grid(3)

    law_ok = 0
    for _ in range(config.words):
        length = rng.randint(1, 5)
        word = tuple(rng.choice(pool) for _ in range(length))
        image = ctx.rho(word)
        law_ok += len(image) == len(word) - ctx.theta(word)

    descended = 0
    words = lifted_words(ctx, rng, config.words, max_len=5)
    for word in words:
        try:
            hits = ctx.first_hit_length_one(word, budget=config.horizon)
        except (BudgetExceeded, DendromapError):
            continue
        descended += hits <= config.horizon

    sections_ok = 0
    section_words = lifted_words(ctx, rng, config.sections, max_len=4)
    for word in section_words:
        beta = ctx.rho(word)
        alpha = ctx.rho_section(beta)
        sections_ok += ctx.rho(alpha) == beta and len(alpha) == len(beta)

    return [
        _tally(
            "rho/length-law",
            "one application shortens by exactly the fold indicator",
            config.words,
            law_ok,
        ),
        _tally(
            "rho/descent", "iterated images reach length one", config.words, descended
        ),
        _tally(
            "rho/section-roundtrip",
            "sections map forward onto their targets at equal length",
            config.sections,
            sections_ok,
        ),
    ]


def _interior_samples(rng: random.Random, m: int, count: int):
    letters = dyadic_grid(2)
    params = sorted(dyadic_grid(6))
    combos = []
    for length in (m, m + 1):
        for word in itertools.product(letters, repeat=length):
            combos.append(word)
    out = []
    while len(out) < count:
        word = rng.choice(combos)
        t = rng.choice(params)
        out.append(cut(word, t))
    return out


def suite_decomposition(ctx: RhoContext, config: SuiteConfig) -> list[Entry]:
    rng = random.Random(config.seed + 1)
    entries = []
    depths = range(1, 5) if config.m is None else (config.m,)
    for m in depths:
        pts = _interior_samples(rng, m, config.samples)
        rep = ctx.decomposition_audit(m, pts)
        counts = rep["counts"]
        verdict = _verdict(len(pts), counts["pass"])
        if counts["inconclusive"] and not counts["fail"]:
            verdict = "inconclusive"
        entries.append(
            Entry(
                id=f"decomposition/forward/m={m}",
                ref="interior cell points advance one odometer step",
                verdict=verdict,
                detail=dict(counts),
            )
        )

    # symbol-level cover structure: membership over sampled points
    pts = _interior_samples(rng, 2, config.samples)
    nested = exclusive = covered = 0
    for x in pts:
        cells = [ctx.cell_of(x, d) for d in (1, 2)]
        if None in cells:
            continue
        covered += 1
        nested += cells[1][:1] == cells[0]
        others = [
            g
            for g in itertools.product((0, 1), repeat=2)
            if tuple(g) != cells[1]
        ]
        exclusive += all(in_D_gamma(x, g) == "outside" for g in others)
    entries.append(
        _tally(
            "decomposition/cover/nesting",
            "depth-two cells refine depth-one cells",
            covered,
            nested,
        )
    )
    entries.append(
        _tally(
            "decomposition/cover/disjoint",
            "interior points lie in exactly one cell per depth",
            covered,
            exclusive,
        )
    )

    # chain ends advance by the adding machine: image prefix parities are
    # the odometer successor of the source prefix parities
    sem_checked = sem_skipped = sem_ok = 0
    for prefix in lifted_words(ctx, rng, config.words, max_len=6, min_len=3):
        try:
            image = ctx.apply_F(end(prefix))
        except PrecisionError:
            sem_skipped += 1
            continue
        sem_checked += 1
        got = parity_word(image.prefix)
        sem_ok += got == odometer_add(parity_word(prefix), 1)[: len(got)]
    verdict = _verdict(sem_checked, sem_ok)
    if sem_ok == sem_checked and sem_checked < config.words // 2:
        verdict = "inconclusive"
    entries.append(
        Entry(
            id="decomposition/odometer-semiconjugacy",
            ref="end dynamics project onto the dyadic adding machine",
            verdict=verdict,
            detail={
                "requested": config.words,
                "checked": sem_checked,
                "skipped": sem_skipped,
                "passed": sem_ok,
            },
        )
    )
    return entries


def suite_metric(ctx: RhoContext, config: SuiteConfig) -> list[Entry]:
    rng = random.Random(config.seed + 2)
    table = ctx.length_table()
    words = lifted_words(ctx, rng, 40, max_len=3)
    params = sorted(dyadic_grid(5))
    points = [cut((), rng.choice(params))]
    for word in words:
        points.append(cut(word, rng.choice(params)))

    half = config.triples // 2
    axioms = 0
    for _ in range(half):
        x, y, z = (rng.choice(points) for _ in range(3))
        dxy = distance(x, y, table)
        ok = dxy == distance(y, x, table)
        ok = ok and ((dxy == 0) == (x == y))
        ok = ok and distance(x, z, table) <= dxy + distance(y, z, table)
        axioms += ok

    additive = 0
    rest = config.triples - half
    for _ in range(rest):
        word = rng.choice(words)
        a, b, c = sorted(rng.sample(params, 3))
        lo, mid, hi = cut(word, a), cut(word, b), cut(word, c)
        additive += distance(lo, hi, table) == distance(lo, mid, table) + distance(
            mid, hi, table
        )

    return [
        _tally(
            "metric/axioms",
            "symmetry, identity, triangle inequality (exact)",
            half,
            axioms,
        ),
        _tally(
            "metric/arc-additivity",
            "distance is additive along arcs (exact)",
            rest,
            additive,
        ),
    ]


def suite_period(ctx: RhoContext, config: SuiteConfig) -> list[Entry]:
    grid = ScanGrid(letter_exponent=2, param_exponent=5)
    rep = ctx.fixed_periodic_scan(config.depth, config.period_bound, grid)
    fixed = rep["fixed"]
    ok = len(fixed) == 2 and set(fixed) == {ROOT, TOP} and not rep["periodic"]
    verdict = "pass" if ok and rep["unresolved"] == 0 else "fail"
    if ok and rep["unresolved"]:
        verdict = "inconclusive"
    return [
        Entry(
            id="period/fixed-scan",
            ref="the two chain ends are the only small-period points",
            verdict=verdict,
            detail={
                "scanned": rep["scanned"],
                "fixed": len(fixed),
                "periodic": len(rep["periodic"]),
                "unresolved": rep["unresolved"],
            },
        )
    ]


def suite_horseshoe(ctx: RhoContext, config: SuiteConfig) -> list[Entry]:
    entries = []
    for m in (-4, -3, -2):
        cert = ctx.horseshoe_certificate(m)
        entries.append(
            Entry(
                id=f"horseshoe/m={m}",
                ref="disjoint rung blocks each cover both under two steps",
                verdict="pass" if cert.verified else "fail",
                detail={
                    "entropy_coefficient": format_rational(cert.entropy_coefficient),
                    "entropy_log_base": cert.entropy_log_base,
                    "rungs": {
                        str(j): format_rational(z) for j, z in sorted(cert.rungs.items())
                    },
                },
            )
        )
    return entries


def _lip_pairs(rng, arcs, params, count):
    """Pairs of distinct cut points on random arcs at random parameters."""
    pairs = []
    while len(pairs) < count:
        wa, wb = rng.choice(arcs), rng.choice(arcs)
        pa, pb = rng.choice(params), rng.choice(params)
        if wa == wb and pa == pb:
            continue
        pairs.append((cut(wa, pa), cut(wb, pb)))
    return pairs


def _child_letters(ctx, word, want):
    """Extension letters whose images keep to settled forward descents."""
    targets = dyadic_grid(3)
    letters = []
    for v in targets:
        try:
            options = ctx.tau_alpha(word).preimages(v)
        except DomainError:
            continue
        letters.extend(options)
        if len(letters) >= want:
            break
    return letters[:want]


def suite_lipschitz(ctx: RhoContext, config: SuiteConfig) -> list[Entry]:
    rng = random.Random(config.seed + 3)
    params = sorted(dyadic_grid(6))
    entries = []
    for m in (2, 5, 10):
        (word,) = lifted_words(ctx, rng, 1, max_len=m, min_len=m)
        scopes = {}

        draws = (rng.sample(params, 2) for _ in range(config.pairs))
        scopes["arc"] = ctx.lipschitz_audit(
            ("arc", word), [(cut(word, a), cut(word, b)) for a, b in draws]
        )

        arcs = [word] + [word + (c,) for c in _child_letters(ctx, word, 3)]
        scopes["subtree"] = ctx.lipschitz_audit(
            ("subtree", word), _lip_pairs(rng, arcs, params, config.pairs)
        )

        # Factor ratios are only informative when images hang below the
        # collapsed skeleton, so the base here is a section word: its
        # forward step keeps the length m + 1 > m.
        (fbase,) = lifted_words(
            ctx, rng, 1, max_len=m + 1, min_len=m + 1, homeo_steps=1
        )
        deep = [fbase] + [fbase + (c,) for c in _child_letters(ctx, fbase, 2)]
        scopes["factor"] = ctx.lipschitz_audit(
            ("factor", m), _lip_pairs(rng, deep, params, config.pairs)
        )

        for scope, rep in sorted(scopes.items()):
            verdict = "pass" if rep["ok"] else "fail"
            if rep["ok"] and rep["checked"] == 0:
                verdict = "inconclusive"
            entries.append(
                Entry(
                    id=f"lipschitz/{scope}/m={m}",
                    ref="image distances stay within the squared step bound",
                    verdict=verdict,
                    detail={
                        "bound": rep["bound"],
                        "checked": rep["checked"],
                        "skipped": rep["skipped"],
                        "violations": rep["violations"],
                        "max_ratio": rep["max_ratio"],
                    },
                )
            )
    return entries


def _curated_two_letter(ctx: RhoContext, count: int):
    """Start words whose backward ladders stay inside the round budget."""
    zs = dyadic_grid(3) + [ctx.tau0.rung(j) for j in (-2, -1, 0, 1)]
    alphas = []
    for z in zs:
        hi = ctx.xi(z)
        family = 1 - parity_class(z)
        for v in dyadic_grid(3):
            if parity_class(v) != family or not base_forward(z) < v < hi:
                continue
            low = ctx.tau_prime(z).preimages(v)
            if low:
                alpha = (z, min(low))
                if alpha not in alphas:
                    alphas.append(alpha)
        if len(alphas) >= count:
            break
    return alphas[:count]


def suite_witness(ctx: RhoContext, config: SuiteConfig) -> list[Entry]:
    rng = random.Random(config.seed + 4)
    budget = WitnessBudget()
    targets = [F(1, 2), F(1, 4), F(3, 8)]
    singles = []
    for r in dyadic_grid(3):
        for s in targets:
            for bit in (0, 1):
                singles.append(((r,), s, (bit,)))
    singles = singles[: config.witnesses_one]

    one_ok = 0
    steps = []
    for alpha, s, delta in singles:
        try:
            rec = ctx.transitivity_witness(alpha, s, delta, budget)
        except (DendromapError, DomainError, BudgetExceeded):
            continue
        one_ok += 1
        steps.append(rec.n)

    # A fixed start word only reaches the parity targets its geometric
    # step count allows, so each curated word is tried against every
    # target and the verified records are what count.
    two_ok = attempted = 0
    two_steps = []
    deltas = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for alpha in _curated_two_letter(ctx, max(4, config.witnesses_two)):
        for delta in deltas:
            if two_ok >= config.witnesses_two:
                break
            attempted += 1
            try:
                rec = ctx.transitivity_witness(alpha, F(1, 2), delta, budget)
            except (DendromapError, DomainError, BudgetExceeded):
                continue
            two_ok += 1
            two_steps.append(rec.n)

    cyl_checked = cyl_ok = 0
    bases = lifted_words(
        ctx, rng, 2, max_len=3, min_len=2, homeo_steps=4
    )
    ext_pool = dyadic_grid(3)
    for base in bases:
        for n in range(1, 5):
            for dlen in range(1, 4):
                for _ in range(4):
                    delta = tuple(rng.randint(0, 1) for _ in range(dlen))
                    exts = tuple(
                        rng.choice(ext_pool) for _ in range(dlen)
                    )
                    try:
                        spec = ctx.cylinder_image(base, delta, n)
                        image, profile = ctx.rho_iterate(base + exts, n)
                    except (DendromapError, DomainError, BudgetExceeded):
                        continue
                    cyl_checked += 1
                    expected = all(
                        parity_class(u) == d for u, d in zip(exts, delta)
                    )
                    cyl_ok += spec.matches(image) == expected

    return [
        Entry(
            id="witness/single-letter",
            ref="forward-verified reach of one-letter targets",
            verdict="pass" if one_ok == len(singles) else "fail",
            detail={
                "requested": len(singles),
                "verified": one_ok,
                "max_steps": max(steps) if steps else 0,
                "budget": budget.__dict__,
            },
        ),
        Entry(
            id="witness/two-letter",
            ref="forward-verified reach from curated two-letter words",
            verdict="pass" if two_ok >= config.witnesses_two else "fail",
            detail={
                "requested": config.witnesses_two,
                "attempted": attempted,
                "verified": two_ok,
                "max_steps": max(two_steps) if two_steps else 0,
            },
        ),
        _tally(
            "witness/cylinder-brute-force",
            "iterated cylinder images match letterwise composition",
            cyl_checked,
            cyl_ok,
        ),
    ]


# -- dispatcher --------------------------------------------------------


def run_suites(names: Sequence[str], config: SuiteConfig) -> list[Entry]:
    """Entries of the named suites, run in ``SUITE_NAMES`` order on one context.

    Names must come from ``SUITE_NAMES``; the CLI checks them before the run.
    """
    ctx = RhoContext(tau0_rounds=config.budget)
    entries: list[Entry] = []
    for name in sorted(set(names), key=SUITE_NAMES.index):
        # Looked up per call, so a suite replaced on the module is the one run.
        suite = globals()[f"suite_{name}"]
        if name in ("tau0", "tau12"):
            entries.extend(suite(config))
        else:
            entries.extend(suite(ctx, config))
    return entries
