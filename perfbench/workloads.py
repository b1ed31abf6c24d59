"""The benchmark's workloads: verify-all, engine-deep and map-queries.

A workload is built once from its seed (``__init__`` is the set-up) and then
runs whole rounds.  Every round starts from fresh program state and makes
the same calls, so rounds of one run are interchangeable samples.  Each
round returns a :class:`Round` with its timings, the latencies of its
single operations and the problems the output checks found.

Every workload reports every end-to-end metric.  A round has the same four
phases in each workload; the README says what each phase is per workload:

* build: the calls that construct the state the round checks;
* verdict: build plus the calls up to the round's last checked answer;
* operations: single timed calls whose latencies give p50 and p99
  (in engine-deep, the reads of settled state);
* replay: ``dump()`` plus ``replay_check`` of staged engines: all six in
  engine-deep, elsewhere the largest by logged operations (see
  :func:`_epilogue`).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter, perf_counter_ns

import checks
from dendromap import suites
from dendromap.dynamics import RhoContext
from dendromap.errors import DendromapError
from dendromap.reports import canonical_json, make_report
from dendromap.space import cut, distance, factor_distance
from dendromap.tau12 import TauEngine, replay_check

F = Fraction


@dataclass
class Round:
    build_s: float = 0.0
    verdict_s: float = 0.0
    replay_s: float = 0.0
    dump_bytes: int = 0
    latencies_ns: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    digest: str = ""
    peak_rss_mb: float = 0.0
    detail: dict = field(default_factory=dict)


class Instances:
    """Records every instance of the given classes built while active.

    The benchmark finds the engines of a round through their constructors,
    not through the program's private caches.
    """

    def __init__(self, *classes):
        self.classes = classes
        self.made: dict = {cls: [] for cls in classes}
        self._saved = {}

    def __enter__(self):
        for cls in self.classes:
            init = cls.__init__
            self._saved[cls] = init

            def hooked(obj, *args, _init=init, _made=self.made[cls], **kwargs):
                _init(obj, *args, **kwargs)
                _made.append(obj)

            cls.__init__ = hooked
        return self

    def __exit__(self, *exc):
        for cls, init in self._saved.items():
            cls.__init__ = init

    def take(self, cls) -> list:
        out = list(self.made[cls])
        self.made[cls].clear()
        return out


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _dyadic(rng: random.Random, lo: Fraction, hi: Fraction, classes, qmax: int) -> Fraction:
    """A seeded dyadic p/2**q strictly inside (lo, hi), q <= qmax, q mod 2 in classes."""
    while True:
        q = rng.randint(1, qmax)
        if q % 2 not in classes:
            continue
        n = 2**q
        first = math.floor(lo * n) + 1
        last = math.ceil(hi * n) - 1
        odd = [p for p in range(first, last + 1) if p % 2]
        if odd:
            return F(rng.choice(odd), n)


#: Logged operations that the replay phase re-drives, at least.
REPLAY_OPS = 50_000


def _epilogue(rnd: Round, engines: list) -> None:
    """Dump every staged engine, then time dump plus replay of the largest.

    The dump size covers every engine the round built.  The replay takes
    engines longest op log first until REPLAY_OPS logged operations are
    covered (or every engine is taken), so it re-drives about the same
    amount of work whatever the seed.  The cost per logged op differs from
    engine to engine, and which engines have the longest logs depends on
    the seed: on verify-all seeds 1, 5 and 6, replay time moved by 38%
    with 20,000 ops and by 15% with 50,000.
    """
    dumps = [engine.dump() for engine in engines]
    rnd.dump_bytes = sum(len(_canonical(d)) for d in dumps)
    order = sorted(
        range(len(engines)),
        key=lambda i: (-len(dumps[i]["ops"]), dumps[i]["label"]),
    )
    chosen, covered = [], 0
    for i in order:
        if covered >= REPLAY_OPS:
            break
        chosen.append(engines[i])
        covered += len(dumps[i]["ops"])
    t0 = perf_counter()
    for engine in chosen:
        dumped = engine.dump()
        ok, msg = replay_check(dumped)
        rnd.attempted += 1
        if not ok:
            rnd.problems.append(f"replay_check({dumped['label']}): {msg}")
    rnd.replay_s = perf_counter() - t0
    rnd.detail["replay_ops"] = covered


# -- map queries -------------------------------------------------------------

#: Query kinds of one round: (distinct inputs, times each input is asked).
#: The first ask of an input is its first touch; the others are reads of
#: settled state.  Reads are about 91% of the stream, so p50 falls inside
#: them; p99 falls inside the first touches.  A quarter of the apply_F
#: inputs lie on the base arc.  ``rho_section`` inputs are lifted images
#: and ``witness`` inputs single-letter targets, drawn without
#: replacement; both are few, as their first touches are the slowest
#: queries and would otherwise make up the whole tail.
QUERY_MIX = {
    "rho": (480, 10),
    "apply_F": (480, 10),
    "rho_section": (24, 20),
    "distance": (240, 10),
    "factor_distance": (240, 10),
    "witness": (21, 4),
}

#: Highest dyadic exponent of generated letters and parameters.
QMAX = 7

WITNESS_TARGETS = (F(1, 2), F(1, 4), F(3, 8))
SHALLOW = [F(p, 2**q) for q in (1, 2, 3) for p in range(1, 2**q, 2)]


def breakdown(tags, latencies_ns) -> dict:
    """Latency quantiles per tag, and which tags hold the p50 and p99 samples."""
    groups: dict = {}
    for tag, ns in zip(tags, latencies_ns):
        groups.setdefault(tag, []).append(ns / 1e3)
    ranked = sorted(zip(latencies_ns, tags))
    n = len(ranked)

    def holders(lo, hi):
        window = [tag for _, tag in ranked[int(lo * n) : int(hi * n) + 1]]
        return {t: window.count(t) for t in sorted(set(window))}

    kinds = {}
    for tag, values in sorted(groups.items()):
        values.sort()
        k = len(values)
        kinds[tag] = {
            "count": k,
            "p10_us": values[k // 10],
            "p50_us": values[k // 2],
            "p90_us": values[9 * k // 10],
            "max_us": values[-1],
        }
    return {"kinds": kinds, "near_p50": holders(0.48, 0.52), "beyond_p99": holders(0.99, 1.0)}


def _point_key(x):
    return (x.word, x.t)


class QueryStream:
    """A seeded closed-loop stream of map queries over a set of words.

    One caller, no think time: each query is sent when the previous one
    has returned.  Each kind has a fixed number of distinct inputs, each
    asked a fixed number of times, so the repeat share is the same for
    every seed; the asks are shuffled into one stream.
    """

    def __init__(self, rng: random.Random, words, betas):
        points = [cut((), _dyadic(rng, F(0), F(1), (0, 1), 6)) for _ in range(24)]
        for w in words:
            points.append(cut(w, _dyadic(rng, F(0), F(1), (0, 1), 6)))

        def letter():
            return _dyadic(rng, F(0), F(1), (0, 1), QMAX)

        def pair():
            x, z = rng.choice(points), rng.choice(points)
            # A third of the pairs share an arc, so the closed forms apply.
            y = cut(x.word, letter()) if rng.random() < 1 / 3 else rng.choice(points)
            return (x, y, z, rng.choice((2, 3)))

        def fresh(kind, n):
            if kind == "rho":
                return [rng.choice(words) + (letter(),) for _ in range(n)]
            if kind == "apply_F":
                base = n // 4
                return [cut((), letter()) for _ in range(base)] + [
                    cut(rng.choice(words), letter()) for _ in range(n - base)
                ]
            if kind == "rho_section":
                return rng.sample(list(betas), n)
            if kind == "witness":
                singles = [
                    ((r,), s, (b,)) for r in SHALLOW for s in WITNESS_TARGETS for b in (0, 1)
                ]
                return rng.sample(singles, n)
            return [pair() for _ in range(n)]

        asks = []
        for kind, (distinct, times) in QUERY_MIX.items():
            for inp in fresh(kind, distinct):
                asks += [(kind, inp)] * times
        rng.shuffle(asks)
        self.queries = asks
        seen = set()
        self.first = []
        for kind, inp in asks:
            key = (kind, repr(inp))
            self.first.append(key not in seen)
            seen.add(key)
        self.repeat_share = 1 - sum(self.first) / len(asks)

    def breakdown(self, latencies_ns) -> dict:
        tags = [
            f"{kind}/{'first' if first else 'repeat'}"
            for (kind, _), first in zip(self.queries, self.first)
        ]
        return dict(breakdown(tags, latencies_ns), repeat_share=self.repeat_share)

    @staticmethod
    def ask(ctx, table, kind, inp):
        if kind == "rho":
            return ctx.rho(inp)
        if kind == "apply_F":
            return ctx.apply_F(inp)
        if kind == "rho_section":
            return ctx.rho_section(inp)
        if kind == "distance":
            return distance(inp[0], inp[1], table)
        if kind == "factor_distance":
            return factor_distance(inp[0], inp[1], inp[3], table)
        return ctx.transitivity_witness(*inp)

    def run(self, ctx, rnd: Round) -> list:
        """Answer every query; record latencies.  Returns the answers."""
        table = ctx.length_table()
        answers = []
        lat = rnd.latencies_ns
        for kind, inp in self.queries:
            rnd.attempted += 1
            t0 = perf_counter_ns()
            try:
                out = self.ask(ctx, table, kind, inp)
            except DendromapError as exc:
                out = exc
            lat.append(perf_counter_ns() - t0)
            if isinstance(out, Exception):
                rnd.failed += 1
                rnd.errors.append(f"{kind}{inp!r} raised {out!r}")
            answers.append(out)
        return answers

    def check(self, ctx, answers) -> list[str]:
        """Check every distinct query once; repeats must return the same answer."""
        bad = []
        first = {}
        rows = []
        table = ctx.length_table()
        for (kind, inp), out in zip(self.queries, answers):
            if isinstance(out, Exception):
                continue
            key = (kind, repr(inp))
            if key in first:
                if first[key] != out:
                    bad.append(f"repeated {kind}{inp!r} changed its answer")
                continue
            first[key] = out
            if kind == "rho":
                bad += checks.check_rho(inp, out)
            elif kind == "apply_F":
                bad += checks.check_apply_f(inp.word, inp.t, out.word, out.t)
            elif kind == "rho_section":
                bad += checks.check_section(inp, out, ctx.rho(out))
            elif kind == "witness":
                alpha, s, delta = inp
                word = alpha + (out.u,)
                iterate, _ = ctx.rho_iterate(word, out.n)
                bad += checks.check_witness(alpha, s, delta, word, out.n, iterate)
            else:
                x, y, z, m = inp
                if kind == "distance":
                    d = lambda p, q: distance(p, q, table)  # noqa: E731
                else:
                    d = lambda p, q: factor_distance(p, q, m, table)  # noqa: E731
                rows.append(
                    (
                        _point_key(x), _point_key(y), _point_key(z),
                        out, d(y, x), d(x, z), d(y, z),
                        "distance" if kind == "distance" else "factor",
                    )
                )
        return bad + checks.check_distances(rows)


def _lift(ctx: RhoContext, rng: random.Random, per_length: int, max_len: int):
    words = []
    for n in range(1, max_len + 1):
        words += suites.lifted_words(ctx, rng, per_length, max_len=n, min_len=n)
    return words


def _answers_digest(answers) -> str:
    return hashlib.sha256(repr(answers).encode()).hexdigest()


class MapQueries:
    """One long-lived context answering a seeded closed-loop query stream."""

    #: Lifted words per length, lengths 1..9; rho queries append a letter.
    PER_LENGTH = 12
    MAX_LEN = 9

    def __init__(self, seed: int):
        self.seed = seed
        ctx = RhoContext()
        words = _lift(ctx, random.Random(seed), self.PER_LENGTH, self.MAX_LEN)
        betas = [ctx.rho(w) for w in words if len(w) >= 2]
        self.stream = QueryStream(random.Random(seed + 1), words, betas)
        self.words = words
        self.first = None

    def run_round(self, instances: Instances, pause=nullcontext) -> Round:
        rnd = Round()
        t0 = perf_counter()
        ctx = RhoContext()
        words = _lift(ctx, random.Random(self.seed), self.PER_LENGTH, self.MAX_LEN)
        rnd.build_s = perf_counter() - t0
        if words != self.words:
            rnd.problems.append("input lifting is not deterministic")
        answers = self.stream.run(ctx, rnd)
        rnd.verdict_s = perf_counter() - t0
        rnd.detail = self.stream.breakdown(rnd.latencies_ns)
        rnd.digest = _answers_digest(answers)
        _epilogue(rnd, instances.take(TauEngine))
        instances.take(TauEngine)
        if self.first is None:
            self.first = rnd.digest
            with pause():
                rnd.problems += self.stream.check(ctx, answers)
        elif rnd.digest != self.first:
            rnd.problems.append("a fresh context answered the stream differently")
        instances.take(RhoContext)
        return rnd


# -- engine-deep --------------------------------------------------------------

#: Engine names of ``suites._tau12_engines`` and the factory inputs that
#: the benchmark uses to recompute their frames.
ENGINE_FACTORIES = {
    "prime-even": ("prime", (F(1, 4),)),
    "prime-odd": ("prime", (F(1, 2),)),
    "doubleprime-even": ("doubleprime", (F(1, 4),)),
    "doubleprime-odd": ("doubleprime", (F(1, 2),)),
    "arc-fold": ("alpha", (F(1, 2), F(1, 4))),
    "arc-plain": ("alpha", (F(1, 2), F(1, 2))),
}

ROUND_TARGET = 160
CHECKPOINTS = 40
#: Reads of settled state per engine and checkpoint.  Only reads give the
#: latency samples: their cost depends on the settled state alone, while an
#: ``ensure_rounds`` costs 3-45 ms depending on how far the seed's first
#: touches already drove the engine, so a p99 among those swings with the
#: seed.  ``preimages`` reads are about 9% of the reads, so p50 falls
#: inside the ``eval_exact`` reads and p99 inside the ``preimages`` reads.
EXACT_READS = 36
PREIMAGE_READS = 4
APPROX_READS = 6
BUDGET = 512


class EngineDeep:
    """Six staged engines driven to ROUND_TARGET rounds by a seeded op mix,
    then each dumped and replayed.

    At each of CHECKPOINTS steps every engine gets, in this order: one
    ``ensure_rounds`` to the next round target; two first touches that
    settle new rounds (``eval_exact`` of a new point, then ``preimages`` or
    ``settle_target`` of a new value); and shuffled reads of settled state
    (``eval_exact`` and ``preimages`` of earlier inputs, ``eval_approx``
    within the current tail bound).  Every op counts toward ``build_s``;
    the reads alone give the latency samples.
    """

    def __init__(self, seed: int):
        rng = random.Random(seed)
        frames = {
            name: (e.domain, e.codomain, e.target_parity)
            for name, e in sorted(suites._tau12_engines(BUDGET).items())
        }
        touched = {name: {"t": [], "v": [], "seen": set()} for name in frames}

        def new(name, lo, hi, classes):
            # Fold codomains can be narrow (prime-odd's is 1/64 wide), so the
            # exponent cap rises whenever the shallow values are used up.
            tries = 0
            while True:
                x = _dyadic(rng, lo, hi, classes, 9 + tries // 20)
                tries += 1
                if x not in touched[name]["seen"]:
                    touched[name]["seen"].add(x)
                    return x

        self.ops = {name: [] for name in frames}
        for i in range(1, CHECKPOINTS + 1):
            target = ROUND_TARGET * i // CHECKPOINTS
            for name, ((a, b), (a2, b2), tp) in frames.items():
                seen = touched[name]
                t = new(name, a, b, (0, 1))
                seen["t"].append(t)
                ops = [("ensure_rounds", (target,)), ("eval_exact", (t,))]
                if i % 2:
                    v = new(name, a2, b2, set(tp))
                    seen["v"].append(v)
                    ops.append(("preimages", (v,)))
                else:
                    c = rng.randint(0, 1)
                    ops.append(("settle_target", (new(name, a2, b2, (tp[c],)), c)))
                reads = [("eval_exact", (rng.choice(seen["t"]),)) for _ in range(EXACT_READS)]
                reads += [("preimages", (rng.choice(seen["v"]),)) for _ in range(PREIMAGE_READS)]
                tol = (b2 - a2) * F(2, 2**target)
                reads += [
                    ("eval_approx", (a + (b - a) * F(rng.randint(1, 999), 1000), tol))
                    for _ in range(APPROX_READS)
                ]
                rng.shuffle(reads)
                self.ops[name] += [(op, a, False) for op, a in ops]
                self.ops[name] += [(op, a, True) for op, a in reads]
        self.first = None

    def run_round(self, instances: Instances, pause=nullcontext) -> Round:
        rnd = Round()
        t0 = perf_counter()
        engines = suites._tau12_engines(BUDGET)
        rnd.build_s = perf_counter() - t0
        answers = {name: {} for name in engines}
        dumps, tags, all_ns, read_tags = {}, [], [], []
        lat = rnd.latencies_ns
        # Engines are independent, so each runs its ops and then its replay;
        # build and replay time then both span the whole round.
        for name, engine in sorted(engines.items()):
            t1 = perf_counter()
            for op, args, read in self.ops[name]:
                method = getattr(engine, op)
                rnd.attempted += 1
                s = perf_counter_ns()
                try:
                    out = method(*args)
                except DendromapError as exc:
                    out = exc
                ns = perf_counter_ns() - s
                all_ns.append(ns)
                tags.append(f"{op}/read" if read else op)
                if read:
                    lat.append(ns)
                    read_tags.append(op)
                if isinstance(out, Exception):
                    rnd.failed += 1
                    rnd.errors.append(f"{name}.{op}{args} raised {out!r}")
                else:
                    answers[name].setdefault(op, []).append((args, out))
            t2 = perf_counter()
            dumped = engine.dump()
            ok, msg = replay_check(dumped)
            rnd.attempted += 1
            if not ok:
                rnd.problems.append(f"replay_check({name}): {msg}")
            dumps[name] = dumped
            rnd.build_s += t2 - t1
            rnd.replay_s += perf_counter() - t2
        rnd.verdict_s = perf_counter() - t0
        instances.take(TauEngine)
        canonical = [_canonical(dumps[name]) for name in sorted(dumps)]
        rnd.dump_bytes = sum(map(len, canonical))
        rnd.digest = hashlib.sha256("".join(canonical).encode()).hexdigest()
        rnd.detail = dict(breakdown(tags, all_ns), reads=breakdown(read_tags, lat))
        with pause():
            rnd.detail["state_digests"] = {
                name: engine.state_digest() for name, engine in sorted(engines.items())
            }
        if self.first is None:
            self.first = rnd.digest
        elif rnd.digest != self.first:
            rnd.problems.append("fresh engines reached a different state")
        for name, engine in sorted(engines.items()):
            kind, letters = ENGINE_FACTORIES[name]
            dump = dumps[name]
            if dump["rounds"] < ROUND_TARGET:
                rnd.problems.append(f"{name}: {dump['rounds']} rounds < {ROUND_TARGET}")
            rnd.problems += checks.check_dump(dump, checks.frame(kind, letters), answers[name])
            if kind == "prime":
                (r,) = letters
                top = F(dump["codomain"][1])
                if checks.parity(top) != 1 - checks.parity(r) or not checks.base_map(r) < top:
                    rnd.problems.append(f"{name}: index value {top} breaks the index laws")
        return rnd


# -- verify-all -----------------------------------------------------------------


class VerifyAll:
    """The work of ``dendromap verify --suite all`` at the default scales.

    After the report, the round lifts words in the certified context and
    asks it the map-queries stream over them, so the map instance that the
    report certified is also queried and checked.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.config = suites.SuiteConfig(seed=seed)

    def run_round(self, instances: Instances, pause=nullcontext) -> Round:
        rnd = Round()
        t0 = perf_counter()
        entries = suites.run_suites(suites.SUITE_NAMES, self.config)
        rnd.build_s = perf_counter() - t0
        data = canonical_json(make_report(self.config.to_json(), entries)).encode()
        verdict_s = perf_counter() - t0
        rnd.attempted += 1
        rnd.digest = hashlib.sha256(data).hexdigest()
        rnd.problems += checks.check_report(data, self.config.to_json())
        (ctx,) = instances.take(RhoContext)
        words = _lift(ctx, random.Random(self.seed), MapQueries.PER_LENGTH, MapQueries.MAX_LEN)
        betas = [ctx.rho(w) for w in words if len(w) >= 2]
        stream = QueryStream(random.Random(self.seed + 1), words, betas)
        answers = stream.run(ctx, rnd)
        rnd.detail = dict(stream.breakdown(rnd.latencies_ns), report_sha256=rnd.digest)
        with pause():
            rnd.problems += stream.check(ctx, answers)
        _epilogue(rnd, instances.take(TauEngine))
        rnd.verdict_s = verdict_s
        instances.take(TauEngine)
        return rnd


WORKLOADS = {
    "verify-all": VerifyAll,
    "engine-deep": EngineDeep,
    "map-queries": MapQueries,
}
