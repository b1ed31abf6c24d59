"""Per-layer tracing by wrapping the program's public functions from outside.

``Tracer.install()`` replaces functions and methods of each layer with timing
wrappers.  A function imported by name into other modules is replaced there
too, so every call path is seen.  Three kinds of wrapper exist:

* leaf: the hot calls (``PLMap.apply``, ``first_dyadic_in``, ``as_word``,
  ``LengthTable.lambda_of``) keep only a call count and self time;
* group: layer entry points keep the count and inclusive time of their
  outermost calls (a call made while another call of the same group is
  open is nested and not counted again);
* span: suites, queries and staged-engine operations also record a span
  (name, start, end, parent) in compact arrays.

Self time is a call's duration minus the time its wrapped children cover.
Engines are found by wrapping the engine constructors.  Everything that
runs inside ``replay_check`` counts toward the replay's own time only, so
re-driven operations do not count twice.  ``finish()`` reads rounds, nodes and op counts from the engines'
public properties and ``dump()``, writes everything to a JSON file and
returns the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from contextlib import contextmanager
from collections import Counter, defaultdict
from time import perf_counter

SUITES = (
    "tau0", "tau12", "rho", "decomposition", "metric",
    "period", "horseshoe", "lipschitz", "witness",
)
TAU0_METHODS = (
    "eval", "role", "rung", "stage", "anchor_stage_at", "preimages",
    "backward_step", "backward_trajectory", "forward_to_rung", "ensure_rounds",
)
ENGINE_OPS = ("ensure_rounds", "eval_exact", "eval_approx", "preimages", "settle_target")
ENGINE_KINDS = (("tau_prime[", "prime"), ("tau_dp[", "doubleprime"), ("tau[", "alpha"))
DYNAMICS = ("rho", "apply_F", "rho_section", "transitivity_witness")


def _kind(label: str) -> str:
    for prefix, kind in ENGINE_KINDS:
        if label.startswith(prefix):
            return kind
    return "other"


class Tracer:
    def __init__(self):
        self.stack: list = []  # child time of each open wrapped call
        self.depth = Counter()  # open calls per group
        self.calls = Counter()  # leaf: all calls; group and span: outermost
        self.wrapped_calls = Counter()  # every wrapped call, per wrapper type
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.open_spans = [-1]
        self.engines: list = []
        self.tau0_engines: list = []
        self._patches: list = []
        self._modules: list = []
        self.active = [True]  # cleared while the benchmark checks outputs

    @contextmanager
    def paused(self):
        """Let calls through unrecorded, e.g. while outputs are checked."""
        before = self.active[0]
        self.active[0] = False
        try:
            yield
        finally:
            self.active[0] = before

    # -- wrappers ----------------------------------------------------------

    def leaf(self, fn, name):
        stack, calls, self_time = self.stack, self.calls, self.self_time
        wrapped, active = self.wrapped_calls, self.active

        def wrapper(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                calls[name] += 1
                self_time[name] += dur - child
                wrapped["leaf"] += 1

        return wrapper

    def group(self, fn, name, group=None, span=False, on_exit=None):
        g = group or name
        stack, depth, calls = self.stack, self.depth, self.calls
        incl, self_time, wrapped = self.incl, self.self_time, self.wrapped_calls
        open_spans, active = self.open_spans, self.active
        if span:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.span_names)
                self.span_names.append(name)
            name_id = self._name_ids[name]
            s_name, s_start = self.span_name, self.span_start
            s_end, s_parent = self.span_end, self.span_parent

        def wrapper(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            outer = depth[g] == 0
            depth[g] += 1
            if span:
                parent = open_spans[-1]
                sid = len(s_name)
                s_name.append(name_id)
                s_parent.append(parent)
                s_start.append(0.0)
                s_end.append(0.0)
                open_spans.append(sid)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                depth[g] -= 1
                self_time[name] += dur - child
                wrapped["span" if span else "group"] += 1
                if outer:
                    calls[name] += 1
                    incl[name] += dur
                if span:
                    open_spans.pop()
                    s_start[sid] = t0
                    s_end[sid] = t1
            if on_exit is not None:
                on_exit(args, dur, outer)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_function(self, original, wrapper):
        """Replace ``original`` wherever a loaded module holds it by name."""
        for mod in self._modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        from dendromap import dynamics, plmap, rationals, reports, space, suites, tau0, tau12, words

        self._modules = [
            m for name, m in sorted(sys.modules.items())
            if name.startswith("dendromap") or name == "workloads"
        ]
        # Hot leaves.
        apply = self.leaf(plmap.PLMap.apply, "plmap.apply")
        self._set(plmap.PLMap, "apply", apply)
        self._set(plmap.PLMap, "__call__", apply)
        self._replace_function(
            rationals.first_dyadic_in,
            self.leaf(rationals.first_dyadic_in, "rationals.first_dyadic_in"),
        )
        self._replace_function(words.as_word, self.leaf(words.as_word, "words.as_word"))
        self._set(space.LengthTable, "lambda_of", self._lambda_of(space.LengthTable.lambda_of))
        self._replace_function(
            rationals.canonical_enumeration,
            self._counting_generator(rationals.canonical_enumeration),
        )
        # Suites, reports and the metric.
        for name in SUITES:
            fn = getattr(suites, f"suite_{name}")
            self._set(suites, f"suite_{name}", self.group(fn, f"suites.{name}", span=True))
        self._replace_function(reports.canonical_json, self.group(
            self._sized(reports.canonical_json), "reports.canonical_json",
        ))
        self._replace_function(space.distance, self.group(space.distance, "space.distance"))
        # The index engine.
        for meth in TAU0_METHODS:
            self._set(tau0.Tau0Engine, meth, self.group(
                tau0.Tau0Engine.__dict__[meth], f"tau0.{meth}", group="tau0",
            ))
        self._set(tau0.Tau0Engine, "__init__", self._constructor(
            tau0.Tau0Engine.__init__, self.tau0_engines, "tau0.__init__", "tau0",
        ))
        # Staged engines.
        for op in ENGINE_OPS:
            self._set(tau12.TauEngine, op, self.group(
                tau12.TauEngine.__dict__[op], f"tau12.{op}", group="tau12", span=True,
                on_exit=self._engine_time,
            ))
        self._set(tau12.TauEngine, "__init__", self._constructor(
            tau12.TauEngine.__init__, self.engines, "tau12.__init__", "tau12",
        ))
        self._set(tau12.TauEngine, "dump", self.group(tau12.TauEngine.dump, "tau12.dump"))
        self._replace_function(tau12.replay_check, self._replay(tau12.replay_check))
        # The map and its engine cache.
        for meth in DYNAMICS:
            fn = dynamics.RhoContext.__dict__[meth]
            self._set(dynamics.RhoContext, meth, self.group(fn, f"dynamics.{meth}"))
        for meth in ("tau_prime", "tau_dp", "tau_alpha"):
            self._set(dynamics.RhoContext, meth, self._cache(dynamics.RhoContext.__dict__[meth]))
        import workloads

        self._set(workloads.QueryStream, "ask", staticmethod(self.group(
            workloads.QueryStream.ask, "query", span=True,
        )))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- special wrappers --------------------------------------------------

    def _engine_time(self, args, dur, outer):
        if outer:
            self.incl[f"tau12.{_kind(args[0].label)}"] += dur

    def _constructor(self, init, sink, name, group):
        def keep(args, dur, outer):
            sink.append(args[0])

        return self.group(init, name, group=group, on_exit=keep)

    def _replay(self, fn):
        paused = self.paused

        def replay_check(*args, **kwargs):
            with paused():
                return fn(*args, **kwargs)

        return self.group(replay_check, "tau12.replay_check", span=True)

    def _cache(self, fn):
        counts, active = self.counts, self.active

        def lookup(ctx, key):
            if not active[0]:
                return fn(ctx, key)
            before = ctx.engine_count
            engine = fn(ctx, key)
            counts["dynamics.engine_cache.misses" if ctx.engine_count > before
                   else "dynamics.engine_cache.hits"] += 1
            return engine

        return lookup

    def _sized(self, fn):
        counts, active = self.counts, self.active

        def canonical_json(payload):
            text = fn(payload)
            if active[0]:
                counts["reports.report_bytes"] += len(text.encode())
            return text

        return canonical_json

    def _lambda_of(self, fn):
        inner = self.leaf(fn, "space.lambda_of")
        counts, active = self.counts, self.active
        seen: dict = {}

        def lambda_of(table, word):
            if not active[0]:
                return fn(table, word)
            known = seen.setdefault(id(table), {()})
            key = tuple(word)
            if key in known:
                counts["space.lambda_of.memo_hits"] += 1
            value = inner(table, word)
            known.add(key)
            return value

        return lambda_of

    def _counting_generator(self, fn):
        counts, active = self.counts, self.active

        def enumerate_counted(*args, **kwargs):
            for value in fn(*args, **kwargs):
                if active[0]:
                    counts["rationals.canonical_enumeration.yields"] += 1
                yield value

        return enumerate_counted

    # -- overhead ----------------------------------------------------------

    def _per_call_overhead(self) -> dict:
        """Seconds a wrapper adds to one call, by wrapper type."""

        def noop():
            return None

        probe = Tracer()
        n = 20000
        out = {}
        for kind, wrapped in (
            ("leaf", probe.leaf(noop, "x")),
            ("group", probe.group(noop, "x")),
            ("span", probe.group(noop, "x", span=True)),
        ):
            best = float("inf")
            for _ in range(3):
                t0 = perf_counter()
                for _ in range(n):
                    noop()
                t1 = perf_counter()
                for _ in range(n):
                    wrapped()
                t2 = perf_counter()
                best = min(best, (t2 - t1) - (t1 - t0))
            out[kind] = max(best, 0.0) / n
        return out

    # -- results -----------------------------------------------------------

    def finish(self, workload: str, seed: int, out_dir: str) -> dict:
        t0 = perf_counter()
        self.uninstall()
        m = {}
        for name in SUITES:
            m[f"suites.{name}.s"] = (self.incl[f"suites.{name}"], "s")
        tau0_s = sum(v for k, v in self.incl.items() if k.startswith("tau0."))
        m["tau0.rounds"] = (sum(e.round_count for e in self.tau0_engines), "count")
        m["tau0.s"] = (tau0_s, "s")
        m["plmap.apply.calls"] = (self.calls["plmap.apply"], "count")
        m["plmap.apply.s"] = (self.self_time["plmap.apply"], "s")
        m["rationals.first_dyadic_in.calls"] = (self.calls["rationals.first_dyadic_in"], "count")
        m["rationals.first_dyadic_in.s"] = (self.self_time["rationals.first_dyadic_in"], "s")
        m["rationals.canonical_enumeration.yields"] = (
            self.counts["rationals.canonical_enumeration.yields"], "count")
        ops_logged = 0
        per_kind = {k: Counter() for _, k in ENGINE_KINDS}
        for engine in self.engines:
            kind = per_kind.get(_kind(engine.label))
            if kind is None:
                continue
            kind["engines"] += 1
            kind["rounds"] += engine.round_count
            kind["nodes"] += engine.node_count
            ops_logged += len(engine.dump()["ops"])
        for _, kind in ENGINE_KINDS:
            for field in ("engines", "rounds", "nodes"):
                m[f"tau12.{kind}.{field}"] = (per_kind[kind][field], "count")
            m[f"tau12.{kind}.s"] = (self.incl[f"tau12.{kind}"], "s")
        m["tau12.preimages.calls"] = (self.calls["tau12.preimages"], "count")
        m["tau12.preimages.s"] = (self.incl["tau12.preimages"], "s")
        m["tau12.ops_logged"] = (ops_logged, "count")
        m["tau12.dump.s"] = (self.incl["tau12.dump"], "s")
        m["tau12.replay.s"] = (self.incl["tau12.replay_check"], "s")
        m["words.as_word.calls"] = (self.calls["words.as_word"], "count")
        m["words.as_word.s"] = (self.self_time["words.as_word"], "s")
        for meth in DYNAMICS:
            m[f"dynamics.{meth}.calls"] = (self.calls[f"dynamics.{meth}"], "count")
            m[f"dynamics.{meth}.s"] = (self.incl[f"dynamics.{meth}"], "s")
        for key in ("hits", "misses"):
            m[f"dynamics.engine_cache.{key}"] = (self.counts[f"dynamics.engine_cache.{key}"], "count")
        m["space.distance.calls"] = (self.calls["space.distance"], "count")
        m["space.distance.s"] = (self.incl["space.distance"], "s")
        m["space.lambda_of.calls"] = (self.calls["space.lambda_of"], "count")
        m["space.lambda_of.memo_hits"] = (self.counts["space.lambda_of.memo_hits"], "count")
        m["reports.canonical_json.s"] = (self.incl["reports.canonical_json"], "s")
        m["reports.report_bytes"] = (self.counts["reports.report_bytes"], "bytes")
        per_call = self._per_call_overhead()
        wrapped = sum(per_call[k] * n for k, n in self.wrapped_calls.items())
        m["trace.overhead_s"] = (wrapped + perf_counter() - t0, "s")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "workload": workload,
                    "seed": seed,
                    "metrics": {k: v for k, (v, _) in m.items()},
                    "calls": dict(self.calls),
                    "inclusive_s": dict(self.incl),
                    "self_s": dict(self.self_time),
                    "counts": dict(self.counts),
                    "wrapped_calls": dict(self.wrapped_calls),
                    "per_call_overhead_s": per_call,
                    "span_names": self.span_names,
                    "spans": {
                        "name": self.span_name.tolist(),
                        "start": self.span_start.tolist(),
                        "end": self.span_end.tolist(),
                        "parent": self.span_parent.tolist(),
                    },
                },
                fh,
            )
        return m
