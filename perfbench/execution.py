"""The closed-loop batch-1 workload ``exec-b1``: serial plan vs generated pool.

One caller runs ``Session.run`` on all eight zoo models at batch 1.  Rounds
alternate between the ``plan`` executor (the serial execution plan) and the
``pool`` executor (Ramiel's generated task-parallel code on warm
per-cluster threads), so slow drift in the machine hits both alike.

Set-up compiles each model with ``ramiel_compile`` and the default
``PipelineConfig``; the window compiles them again between rounds, which
gives the workload's ``compile_s``.  The compile layers' per-stage times
come from its traced run (:mod:`compiling`).
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

from common import ZOO, Result, compare, peak_rss_mb, per_model_geomean, sample_note
from compiling import check_generated, stage_metrics
from ledger import op_shares, spans

#: nasnet's default graph takes ~0.75 s per run; its small variant keeps a
#: round short enough for tens of samples per model
VARIANTS = {name: ("small" if name == "nasnet" else "default") for name in ZOO}
INPUTS_PER_MODEL = 2
WARM_RUNS = 2
SETUPS = 3
EXECUTORS = ("plan", "pool")
#: op types whose self-time share the traced run reports
TOP_OPS = ("Conv", "MaxPool", "MatMul", "Gemm", "Concat", "Softmax",
           "ReduceMean", "AveragePool")


class Sessions:
    """Compiled zoo, one warm plan and one warm pool session per model."""

    def __init__(self, seed: int) -> None:
        from repro.models import build_model
        from repro.pipeline import ramiel_compile
        from repro.runtime.session import create_session
        from repro.serving.engine import example_inputs

        self.results = {}
        self.sessions: Dict[str, Dict[str, object]] = {ex: {} for ex in EXECUTORS}
        self.feeds: Dict[str, List[Dict]] = {}
        self.refs: Dict[str, List[Dict]] = {}
        try:
            for index, name in enumerate(ZOO):
                model = build_model(name, variant=VARIANTS[name])
                result = self.results[name] = ramiel_compile(model)
                for ex in EXECUTORS:
                    self.sessions[ex][name] = create_session(result, executor=ex)
                self.feeds[name] = [
                    example_inputs(model, seed=seed * 1000 + index * 100 + k)
                    for k in range(INPUTS_PER_MODEL)]
                plan = self.sessions["plan"][name]
                self.refs[name] = [plan.run(feed) for feed in self.feeds[name]]
                for ex in EXECUTORS:
                    for _ in range(WARM_RUNS):
                        for feed in self.feeds[name]:
                            self.sessions[ex][name].run(feed)
        except BaseException:
            self.close()
            raise

    def first_feeds(self) -> Dict[str, Dict]:
        return {name: feeds[0] for name, feeds in self.feeds.items()}

    def close(self) -> None:
        for by_model in self.sessions.values():
            for session in by_model.values():
                session.close()


def _window(sessions: Sessions, res: Result, seconds: float):
    """Alternate plan/pool rounds for ``seconds``.

    After each round, one model (in turn) is compiled again with
    ``ramiel_compile``, so compile times are sampled across the whole
    window rather than at one moment of the machine's drifting speed.
    Returns per-executor, per-model run times (ms), the number of correct
    runs, the seconds spent running them, and per-model compile times (ms).
    """
    from repro.pipeline import ramiel_compile

    times = {ex: {name: [] for name in ZOO} for ex in EXECUTORS}
    compile_ms = {name: [] for name in ZOO}
    runs = wrong = 0
    start = time.perf_counter()
    round_no = 0
    while time.perf_counter() - start < seconds:
        ex = EXECUTORS[round_no % len(EXECUTORS)]
        k = (round_no // len(EXECUTORS)) % INPUTS_PER_MODEL
        for name in ZOO:
            session = sessions.sessions[ex][name]
            feed = sessions.feeds[name][k]
            t = time.perf_counter()
            out = session.run(feed)
            times[ex][name].append((time.perf_counter() - t) * 1e3)
            runs += 1
            # The plan is the reference; the pool must reproduce it exactly.
            if compare(out, sessions.refs[name][k]) != "bitwise":
                wrong += 1
                res.problems.append(
                    f"{name}: {ex} output differs from the plan reference "
                    f"(round {round_no})")
        name = ZOO[round_no % len(ZOO)]
        t = time.perf_counter()
        ramiel_compile(sessions.results[name].model)
        compile_ms[name].append((time.perf_counter() - t) * 1e3)
        round_no += 1
    run_s = time.perf_counter() - start - sum(map(sum, compile_ms.values())) / 1e3
    res.attempted += runs
    res.failed += wrong
    return times, runs - wrong, run_s, compile_ms


def exec_b1(args, t0: float) -> Result:
    res = Result("exec-b1")
    if args.trace:
        return _traced(args, res)
    import_s = time.perf_counter() - t0
    setups = []
    sessions = None
    for _ in range(SETUPS):
        if sessions is not None:
            sessions.close()
            sessions = None
        start = time.perf_counter()
        sessions = Sessions(args.seed)
        setups.append(time.perf_counter() - start)
    try:
        times, runs, run_s, compile_ms = _window(sessions, res, args.seconds)
    finally:
        sessions.close()
    check_generated(res, sessions.results, sessions.first_feeds())
    plan, pool = times["plan"], times["pool"]
    n = min(len(v) for v in plan.values())
    res.put("p50_ms", per_model_geomean(plan, 50), "ms",
            "geomean over models of plan medians; " + sample_note(n, 50))
    res.note(f"p90 (geomean over models of plan p90) "
             f"{per_model_geomean(plan, 90):.3f} ms ({sample_note(n, 90)}; printed only)")
    res.put("pool_p50_ms", per_model_geomean(pool, 50), "ms",
            "geomean over models of pool medians; "
            + sample_note(min(len(v) for v in pool.values()), 50))
    res.put("goodput_rps", runs / run_s, "1/s",
            f"{runs} correct runs in {run_s:.2f} s of running")
    res.put("compile_s", sum(statistics.median(v) for v in compile_ms.values()) / 1e3,
            "s", "ramiel_compile, per-model medians summed over the eight models; "
            f"n={min(len(v) for v in compile_ms.values())} per model")
    res.put("setup_s", import_s + statistics.median(setups), "s",
            f"median of {SETUPS} set-ups")
    res.put("peak_rss_mb", peak_rss_mb(), "MB")
    res.note("model          plan p50 ms  pool p50 ms  speedup  predicted")
    for name in ZOO:
        p, q = statistics.median(plan[name]), statistics.median(pool[name])
        predicted = sessions.results[name].predicted_speedup
        res.note(f"{name:14s} {p:11.3f} {q:12.3f} {p / q:8.3f} {predicted:10.2f}")
    return res


def _traced(args, res: Result) -> Result:
    from repro.observability import MetricsRegistry, Tracer

    sessions = Sessions(args.seed)
    try:
        base = _window(sessions, res, args.seconds)[0]
        tracer, registry = Tracer(capacity=1 << 20), MetricsRegistry()
        for ex in EXECUTORS:
            for name, session in sessions.sessions[ex].items():
                session.set_tracer(tracer)
                session.publish_metrics(registry, {"model": name, "executor": ex})
        before = registry.snapshot()
        times = _window(sessions, res, args.seconds)[0]
        after = registry.snapshot()
    finally:
        sessions.close()
    check_generated(res, sessions.results, sessions.first_feeds())
    events = tracer.events()

    def delta(metric: str, ex: str, name: str) -> float:
        key = f'{metric}{{executor="{ex}",model="{name}"}}'
        return after.get(key, {}).get("value", 0.0) - before.get(key, {}).get("value", 0.0)

    for name in ZOO:
        plan_ms = [(e - s) / 1e6 for s, e, _ in
                   spans(events, "session.run", model=name, executor="plan")]
        pool_ms = [(e - s) / 1e6 for s, e, _ in
                   spans(events, "session.run", model=name, executor="pool")]
        res.put(f"session.run_ms.{name}", statistics.median(plan_ms), "ms",
                f"n={len(plan_ms)}")
        res.put(f"pool.run_ms.{name}", statistics.median(pool_ms), "ms",
                f"n={len(pool_ms)}")
        speedup = (statistics.median(base["plan"][name])
                   / statistics.median(base["pool"][name]))
        res.put(f"pool.speedup.{name}", speedup, "ratio",
                "untraced plan p50 / pool p50")
        res.put(f"clustering.predicted_speedup.{name}",
                sessions.results[name].predicted_speedup, "ratio")
    shares = op_shares(events)
    for op in TOP_OPS:
        res.put(f"plan.op_share.{op}", shares.get(op, 0.0), "ratio")
    res.note("plan self-time share by op type: " + ", ".join(
        f"{op} {share:.3f}" for op, share in
        sorted(shares.items(), key=lambda kv: -kv[1])))
    res.put("plan.warm_arena_allocs",
            sum(delta("plan_arena_allocations", "plan", name) for name in ZOO),
            "count", "arena allocations during the traced window, all models")

    pool_runs = sum(delta("pool_runs_total", "pool", name) for name in ZOO)
    for metric, series in (("pool.dispatch_ms", "pool_dispatch_seconds_total"),
                           ("pool.collect_wait_ms", "pool_collect_wait_seconds_total"),
                           ("pool.worker_execute_ms", "pool_execute_seconds_total")):
        total = sum(delta(series, "pool", name) for name in ZOO)
        res.put(metric, total * 1e3 / pool_runs if pool_runs else 0.0, "ms",
                f"per pool run, {pool_runs:g} runs")
    queue_wait = 0.0
    for labels, inst in registry.series("pool_worker_queue_wait_seconds_total"):
        queue_wait += inst.value
    queue_wait -= sum(entry.get("value", 0.0) for key, entry in before.items()
                      if key.startswith("pool_worker_queue_wait_seconds_total"))
    res.put("pool.worker_queue_wait_ms",
            queue_wait * 1e3 / pool_runs if pool_runs else 0.0, "ms",
            "per pool run, summed over workers")
    channel = sum(delta("pool_channel_put_bytes_total", "pool", name) for name in ZOO)
    res.put("pool.channel_bytes", channel / pool_runs if pool_runs else 0.0,
            "B", "per pool run, bytes put into the pool's channels")

    plan_traced = per_model_geomean(times["plan"], 50)
    plan_plain = per_model_geomean(base["plan"], 50)
    res.put("trace.overhead_ratio", plan_traced / plan_plain, "ratio",
            f"traced plan p50 {plan_traced:.3f} ms / untraced {plan_plain:.3f} ms")
    res.note(f"tracer: {tracer.stats()}")

    from repro.models import build_model

    stage_metrics(res, lambda name: build_model(name, variant=VARIANTS[name]))
    res.put("fail_ratio", res.failed / res.attempted if res.attempted else 0.0,
            "ratio")
    return res
