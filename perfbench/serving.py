"""The open-loop serving workload ``http-mixed``.

Four small zoo models are served through ``GatewayServer`` in this
process; the load comes from ``client.py`` in a process of its own.  Every
answer is checked against a solo reference computed at set-up, and every
request is timed from its due time.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from common import (LAG_BOUND_SHARE, TENANTS, Result, compare, nproc,
                    peak_rss_mb, sample_note)
from ledger import durations_ms, match_nested, spans
from stats import due_latencies, percentile

HERE = Path(__file__).resolve().parent

SERVED_MODELS = ("squeezenet", "googlenet", "yolo_v5", "bert")
INPUTS_PER_MODEL = 4
HTTP_RATE = 30.0
HTTP_LIMIT_MS = 100.0

#: instances set up per run, and how many of them before the timed window
SETUPS, SETUPS_BEFORE = 7, 3
#: per-tenant admission-queue bound, and the engine-wide one
TENANT_QUEUE = 128
QUEUE_DEPTH = 256
#: batch sizes whose execute time is reported: with at most ``nproc``
#: connections, no more requests than that are ever in flight together
REPORTED_BATCH_SIZES = (1, 2)
#: timed calls per codec measurement in traced runs
CODEC_REPEATS = 21


def _qos_config():
    from repro.serving.qos import QoSConfig, TenantConfig

    return QoSConfig(
        tenants=tuple(TenantConfig(name, weight=weight, max_queue=TENANT_QUEUE)
                      for name, weight, _ in TENANTS),
        max_queue_depth=QUEUE_DEPTH)


class Engine:
    """A QoS engine with the served models compiled and solo references computed."""

    def __init__(self, seed: int, *, tracer=None, registry=None) -> None:
        from repro.models import build_model
        from repro.serving.engine import (EngineConfig, InferenceEngine,
                                          example_inputs)

        self.models = {name: build_model(name, variant="small")
                       for name in SERVED_MODELS}
        self.engine = InferenceEngine(EngineConfig(qos=_qos_config()),
                                      registry=registry, tracer=tracer)
        #: (model name, feed, solo reference) per distinct input
        self.feeds = []
        try:
            for index, name in enumerate(SERVED_MODELS):
                model = self.models[name]
                self.engine.warmup(model)
                for k in range(INPUTS_PER_MODEL):
                    feed = example_inputs(model, seed=seed * 1000 + index * 100 + k)
                    self.feeds.append((name, feed, self.engine.infer(model, feed)))
        except BaseException:
            self.engine.shutdown()
            raise
        #: what compiling the models cost the engine while warming up
        self.compile_s = self.engine.registry.get_value(
            "serving_compile_seconds_total", default=0.0)

    def serving_snapshot(self) -> Dict:
        return self.engine.metrics.snapshot()

    def close(self) -> None:
        self.engine.shutdown()


class HttpInstance:
    """Engine + gateway in this process, connected load client in another."""

    def __init__(self, seed: int, duration: float, *, tracer=None,
                 registry=None) -> None:
        from repro.gateway import GatewayServer, GatewayThread
        from repro.gateway import codec

        self.core = Engine(seed, tracer=tracer, registry=registry)
        self.compile_s = self.core.compile_s
        self.gateway = None
        self.client = None
        try:
            self.gateway = GatewayThread(
                GatewayServer(self.core.engine, self.core.models)).start()
            job = {
                "port": self.gateway.port, "seed": seed, "rate": HTTP_RATE,
                "duration": duration, "connections": nproc(),
                "tenants": [[name, share] for name, _, share in TENANTS],
                "requests": [
                    {"model": name,
                     "body": codec.encode_request(feed).decode(),
                     "expect": codec.encode_outputs(ref).decode()}
                    for name, feed, ref in self.core.feeds],
            }
            self.client = subprocess.Popen(
                [sys.executable, str(HERE / "client.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            self.client.stdin.write(json.dumps(job) + "\n")
            self.client.stdin.flush()
            if self.client.stdout.readline().strip() != "ready":
                raise RuntimeError("load client failed to connect")
        except BaseException:
            self.close()
            raise

    def run(self) -> Dict:
        """Release the client, wait for its report."""
        self.client.stdin.write("go\n")
        self.client.stdin.flush()
        line = self.client.stdout.readline()
        if not line:
            raise RuntimeError("load client exited without a report")
        return json.loads(line)

    def close(self) -> None:
        if self.client is not None:
            try:
                self.client.stdin.close()
                self.client.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.client.kill()
                self.client.wait()
        if self.gateway is not None:
            self.gateway.stop()
        self.core.close()


def _verdicts(records: List[Dict], refs: List[Dict], decode) -> None:
    """Set ``record["verdict"]``: bitwise, close, wrong, refused or error."""
    for rec in records:
        if rec.get("match"):
            rec["verdict"] = "bitwise"
        elif rec["status"] in (429, 503, 504):
            rec["verdict"] = "refused"
        elif rec["status"] != 200:
            rec["verdict"] = "error"
        else:
            rec["verdict"] = compare(decode(rec), refs[rec["req"]])


def _open_loop(res: Result, records: List[Dict], start: float,
               limit_ms: float) -> Dict[str, float]:
    """End-to-end metrics of one open-loop window; returns the summary.

    Goodput counts correct answers within ``limit_ms`` per second of the
    window from the schedule's start to the last answer.
    """
    lat = [s * 1e3 for s in due_latencies([r["due"] for r in records],
                                           [r["done"] for r in records])]
    lag = [(r["enq"] - r["due"]) * 1e3 for r in records]
    ok = [r["verdict"] in ("bitwise", "close") for r in records]
    good = sum(1 for o, ms in zip(ok, lat) if o and ms <= limit_ms)
    window_s = max(r["done"] for r in records) - start
    n = len(records)
    res.attempted = n
    res.failed = n - sum(ok)
    for r in records:
        if r["verdict"] == "wrong":
            res.problems.append(
                f"request {r['req']} ({r.get('model', '')}) answered outside "
                f"rtol/atol of its solo reference")
    res.put("p50_ms", percentile(lat, 50), "ms", sample_note(n, 50))
    for q in (90, 99):
        res.note(f"p{q} latency {percentile(lat, q):.3f} ms ({sample_note(n, q)}; "
                 "printed only, too unsteady across seeds to bound)")
    res.put("goodput_rps", good / window_s, "1/s",
            f"{good} of {n} within {limit_ms:g} ms over {window_s:.3f} s")
    lag_p99 = percentile(lag, 99)
    lag_bound = LAG_BOUND_SHARE * limit_ms
    res.note(f"generator lag: p50 {percentile(lag, 50):.3f} ms, "
             f"p99 {lag_p99:.3f} ms (bound {lag_bound:g} ms)")
    if lag_p99 > lag_bound:
        res.invalid.append(
            f"generator lag p99 {lag_p99:.1f} ms exceeds {lag_bound:g} ms")
    close = sum(1 for r in records if r["verdict"] == "close")
    answered = sum(ok)
    return {"p50": percentile(lat, 50), "lag_p99": lag_p99,
            "mismatch_ratio": close / answered if answered else 0.0}


def _batch_window(before: Dict, after: Dict) -> Dict[str, float]:
    """Batch size mean and cache hit share over a window."""
    hist = {}
    for size, count in after["batch_histogram"].items():
        delta = count - before["batch_histogram"].get(size, 0)
        if delta:
            hist[int(size)] = delta
    batches = sum(hist.values())
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    return {
        "size_mean": (sum(s * c for s, c in hist.items()) / batches
                      if batches else 0.0),
        "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "compiles": after["cache"]["compiles"],
        "histogram": hist,
    }


def _median_ms(intervals) -> float:
    values = durations_ms(intervals)
    return statistics.median(values) if values else 0.0


def _serving_layers(res: Result, events, registry, window: Dict,
                    summary: Dict, attempted: int) -> None:
    """Per-layer metrics of the serving layers: QoS, batching, cache."""
    admit = spans(events, "qos.admit")
    queue = durations_ms(spans(events, "qos.queue"))
    res.put("qos.admit_ms", _median_ms(admit), "ms")
    res.put("qos.queue_p50_ms", percentile(queue, 50) if queue else 0.0, "ms",
            sample_note(len(queue), 50))
    res.put("qos.queue_p99_ms", percentile(queue, 99) if queue else 0.0, "ms",
            sample_note(len(queue), 99))
    rejected = sum(inst.value for _, inst in registry.series("qos_rejected_total"))
    res.put("qos.rejected_ratio", rejected / attempted if attempted else 0.0,
            "ratio")
    res.put("batch.wait_ms", _median_ms(spans(events, "request.queue")), "ms")
    res.put("batch.size_mean", window["size_mean"], "count")
    for size in REPORTED_BATCH_SIZES:
        res.put(f"batch.execute_ms.b{size}",
                _median_ms(spans(events, "batch.execute", size=size)), "ms")
    res.put("batch.bitwise_mismatch_ratio", summary["mismatch_ratio"], "ratio")
    res.put("cache.hit_ratio", window["hit_ratio"], "ratio")
    res.put("cache.compiles", window["compiles"], "count")
    res.put("fail_ratio", res.failed / res.attempted if res.attempted else 0.0,
            "ratio")
    res.note(f"batch sizes in the window: {window['histogram']}")


def _measure(make, run, t0: float):
    """Run one window between repeated instance set-ups; (setup_s, compile_s).

    ``SETUPS`` instances are set up and timed: ``SETUPS_BEFORE`` before the
    window (the last of them serves it) and the rest after it, so the
    set-ups span the run rather than one moment of the machine's drifting
    speed.  ``setup_s`` adds the process's start-up (imports, read from
    ``t0``) to the median instance set-up; ``compile_s`` is the fastest
    set-up's compile time (best of ``SETUPS``, as for any fixed work).
    """
    import_s = time.perf_counter() - t0
    times, compiles = [], []

    def setup():
        start = time.perf_counter()
        instance = make()
        times.append(time.perf_counter() - start)
        compiles.append(instance.compile_s)
        return instance

    for _ in range(SETUPS_BEFORE - 1):
        setup().close()
    instance = setup()
    try:
        run(instance)
    finally:
        instance.close()
    for _ in range(SETUPS - SETUPS_BEFORE):
        setup().close()
    return import_s + statistics.median(times), min(compiles)


def _http_window(inst: HttpInstance, res: Result):
    from repro.gateway import codec

    refs = [ref for _, _, ref in inst.core.feeds]
    before = inst.core.serving_snapshot()
    report = inst.run()
    after = inst.core.serving_snapshot()
    records = report["records"]
    for rec in records:
        rec["model"] = inst.core.feeds[rec["req"]][0]
    _verdicts(records, refs, lambda rec: codec.decode_outputs(rec["body"].encode()))
    summary = _open_loop(res, records, report["start"], HTTP_LIMIT_MS)
    return records, summary, _batch_window(before, after)


def http_mixed(args, t0: float) -> Result:
    res = Result("http-mixed")
    if args.trace:
        return _http_traced(args, res)
    windows = []
    setup_s, compile_s = _measure(
        lambda: HttpInstance(args.seed, args.seconds),
        lambda inst: windows.append(_http_window(inst, res)), t0)
    window = windows[0][2]
    res.put("pool_p50_ms", res.metrics["p50_ms"][0], "ms",
            "no pool executor on this path: equals p50_ms")
    res.put("compile_s", compile_s, "s", f"best of {SETUPS} set-ups")
    res.put("setup_s", setup_s, "s", f"median of {SETUPS} set-ups")
    res.put("peak_rss_mb", peak_rss_mb(), "MB")
    res.note(f"batch sizes in the window: {window['histogram']}; "
             f"cache hit ratio {window['hit_ratio']:.3f}")
    return res


def _http_traced(args, res: Result) -> Result:
    from repro.gateway import codec
    from repro.observability import MetricsRegistry, Tracer

    plain = Result(res.workload)
    inst = HttpInstance(args.seed, args.seconds)
    try:
        _, base, _ = _http_window(inst, plain)
    finally:
        inst.close()

    tracer, registry = Tracer(capacity=1 << 18), MetricsRegistry()
    inst = HttpInstance(args.seed, args.seconds, tracer=tracer, registry=registry)
    try:
        records, summary, window = _http_window(inst, res)
        feeds = inst.core.feeds
    finally:
        inst.close()
    res.absorb(plain)
    events = tracer.events()

    gateway = spans(events, "gateway.request")
    engine_req = [iv for iv in spans(events, "request") if iv[2].cat == "request"]
    ledger = match_nested(gateway, engine_req)
    residual = [((g[1] - g[0]) - (e[1] - e[0])) / 1e6 for g, e in ledger]
    client = [(r["sent"] * 1e9, r["done"] * 1e9, r) for r in records]
    wire = [((c[1] - c[0]) - (g[1] - g[0])) / 1e6
            for c, g in match_nested(client, gateway)]
    res.put("gateway.request_ms", _median_ms(gateway), "ms",
            sample_note(len(gateway), 50))
    res.put("gateway.residual_ms", statistics.median(residual) if residual else 0.0,
            "ms", f"{len(ledger)} of {len(gateway)} requests paired")
    res.put("client.wire_ms", statistics.median(wire) if wire else 0.0, "ms",
            f"{len(wire)} of {len(records)} requests paired")
    res.put("loadgen.lag_p99_ms", summary["lag_p99"], "ms")

    for name in SERVED_MODELS:
        body = next(codec.encode_request(feed) for n, feed, _ in feeds if n == name)
        ref = next(ref for n, _, ref in feeds if n == name)
        res.put(f"codec.decode_ms.{name}",
                _time_ms(lambda: codec.decode_request(body)), "ms",
                f"{len(body)} B body, median of {CODEC_REPEATS}")
        res.put(f"codec.encode_ms.{name}",
                _time_ms(lambda: codec.encode_outputs(ref)), "ms",
                f"median of {CODEC_REPEATS}")

    _serving_layers(res, events, registry, window, summary, len(records))
    res.put("trace.overhead_ratio", summary["p50"] / base["p50"], "ratio",
            f"traced p50 {summary['p50']:.3f} ms / untraced p50 "
            f"{base['p50']:.3f} ms")
    res.note(f"tracer: {tracer.stats()}")
    if residual:
        res.note(f"gateway.residual_ms over {len(residual)} requests: "
                 f"p50 {percentile(residual, 50):.3f}, "
                 f"p90 {percentile(residual, 90):.3f}, max {max(residual):.3f}")
    res.note("per-request ledger (ms): gateway.request, engine request, residual")
    for g, e in sorted(ledger, key=lambda pair: pair[0][0]):
        res.note(f"  {(g[1] - g[0]) / 1e6:9.3f} {(e[1] - e[0]) / 1e6:9.3f} "
                 f"{((g[1] - g[0]) - (e[1] - e[0])) / 1e6:9.3f}")
    return res



def _time_ms(fn) -> float:
    times = []
    for _ in range(CODEC_REPEATS):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)
