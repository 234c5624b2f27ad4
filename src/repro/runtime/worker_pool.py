"""Warm, reusable executor pools for Ramiel-generated parallel modules.

:class:`WarmExecutorPool` is the package's one cluster-worker protocol.  It
keeps one long-lived worker per cluster and feeds it jobs through
per-worker queues, so repeated executions of the same compiled module only
pay for the actual operator work plus queue hand-off — worker startup
(and, for processes, the fork) is paid once.  Both backends run the same
job loop (:func:`_worker_loop`).  One-shot execution
(:func:`repro.runtime.process_runtime.execute_generated_module`) is a pool
that is opened, run once and closed.

Two backends are supported:

* ``"thread"`` — one persistent thread per cluster.  numpy releases the GIL
  inside BLAS so clusters still overlap; fresh thread channels are created
  per run (they are cheap).
* ``"process"`` — one persistent forked process per cluster (the paper's
  runtime, minus the per-call fork).  The module, the weights and the
  channel queues are inherited at fork time and reused across runs; a
  correct clustering fully drains every channel each run, so reuse is safe.
  Requires a platform with the ``fork`` start method.

A run that times out or raises leaves workers in an unknown state (they may
be blocked on a channel ``get`` that will never be satisfied), so the pool
marks itself *broken* and refuses further work; :meth:`restart` tears the
workers down and spawns a fresh set over the same compiled module (counted
in ``stats()["restarts"]``), which is much cheaper than recompiling.

**Observability.**  The pool is the boundary where PR 6's tracing used to
go dark: spans stopped at ``session.run`` because the actual operator work
happens on worker threads/processes the coordinator tracer cannot see.
With a tracer attached (constructor ``tracer=`` or :meth:`set_tracer`),
every dispatched job carries a
:class:`~repro.observability.context.TraceContext`; each worker runs its
own thread/process-local :class:`~repro.observability.Tracer`, records its
``worker.execute`` spans against its **real pid/tid**, and ships the
completed buffer back with the job result over the existing done queue.
The pool accumulates per-worker
:class:`~repro.observability.merge.WorkerTraceBuffer`\\ s (bounded, with
per-worker drop accounting) that
:func:`repro.observability.merge.merge_traces` aligns — using the
per-worker **clock offsets measured by a startup handshake** — into one
multi-process Chrome trace.  Untraced dispatch stays on the fast path: the
job tuple carries ``None`` and the worker pays one ``is None`` check
(gated at paired-ratio parity in
``benchmarks/test_observability_overhead.py``).

Worker **metrics** (dispatch/execute/queue-wait timings, channel hand-off
bytes and nanoseconds, occupancy, restarts) accumulate in ``stats()`` and
publish into a shared ``MetricsRegistry`` via :meth:`publish_metrics`.
Channel byte/ns accounting for the ``"process"`` backend requires the
tracer at *construction* time (the wrapped channels are inherited at
fork); span shipping works whenever a tracer is attached.

**Self-healing.**  The pool also exposes the supervision primitives
:mod:`repro.resilience` builds on: per-worker *heartbeats* (the last time
a worker produced any message — job result, clock-sync or ``__ping__``
reply), :meth:`worker_alive` / :meth:`inflight` liveness probes,
:meth:`fail_inflight` (fail a stuck run on behalf of a dead or wedged
worker in seconds instead of waiting out the batch timeout),
:meth:`respawn_worker` / :meth:`heal` (replace a *single* failed worker —
fresh job queue, reused channels and weights, a one-worker clock-sync
handshake — instead of a full :meth:`restart`), and
:meth:`set_fault_injector` (ship deterministic fault directives to the
workers for chaos testing; ``None`` directives cost one ``is not None``
check per job).  Worker failures ship their **remote traceback text**
home, so a cross-process exception reads like a local one.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue
import threading
import time
from collections import deque
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.observability.context import TraceContext
from repro.observability.merge import WorkerTraceBuffer
from repro.observability.trace import Tracer
from repro.resilience.faults import apply_worker_fault
from repro.runtime.channels import (
    ChannelTelemetry,
    instrument_channels,
    make_process_channels,
    make_thread_channels,
)
from repro.runtime.process_runtime import ParallelExecutionError, remote_error_text

#: sentinel ticket for the clock-offset handshake messages
_SYNC = "__sync__"

#: sentinel ticket for supervisor heartbeat pings (reply proves liveness)
_PING = "__ping__"

#: per-worker local tracer capacity; one run's spans are drained after
#: every job, so this only bounds a single job's recording
_WORKER_TRACER_CAPACITY = 4096

#: per-worker accumulation cap in the coordinator; oldest spans are evicted
#: (and counted as drops) once a worker's lane exceeds this
_WORKER_BUFFER_CAPACITY = 16384


def _drain_worker_tracer(tracer: Tracer, ctx: TraceContext,
                         queue_wait_ns: int, channel_delta) -> Dict:
    """Package a worker-local tracer's buffer for the trip home."""
    snapshot = tracer.export()
    tracer.clear()
    spans = [(e.name, e.cat, e.start_ns, e.dur_ns,
              dict(e.args) if e.args else None)
             for e in snapshot["events"]]
    return {
        "spans": spans,
        "dropped": snapshot["dropped"],
        "pid": os.getpid(),
        "tid": threading.get_ident(),
        "trace_id": ctx.trace_id,
        "queue_wait_ns": queue_wait_ns,
        "channels": channel_delta,
    }


def _reap_processes(processes, join_timeout: float = 1.0) -> None:
    """Terminate, join and close every process; never raises.

    The one process reaper: pool teardown, restarts and respawns all end
    here, so a timed-out or failed run never leaks a live, unjoined or
    unclosed child (it would hold inherited memory and channel queues
    until interpreter exit).
    """
    for p in processes:
        try:
            if p.is_alive():
                p.terminate()
        except Exception:  # noqa: BLE001 - already reaped
            pass
    for p in processes:
        try:
            p.join(timeout=join_timeout)
            if p.is_alive():  # terminate lost the race: escalate
                p.kill()
                p.join(timeout=join_timeout)
        except Exception:  # noqa: BLE001 - already reaped
            pass
    for p in processes:
        try:
            p.close()
        except Exception:  # noqa: BLE001 - still-running straggler
            pass


def _worker_loop(fn, weights, inherited_channels, jobs, done, index,
                 telemetry: Optional[ChannelTelemetry]) -> None:
    """One cluster worker's job loop, for both backends.

    A job is ``(ticket, inputs, channels, ctx, fault)``.  Thread runs ship
    fresh channels; process runs ship ``None`` and the worker uses the
    channels it inherited at fork.  Only process workers get
    ``telemetry``: their fork's counters are copy-on-write private, so
    they ship a per-job channel delta home with the result (thread
    workers share the coordinator's telemetry object instead).
    """
    tracer: Optional[Tracer] = None
    while True:
        job = jobs.get()
        if job is None:
            return
        ticket = job[0]
        if ticket == _SYNC or ticket == _PING:
            done.put((ticket, index, time.perf_counter_ns(), None, 0, None))
            continue
        received_ns = time.perf_counter_ns()
        _, inputs, channels, ctx, fault = job
        is_process = channels is None
        if is_process:
            channels = inherited_channels
        start_ns = time.perf_counter_ns()
        if fault is not None:
            try:
                action = apply_worker_fault(fault, is_process=is_process)
            except BaseException as exc:  # noqa: BLE001 - injected failure
                done.put((ticket, index, {}, remote_error_text(exc),
                          time.perf_counter_ns() - start_ns, None))
                continue
            if action == "silent":
                if fault[0] == "crash":
                    return  # the thread vanishes without replying
                continue  # hang: stay silent for this job
            if action == "corrupt":
                done.put(("__corrupt__", index))
                continue
        try:
            if ctx is None:
                outputs = fn(inputs, weights, channels)
                done.put((ticket, index, outputs, None,
                          time.perf_counter_ns() - start_ns, None))
                continue
            if tracer is None:
                tracer = Tracer(capacity=_WORKER_TRACER_CAPACITY)
            channels_before = (telemetry.snapshot()
                               if telemetry is not None else None)
            queue_wait_ns = ctx.queue_wait_ns(received_ns)
            args = ctx.span_args({
                "cluster": str(index),
                "queue_wait_us": str(queue_wait_ns // 1000)})
            with tracer.span("worker.execute", cat="worker", args=args):
                outputs = fn(inputs, weights, channels)
            exec_ns = time.perf_counter_ns() - start_ns
            channel_delta = None
            if telemetry is not None:
                channel_delta = ChannelTelemetry.delta(
                    telemetry.snapshot(), channels_before)
            payload = _drain_worker_tracer(tracer, ctx, queue_wait_ns,
                                           channel_delta)
            done.put((ticket, index, outputs, None, exec_ns, payload))
        except BaseException as exc:  # noqa: BLE001 - serialize the failure
            done.put((ticket, index, {}, remote_error_text(exc),
                      time.perf_counter_ns() - start_ns, None))


class WarmExecutorPool:
    """Persistent per-cluster workers executing one generated module.

    Parameters
    ----------
    module:
        The generated parallel module (or a
        :class:`repro.codegen.module_writer.GeneratedModule` wrapper, or an
        :class:`repro.runtime.plan.ExecutionPlan`, which is adapted into a
        single-cluster module via ``as_cluster_module()``).
    weights:
        Initializer values (``model.graph.initializers``); captured once at
        pool construction and shared by every run.
    backend:
        ``"thread"`` (default) or ``"process"`` (requires ``fork``).
    tracer:
        Optional coordinator :class:`~repro.observability.Tracer`.  When
        given at construction, dispatch carries trace contexts, workers
        ship span buffers home, and (``"process"`` backend) the inherited
        channels are wrapped for byte/ns accounting.  May also be attached
        later via :meth:`set_tracer` (spans only, for the process backend).
    """

    def __init__(self, module, weights: Mapping[str, np.ndarray],
                 backend: str = "thread", tracer: Optional[Tracer] = None,
                 fail_grace_s: float = 2.0) -> None:
        as_cluster_module = getattr(module, "as_cluster_module", None)
        if as_cluster_module is not None:  # an ExecutionPlan
            module = as_cluster_module()
        module = getattr(module, "module", module)
        if backend not in ("thread", "process"):
            raise ValueError(f"unknown backend {backend!r}; use 'thread' or 'process'")
        self.module = module
        self.backend = backend
        self._weights = dict(weights)
        self._num_clusters = len(module.CLUSTER_FUNCTIONS)
        self._tickets = itertools.count(1)
        self._lock = threading.Lock()
        self._close_lock = threading.Lock()
        self._closed = False
        self._broken = False

        # -- resilience state ------------------------------------------
        #: once a worker failure arrives mid-collection, wait at most this
        #: long for straggler results before failing the run — a broken run
        #: should cost seconds, not the full batch timeout
        self._fail_grace_s = fail_grace_s
        #: (ticket, started_monotonic) of the run in flight, else None
        self._inflight: Optional[Tuple[int, float]] = None
        #: optional deterministic FaultInjector consulted per dispatch
        self._injector = None
        #: last time each worker produced any message (monotonic seconds)
        self._heartbeats: List[float] = [time.monotonic()] * self._num_clusters
        self._worker_respawns = [0] * self._num_clusters
        self._protocol_errors = 0

        # -- observability state ---------------------------------------
        self._tracer = tracer
        #: channel telemetry; for "process" it must exist before fork
        self._telemetry: Optional[ChannelTelemetry] = (
            ChannelTelemetry() if tracer is not None else None)
        #: aggregated channel counters shipped home by process workers
        self._channel_totals: Dict[str, int] = {}
        #: measured worker_clock - coordinator_clock per worker index
        self._clock_offsets: List[int] = [0] * self._num_clusters
        #: accumulated per-worker span tuples (+ identity and drops)
        self._worker_spans: List[deque] = [
            deque(maxlen=_WORKER_BUFFER_CAPACITY)
            for _ in range(self._num_clusters)]
        self._worker_drops: List[int] = [0] * self._num_clusters
        self._worker_ids: List[Optional[tuple]] = [None] * self._num_clusters
        #: run/timing counters surfaced by stats() and publish_metrics()
        self._runs = 0
        self._failures = 0
        self._restarts = 0
        self._occupancy = 0
        self._dispatch_ns = 0
        self._collect_wait_ns = 0
        self._worker_jobs = [0] * self._num_clusters
        self._worker_execute_ns = [0] * self._num_clusters
        self._worker_queue_wait_ns = [0] * self._num_clusters
        #: optional run-latency histograms, set by publish_metrics()
        self._run_histogram = None
        self._execute_histogram = None
        self._metrics_registries: list = []

        self._spawn()

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        """Create queues (+ channels for the process backend) and workers."""
        if self.backend == "thread":
            self._mp_ctx = None
            self._done: "queue.Queue" = queue.Queue()
            self._channels = None  # fresh thread channels per run
        else:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError as exc:  # pragma: no cover - non-POSIX platforms
                raise ParallelExecutionError(
                    "the warm process pool requires the 'fork' start method"
                ) from exc
            self._mp_ctx = ctx
            # Channels are created once and inherited at fork; every run
            # drains them completely, so they can be reused across runs.
            channels = make_process_channels(self.module.CHANNEL_NAMES, ctx=ctx)
            if self._telemetry is not None:
                channels = instrument_channels(channels, self._telemetry)
            self._channels = channels
            self._done = ctx.Queue()
        self._job_queues = [None] * self._num_clusters
        self._workers = [None] * self._num_clusters
        for index in range(self._num_clusters):
            self._job_queues[index], self._workers[index] = \
                self._make_worker(index)
        for worker in self._workers:
            worker.start()
        self._heartbeats = [time.monotonic()] * self._num_clusters
        self._sync_clocks()

    def _make_worker(self, index: int):
        """Build (job queue, unstarted worker) for one cluster index.

        A fresh job queue per (re)spawn keeps a replacement worker from
        inheriting stale jobs a dead or wedged predecessor never consumed.
        """
        fn = self.module.CLUSTER_FUNCTIONS[index]
        if self.backend == "thread":
            jobs, spawn, telemetry = queue.Queue(), threading.Thread, None
        else:
            jobs, spawn = self._mp_ctx.Queue(), self._mp_ctx.Process
            telemetry = self._telemetry
        worker = spawn(
            target=_worker_loop,
            args=(fn, self._weights, self._channels, jobs, self._done,
                  index, telemetry),
            daemon=True, name=f"warm-cluster-{index}")
        return jobs, worker

    def _sync_clocks(self, timeout: float = 60.0, rounds: int = 3,
                     indices: Optional[Sequence[int]] = None) -> None:
        """Measure each worker's clock offset with ping/pong handshakes.

        The coordinator records its clock, sends a sync message, and the
        worker replies with its own clock reading; the offset is taken
        against the midpoint of the round trip (the NTP estimator).
        Several rounds are run and the measurement with the smallest round
        trip wins — the first round's trip includes worker startup (fork,
        imports), which would bias the midpoint by milliseconds.  On fork
        platforms ``perf_counter_ns`` is machine-wide so the measured
        offset is the handshake noise floor, but the merge stays correct
        anywhere worker clocks genuinely diverge — and the handshake
        doubles as a worker liveness check at (re)spawn time.  With
        ``indices`` it syncs (and liveness-checks) only those workers —
        the single-worker respawn path.
        """
        targets = (list(range(self._num_clusters)) if indices is None
                   else sorted(set(indices)))
        best_rtt: Dict[int, Optional[int]] = {i: None for i in targets}
        deadline = time.monotonic() + timeout
        for _ in range(max(rounds, 1)):
            sent_ns: Dict[int, int] = {}
            for i in targets:
                sent_ns[i] = time.perf_counter_ns()
                self._job_queues[i].put((_SYNC, None))
            pending = set(targets)
            while pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._broken = True
                    raise ParallelExecutionError(
                        f"worker clock handshake for "
                        f"{self.module.MODEL_NAME!r} timed out after "
                        f"{timeout}s ({len(pending)}/{len(targets)} "
                        "workers silent)")
                try:
                    item = self._done.get(timeout=min(remaining, 0.5))
                except queue.Empty:
                    continue
                if not isinstance(item, tuple) or len(item) != 6:
                    self._protocol_errors += 1
                    continue  # corrupted straggler; the handshake goes on
                ticket, index, worker_ns, _, _, _ = item
                if isinstance(index, int) and 0 <= index < self._num_clusters:
                    self._note_heartbeat(index)
                if ticket == _PING:
                    continue  # liveness reply, not a handshake reply
                if ticket != _SYNC or index not in pending:
                    continue  # straggler of a pre-restart run
                reply_ns = time.perf_counter_ns()
                rtt = reply_ns - sent_ns[index]
                if best_rtt[index] is None or rtt < best_rtt[index]:
                    best_rtt[index] = rtt
                    self._clock_offsets[index] = int(
                        worker_ns - (sent_ns[index] + reply_ns) // 2)
                pending.discard(index)

    def restart(self, join_timeout: float = 2.0) -> None:
        """Tear down the workers and spawn a fresh set; clears ``broken``.

        Recovery after a timed-out or failed run: the compiled module and
        weights are reused, so a restart costs worker startup only — far
        cheaper than invalidating the artifact and recompiling.  Counted
        in ``stats()["restarts"]`` (and the ``pool_worker_restarts_total``
        registry metric).
        """
        with self._lock:
            if self._closed:
                raise ParallelExecutionError(
                    "cannot restart a closed warm executor pool")
            self._stop_workers(join_timeout)
            self._broken = False
            self._restarts += 1
            self._spawn()

    def _stop_workers(self, join_timeout: float) -> None:
        for jobs in self._job_queues:
            try:
                jobs.put(None)
            except Exception:  # noqa: BLE001 - queue already torn down
                pass
        deadline = time.monotonic() + join_timeout
        for worker in self._workers:
            worker.join(timeout=max(deadline - time.monotonic(), 0.0))
        if self.backend == "process":
            _reap_processes(self._workers, join_timeout)

    # ------------------------------------------------------------------
    # Supervision primitives (consumed by repro.resilience.PoolSupervisor)
    # ------------------------------------------------------------------
    def _note_heartbeat(self, index: int) -> None:
        if 0 <= index < self._num_clusters:
            self._heartbeats[index] = time.monotonic()

    def worker_alive(self, index: int) -> bool:
        """Whether worker ``index``'s thread/process is currently alive."""
        worker = self._workers[index]
        try:
            return worker is not None and worker.is_alive()
        except ValueError:  # a reaped (closed) process
            return False

    def heartbeat_age(self, index: int) -> float:
        """Seconds since worker ``index`` last produced any message."""
        return max(time.monotonic() - self._heartbeats[index], 0.0)

    def inflight(self) -> Optional[Tuple[int, float]]:
        """``(ticket, started_monotonic)`` of the run in flight, or None."""
        return self._inflight

    def set_fault_injector(self, injector) -> None:
        """Attach (or detach, with ``None``) a deterministic FaultInjector.

        When attached, every dispatched job consults
        ``injector.directive("worker.execute", worker=i)`` and ships the
        result in the job tuple's fault slot; detached dispatch ships
        ``None`` and the workers pay one ``is not None`` check (gated at
        parity in ``benchmarks/test_observability_overhead.py``).
        """
        self._injector = injector

    def ping_workers(self) -> None:
        """Enqueue a ``__ping__`` heartbeat ticket for every worker.

        A live worker replies on the done queue as soon as it drains its
        job queue; the reply refreshes its heartbeat wherever it is
        consumed (:meth:`_collect`, :meth:`_sync_clocks` or
        :meth:`poll_done`).  A wedged worker never replies — which is the
        signal the supervisor's hang detection keys on.
        """
        if self._closed:
            return
        for jobs in self._job_queues:
            try:
                jobs.put((_PING, None))
            except Exception:  # noqa: BLE001 - queue being torn down
                pass

    def poll_done(self, max_items: int = 64) -> int:
        """Drain ready done-queue messages while the pool is idle.

        Non-blocking (skips entirely if a run holds the pool lock):
        consumes up to ``max_items`` ready messages — ping/sync replies
        and stragglers of failed runs — recording heartbeats, so idle
        supervision does not grow the done queue without bound.  Returns
        the number of messages consumed.
        """
        if not self._lock.acquire(blocking=False):
            return 0
        try:
            consumed = 0
            while consumed < max_items:
                try:
                    item = self._done.get_nowait()
                except Exception:  # noqa: BLE001 - queue.Empty for both kinds
                    break
                consumed += 1
                if isinstance(item, tuple) and len(item) == 6 \
                        and isinstance(item[1], int):
                    self._note_heartbeat(item[1])
                else:
                    self._protocol_errors += 1
            return consumed
        finally:
            self._lock.release()

    def fail_inflight(self, index: int, reason: str) -> bool:
        """Fail the in-flight run on behalf of a dead or wedged worker.

        Posts a synthetic failure message carrying the current ticket to
        the done queue, so :meth:`_collect` surfaces the failure within
        the *fail grace* window instead of waiting out the full batch
        timeout.  Returns False when no run is in flight.  Lock-free by
        design: the caller (the supervisor) must work while :meth:`run`
        holds the pool lock.
        """
        inflight = self._inflight
        if inflight is None:
            return False
        ticket, _ = inflight
        self._done.put((ticket, index, {}, reason, 0, None))
        return True

    def respawn_worker(self, index: int, join_timeout: float = 2.0,
                       sync_timeout: float = 60.0) -> None:
        """Replace the single worker ``index`` with a fresh one.

        Unlike :meth:`restart` this keeps every healthy worker (and, for
        the process backend, the fork-inherited channels) in place: the
        failed worker is terminated/abandoned, a replacement is spawned
        over the same cluster function and weights with a *fresh* job
        queue, and a one-worker clock handshake re-measures its offset.
        Clears ``broken`` once every worker is alive again.  Counted in
        ``stats()["respawns"]`` (the full-restart counter is untouched).
        """
        with self._lock:
            if self._closed:
                raise ParallelExecutionError(
                    "cannot respawn a worker of a closed pool")
            self._respawn_locked(index, join_timeout, sync_timeout)
            if all(self.worker_alive(i) for i in range(self._num_clusters)):
                self._broken = False

    def _respawn_locked(self, index: int, join_timeout: float,
                        sync_timeout: float) -> None:
        old = self._workers[index]
        if (self.backend == "process" and self._channels
                and old is not None and old.is_alive()):
            # Terminating a live process worker can kill it while it holds
            # a shared channel-queue lock (a worker blocked in a channel
            # ``get`` holds that queue's reader lock), poisoning the
            # channel for every successor.  The only safe recovery that
            # involves force-terminating live workers is a full worker-set
            # respawn over *fresh* channels.
            self._respawn_all_locked(join_timeout, sync_timeout)
            return
        try:  # a healthy-but-abandoned worker exits on the sentinel
            self._job_queues[index].put(None)
        except Exception:  # noqa: BLE001 - queue already torn down
            pass
        if self.backend == "process":
            _reap_processes([old], join_timeout)
            # A mid-run death can strand items in the fork-inherited
            # channels; drain them so the next run starts from empty.
            self._drain_channels()
        # A wedged *thread* cannot be killed: it is abandoned (daemonic,
        # parked on the old job queue or a stale channel) and leaks until
        # its blocking call returns — the documented watchdog contract.
        jobs, worker = self._make_worker(index)
        self._job_queues[index] = jobs
        self._workers[index] = worker
        worker.start()
        self._note_heartbeat(index)
        self._worker_respawns[index] += 1
        self._sync_clocks(timeout=sync_timeout, indices=[index])

    def _respawn_all_locked(self, join_timeout: float,
                            sync_timeout: float) -> None:
        """Replace every process worker over fresh channels and done queue.

        The escalation path for process-backend heals that must terminate
        *live* (wedged) workers: a worker killed while blocked inside a
        channel ``get``/``put`` dies holding the queue's shared lock, so
        the inherited channels (and, in the worst race, the done queue)
        cannot be trusted afterwards.  Weights and the compiled module are
        still reused — this costs worker startup, never a recompile — and
        it is counted per worker in ``stats()["respawns"]``, not as a
        ``restart``.
        """
        for jobs in self._job_queues:
            try:
                jobs.put(None)
            except Exception:  # noqa: BLE001 - queue already torn down
                pass
        _reap_processes(self._workers, join_timeout)
        channels = make_process_channels(self.module.CHANNEL_NAMES,
                                         ctx=self._mp_ctx)
        if self._telemetry is not None:
            channels = instrument_channels(channels, self._telemetry)
        self._channels = channels
        self._done = self._mp_ctx.Queue()
        for index in range(self._num_clusters):
            jobs, worker = self._make_worker(index)
            self._job_queues[index] = jobs
            self._workers[index] = worker
            self._note_heartbeat(index)
            self._worker_respawns[index] += 1
        for worker in self._workers:
            worker.start()
        self._sync_clocks(timeout=sync_timeout)

    def _drain_channels(self) -> None:
        if not self._channels:
            return
        for channel in self._channels.values():
            inner = getattr(channel, "_channel", channel)
            for _ in range(100000):  # bounded: a stranded run's leftovers
                try:
                    inner.get_nowait()
                except Exception:  # noqa: BLE001 - Empty / closed queue
                    break

    def heal(self, wedged: Sequence[int] = (), join_timeout: float = 2.0,
             sync_timeout: float = 60.0) -> List[int]:
        """Respawn every dead worker (plus explicitly ``wedged`` ones).

        The supervisor's recovery entry point: detects nothing itself,
        just replaces the workers it is told about (and any it finds
        dead), then clears ``broken`` when the full complement is alive.
        Returns the respawned indices.
        """
        with self._lock:
            if self._closed:
                raise ParallelExecutionError("cannot heal a closed pool")
            targets = sorted(set(wedged) | {
                i for i in range(self._num_clusters)
                if not self.worker_alive(i)})
            if (self.backend == "process" and self._channels and targets
                    and any(self.worker_alive(i) for i in targets)):
                # Force-terminating live (wedged) process workers can
                # poison the shared channels (see _respawn_all_locked):
                # escalate once to a fresh-channel full respawn.
                self._respawn_all_locked(join_timeout, sync_timeout)
                targets = list(range(self._num_clusters))
            else:
                for index in targets:
                    self._respawn_locked(index, join_timeout, sync_timeout)
            if all(self.worker_alive(i) for i in range(self._num_clusters)):
                self._broken = False
            return targets

    # ------------------------------------------------------------------
    @property
    def num_clusters(self) -> int:
        """Number of persistent workers (one per cluster)."""
        return self._num_clusters

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    @property
    def broken(self) -> bool:
        """True once a run failed in a way that may leave workers wedged."""
        return self._broken

    # ------------------------------------------------------------------
    # Observability surface
    # ------------------------------------------------------------------
    @property
    def tracer(self) -> Optional[Tracer]:
        """The attached coordinator tracer, if any."""
        return self._tracer

    def set_tracer(self, tracer: Optional[Tracer]) -> None:
        """Attach (or detach, with ``None``) the coordinator tracer.

        Takes effect on the next run: dispatched jobs carry trace contexts
        and workers ship their span buffers home.  For the ``"thread"``
        backend this also enables channel byte/ns telemetry (fresh channels
        are wrapped per run); the ``"process"`` backend's channels were
        frozen at fork, so channel telemetry there requires the tracer at
        construction time — spans and timings still work.
        """
        self._tracer = tracer
        if (tracer is not None and self._telemetry is None
                and self.backend == "thread"):
            self._telemetry = ChannelTelemetry()

    def clock_offsets(self) -> List[int]:
        """Measured per-worker clock offsets (worker - coordinator), ns."""
        return list(self._clock_offsets)

    def worker_trace_buffers(self) -> List[WorkerTraceBuffer]:
        """The accumulated per-worker span buffers, ready for merging.

        Each buffer carries the worker's real pid/tid, its handshake clock
        offset and its drop count (worker-ring drops plus coordinator-side
        evictions past the per-worker cap).  Feed the result — together
        with the coordinator tracer — to
        :func:`repro.observability.merge.merge_traces`.
        """
        buffers: List[WorkerTraceBuffer] = []
        with self._lock:
            for index in range(self._num_clusters):
                identity = self._worker_ids[index]
                if not self._worker_spans[index] and not self._worker_drops[index]:
                    continue  # nothing traced for this worker (yet)
                pid, tid = identity if identity else (os.getpid(), 0)
                buffers.append(WorkerTraceBuffer(
                    worker=f"cluster-{index}", pid=pid, tid=tid,
                    events=list(self._worker_spans[index]),
                    dropped=self._worker_drops[index],
                    clock_offset_ns=self._clock_offsets[index]))
        return buffers

    def clear_worker_traces(self) -> None:
        """Drop the accumulated worker spans and their drop counts."""
        with self._lock:
            for spans in self._worker_spans:
                spans.clear()
            self._worker_drops = [0] * self._num_clusters

    def _ingest_trace_payload(self, index: int, payload: Dict) -> None:
        """Fold one shipped worker buffer into the per-worker accumulators.

        Called from ``_collect`` (under the run lock).  Eviction past the
        per-worker cap is counted as coordinator-side drops so a truncated
        lane stays accounted, not silently sparse.
        """
        spans = self._worker_spans[index]
        evicted = max(len(spans) + len(payload["spans"]) - spans.maxlen, 0)
        spans.extend(payload["spans"])
        self._worker_drops[index] += payload["dropped"] + min(
            evicted, len(payload["spans"]))
        self._worker_ids[index] = (payload["pid"], payload["tid"])
        self._worker_queue_wait_ns[index] += payload["queue_wait_ns"]
        delta = payload.get("channels")
        if delta:
            for key, value in delta.items():
                self._channel_totals[key] = (
                    self._channel_totals.get(key, 0) + value)

    def stats(self) -> Dict:
        """Run, timing, channel and trace counters for this pool."""
        channels = None
        if self.backend == "thread" and self._telemetry is not None:
            channels = self._telemetry.snapshot()
        elif self._channel_totals:
            channels = dict(self._channel_totals)
        return {
            "backend": self.backend,
            "clusters": self._num_clusters,
            "runs": self._runs,
            "failures": self._failures,
            "restarts": self._restarts,
            "respawns": sum(self._worker_respawns),
            "protocol_errors": self._protocol_errors,
            "occupancy": self._occupancy,
            "dispatch_ns_total": self._dispatch_ns,
            "collect_wait_ns_total": self._collect_wait_ns,
            "execute_ns_total": sum(self._worker_execute_ns),
            "workers": [
                {"worker": index,
                 "jobs": self._worker_jobs[index],
                 "alive": self.worker_alive(index),
                 "respawns": self._worker_respawns[index],
                 "heartbeat_age_s": self.heartbeat_age(index),
                 "execute_ns_total": self._worker_execute_ns[index],
                 "queue_wait_ns_total": self._worker_queue_wait_ns[index],
                 "spans_buffered": len(self._worker_spans[index]),
                 "spans_dropped": self._worker_drops[index],
                 "clock_offset_ns": self._clock_offsets[index]}
                for index in range(self._num_clusters)],
            "channels": channels,
        }

    def publish_metrics(self, registry,
                        labels: Optional[Mapping[str, str]] = None) -> None:
        """Mirror the pool's counters into a ``MetricsRegistry``.

        Registers a pull-style collector refreshing run/failure/restart
        totals, occupancy, dispatch/execute/queue-wait time totals and the
        channel byte/ns counters before every snapshot, plus per-worker
        job/execute series labelled ``worker="<index>"`` — so one registry
        snapshot covers the plan, serving and worker layers together.
        Also creates ``pool_run_seconds`` / ``pool_worker_execute_seconds``
        histograms the pool observes into at run time.
        """
        labels = dict(labels) if labels else {}
        gauge = registry.gauge
        self._run_histogram = registry.histogram(
            "pool_run_seconds", "Warm-pool run wall time", labels=labels)
        self._execute_histogram = registry.histogram(
            "pool_worker_execute_seconds",
            "Per-worker cluster execute time", labels=labels)

        def collect(_registry) -> None:
            stats = self.stats()
            gauge("pool_runs_total", "Completed warm-pool runs",
                  labels=labels).set(stats["runs"])
            gauge("pool_failures_total", "Failed or timed-out pool runs",
                  labels=labels).set(stats["failures"])
            gauge("pool_worker_restarts_total",
                  "Times the pool's workers were restarted",
                  labels=labels).set(stats["restarts"])
            gauge("pool_worker_respawns_total",
                  "Single workers replaced by supervision (no full restart)",
                  labels=labels).set(stats["respawns"])
            gauge("pool_protocol_errors_total",
                  "Malformed result-channel messages observed",
                  labels=labels).set(stats["protocol_errors"])
            gauge("pool_workers_alive",
                  "Workers whose thread/process is currently alive",
                  labels=labels).set(
                      sum(1 for row in stats["workers"] if row["alive"]))
            gauge("pool_occupancy", "Runs currently executing (0 or 1)",
                  labels=labels).set(stats["occupancy"])
            gauge("pool_dispatch_seconds_total",
                  "Cumulative job-dispatch time",
                  labels=labels).set(stats["dispatch_ns_total"] / 1e9)
            gauge("pool_collect_wait_seconds_total",
                  "Cumulative result-collection wait",
                  labels=labels).set(stats["collect_wait_ns_total"] / 1e9)
            gauge("pool_execute_seconds_total",
                  "Cumulative worker execute time (all workers)",
                  labels=labels).set(stats["execute_ns_total"] / 1e9)
            for row in stats["workers"]:
                worker_labels = dict(labels, worker=str(row["worker"]))
                gauge("pool_worker_jobs_total", "Jobs executed by a worker",
                      labels=worker_labels).set(row["jobs"])
                gauge("pool_worker_queue_wait_seconds_total",
                      "Cumulative dispatch-to-receive wait of a worker",
                      labels=worker_labels).set(
                          row["queue_wait_ns_total"] / 1e9)
                gauge("pool_worker_spans_dropped_total",
                      "Worker trace spans lost to ring/cap drops",
                      labels=worker_labels).set(row["spans_dropped"])
            channels = stats["channels"]
            if channels:
                gauge("pool_channel_puts_total", "Channel put calls",
                      labels=labels).set(channels["puts"])
                gauge("pool_channel_gets_total", "Channel get calls",
                      labels=labels).set(channels["gets"])
                gauge("pool_channel_put_bytes_total",
                      "Payload bytes moved into channels",
                      labels=labels).set(channels["put_bytes"])
                gauge("pool_channel_get_bytes_total",
                      "Payload bytes moved out of channels",
                      labels=labels).set(channels["get_bytes"])
                gauge("pool_channel_put_seconds_total",
                      "Cumulative producer-side channel hand-off time",
                      labels=labels).set(channels["put_ns"] / 1e9)
                gauge("pool_channel_get_seconds_total",
                      "Cumulative consumer-side channel hand-off time",
                      labels=labels).set(channels["get_ns"] / 1e9)

        registry.register_collector(collect)
        self._metrics_registries.append((registry, collect))

    # ------------------------------------------------------------------
    def run(self, inputs: Mapping[str, np.ndarray],
            timeout: float = 300.0) -> Dict[str, np.ndarray]:
        """Execute the module once and return its graph outputs.

        Runs are serialized: the pool owns exactly one set of workers, so a
        second concurrent ``run`` blocks until the first finishes.
        """
        with self._lock:
            if self._closed:
                raise ParallelExecutionError("warm executor pool is closed")
            if self._broken:
                raise ParallelExecutionError(
                    "warm executor pool is broken after an earlier failure; "
                    "restart() it or compile a fresh one")
            ticket = next(self._tickets)
            feed = dict(inputs)
            tracer = self._tracer
            ctx = TraceContext.from_tracer(tracer, parent_span="pool.run")
            injector = self._injector
            faults = None
            if injector is not None:
                faults = [injector.directive("worker.execute", worker=i)
                          for i in range(self._num_clusters)]
            self._occupancy = 1
            self._inflight = (ticket, time.monotonic())
            run_start_ns = time.perf_counter_ns()
            try:
                channels = None  # process workers use their inherited ones
                if self.backend == "thread":
                    channels = make_thread_channels(self.module.CHANNEL_NAMES)
                    if ctx is not None and self._telemetry is not None:
                        channels = instrument_channels(channels,
                                                       self._telemetry)
                for i, jobs in enumerate(self._job_queues):
                    jobs.put((ticket, feed, channels, ctx,
                              faults[i] if faults is not None else None))
                dispatch_ns = time.perf_counter_ns() - run_start_ns
                self._dispatch_ns += dispatch_ns
                outputs = self._collect(ticket, timeout)
                self._runs += 1
                return outputs
            except BaseException:
                self._failures += 1
                raise
            finally:
                self._occupancy = 0
                self._inflight = None
                end_ns = time.perf_counter_ns()
                if self._run_histogram is not None:
                    self._run_histogram.observe((end_ns - run_start_ns) / 1e9)
                if tracer is not None:
                    args = {"model": self.module.MODEL_NAME,
                            "backend": self.backend}
                    if ctx is not None:
                        args["trace_id"] = str(ctx.trace_id)
                    tracer.emit("pool.run", "pool", run_start_ns, end_ns,
                                args=args)

    def _collect(self, ticket: int, timeout: float) -> Dict[str, np.ndarray]:
        merged: Dict[str, np.ndarray] = {}
        failures: List[str] = []
        pending = self._num_clusters
        deadline = time.monotonic() + timeout
        wait_start_ns = time.perf_counter_ns()
        while pending > 0:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._broken = True
                self._collect_wait_ns += time.perf_counter_ns() - wait_start_ns
                if failures:
                    # a worker already failed; the others are presumed
                    # stranded — surface the real failure, not a timeout
                    raise ParallelExecutionError("; ".join(failures))
                raise ParallelExecutionError(
                    f"warm execution of {self.module.MODEL_NAME!r} timed out "
                    f"after {timeout}s (possible deadlock)")
            try:
                item = self._done.get(timeout=min(remaining, 0.5))
            except queue.Empty:
                continue
            if not isinstance(item, tuple) or len(item) != 6:
                # a malformed result-channel message cannot be attributed
                # to a worker, so the run cannot complete: fail fast
                self._protocol_errors += 1
                self._broken = True
                self._collect_wait_ns += time.perf_counter_ns() - wait_start_ns
                raise ParallelExecutionError(
                    f"corrupted result-channel message during warm run of "
                    f"{self.module.MODEL_NAME!r}: {item!r:.200}")
            got_ticket, index, outputs, error, exec_ns, payload = item
            if isinstance(index, int):
                self._note_heartbeat(index)
            if got_ticket == _SYNC or got_ticket == _PING:
                continue  # liveness/handshake reply; heartbeat noted above
            if got_ticket != ticket:
                continue  # straggler of an earlier, failed run
            pending -= 1
            self._worker_jobs[index] += 1
            self._worker_execute_ns[index] += exec_ns
            if self._execute_histogram is not None:
                self._execute_histogram.observe(exec_ns / 1e9)
            if payload is not None:
                self._ingest_trace_payload(index, payload)
            if error is not None:
                failures.append(f"cluster {index}: {error}")
                # once one worker failed, its peers may be stranded on
                # channels that will never fill: collect stragglers for a
                # short grace window, then fail the run
                deadline = min(deadline,
                               time.monotonic() + self._fail_grace_s)
            else:
                merged.update(outputs)
        self._collect_wait_ns += time.perf_counter_ns() - wait_start_ns
        if failures:
            self._broken = True
            raise ParallelExecutionError("; ".join(failures))
        missing = [name for name in self.module.GRAPH_OUTPUTS if name not in merged]
        if missing:
            self._broken = True
            raise ParallelExecutionError(
                f"warm run of {self.module.MODEL_NAME!r} did not produce "
                f"outputs: {missing}")
        return {name: merged[name] for name in self.module.GRAPH_OUTPUTS}

    # ------------------------------------------------------------------
    def close(self, join_timeout: float = 2.0) -> None:
        """Stop all workers; idempotent.

        Deliberately does not take the run lock: a close racing an
        in-flight ``run`` (e.g. LRU eviction on another thread's submit
        path) must not block for up to the run timeout.  Workers finish
        their current job before seeing the sentinel.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for registry, collect in self._metrics_registries:
            registry.unregister_collector(collect)
        self._metrics_registries.clear()
        self._stop_workers(join_timeout)

    def __enter__(self) -> "WarmExecutorPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
