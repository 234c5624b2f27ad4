"""Execution drivers for Ramiel-generated parallel modules.

The paper runs each cluster as a separate Python *process* (to sidestep the
GIL) communicating through bi-directional queues.  There is one
cluster-worker protocol in this package, owned by
:class:`~repro.runtime.worker_pool.WarmExecutorPool`;
:func:`execute_generated_module` runs it with a one-shot lifetime: it
opens a pool over the module (one thread or forked process per cluster),
runs it once and closes it, reaping every worker.  One-shot calls are
therefore supervised, traced and fault-injectable exactly like warm
pools.

Every driver takes the generated module (or anything exposing
``CLUSTER_FUNCTIONS``, ``CHANNEL_NAMES`` and ``GRAPH_OUTPUTS``), a graph
input feed and the model weights, and returns the graph outputs.

With a ``tracer`` attached, every cluster worker records its
``worker.execute`` span in a local :class:`~repro.observability.Tracer`
against its real pid/tid and ships the buffer home; the coordinator
records ``pool.run``.  Shipped buffers land in the caller-supplied
``collector`` list as
:class:`~repro.observability.merge.WorkerTraceBuffer`\\ s carrying the
clock offsets the pool's startup handshake measured, ready for
:func:`repro.observability.merge.merge_traces`.
"""

from __future__ import annotations

import time
import traceback
from typing import Dict, Mapping, Optional, Tuple

import numpy as np


class ParallelExecutionError(RuntimeError):
    """Raised when a cluster worker fails or the run times out."""


def remote_error_text(exc: BaseException) -> str:
    """Serialize a worker-side failure as repr **plus** its traceback text.

    Exceptions cannot cross the process boundary with their traceback
    objects attached, so workers ship this string instead of a bare
    ``repr(exc)`` — the coordinator's :class:`ParallelExecutionError`
    message then points at the worker-side frame that actually raised,
    not just the exception type.
    """
    return "%r\nRemote traceback:\n%s" % (exc, traceback.format_exc())


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------
def execute_generated_module(
    module,
    inputs: Mapping[str, np.ndarray],
    weights: Mapping[str, np.ndarray],
    backend: str = "thread",
    timeout: float = 300.0,
    *,
    tracer=None,
    collector: Optional[list] = None,
) -> Dict[str, np.ndarray]:
    """Execute a generated parallel module once and return its graph outputs.

    Runs a :class:`~repro.runtime.worker_pool.WarmExecutorPool` with a
    one-shot lifetime: the workers are spawned, clock-synced, run the
    module once and are stopped (process workers are joined and closed,
    also after a failure or timeout).

    Parameters
    ----------
    module:
        The generated module (or :class:`repro.codegen.module_writer.GeneratedModule`).
    inputs / weights:
        Graph-input feed and initializer values (``model.graph.initializers``).
    backend:
        ``"process"`` — one Python process per cluster (the paper's runtime);
        ``"thread"`` — one thread per cluster (numpy releases the GIL in BLAS).
    timeout:
        Watchdog in seconds; a deadlock (which a correct clustering cannot
        produce) surfaces as :class:`ParallelExecutionError` instead of a hang.
    tracer:
        Optional coordinator :class:`~repro.observability.Tracer`.  When
        given, a trace context is propagated to every worker and the
        coordinator records a ``pool.run`` span around the run.
    collector:
        Optional list to which per-worker
        :class:`~repro.observability.merge.WorkerTraceBuffer`\\ s are
        appended (requires ``tracer``), also when the run fails.
    """
    # worker_pool imports this module's error helpers: import it lazily
    from repro.runtime.worker_pool import WarmExecutorPool

    with WarmExecutorPool(module, weights, backend=backend,
                          tracer=tracer) as pool:
        try:
            return pool.run(inputs, timeout)
        finally:
            if collector is not None:
                collector.extend(pool.worker_trace_buffers())


def run_sequential_module(
    module,
    inputs: Mapping[str, np.ndarray],
    weights: Mapping[str, np.ndarray],
) -> Dict[str, np.ndarray]:
    """Execute a generated sequential module (single function call)."""
    module = getattr(module, "module", module)
    return module.run(dict(inputs), dict(weights))


def time_callable(fn, repeats: int = 3, warmup: int = 1) -> Tuple[float, object]:
    """Median wall-clock time of ``fn()`` over ``repeats`` runs (plus last result)."""
    result = None
    for _ in range(max(warmup, 0)):
        result = fn()
    samples = []
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2], result
