"""Reference interpreter for IR graphs.

:class:`GraphExecutor` executes a model node-by-node in topological order.
It is a thin loop over the operator table of :mod:`repro.runtime.opspec`:
each node's spec is resolved on every call (attributes parsed, inputs taken
by ONNX position) and its :mod:`repro.runtime.functional` kernel runs on
the node's input values.  It serves three purposes in the reproduction:

1. ground truth that Ramiel-generated sequential and parallel code is
   compared against in the tests,
2. the evaluation engine behind constant folding
   (:mod:`repro.passes.constant_folding`), and
3. the measurement probe used by :mod:`repro.runtime.profiler` to obtain
   per-op execution times for the schedule simulator.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.graph.traversal import topological_sort_nodes
from repro.ir.model import Graph, Model
from repro.ir.node import OpNode
from repro.runtime.opspec import SPECS, ExecutionError, run_node

__all__ = ["ExecutionError", "GraphExecutor", "execute_model", "supported_ops"]


def supported_ops() -> List[str]:
    """Operator types the executor can run."""
    return sorted(SPECS)


class GraphExecutor:
    """Execute an IR model with the numpy runtime.

    Parameters
    ----------
    model:
        An IR :class:`Model` or bare :class:`Graph`.
    check_supported:
        When True (default), raise immediately for ops with no handler so
        errors surface at construction rather than mid-run.
    """

    def __init__(self, model, check_supported: bool = True) -> None:
        self.graph: Graph = model.graph if isinstance(model, Model) else model
        self._order = topological_sort_nodes(self.graph)
        if check_supported:
            missing = sorted({n.op_type for n in self._order} - set(SPECS))
            if missing:
                raise ExecutionError(f"no handlers for ops: {missing}")

    # ------------------------------------------------------------------
    def run(
        self,
        inputs: Mapping[str, np.ndarray],
        outputs: Optional[Sequence[str]] = None,
        trace_hook: Optional[Callable[[OpNode, float], None]] = None,
    ) -> Dict[str, np.ndarray]:
        """Run the graph and return the requested outputs (graph outputs by default).

        Parameters
        ----------
        inputs:
            Mapping of graph-input name to numpy array.
        outputs:
            Names of values to return; defaults to the graph outputs.
        trace_hook:
            Optional callable invoked as ``trace_hook(node, seconds)`` after
            each node (used by the profiler).
        """
        values: Dict[str, np.ndarray] = {}
        for name, array in self.graph.initializers.items():
            values[name] = array
        for name in self.graph.input_names:
            if name not in inputs:
                raise ExecutionError(f"missing graph input {name!r}")
        for name, array in inputs.items():
            values[name] = np.asarray(array)

        for node in self._order:
            try:
                args = [values[name] for name in node.present_inputs]
            except KeyError as exc:
                raise ExecutionError(
                    f"node {node.name} ({node.op_type}) requires value {exc} "
                    "which has not been computed"
                ) from exc
            # Timing is only measured when a trace hook is attached; the
            # untraced hot path skips both perf_counter() calls per node.
            start = time.perf_counter() if trace_hook is not None else 0.0
            try:
                results = run_node(node, args)
            except ExecutionError:
                raise
            except Exception as exc:  # noqa: BLE001 - augment with node context
                raise ExecutionError(
                    f"execution of node {node.name} ({node.op_type}) failed: {exc}"
                ) from exc
            if trace_hook is not None:
                trace_hook(node, time.perf_counter() - start)
            for name, value in zip(node.outputs, results):
                if name:
                    values[name] = value

        wanted = list(outputs) if outputs is not None else self.graph.output_names
        missing = [name for name in wanted if name not in values]
        if missing:
            raise ExecutionError(f"requested outputs never produced: {missing}")
        return {name: values[name] for name in wanted}


def execute_model(model, inputs: Mapping[str, np.ndarray],
                  outputs: Optional[Sequence[str]] = None) -> Dict[str, np.ndarray]:
    """One-shot convenience wrapper around :class:`GraphExecutor`."""
    return GraphExecutor(model).run(inputs, outputs=outputs)
