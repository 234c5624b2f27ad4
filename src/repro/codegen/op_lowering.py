"""Per-operator lowering to readable Python calls.

This is the code-generation reader of the operator table in
:mod:`repro.runtime.opspec` (the paper's
``GeneratePytorchCodeForOperandType``): each IR node is resolved against
its :class:`~repro.runtime.opspec.OpSpec` — the same resolution the
interpreter and the execution plan run — and rendered as one
``F.<kernel>(args, key=literal, ...)`` call into
:mod:`repro.runtime.functional`.  Inputs are passed by ONNX position, so an
absent optional input renders as ``None``, and an input-supplied value
renders with the same conversion the runtime applies.  Only the few
operators whose code is not a plain kernel call (Constant, Dropout,
Identity, Range, NonZero) have hand-written renders.

The generated text is meant to be *read* — attribute values are rendered as
plain literals, one statement per node, with the original node name
recoverable from the SSA variable names.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.ir.node import OpNode
from repro.runtime.opspec import SPECS, Call, ExecutionError, Pack, Ref


class LoweringError(NotImplementedError):
    """Raised when an operator has no code-generation rule."""


def _literal(value) -> str:
    """Render an attribute value as a Python literal."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    if isinstance(value, np.ndarray):
        flat = value.ravel().tolist()
        if value.size == 1:
            return f"np.float32({flat[0]!r})" if value.dtype.kind == "f" else repr(flat[0])
        return (f"np.array({flat!r}, dtype=np.{value.dtype.name})"
                + (f".reshape({list(value.shape)!r})" if value.ndim > 1 else ""))
    if isinstance(value, (list, tuple)):
        return repr(list(value))
    raise LoweringError(f"cannot render attribute value {value!r} as a literal")


def _expr(item, inputs: Sequence[Optional[str]]) -> str:
    if type(item) is Ref:
        expr = inputs[item.index]
        return expr if item.convert is None else item.convert.template.format(expr)
    if type(item) is Pack:
        exprs = ", ".join(inputs[ref.index] for ref in item.refs)
        return exprs if item.spread else f"[{exprs}]"
    return _literal(item)


def _arguments(call: Call, inputs: Sequence[Optional[str]]) -> str:
    return ", ".join([_expr(a, inputs) for a in call.args]
                     + [f"{key}={_expr(value, inputs)}"
                        for key, value in call.kwargs.items()])


_Render = Callable[[Call, Sequence[Optional[str]], List[str]], List[str]]


def _render_dropout(call: Call, inputs, outputs: List[str]) -> List[str]:
    stmts = [f"{outputs[0]} = np.asarray({inputs[0]})  # inference-mode dropout is a no-op"]
    if len(outputs) > 1 and outputs[1] != "_":
        stmts.append(f"{outputs[1]} = np.ones_like({outputs[0]}, dtype=bool)")
    return stmts


_HAND_WRITTEN: Dict[str, _Render] = {
    "Constant": lambda call, inputs, outputs: [f"{outputs[0]} = {_literal(call.args[0])}"],
    "Dropout": _render_dropout,
    "Identity": lambda call, inputs, outputs: [
        f"{outputs[0]} = np.asarray({_arguments(call, inputs)})"],
    "Range": lambda call, inputs, outputs: [
        f"{outputs[0]} = np.arange({_arguments(call, inputs)})"],
    "NonZero": lambda call, inputs, outputs: [
        f"{outputs[0]} = np.asarray(np.nonzero({inputs[0]}), dtype=np.int64)"],
}


def supported_ops() -> List[str]:
    """Operators with a code-generation rule."""
    return sorted(SPECS)


def lower_node(node: OpNode, input_exprs: Sequence[Optional[str]],
               output_vars: Sequence[Optional[str]]) -> List[str]:
    """Lower one node to Python statements assigning ``output_vars``.

    ``input_exprs`` and ``output_vars`` follow the node's ONNX positions;
    absent optional inputs and outputs are ``None`` (or ``""``).
    """
    spec = SPECS.get(node.op_type)
    if spec is None:
        raise LoweringError(f"no lowering rule for operator {node.op_type!r} "
                            f"(node {node.name})")
    try:
        call = spec.resolve(node)
    except ExecutionError as exc:
        raise LoweringError(str(exc)) from exc
    outputs = [var or "_" for var in output_vars]
    render = _HAND_WRITTEN.get(node.op_type)
    if render is not None:
        return render(call, input_exprs, outputs)
    source = f"F.{spec.kernel}({_arguments(call, input_exprs)})"
    if spec.outputs == 1:
        return [f"{outputs[0]} = {source}"]
    targets = outputs + ["_"] * ((spec.outputs or 0) - len(outputs))
    return [f"{', '.join(targets)}{',' if len(targets) == 1 else ''} = {source}"]
