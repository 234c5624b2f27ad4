"""One operator table: what every supported operator computes, written once.

Each :class:`OpSpec` describes how an IR node maps onto one kernel of
:mod:`repro.runtime.functional`:

* the kernel it calls;
* the kernel's positional and keyword arguments, resolved from the node:
  ONNX attribute defaults become literal keyword values, inputs are taken
  by ONNX position (an absent optional input is ``None``), and a value that
  may come from either an attribute or an input (Split sizes, Pad value,
  Reshape target, reduce axes, ...) is declared once with
  :func:`attr_or_input`;
* its destination capability ``out``: :data:`TAIL` (an exact single-ufunc
  ``out=``, fusable in place onto a producer's buffer), :data:`HEAVY`
  (conv / GEMM / pooling ``out=``, plus ``workspace=`` scratch when
  ``workspace`` is set) or :data:`OUTPUT` (``out=`` on the final store
  only, used for graph-output destinations);
* ``alias``: whether its output may share memory with its first input (or,
  for Constant, with the node's attribute value).

Three consumers read :data:`SPECS` and nothing else:
:class:`~repro.runtime.executor.GraphExecutor` resolves a node per call,
:class:`~repro.runtime.plan.ExecutionPlan` binds each node once into a
closure, and :mod:`repro.codegen.op_lowering` renders the same resolved
arguments as ``F.<kernel>(args, key=literal, ...)``.  Node attributes are
parsed only in this module, so an operator fix or a new kernel lands here
once and all three paths pick it up.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

import repro.runtime.functional as F
from repro.ir.node import OpNode

__all__ = [
    "ExecutionError", "OpSpec", "SPECS", "TAIL", "HEAVY", "OUTPUT",
    "Convert", "Ref", "Pack", "Call", "attr", "attr_or_input",
    "spec_of", "bind", "run_node",
]


class ExecutionError(RuntimeError):
    """Raised when a node cannot be executed."""


TAIL = "tail"
HEAVY = "heavy"
OUTPUT = "output"


class Convert(NamedTuple):
    """A run-time conversion of an input value and its generated-code form."""

    fn: Callable[[Any], Any]
    #: format string applied to the input's expression
    template: str


INTS = Convert(lambda v: [int(i) for i in np.atleast_1d(v)],
               "[int(v) for v in np.atleast_1d({})]")
INT = Convert(lambda v: int(np.asarray(v)), "int(np.asarray({}))")
FIRST_INT = Convert(lambda v: int(np.atleast_1d(v)[0]), "int(np.atleast_1d({})[0])")
FLOAT = Convert(lambda v: float(np.asarray(v)), "float(np.asarray({}))")
ITEM = Convert(lambda v: np.asarray(v).item(), "np.asarray({}).item()")


class Ref(NamedTuple):
    """The node input at ONNX position ``index``, optionally converted."""

    index: int
    convert: Optional[Convert] = None


class Pack(NamedTuple):
    """All present inputs: one list argument, or ``spread`` as positionals."""

    refs: Tuple[Ref, ...]
    spread: bool = False


class Call(NamedTuple):
    """A node resolved against its spec: kernel arguments, attributes parsed.

    Each argument is a :class:`Ref`, a :class:`Pack` or a literal value;
    keyword arguments that resolve to ``None`` are left to the kernel's
    default and do not appear in ``kwargs``.
    """

    args: List[Any]
    kwargs: Dict[str, Any]


Resolver = Callable[[OpNode], Any]


def _present(node: OpNode, index: int) -> bool:
    return index < len(node.inputs) and bool(node.inputs[index])


def attr(name: str, default: Any = None, cast: Optional[Callable] = None) -> Resolver:
    """Attribute ``name`` (``default`` when unset), cast at resolve time."""
    def resolve(node: OpNode) -> Any:
        value = node.get_attr(name, default)
        return value if cast is None or value is None else cast(value)
    return resolve


def attr_or_input(name: Optional[str], index: int,
                  convert: Optional[Convert] = None, default: Any = None) -> Resolver:
    """Attribute ``name`` when set, else the input at ``index``, else ``default``.

    ``convert`` applies to the value either way: to the attribute once at
    resolve time, to the input on every run (and in generated code).
    """
    def resolve(node: OpNode) -> Any:
        value = None if name is None else node.get_attr(name)
        if value is not None:
            return value if convert is None else convert.fn(value)
        if _present(node, index):
            return Ref(index, convert)
        return default
    return resolve


def _all_inputs(spread: bool) -> Resolver:
    return lambda node: Pack(tuple(Ref(i) for i, name in enumerate(node.inputs)
                                   if name), spread)


def _split_parts(node: OpNode) -> Optional[int]:
    """Split into one equal part per output unless sizes are given."""
    if node.get_attr("split") is not None or _present(node, 1):
        return None
    return len([o for o in node.outputs if o])


def _constant_value(node: OpNode) -> np.ndarray:
    value = node.get_attr("value")
    if value is None:
        raise ExecutionError(f"Constant node {node.name} has no value attribute")
    return np.asarray(value)


def _dropout(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x)
    return x, np.ones_like(x, dtype=bool)


def _nonzero(x: np.ndarray) -> np.ndarray:
    return np.asarray(np.nonzero(x), dtype=np.int64)


class OpSpec:
    """How one operator type maps onto its kernel (see the module docstring).

    ``args`` entries are resolvers, or ints naming an input's ONNX
    position; ``kwargs`` values are resolvers or literals.  ``outputs`` is
    the number of values the kernel returns (``None``: one per node
    output); with more than one, the kernel returns a sequence.  ``fn``
    replaces the functional kernel for the few operators whose generated
    code is not a plain ``F.<kernel>(...)`` call (``kernel`` is then None).
    """

    __slots__ = ("op_type", "kernel", "fn", "args", "kwargs", "out",
                 "workspace", "alias", "outputs")

    def __init__(self, op_type: str, kernel: Optional[str], args: Sequence,
                 kwargs: Optional[Dict[str, Any]] = None,
                 out: Optional[str] = None, workspace: bool = False,
                 alias: bool = False, outputs: Optional[int] = 1,
                 fn: Optional[Callable] = None) -> None:
        self.op_type = op_type
        self.kernel = kernel
        self.fn = fn if fn is not None else getattr(F, kernel)
        self.args = tuple(attr_or_input(None, a) if isinstance(a, int) else a
                          for a in args)
        self.kwargs = {key: value if callable(value) else (lambda node, v=value: v)
                       for key, value in (kwargs or {}).items()}
        self.out = out
        self.workspace = workspace
        self.alias = alias
        self.outputs = outputs

    def resolve(self, node: OpNode) -> Call:
        """Parse ``node``'s attributes into this kernel's arguments."""
        kwargs = {}
        for key, resolver in self.kwargs.items():
            value = resolver(node)
            if value is not None:
                kwargs[key] = value
        return Call([resolver(node) for resolver in self.args], kwargs)


SPECS: Dict[str, OpSpec] = {}


def _add(op_type: str, kernel: Optional[str], /, *args, out: Optional[str] = None,
         workspace: bool = False, alias: bool = False, outputs: Optional[int] = 1,
         fn: Optional[Callable] = None, **kwargs) -> None:
    """Register a spec; ``args`` default to the first input alone."""
    SPECS[op_type] = OpSpec(op_type, kernel, args or (0,), kwargs, out=out,
                            workspace=workspace, alias=alias, outputs=outputs, fn=fn)


_STRIDES = attr("strides", (1, 1))
_PADS = attr("pads", (0, 0, 0, 0))
_EPSILON = attr("epsilon", 1e-5, float)
_KEEPDIMS = attr("keepdims", 1, bool)

# -- convolution / pooling / linear algebra ----------------------------------
_add("Conv", "conv2d", 0, 1, 2, strides=_STRIDES, pads=_PADS,
     dilations=attr("dilations", (1, 1)), group=attr("group", 1, int),
     out=HEAVY, workspace=True)
_add("ConvTranspose", "conv_transpose2d", 0, 1, 2, strides=_STRIDES, pads=_PADS,
     output_padding=attr("output_padding", (0, 0)),
     group=attr("group", 1, int), out=HEAVY, workspace=True)
_POOL = dict(kernel=attr("kernel_shape", (1, 1)), strides=_STRIDES, pads=_PADS,
             ceil_mode=attr("ceil_mode", 0, bool))
_add("MaxPool", "max_pool2d", **_POOL, out=HEAVY, workspace=True)
# count_include_pad is always passed (ONNX default 0), so generated code does
# not depend on the functional kernel's default.
_add("AveragePool", "avg_pool2d", **_POOL,
     count_include_pad=attr("count_include_pad", 0, bool), out=HEAVY, workspace=True)
_add("GlobalAveragePool", "global_avg_pool2d")
_add("GlobalMaxPool", "global_max_pool2d")
_add("MatMul", "matmul", 0, 1, out=HEAVY)
_add("Gemm", "gemm", 0, 1, 2, alpha=attr("alpha", 1.0, float),
     beta=attr("beta", 1.0, float), trans_a=attr("transA", 0, bool),
     trans_b=attr("transB", 0, bool), out=HEAVY)
_add("Einsum", "einsum", attr("equation"), _all_inputs(spread=True))
_add("BatchNormalization", "batch_norm", 0, 1, 2, 3, 4, epsilon=_EPSILON)
_add("LayerNormalization", "layer_norm", 0, 1, 2, axis=attr("axis", -1, int),
     epsilon=_EPSILON)
_add("InstanceNormalization", "instance_norm", 0, 1, 2, epsilon=_EPSILON)

# -- activations / elementwise -------------------------------------------------
for _op, _kernel in (("Relu", "relu"), ("Sigmoid", "sigmoid"), ("Tanh", "tanh"),
                     ("Erf", "erf"), ("Softplus", "softplus"), ("Sqrt", "sqrt"),
                     ("Exp", "exp"), ("Log", "log"), ("Neg", "neg"),
                     ("Abs", "abs_"), ("Reciprocal", "reciprocal"),
                     ("Floor", "floor"), ("Ceil", "ceil"), ("Round", "round_"),
                     ("Sign", "sign"), ("Cos", "cos"), ("Sin", "sin")):
    _add(_op, _kernel, out=TAIL)
for _op, _kernel in (("Gelu", "gelu"), ("HardSwish", "hard_swish"),
                     ("Mish", "mish"), ("Not", "logical_not"), ("Selu", "selu"),
                     ("Shape", "shape_of"), ("Size", "size_of")):
    _add(_op, _kernel)
for _op, _kernel in (("Add", "add"), ("Sub", "sub"), ("Mul", "mul"),
                     ("Div", "div"), ("Pow", "pow_"), ("Mod", "mod"),
                     ("Min", "minimum"), ("Max", "maximum")):
    _add(_op, _kernel, 0, 1, out=TAIL)
for _op, _kernel in (("Equal", "equal"), ("Greater", "greater"), ("Less", "less"),
                     ("GreaterOrEqual", "greater_or_equal"),
                     ("LessOrEqual", "less_or_equal"), ("And", "logical_and"),
                     ("Or", "logical_or"), ("Xor", "logical_xor"),
                     ("PRelu", "prelu")):
    _add(_op, _kernel, 0, 1)
_add("Where", "where", 0, 1, 2)
_add("LeakyRelu", "leaky_relu", alpha=attr("alpha", 0.01, float))
_add("Elu", "elu", alpha=attr("alpha", 1.0, float))
_add("HardSigmoid", "hard_sigmoid", alpha=attr("alpha", 0.2, float),
     beta=attr("beta", 0.5, float))
_add("Clip", "clip", 0, attr_or_input("min", 1, FLOAT),
     attr_or_input("max", 2, FLOAT), out=TAIL)
_add("Softmax", "softmax", axis=attr("axis", -1, int), out=OUTPUT)
_add("LogSoftmax", "log_softmax", axis=attr("axis", -1, int), out=OUTPUT)

# -- reductions ------------------------------------------------------------------
for _op, _kernel in (("ReduceMean", "reduce_mean"), ("ReduceSum", "reduce_sum"),
                     ("ReduceMax", "reduce_max"), ("ReduceMin", "reduce_min"),
                     ("ReduceProd", "reduce_prod"), ("ReduceL2", "reduce_l2")):
    _add(_op, _kernel, axes=attr_or_input("axes", 1, INTS), keepdims=_KEEPDIMS)
_add("ArgMax", "argmax", axis=attr("axis", 0, int), keepdims=_KEEPDIMS)
_add("ArgMin", "argmin", axis=attr("axis", 0, int), keepdims=_KEEPDIMS)
_add("CumSum", "cumsum", axis=attr_or_input(None, 1, INT, 0))
_add("TopK", "topk", 0, attr_or_input(None, 1, FIRST_INT),
     axis=attr("axis", -1, int), largest=attr("largest", 1, bool),
     sorted_=attr("sorted", 1, bool), outputs=2)

# -- concat / split / data movement ---------------------------------------------
_add("Concat", "concat", _all_inputs(spread=False), axis=attr("axis", 0, int),
     out=OUTPUT)
_add("Split", "split", parts=_split_parts, sizes=attr_or_input("split", 1, INTS),
     axis=attr("axis", 0, int), alias=True, outputs=None)
_add("Reshape", "reshape", 0, attr_or_input("shape", 1), alias=True)
_add("Transpose", "transpose", 0, attr("perm"), alias=True)
_add("Flatten", "flatten", axis=attr("axis", 1, int), alias=True)
_add("Squeeze", "squeeze", 0, attr_or_input("axes", 1, INTS), alias=True)
_add("Unsqueeze", "unsqueeze", 0, attr_or_input("axes", 1, INTS), alias=True)
_add("Slice", "slice_", 0, attr_or_input("starts", 1), attr_or_input("ends", 2),
     attr_or_input("axes", 3), attr_or_input("steps", 4), alias=True)
_add("Gather", "gather", 0, 1, axis=attr("axis", 0, int))
_add("GatherElements", "gather_elements", 0, 1, axis=attr("axis", 0, int))
_add("EmbeddingLookup", "gather", 0, 1, axis=0)
_add("Expand", "expand", 0, 1, alias=True)
_add("Tile", "tile", 0, 1, alias=True)
_add("Pad", "pad", 0, attr_or_input("pads", 1), mode=attr("mode", "constant"),
     value=attr_or_input("value", 2, FLOAT, 0.0))
# Resize takes (X, roi, scales, sizes); the older Upsample takes (X, scales).
_add("Resize", "resize_nearest", 0, attr_or_input("scales", 2), alias=True)
_add("Upsample", "resize_nearest", 0, attr_or_input("scales", 1), alias=True)
_add("DepthToSpace", "depth_to_space", 0, attr("blocksize", 2, int),
     mode=attr("mode", "DCR"))
_add("SpaceToDepth", "space_to_depth", 0, attr("blocksize", 2, int))

# -- metadata / constants ---------------------------------------------------------
_add("Cast", "cast", to=attr("to", "float32"))
_add("ConstantOfShape", "constant_of_shape", value=attr("value", 0.0))
_add("OneHot", "one_hot", 0, attr_or_input(None, 1, FIRST_INT),
     attr_or_input(None, 2, default=(0.0, 1.0)), axis=attr("axis", -1, int))

# -- operators whose generated code is not a plain F.<kernel> call ---------------
# Constant returns the same array on every run, so it may not head an in-place
# fused chain: it is declared as aliasing (its attribute value).
_add("Constant", None, _constant_value, fn=lambda value: value, alias=True)
_add("Identity", None, fn=np.asarray, alias=True)
_add("Dropout", None, fn=_dropout, alias=True, outputs=2)
_add("Range", None, *(attr_or_input(None, i, ITEM) for i in range(3)), fn=np.arange)
_add("NonZero", None, fn=_nonzero)


# ---------------------------------------------------------------------------
# Binding a resolved node to a callable
# ---------------------------------------------------------------------------
def spec_of(node: OpNode) -> OpSpec:
    """The spec for ``node``'s operator type (ExecutionError if none)."""
    spec = SPECS.get(node.op_type)
    if spec is None:
        raise ExecutionError(f"no handler for op {node.op_type!r} (node {node.name})")
    return spec


def _getter(item: Any, slot: Dict[int, int], count: int) -> Callable:
    """Read one resolved argument from the present inputs' values."""
    if type(item) is Ref:
        k = slot[item.index]
        if item.convert is None:
            return itemgetter(k)
        convert = item.convert.fn
        return lambda args: convert(args[k])
    if type(item) is Pack:
        ks = [slot[ref.index] for ref in item.refs]
        if ks == list(range(count)):
            return lambda args: args
        return lambda args: [args[k] for k in ks]
    return lambda args: item


def bind(node: OpNode, workspace=None) -> Callable:
    """Resolve ``node`` once into ``run(args, out=None)``.

    ``args`` holds the values of the node's present inputs, in order.  The
    returned callable passes ``out`` on to kernels with an ``out=``
    destination (and ``workspace`` to heavy kernels taking scratch); it
    ignores ``out`` otherwise.
    """
    spec = spec_of(node)
    call = spec.resolve(node)
    present = [index for index, name in enumerate(node.inputs) if name]
    slot = {index: k for k, index in enumerate(present)}
    fn = spec.fn
    kw = {key: value for key, value in call.kwargs.items()
          if type(value) not in (Ref, Pack)}
    if workspace is not None and spec.workspace:
        kw["workspace"] = workspace
    dynamic = [(key, _getter(value, slot, len(present)))
               for key, value in call.kwargs.items() if type(value) in (Ref, Pack)]
    takes_out = spec.out is not None
    direct = (not dynamic and len(call.args) == len(present)
              and all(type(a) is Ref and a.convert is None and a.index == index
                      for a, index in zip(call.args, present)))
    if direct:
        if takes_out:
            if kw:
                return lambda args, out=None: fn(*args, out=out, **kw)
            return lambda args, out=None: fn(*args, out=out)
        if kw:
            return lambda args, out=None: fn(*args, **kw)
        return lambda args, out=None: fn(*args)

    getters = [(type(a) is Pack and a.spread, _getter(a, slot, len(present)))
               for a in call.args]

    def run(args, out=None):
        positional = []
        for spread, get in getters:
            if spread:
                positional.extend(get(args))
            else:
                positional.append(get(args))
        kwargs = dict(kw)
        for key, get in dynamic:
            kwargs[key] = get(args)
        if takes_out:
            kwargs["out"] = out
        return fn(*positional, **kwargs)

    return run


def run_node(node: OpNode, args: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Resolve and run ``node`` once; returns its results in output order."""
    result = bind(node)(args)
    return [result] if SPECS[node.op_type].outputs == 1 else list(result)
