"""Table-driven differential test over the operator table.

For every operator in :data:`repro.runtime.opspec.SPECS`, single-node graphs
are run through the three readers of the table — the reference interpreter
(:class:`GraphExecutor`), the :class:`ExecutionPlan` (specializing run,
then a run with caller-bound output destinations) and the generated
sequential module — and must agree bitwise (shape and dtype included), or
all three must raise the same underlying exception type.  Cases cover
attribute-supplied and input-supplied values, and absent optional inputs
at their ONNX positions.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np
import pytest

from repro.codegen.sequential_codegen import generate_sequential_module
from repro.ir.dtypes import numpy_to_dtype
from repro.ir.model import Graph, Model
from repro.ir.node import OpNode
from repro.ir.tensor import TensorInfo
from repro.runtime.executor import ExecutionError, GraphExecutor
from repro.runtime.opspec import SPECS, TAIL
from repro.runtime.plan import ExecutionPlan

_rng = np.random.default_rng(20261017)


def _f(*shape) -> np.ndarray:
    return _rng.standard_normal(shape).astype(np.float32)


def _pos(*shape) -> np.ndarray:
    return (np.abs(_f(*shape)) + np.float32(0.5)).astype(np.float32)


def _i(*values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def _b(*shape) -> np.ndarray:
    return _rng.standard_normal(shape) > 0


class Case(NamedTuple):
    id: str
    op: str
    #: ONNX-positional inputs; ``None`` marks an absent optional input
    inputs: Sequence[Optional[np.ndarray]]
    attrs: Dict = {}
    outputs: int = 1
    #: independent expectation on the outputs, beyond three-way agreement
    expect: Optional[Callable[[List[np.ndarray], Sequence], None]] = None


def _expect_clip_max(outs, inputs):
    np.testing.assert_array_equal(outs[0], np.minimum(inputs[0], inputs[2]))


def _expect_resize_2x(outs, inputs):
    np.testing.assert_array_equal(outs[0], inputs[0].repeat(2, axis=2).repeat(2, axis=3))


def _expect_split_sizes(outs, inputs):
    assert [o.shape[1] for o in outs] == [1, 5]


def _expect_pad_value(outs, inputs):
    assert outs[0][0, 0, 0, 0] == np.float32(7.0)


_X4 = _f(1, 4, 6, 6)
_X3 = _f(2, 3, 4)

CASES: List[Case] = [
    # -- convolution / pooling / linear algebra --------------------------------
    Case("conv", "Conv", [_X4, _f(2, 4, 3, 3), _f(2)], dict(strides=[1, 1], pads=[1, 1, 1, 1])),
    Case("conv-nobias", "Conv", [_X4, _f(2, 4, 3, 3)], dict(strides=[2, 2])),
    Case("conv-grouped", "Conv", [_X4, _f(4, 2, 3, 3), _f(4)], dict(group=2, dilations=[2, 2])),
    Case("convtranspose", "ConvTranspose", [_f(1, 2, 4, 4), _f(2, 3, 3, 3), _f(3)],
         dict(strides=[2, 2], pads=[1, 1, 1, 1], output_padding=[1, 1])),
    Case("convtranspose-grouped", "ConvTranspose", [_f(1, 2, 4, 4), _f(2, 1, 3, 3)],
         dict(group=2)),
    Case("maxpool", "MaxPool", [_X4], dict(kernel_shape=[2, 2], strides=[2, 2])),
    Case("maxpool-ceil", "MaxPool", [_X4], dict(kernel_shape=[3, 3], strides=[2, 2],
                                                  ceil_mode=1)),
    Case("avgpool", "AveragePool", [_X4], dict(kernel_shape=[3, 3], pads=[1, 1, 1, 1])),
    Case("avgpool-incl", "AveragePool", [_X4], dict(kernel_shape=[3, 3], pads=[1, 1, 1, 1],
                                                     count_include_pad=1)),
    Case("gap", "GlobalAveragePool", [_X4]),
    Case("gmp", "GlobalMaxPool", [_X4]),
    Case("matmul", "MatMul", [_f(3, 4), _f(4, 5)]),
    Case("gemm", "Gemm", [_f(3, 4), _f(5, 4), _f(5)],
         dict(transB=1, alpha=0.5, beta=2.0)),
    Case("gemm-noc", "Gemm", [_f(4, 3), _f(4, 5)], dict(transA=1)),
    Case("einsum", "Einsum", [_f(3, 4), _f(4, 5)], dict(equation="ij,jk->ik")),
    Case("batchnorm", "BatchNormalization", [_X4, _f(4), _f(4), _f(4), _pos(4)],
         dict(epsilon=1e-3)),
    Case("layernorm", "LayerNormalization", [_X3, _f(4), _f(4)], dict(axis=-1)),
    Case("layernorm-nobias", "LayerNormalization", [_X3, _f(3, 4)], dict(axis=1)),
    Case("instancenorm", "InstanceNormalization", [_X4, _f(4), _f(4)]),
    # -- activations / elementwise ---------------------------------------------
    *[Case(op.lower(), op, [_X3]) for op in (
        "Relu", "Sigmoid", "Tanh", "Erf", "Softplus", "Exp", "Neg", "Abs",
        "Floor", "Ceil", "Round", "Sign", "Cos", "Sin", "Gelu", "HardSwish",
        "Mish", "Selu", "Shape", "Size", "Identity", "NonZero")],
    *[Case(op.lower(), op, [_pos(2, 3, 4)]) for op in ("Sqrt", "Log", "Reciprocal")],
    Case("not", "Not", [_b(2, 3)]),
    *[Case(op.lower(), op, [_X3, _f(3, 4)]) for op in (
        "Add", "Sub", "Mul", "Min", "Max", "Equal", "Greater", "Less",
        "GreaterOrEqual", "LessOrEqual")],
    Case("div", "Div", [_X3, _pos(3, 4)]),
    Case("mod", "Mod", [_X3, _pos(3, 4)]),
    Case("pow", "Pow", [_pos(2, 3, 4), _f(3, 4)]),
    *[Case(op.lower(), op, [_b(2, 3), _b(2, 3)]) for op in ("And", "Or", "Xor")],
    Case("prelu", "PRelu", [_X4, _f(4)]),
    Case("where", "Where", [_b(3, 4), _f(3, 4), _f(3, 4)]),
    Case("leakyrelu", "LeakyRelu", [_X3], dict(alpha=0.2)),
    Case("elu", "Elu", [_X3], dict(alpha=0.5)),
    Case("hardsigmoid", "HardSigmoid", [_X3], dict(alpha=0.3, beta=0.4)),
    Case("clip-attrs", "Clip", [_X3], dict(min=-0.5, max=0.5)),
    Case("clip-inputs", "Clip", [_X3, np.float32(-0.5), np.float32(0.5)]),
    Case("clip-max-only", "Clip", [_X3, None, np.float32(0.25)], expect=_expect_clip_max),
    Case("softmax", "Softmax", [_X3], dict(axis=1)),
    Case("logsoftmax", "LogSoftmax", [_X3]),
    # -- reductions ------------------------------------------------------------
    *[Case(op.lower(), op, [_X3], dict(axes=[1], keepdims=0)) for op in (
        "ReduceMean", "ReduceSum", "ReduceMax", "ReduceMin", "ReduceProd", "ReduceL2")],
    Case("reducesum-axes-input", "ReduceSum", [_X3, _i(0, 2)]),
    Case("reducemean-all", "ReduceMean", [_X3]),
    Case("argmax", "ArgMax", [_X3], dict(axis=1, keepdims=0)),
    Case("argmin", "ArgMin", [_X3], dict(axis=2)),
    Case("cumsum", "CumSum", [_X3, np.int64(1)]),
    Case("topk", "TopK", [_f(3, 5), _i(2)], outputs=2),
    Case("topk-smallest-unsorted", "TopK", [_f(3, 5), _i(3)],
         dict(axis=1, largest=0, sorted=0), outputs=2),
    # -- concat / split / data movement ----------------------------------------
    Case("concat", "Concat", [_f(1, 2, 3), _f(1, 4, 3), _f(1, 1, 3)], dict(axis=1)),
    Case("split-attr", "Split", [_f(1, 6)], dict(axis=1, split=[2, 4]), outputs=2),
    Case("split-equal", "Split", [_f(2, 6)], dict(axis=1), outputs=3),
    Case("split-sizes-input", "Split", [_f(1, 6), _i(1, 5)], dict(axis=1), outputs=2,
         expect=_expect_split_sizes),
    Case("reshape-attr", "Reshape", [_X3], dict(shape=[0, -1])),
    Case("reshape-input", "Reshape", [_X3, _i(4, -1)]),
    Case("transpose", "Transpose", [_X3], dict(perm=[1, 0, 2])),
    Case("transpose-reverse", "Transpose", [_X3]),
    Case("flatten", "Flatten", [_X3], dict(axis=2)),
    Case("squeeze-attr", "Squeeze", [_f(1, 3, 1, 4)], dict(axes=[0])),
    Case("squeeze-input", "Squeeze", [_f(1, 3, 1, 4), _i(2)]),
    Case("unsqueeze-attr", "Unsqueeze", [_f(3, 4)], dict(axes=[0, 3])),
    Case("unsqueeze-input", "Unsqueeze", [_f(3, 4), _i(1)]),
    Case("slice-attrs", "Slice", [_f(4, 6)], dict(starts=[1], ends=[5], axes=[1])),
    Case("slice-inputs", "Slice", [_f(4, 6), _i(0, 1), _i(3, 6), _i(0, 1), _i(1, 2)]),
    Case("gather", "Gather", [_f(5, 3), _i([0, 2], [4, 1])]),
    Case("gather-axis1", "Gather", [_f(5, 3), _i(2, 0)], dict(axis=1)),
    Case("gatherelements", "GatherElements", [_f(3, 4), _i([0, 3], [1, 1], [2, 0])],
         dict(axis=1)),
    Case("embedding", "EmbeddingLookup", [_f(10, 4), _i([1, 9, 3], [0, 0, 2])]),
    Case("expand", "Expand", [_f(3, 1), _i(2, 3, 4)]),
    Case("tile", "Tile", [_f(2, 3), _i(2, 2)]),
    Case("pad-attrs", "Pad", [_f(1, 2, 3, 3)], dict(pads=[0, 0, 1, 1, 0, 0, 1, 1], value=0.5)),
    Case("pad-reflect", "Pad", [_f(1, 2, 3, 3), _i(0, 0, 1, 2, 0, 0, 2, 1)],
         dict(mode="reflect")),
    Case("pad-value-input", "Pad", [_f(1, 2, 3, 3), _i(0, 0, 1, 1, 0, 0, 1, 1),
                                    np.float32(7.0)], expect=_expect_pad_value),
    Case("resize-attr", "Resize", [_X4], dict(scales=[1.0, 1.0, 2.0, 2.0])),
    Case("resize-no-roi", "Resize", [_X4, None, np.asarray([1, 1, 2, 2], np.float32)],
         expect=_expect_resize_2x),
    Case("upsample", "Upsample", [_X4, np.asarray([1, 1, 2, 2], np.float32)],
         expect=_expect_resize_2x),
    Case("depthtospace", "DepthToSpace", [_f(1, 8, 2, 2)], dict(blocksize=2)),
    Case("depthtospace-crd", "DepthToSpace", [_f(1, 8, 2, 2)], dict(blocksize=2, mode="CRD")),
    Case("spacetodepth", "SpaceToDepth", [_f(1, 2, 4, 4)], dict(blocksize=2)),
    # -- metadata / constants ----------------------------------------------------
    Case("cast", "Cast", [_X3], dict(to="int32")),
    Case("constantofshape", "ConstantOfShape", [_i(2, 3)], dict(value=1.5)),
    Case("onehot", "OneHot", [_i(0, 2, 1), _i(3), np.asarray([0, 5], np.float32)]),
    Case("constant", "Constant", [], dict(value=_f(2, 2))),
    Case("dropout", "Dropout", [_X3], dict(ratio=0.5), outputs=2),
    Case("dropout-single", "Dropout", [_X3]),
    Case("range", "Range", [np.int64(1), np.int64(10), np.int64(3)]),
    Case("range-float", "Range", [np.float32(0.5), np.float32(2.0), np.float32(0.25)]),
    Case("nonzero-zeros", "NonZero", [np.asarray([[0, 1.5], [2, 0]], np.float32)]),
]


def _model(case: Case, head: Optional[str] = None) -> Model:
    """One graph: input 0 is fed at run time, the other inputs are weights.

    With ``head``, input 0 first passes through ``head(x, 0)`` — a bitwise
    no-op that the plan can fuse the case's node onto.
    """
    graph = Graph(name=f"spec_{case.id.replace('-', '_')}")
    names = []
    for index, array in enumerate(case.inputs):
        if array is None:
            names.append("")
            continue
        name = f"in{index}"
        array = np.asarray(array)
        if index == 0:
            graph.inputs.append(TensorInfo(name, numpy_to_dtype(array.dtype), array.shape))
        else:
            graph.add_initializer(name, array)
        names.append(name)
    if head is not None:
        graph.add_initializer("zero", np.zeros((), np.float32))
        graph.add_node(OpNode.create(head, [names[0], "zero"], ["headed"], name="head"))
        names[0] = "headed"
    outputs = [f"out{k}" for k in range(case.outputs)]
    graph.add_node(OpNode.create(case.op, names, outputs, name="node", **case.attrs))
    graph.outputs = [TensorInfo(name, numpy_to_dtype(np.float32), None) for name in outputs]
    return Model(graph=graph, name=graph.name)


def _feed(case: Case) -> Dict[str, np.ndarray]:
    return {"in0": np.asarray(case.inputs[0])} if case.inputs else {}


def _root(exc: BaseException) -> type:
    """The underlying exception type, unwrapping interpreter/plan context."""
    while isinstance(exc, ExecutionError) and exc.__cause__ is not None:
        exc = exc.__cause__
    return type(exc)


def _run_paths(model: Model, feed, tmp_path) -> Dict[str, object]:
    """Outputs (or the root exception type) of each of the three paths."""
    names = model.graph.output_names
    results: Dict[str, object] = {}

    def attempt(label, fn):
        try:
            results[label] = [np.asarray(fn()[name]) for name in names]
        except Exception as exc:  # noqa: BLE001 - compared across paths
            results[label] = _root(exc)

    attempt("interpreter", lambda: GraphExecutor(model).run(feed))

    def planned():
        plan = ExecutionPlan(model)
        first = plan.run(feed)
        bound = {name: np.empty_like(np.asarray(first[name])) for name in names
                 if type(first[name]) is np.ndarray}
        second = plan.run(feed, out=bound)
        for name in names:
            _assert_bitwise(np.asarray(second[name]), np.asarray(first[name]), name)
        return first

    attempt("plan", planned)

    def generated():
        module = generate_sequential_module(model, directory=str(tmp_path))
        return module.run(dict(feed), dict(model.graph.initializers))

    attempt("generated", generated)
    return results


def _assert_bitwise(got: np.ndarray, want: np.ndarray, label: str) -> None:
    assert got.shape == want.shape, f"{label}: shape {got.shape} != {want.shape}"
    assert got.dtype == want.dtype, f"{label}: dtype {got.dtype} != {want.dtype}"
    assert got.tobytes() == want.tobytes(), f"{label}: values differ"


def _assert_agree(results: Dict[str, object]) -> None:
    reference = results["interpreter"]
    for label in ("plan", "generated"):
        got = results[label]
        if isinstance(reference, type) or isinstance(got, type):
            assert got == reference, f"{label} gave {got}, interpreter gave {reference}"
            continue
        assert len(got) == len(reference)
        for k, (g, r) in enumerate(zip(got, reference)):
            _assert_bitwise(g, r, f"{label} output {k}")


@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_three_paths_agree(case: Case, tmp_path):
    results = _run_paths(_model(case), _feed(case), tmp_path)
    _assert_agree(results)
    if case.expect is not None:
        assert not isinstance(results["interpreter"], type), results["interpreter"]
        case.expect(results["interpreter"], case.inputs)


# The plan fuses tails of at most two operands.
_TAIL_CASES = [case for case in CASES
               if SPECS[case.op].out == TAIL and case.inputs[0].dtype == np.float32
               and sum(array is not None for array in case.inputs) <= 2]


@pytest.mark.parametrize("case", _TAIL_CASES, ids=[case.id for case in _TAIL_CASES])
def test_fused_tails_agree(case: Case, tmp_path):
    """Every op declared a fusable ``out=`` tail is fused by the plan and
    still agrees bitwise with the interpreter and the generated code."""
    model = _model(case, head="Add")
    assert ExecutionPlan(model).stats()["fused_nodes"] == 1
    _assert_agree(_run_paths(model, _feed(case), tmp_path))


def test_every_spec_has_a_case():
    assert sorted(SPECS) == sorted({case.op for case in CASES})

