"""Compile-side checks and per-stage timing, used by ``exec-b1``.

``exec-b1`` compiles every zoo model it runs with ``ramiel_compile`` and
the default ``PipelineConfig``, and times those compiles for ``compile_s``.
This module adds the two compile-side pieces of that workload: the check
that generated code matches the interpreter, and (in traced runs) the
time of each pipeline stage, called one by one through its public
function.
"""

from __future__ import annotations

import statistics
from typing import Dict

from common import ZOO, Result, compare

STAGES = ("prune", "graph", "clustering", "simulate", "plan", "codegen")
#: traced passes of the staged compile over the zoo
STAGE_PASSES = 3


def check_generated(res: Result, results, feeds) -> None:
    """Each model's generated sequential module must match the interpreter."""
    from repro.runtime.executor import GraphExecutor

    for name in ZOO:
        result = results[name]
        feed = feeds[name]
        want = GraphExecutor(result.model).run(feed)
        verdict = compare(result.run_sequential(feed), want)
        res.attempted += 1
        res.note(f"{name}: generated sequential module vs interpreter: {verdict}")
        if verdict == "wrong":
            res.failed += 1
            res.problems.append(f"{name}: generated sequential module disagrees "
                                "with the interpreter")


class StagedCompiler:
    """The pipeline's default stages, each timed in its own benchmark span.

    Calls the same public stage functions, in the same order and with the
    same arguments, as ``ramiel_compile`` with the default
    ``PipelineConfig`` (no cloning, batch size 1).
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.counts: Dict[str, Dict[str, int]] = {}

    def __call__(self, model) -> None:
        from repro.clustering import linear_clustering, merge_clusters_fixpoint
        from repro.clustering.schedule import ScheduleSimulator, SimulationConfig
        from repro.clustering.validation import validate_clustering
        from repro.codegen import generate_parallel_module, generate_sequential_module
        from repro.graph.dataflow import model_to_dataflow
        from repro.graph.parallelism import potential_parallelism
        from repro.passes import optimize_model
        from repro.pipeline import PipelineConfig
        from repro.runtime.plan import ExecutionPlan

        config = PipelineConfig()
        span = self.tracer.span
        args = {"model": model.name}
        with span("compile.prune", "compile", args):
            optimized, _ = optimize_model(model)
        with span("compile.graph", "compile", args):
            dfg = model_to_dataflow(optimized, cost_model=config.cost_model)
            potential_parallelism(dfg, cost_model=config.cost_model)
        with span("compile.clustering", "compile", args):
            lc = linear_clustering(dfg)
            merged = merge_clusters_fixpoint(lc)
            validate_clustering(merged)
        with span("compile.simulate", "compile", args):
            ScheduleSimulator(SimulationConfig(
                num_cores=config.num_cores,
                message_latency=config.message_latency,
                per_cluster_overhead=config.per_cluster_overhead,
            )).simulate(merged)
        with span("compile.plan", "compile", args):
            ExecutionPlan(optimized)
        with span("compile.codegen", "compile", args):
            seq = generate_sequential_module(optimized)
            par = generate_parallel_module(optimized, merged)
        self.counts[model.name] = {
            "nodes_removed": model.num_nodes - optimized.num_nodes,
            "clusters_lc": lc.num_clusters,
            "clusters_merged": merged.num_clusters,
            "codegen_lines": seq.source.count("\n") + par.source.count("\n"),
        }


def stage_metrics(res: Result, build) -> None:
    """Time each compile stage over ``STAGE_PASSES`` passes of the zoo.

    ``build(name)`` returns a freshly built model.  Stage times are summed
    over the models of a pass; the median pass is reported.
    """
    from repro.observability import Tracer

    staged = StagedCompiler(Tracer(capacity=1 << 12))
    for _ in range(STAGE_PASSES):
        for name in ZOO:
            staged(build(name))
    events = staged.tracer.events()
    for stage in STAGES:
        durs = [e.dur_ns for e in events if e.name == f"compile.{stage}"]
        per_pass = [sum(durs[i:i + len(ZOO)]) / 1e9
                    for i in range(0, len(durs), len(ZOO))]
        res.put(f"compile.{stage}_s", statistics.median(per_pass), "s",
                f"median over {STAGE_PASSES} passes")
    for key, metric in (("nodes_removed", "passes.nodes_removed"),
                        ("clusters_lc", "clustering.clusters_lc"),
                        ("clusters_merged", "clustering.clusters_merged"),
                        ("codegen_lines", "codegen.lines")):
        res.put(metric, sum(c[key] for c in staged.counts.values()), "count",
                "sum over the eight models")
    res.note("model          removed  lc-clusters  merged  codegen-lines")
    for name in ZOO:
        c = staged.counts[name]
        res.note(f"{name:14s} {c['nodes_removed']:7d} {c['clusters_lc']:12d} "
                 f"{c['clusters_merged']:7d} {c['codegen_lines']:14d}")
