"""Request-path benchmark of the Ramiel reproduction.

Run one workload with one seed from the root of a checkout:

    python3 perfbench/run.py --workload http-mixed --seed 1 --seconds 30 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` makes a separate traced run and
reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when an output check
failed, 3 when an open-loop run was invalid (its generator lagged), and 2
when the source tree is missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402 - the process clock is read before any import
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("http-mixed", "exec-b1")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _dispatch(name: str):
    if name == "exec-b1":
        import execution

        return execution.exec_b1
    import serving

    return serving.http_mixed


def _emit(res, spec: dict, trace: bool, env: dict) -> dict:
    """Print the report and return the final JSON object."""
    print(f"# workload {res.workload}, {'traced' if trace else 'untraced'} run")
    for key, value in env.items():
        print(f"# env {key}: {value}")
    for line in res.lines:
        print(line)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name in res.metrics:
            value, got_unit = res.metrics[name]
            if got_unit != unit:
                raise RuntimeError(f"metric {name}: unit {got_unit} != {unit}")
            note = res.samples.get(name, "")
        elif trace:
            value, note = 0.0, "not on this workload's path"
        else:
            raise RuntimeError(f"workload {res.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:40s} {value:14.6g} {unit:6s} {note}")
    known = {e["name"] for e in spec["per_layer"] + spec["end_to_end"]}
    extra = sorted(set(res.metrics) - known)
    if extra:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {extra}")
    verdict = "PASS" if res.correct else "FAIL"
    print(f"# output check: {verdict} ({res.attempted} attempted, "
          f"{res.failed} failed)")
    for problem in res.problems[:20]:
        print(f"#   {problem}")
    for reason in res.invalid:
        print(f"# INVALID RUN: {reason}")
    return {"correct": res.correct, "attempted": max(int(res.attempted), 1),
            "failed": int(res.failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src'}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    spec = _spec()
    sys.path.insert(0, str(ROOT / "src"))
    # Generated modules go to the temporary directory: keep it in the checkout.
    tmp_dir = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp_dir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp_dir)
    tempfile.tempdir = str(tmp_dir)
    try:
        res = _dispatch(args.workload)(args, T0)
        from common import environment

        result = _emit(res, spec, bool(args.trace), environment(args.seed))
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            tmp_dir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    if res.invalid:
        return 3
    print(json.dumps(result), flush=True)
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
