"""Shared pieces of the benchmark: results, output checks, environment."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import resource
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from stats import geomean, percentile, supported_percentile

ROOT = Path(__file__).resolve().parent.parent

#: the engine's own batch-fusion contract (``InferenceEngine._probe_batchable``)
RTOL = 1e-4
ATOL = 1e-5

#: The eight zoo models, in the paper's Table I order.
ZOO = ("squeezenet", "googlenet", "inception_v3", "inception_v4", "yolo_v5",
       "retinanet", "bert", "nasnet")

#: Two QoS tenants: (name, weight, share of arrivals).
TENANTS = (("gold", 3.0, 0.75), ("free", 1.0, 0.25))

#: An open-loop run whose generator lag p99 exceeds this share of the
#: workload's latency limit is invalid: its arrivals were no longer the
#: schedule's, so its latencies describe another load.
LAG_BOUND_SHARE = 0.5


class Result:
    """Everything one workload run reports."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: Dict[str, tuple] = {}
        #: metric name -> how it was sampled (count, supported percentile)
        self.samples: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.invalid: List[str] = []
        self.lines: List[str] = []

    def put(self, name: str, value: float, unit: str,
            samples: Optional[str] = None) -> None:
        self.metrics[name] = (float(value), unit)
        if samples is not None:
            self.samples[name] = samples

    def note(self, line: str) -> None:
        self.lines.append(line)

    def absorb(self, other: "Result") -> None:
        """Count another window's attempts, failures and verdicts here too."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.invalid += other.invalid

    @property
    def correct(self) -> bool:
        return not self.problems


def sample_note(n: int, q: float) -> str:
    """``"n=600, p99 (sample supports p90)"``: count, percentile, support."""
    sup = supported_percentile(n)
    sup_text = f"p{sup:g}" if sup is not None else "none"
    return f"n={n}, p{q:g} (sample supports {sup_text})"


def per_model_geomean(samples: Dict[str, Sequence[float]], q: float) -> float:
    """Geometric mean over models of each model's ``q``-th percentile."""
    return geomean([percentile(values, q) for values in samples.values()])


def compare(got: Dict[str, np.ndarray], ref: Dict[str, np.ndarray]) -> str:
    """``"bitwise"``, ``"close"`` (within RTOL/ATOL) or ``"wrong"``."""
    if set(got) != set(ref):
        return "wrong"
    verdict = "bitwise"
    for name, expected in ref.items():
        actual = np.asarray(got[name])
        expected = np.asarray(expected)
        if actual.shape != expected.shape or actual.dtype != expected.dtype:
            return "wrong"
        if actual.tobytes() == expected.tobytes():
            continue
        if not np.allclose(actual, expected, rtol=RTOL, atol=ATOL):
            return "wrong"
        verdict = "close"
    return verdict


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blas() -> Dict[str, object]:
    """BLAS library and its thread count, as found (never overridden)."""
    info: Dict[str, object] = {"name": "unknown", "threads": "unknown"}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError):
        return info
    libdirs = [os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs"),
               str(deps.get("lib directory", ""))]
    for libdir in libdirs:
        for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for fn in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(lib, fn, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    info["threads"] = getter()
                    return info
    return info


def _source_digest() -> str:
    """Content hash of ``src/``: names the code under test without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "n/a (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        return ref
    return ref


def environment(seed: int) -> Dict[str, object]:
    blas = _blas()
    return {
        "nproc": nproc(),
        "blas": blas["name"],
        "blas_threads": blas["threads"],
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
        "argv": " ".join(sys.argv[1:]),
    }
