"""Fold recorded spans into per-request layer attributions.

The program's spans carry no common request id across layers (the gateway
span is a thread span, the engine's are async spans with their own ids),
so spans of one request are paired by time: a request's inner span lies
inside its outer span.  Pairing the tightest outer span first keeps
overlapping requests apart as long as their spans nest.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Sequence, Tuple

Interval = Tuple[float, float, object]


def _overlap(a: Interval, b: Interval) -> float:
    return min(a[1], b[1]) - max(a[0], b[0])


def match_nested(outer: Sequence[Interval],
                 inner: Sequence[Interval]) -> List[Tuple[Interval, Interval]]:
    """Pair each outer interval with one unmatched inner interval it holds.

    An inner interval belongs to an outer one when it *starts* inside it:
    its end may trail the outer end slightly, because the thread that
    closes the inner span can lose the processor right after waking the
    one that closes the outer span.  Outer intervals are visited shortest
    first; each takes the unmatched candidate it overlaps most.  Unpaired
    intervals on either side are left out (the caller reports the counts).
    """
    inner = sorted(inner, key=lambda iv: iv[0])
    starts = [iv[0] for iv in inner]
    taken = [False] * len(inner)
    pairs = []
    for out in sorted(outer, key=lambda iv: iv[1] - iv[0]):
        lo = bisect.bisect_left(starts, out[0])
        hi = bisect.bisect_right(starts, out[1])
        best = None
        for i in range(lo, hi):
            if taken[i]:
                continue
            if best is None or _overlap(out, inner[i]) > _overlap(out, inner[best]):
                best = i
        if best is not None:
            taken[best] = True
            pairs.append((out, inner[best]))
    return pairs


def spans(events, name: str, **arg_filter) -> List[Interval]:
    """Intervals (ns) of every event called ``name`` whose args match."""
    out = []
    for event in events:
        if event.name != name:
            continue
        args = event.args or {}
        if any(str(args.get(k)) != str(v) for k, v in arg_filter.items()):
            continue
        out.append((event.start_ns, event.end_ns, event))
    return out


def durations_ms(intervals: Sequence[Interval]) -> List[float]:
    return [(end - start) / 1e6 for start, end, _ in intervals]


def op_shares(events) -> Dict[str, float]:
    """Self-time share of each op type among plan step spans.

    Plan step spans are leaves (nothing nests inside a step), so a step's
    duration is its self time; a fused elementwise tail counts toward the
    step's producing op.
    """
    totals: Dict[str, float] = {}
    for event in events:
        if event.cat != "plan":
            continue
        op = (event.args or {}).get("op", "?")
        totals[op] = totals.get(op, 0.0) + event.dur_ns
    whole = sum(totals.values())
    return {op: t / whole for op, t in totals.items()} if whole else {}
