"""Open-loop HTTP load client, run as its own process.

The parent benchmark process (which hosts the gateway) starts this script
with ``python3 perfbench/client.py`` and writes one JSON job to its stdin:

    {"port": 8080, "seed": 1, "rate": 30.0, "duration": 20.0,
     "connections": 2, "tenants": [["gold", 0.75], ["free", 0.25]],
     "requests": [{"model": "squeezenet", "body": "...", "expect": "..."}]}

The client opens its keep-alive connections, prints ``ready`` and waits
for a ``go`` line; end of input instead makes it exit without sending.
It then sends Poisson arrivals at ``rate`` for ``duration`` seconds.
Tenants and request bodies are dealt to the arrivals in fixed
proportions: the tenant shares, and every body equally often.  Due
arrivals queue here, client-side, until a connection is free, so a slow
server lengthens latency instead of slowing the arrivals.  When every
answer is in, it prints one JSON line with a record per request.

Timestamps are ``time.perf_counter()`` readings.  On Linux that clock is
``CLOCK_MONOTONIC``, shared by every process, so the parent can line them
up with the server's trace spans.  A response body that equals the
request's ``expect`` body is bitwise correct; any other 200 body is
shipped back for a tolerance check.
"""

from __future__ import annotations

import asyncio
import json
import random
import sys
import time
from typing import Dict, List

from stats import dealt, poisson_arrivals


def build_schedule(job: Dict) -> List[Dict]:
    """The seeded arrival list: due offset, tenant and request index."""
    rng = random.Random(job["seed"])
    times = poisson_arrivals(job["rate"], job["duration"], rng)
    tenants = job["tenants"]
    tenant_of = dealt([share for _, share in tenants], len(times), rng)
    req_of = dealt([1.0] * len(job["requests"]), len(times), rng)
    return [{"due": due, "tenant": tenants[t][0], "req": r}
            for due, t, r in zip(times, tenant_of, req_of)]


async def _exchange(reader, writer, wire: bytes):
    writer.write(wire)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length)
    return status, body


async def run(job: Dict) -> Dict:
    port = job["port"]
    requests = job["requests"]
    heads = []
    bodies = []
    expects = []
    for entry in requests:
        body = entry["body"].encode()
        heads.append(
            (f"POST /v1/models/{entry['model']}/infer HTTP/1.1\r\n"
             f"Host: 127.0.0.1\r\nContent-Type: application/json\r\n"
             f"Content-Length: {len(body)}\r\n").encode("latin-1"))
        bodies.append(body)
        expects.append(entry["expect"].encode())
    schedule = build_schedule(job)

    conns = [await asyncio.open_connection("127.0.0.1", port)
             for _ in range(job["connections"])]
    print("ready", flush=True)
    loop = asyncio.get_running_loop()
    if (await loop.run_in_executor(None, sys.stdin.readline)).strip() != "go":
        for _, writer in conns:  # released without a go: send nothing
            writer.close()
        return {"start": None, "records": []}

    queue: asyncio.Queue = asyncio.Queue()
    records: List[Dict] = []
    start = time.perf_counter()

    async def generate() -> None:
        for item in schedule:
            due = start + item["due"]
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            item["due"] = due
            item["enq"] = time.perf_counter()
            queue.put_nowait(item)
        for _ in conns:
            queue.put_nowait(None)

    async def worker(index: int) -> None:
        reader, writer = conns[index]
        while True:
            item = await queue.get()
            if item is None:
                break
            req = item["req"]
            wire = b"".join((heads[req], b"X-Tenant: ",
                             item["tenant"].encode("latin-1"), b"\r\n\r\n",
                             bodies[req]))
            item["sent"] = time.perf_counter()
            try:
                status, body = await _exchange(reader, writer, wire)
            except (ConnectionError, asyncio.IncompleteReadError) as exc:
                status, body = 0, str(exc).encode()
                writer.close()
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
            item["done"] = time.perf_counter()
            item["status"] = status
            item["match"] = status == 200 and body == expects[item["req"]]
            if not item["match"]:
                item["body"] = body.decode("utf-8", "replace")
            records.append(item)
        writer.close()

    await asyncio.gather(generate(), *(worker(i) for i in range(len(conns))))
    return {"start": start, "records": records}


def main() -> int:
    job = json.loads(sys.stdin.readline())
    result = asyncio.run(run(job))
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
