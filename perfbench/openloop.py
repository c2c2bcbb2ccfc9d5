"""Open-loop request generator for the serving workload.

Requests are sent on a fixed schedule whether or not earlier ones have
completed, so a stall shows up as queueing rather than as less load.
Every latency is measured from the request's *scheduled* send time:
lateness of the generator itself (a slow ``submit``, a GIL stall) is
charged to the request, and reported on its own as ``late_s``.

Completions are stamped by a poller thread that scans outstanding
tickets every :data:`POLL_S` seconds, so a latency is late by at most
one poll period plus one scan; the measured period is reported.  A
third thread checks results as they arrive and drops them, keeping
memory flat however long the run is; its work never falls inside a
request's latency.
"""

from __future__ import annotations

import collections
import queue
import threading
import time
from dataclasses import dataclass, field

#: Poll period of the completion stamper (seconds).
POLL_S = 0.0004


@dataclass
class OpenLoopResult:
    """Per-request stamps of one open-loop run (index = schedule order)."""

    due: list = field(default_factory=list)        # scheduled send
    late_s: list = field(default_factory=list)     # submit start - due
    latency_s: list = field(default_factory=list)  # completion - due
    responses: list = field(default_factory=list)  # Response, result dropped
    ok: list = field(default_factory=list)         # check verdict per request
    poll_periods: list = field(default_factory=list)
    wall_s: float = 0.0   # loop start -> last completion


def concat(parts) -> OpenLoopResult:
    """One result from runs made one after another: stamps joined in
    order (``wall_s`` stays 0: each run's wall time is its own)."""
    out = OpenLoopResult()
    for p in parts:
        for name in ("due", "late_s", "latency_s", "responses", "ok",
                     "poll_periods"):
            getattr(out, name).extend(getattr(p, name))
    return out


def run_open_loop(submit, requests, offsets_s, check, *,
                  timeout_s: float = 30.0) -> OpenLoopResult:
    """Send ``requests[i]`` at ``offsets_s[i]`` seconds after start.

    ``submit(request)`` returns a ticket with ``done()``/``result()``;
    ``check(i, response)`` returns whether response ``i`` is right and
    runs on the checker thread, outside every latency.
    """
    n = len(requests)
    res = OpenLoopResult(
        due=[0.0] * n, late_s=[0.0] * n, latency_s=[float("nan")] * n,
        responses=[None] * n, ok=[False] * n,
    )
    sent: collections.deque = collections.deque()
    finished: queue.Queue = queue.Queue()
    done_sending = threading.Event()
    abort = threading.Event()
    remaining = [n]

    def poll() -> None:
        outstanding: list = []
        last = time.perf_counter()
        deadline = None
        while remaining[0] and not abort.is_set():
            time.sleep(POLL_S)
            now = time.perf_counter()
            res.poll_periods.append(now - last)
            last = now
            while sent:
                outstanding.append(sent.popleft())
            still = []
            for i, ticket in outstanding:
                if ticket.done():
                    res.latency_s[i] = now - res.due[i]
                    finished.put((i, ticket.result(0)))
                    remaining[0] -= 1
                else:
                    still.append((i, ticket))
            outstanding = still
            if done_sending.is_set():
                deadline = deadline or now + timeout_s
                if now > deadline:
                    break
        finished.put(None)

    def checker() -> None:
        while True:
            item = finished.get()
            if item is None:
                return
            i, response = item
            res.ok[i] = bool(check(i, response))
            response.result = None
            res.responses[i] = response

    threads = [threading.Thread(target=poll, name="openloop-poll"),
               threading.Thread(target=checker, name="openloop-check")]
    for t in threads:
        t.start()
    start = time.perf_counter() + 0.01
    try:
        for i, (request, offset) in enumerate(zip(requests, offsets_s)):
            due = start + offset
            res.due[i] = due
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            t_submit = time.perf_counter()
            res.late_s[i] = t_submit - due
            sent.append((i, submit(request)))
    except BaseException:
        abort.set()
        raise
    finally:
        done_sending.set()
        for t in threads:
            t.join()
    ends = [d + lat for d, lat in zip(res.due, res.latency_s) if lat == lat]
    if ends:
        res.wall_s = max(ends) - start
    return res
