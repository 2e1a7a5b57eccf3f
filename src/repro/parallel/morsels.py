"""The work-stealing morsel queue: self-scheduling over a process pool.

Morsel-driven scheduling (Leis et al.'s morsel model adapted to
processes): the partitioner cuts more morsels than there are workers,
all morsels go onto one shared queue, and each worker pulls its next
morsel the moment it finishes the previous one. An idle worker
therefore "steals" whatever remains — a skewed morsel delays only the
worker that drew it, while the rest of the pool drains the tail. The
parent reassembles results **by morsel index**, so concatenation order
is independent of completion order.

:func:`run_morsels` is the one entry point; ``workers <= 1`` (or a
single morsel) degrades to an in-process loop over the same code path,
which is also what keeps the subsystem fully testable on one core.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
from collections.abc import Sequence

from repro.errors import EngineError
from repro.parallel import worker as worker_module
from repro.parallel.worker import (
    MORSEL_RUNNERS,
    release_shared,
    set_shared,
    worker_loop,
)


def fork_available() -> bool:
    """Is the copy-on-write ``fork`` start method usable here?"""
    return "fork" in multiprocessing.get_all_start_methods()


def run_morsels(kind: str, payloads: Sequence[tuple], *,
                workers: int,
                shared: tuple | None = None,
                transport: str = "fork"
                ) -> list[tuple[dict, list]]:
    """Execute *payloads* (one morsel each) and return results in order.

    ``shared`` is the job state workers receive at startup — by
    copy-on-write inheritance under ``"fork"``, attached zero-copy from
    a published arena — a shared-memory segment under ``"shm"``, a file
    under ``"mmap"`` (the descriptor tuple is all that ships) — or
    installed in-process under ``"serial"`` (see
    :mod:`repro.parallel.worker`). *transport* is one the executor
    validated. The returned list is indexed like *payloads* regardless
    of which worker finished which morsel first.
    """
    if kind not in MORSEL_RUNNERS:
        raise EngineError(f"unknown morsel kind {kind!r}; "
                          f"choose from {sorted(MORSEL_RUNNERS)!r}")
    if not payloads:
        return []
    pool_size = min(workers, len(payloads))
    if transport == "serial" or pool_size <= 1:
        return _run_inline(kind, payloads, shared)
    # The arena transports spawn even where fork exists: their whole
    # point is explicitly shipped job state (a shared-memory / file-arena
    # descriptor workers attach), and riding fork here would let
    # unpicklable additions to the shipped artifacts pass every Linux
    # test and first break on spawn-only platforms.
    context = multiprocessing.get_context(
        "fork" if transport == "fork" else "spawn")
    # Queue (not SimpleQueue): its feeder thread keeps parent-side puts
    # from blocking on the pipe buffer, and get() takes a timeout so a
    # dead worker is detected instead of deadlocking the parent.
    tasks = context.Queue()
    results = context.Queue()

    processes = []
    try:
        for _ in range(pool_size):
            # Job state rides the Process args: inherited (not
            # serialized) under a fork start method; under spawn, only
            # the arena descriptor is pickled, once per worker.
            process = context.Process(target=worker_loop,
                                      args=(kind, tasks, results, shared),
                                      daemon=True)
            process.start()
            processes.append(process)
        for index, payload in enumerate(payloads):
            tasks.put((index, payload))
        for _ in range(pool_size):
            tasks.put(None)  # one stop sentinel per worker
        collected: dict[int, tuple[dict, list]] = {}
        while len(collected) < len(payloads):
            try:
                index, counters, rows = results.get(timeout=1.0)
            except queue_module.Empty:
                if not any(process.is_alive() for process in processes):
                    raise EngineError(
                        "parallel workers died without reporting "
                        f"{len(payloads) - len(collected)} morsel(s); "
                        "see stderr for worker tracebacks") from None
                continue
            if counters is None:
                raise EngineError(
                    f"parallel morsel {index} failed in a worker:\n{rows}")
            collected[index] = (counters, rows)
    finally:
        for process in processes:
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
        # cancel_join_thread: never let interpreter shutdown block on a
        # feeder thread flushing into a pipe no worker drains anymore.
        tasks.cancel_join_thread()
        results.cancel_join_thread()
        tasks.close()
        results.close()
    return [collected[index] for index in range(len(payloads))]


def _run_inline(kind: str, payloads: Sequence[tuple],
                shared: tuple | None) -> list[tuple[dict, list]]:
    """The serial fallback: same runners, same contract, no processes.

    An arena descriptor materializes in-process (the
    attachment maps the parent's own segment or file) and its views are
    released before the previous job state is restored.
    """
    runner = MORSEL_RUNNERS[kind]
    previous = worker_module._SHARED
    set_shared(shared)
    try:
        return [runner(payload) for payload in payloads]
    finally:
        release_shared(worker_module._SHARED)
        set_shared(previous)
