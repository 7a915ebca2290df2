"""Virtual network time for in-process serving.

The paper timed its network in a discrete-event simulator; the
in-process runtime does the same on :class:`VirtualClockLoop`, an
asyncio event loop whose clock skips idle waits. Every simulated
uplink transfer, answer descent, ack timeout, backoff,
``service_time_base_s`` and open-loop arrival gap is a loop timer, so
it advances the clock by exactly its nominal duration and costs no
wall time; crash windows are read off the same clock. Compute and queueing still run on the host, in real time,
so a latency is real compute + real queueing + exact network time,
with no host timer overshoot in it.

Two guards keep a skip from hiding a real wait:

* the loop refuses to skip while any file descriptor other than its
  own self-pipe is registered (a socket or pipe could be due any
  moment, and the clock cannot know when);
* a wait with nothing ready and no timer pending raises
  :class:`RuntimeError` instead of blocking: in-process, nothing
  could ever wake it.

A thread's work is invisible to both (its completion arrives on the
self-pipe), so serve coroutines wait only on loop timers and queues.
"""

from __future__ import annotations

import asyncio
import selectors
import time
from typing import Any, Coroutine, List, Optional, Tuple, TypeVar

__all__ = ["VirtualClockLoop", "run_virtual"]

T = TypeVar("T")


class _IdleSkippingSelector(selectors.DefaultSelector):
    """Polls without blocking; a wait with nothing ready is skipped."""

    def __init__(self) -> None:
        super().__init__()
        #: seconds of idle waits skipped so far.
        self.skipped = 0.0

    def select(
        self, timeout: Optional[float] = None
    ) -> List[Tuple[selectors.SelectorKey, int]]:
        ready = super().select(0)
        if ready or timeout == 0:
            return ready
        if timeout is None:
            raise RuntimeError(
                "event loop idle with nothing scheduled: in-process, "
                "nothing could ever wake it"
            )
        # The loop itself registers only its self-pipe.
        if len(self.get_map()) > 1:
            raise RuntimeError(
                "virtual clock cannot skip an idle wait while file "
                f"descriptors {sorted(self.get_map())} are registered"
            )
        self.skipped += timeout
        return ready


class VirtualClockLoop(asyncio.SelectorEventLoop):
    """A selector event loop whose clock jumps over idle waits.

    ``time()`` is ``time.monotonic()`` plus the idle time skipped so
    far. The selector always polls with timeout 0; when nothing is ready
    and a timer is pending, the wait until it is added to the skipped
    total instead of slept.
    """

    def __init__(self) -> None:
        self._idle = _IdleSkippingSelector()
        super().__init__(self._idle)

    def time(self) -> float:
        return time.monotonic() + self._idle.skipped


def run_virtual(main: Coroutine[Any, Any, T]) -> T:
    """``asyncio.run(main)`` on a fresh :class:`VirtualClockLoop`.

    The same contract: it raises when called from a running loop, and
    on the way out cancels what is left, finalises async generators and
    closes the loop. (Python 3.10 has no ``asyncio.Runner(loop_factory=)``.)
    """
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        pass
    else:
        main.close()
        raise RuntimeError(
            "run_virtual() cannot be called from a running event loop"
        )
    loop = VirtualClockLoop()
    try:
        return loop.run_until_complete(main)
    finally:
        try:
            _cancel_all_tasks(loop)
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()


def _cancel_all_tasks(loop: asyncio.AbstractEventLoop) -> None:
    tasks = asyncio.all_tasks(loop)
    if not tasks:
        return
    for task in tasks:
        task.cancel()
    loop.run_until_complete(asyncio.gather(*tasks, return_exceptions=True))
    for task in tasks:
        if not task.cancelled() and task.exception() is not None:
            loop.call_exception_handler({
                "message": "unhandled exception during run_virtual() shutdown",
                "exception": task.exception(),
                "task": task,
            })
