"""``REPRO_SAN=1`` dynamic race sanitizer for the serving runtime.

The static pass (REPRO111 in :mod:`repro.analysis.flow`) over-
approximates: it cannot see aliasing through containers or mutation
buried in helpers. This module is its dynamic complement — a
generation-counting ownership guard wrapped around every in-flight
:class:`~repro.serve.request.ServeRequest` while tests run with
``REPRO_SAN=1`` (or after :func:`enable`), turning the PR-8 class of
interleaving (mutate a request the consumer may already hold) into an
immediate :class:`RaceError` at the mutation site.

Ownership protocol (mirrors the runtime's handoff discipline):

* creation — the creating code may mutate freely (``owner is None``);
* :func:`publish` — called by :class:`~repro.serve.queueing.
  BoundedQueue` *before* the enqueue: once the item is in the queue
  the consumer may :func:`acquire` it before the producer resumes from
  its ``await``, so a publish after the put could re-mark an object
  the consumer already owns. While enqueued, **any** mutation raises:
  the producer has surrendered the object but the consumer has not
  picked it up — exactly the window the pre-fix ``_forward`` append
  landed in;
* :func:`unpublish` — the inverse, for a handoff that did not happen
  (``ShedError`` / ``QueueTimeout`` / ``offer`` returning False): the
  item never entered the queue, so the previous owner gets it back
  with its generation untouched and may mutate again (``_forward``'s
  ``charged_path.pop()`` arms rely on it);
* :func:`acquire` — called by :class:`~repro.serve.batcher.
  MicroBatcher` when the *consuming* coroutine (the node's ``run``
  task) receives the batch. From
  then on only the owning task may mutate, until it publishes again
  for the next hop.

Mutations are counted (``generation``); :func:`acquire` cross-checks
the generation recorded at publish time so even a mutation path that
bypassed the proxies is caught at the next handoff.

Nested mutable state that stays on the producer side by contract
(``timings``, ``trace``) is deliberately unguarded — the runtime
mutates those from delivery tasks after the decision is final.
"""

from __future__ import annotations

import asyncio
import os
from typing import Any, Iterable, List, Optional

from repro.serve.request import ServeRequest

__all__ = [
    "RaceError",
    "OwnershipGuard",
    "GuardedList",
    "SanitizedServeRequest",
    "request_class",
    "enabled",
    "enable",
    "publish",
    "unpublish",
    "acquire",
]

_enabled: bool = os.environ.get("REPRO_SAN", "") not in ("", "0")


def enabled() -> bool:
    """True when the sanitizer is active (``REPRO_SAN=1`` or tests)."""
    return _enabled


def enable(flag: bool = True) -> None:
    """Toggle the sanitizer at runtime (tests; overrides the env)."""
    global _enabled
    _enabled = flag


class RaceError(AssertionError):
    """A guarded object was mutated outside its ownership window."""


class _Enqueued:
    """Sentinel owner: the object sits in a queue, nobody may touch it."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<enqueued>"


_ENQUEUED = _Enqueued()


def _current_task() -> Optional["asyncio.Task[Any]"]:
    try:
        return asyncio.current_task()
    except RuntimeError:  # no running loop (sync construction in tests)
        return None


class OwnershipGuard:
    """Generation-counting single-owner guard for one request."""

    __slots__ = (
        "describe", "owner", "previous_owner", "generation",
        "published_generation",
    )

    def __init__(self, describe: str) -> None:
        self.describe = describe
        #: None (creator), :data:`_ENQUEUED`, or the owning task.
        self.owner: Any = None
        #: the owner :meth:`publish` replaced (for :meth:`unpublish`).
        self.previous_owner: Any = None
        self.generation = 0
        self.published_generation = -1

    def on_mutate(self, what: str) -> None:
        """Record a mutation; raise when the caller does not own it."""
        if self.owner is _ENQUEUED:
            raise RaceError(
                f"REPRO_SAN: {what} on {self.describe} while it is "
                f"enqueued for another task (generation "
                f"{self.generation}, published at "
                f"{self.published_generation}) — mutate before the "
                f"handoff, not after the await"
            )
        if self.owner is not None:
            task = _current_task()
            if task is not None and task is not self.owner:
                raise RaceError(
                    f"REPRO_SAN: {what} on {self.describe} from task "
                    f"{task.get_name()!r} but it is owned by "
                    f"{self.owner.get_name()!r}"
                )
        self.generation += 1

    def publish(self) -> None:
        """The current owner is handing the object to a queue."""
        self.previous_owner = self.owner
        self.owner = _ENQUEUED
        self.published_generation = self.generation

    def unpublish(self) -> None:
        """The handoff failed: the object never entered the queue."""
        self.owner = self.previous_owner

    def acquire(self) -> None:
        """The consuming task picked the object up."""
        if (
            self.owner is _ENQUEUED
            and self.generation != self.published_generation
        ):
            raise RaceError(
                f"REPRO_SAN: {self.describe} changed while enqueued "
                f"(generation {self.generation} != published "
                f"{self.published_generation})"
            )
        self.owner = _current_task()


class GuardedList(List[Any]):
    """A list that reports every mutation to its guard."""

    __slots__ = ("_guard",)

    def __init__(self, items: Iterable[Any], guard: OwnershipGuard) -> None:
        super().__init__(items)
        self._guard = guard

    def _check(self, what: str) -> None:
        self._guard.on_mutate(what)

    def append(self, item: Any) -> None:
        self._check("append")
        super().append(item)

    def extend(self, items: Iterable[Any]) -> None:
        self._check("extend")
        super().extend(items)

    def insert(self, index: int, item: Any) -> None:
        self._check("insert")
        super().insert(index, item)

    def remove(self, item: Any) -> None:
        self._check("remove")
        super().remove(item)

    def pop(self, index: int = -1) -> Any:
        self._check("pop")
        return super().pop(index)

    def clear(self) -> None:
        self._check("clear")
        super().clear()

    def sort(self, **kwargs: Any) -> None:
        self._check("sort")
        super().sort(**kwargs)

    def reverse(self) -> None:
        self._check("reverse")
        super().reverse()

    def __setitem__(self, index: Any, value: Any) -> None:
        self._check("setitem")
        super().__setitem__(index, value)

    def __delitem__(self, index: Any) -> None:
        self._check("delitem")
        super().__delitem__(index)

    def __iadd__(self, items: Iterable[Any]) -> "GuardedList":
        self._check("iadd")
        super().extend(items)
        return self


class SanitizedServeRequest(ServeRequest):
    """A :class:`ServeRequest` whose mutations are ownership-checked.

    ``timings`` and ``trace`` hold nested mutable state that the
    runtime legitimately updates from delivery tasks; the guard covers
    direct attribute rebinding and ``charged_path``.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        guard = OwnershipGuard(describe=f"ServeRequest #{self.index}")
        self.__dict__["charged_path"] = GuardedList(self.charged_path, guard)
        self.__dict__["_san_guard"] = guard

    def __setattr__(self, name: str, value: Any) -> None:
        guard = self.__dict__.get("_san_guard")
        if guard is not None:
            guard.on_mutate(f"set .{name}")
        object.__setattr__(self, name, value)


def request_class() -> type:
    """The request class the runtime should instantiate right now."""
    return SanitizedServeRequest if _enabled else ServeRequest


def _guard_of(item: Any) -> Optional[OwnershipGuard]:
    """``item``'s guard while the sanitizer is on (unguarded items: None)."""
    return getattr(item, "_san_guard", None) if _enabled else None


def publish(item: Any) -> None:
    """Queue hook: ``item`` is about to be enqueued."""
    guard = _guard_of(item)
    if guard is not None:
        guard.publish()


def unpublish(item: Any) -> None:
    """Queue hook: the enqueue of ``item`` failed (shed / timed out)."""
    guard = _guard_of(item)
    if guard is not None:
        guard.unpublish()


def acquire(item: Any) -> None:
    """Consumer hook: the owning coroutine received ``item``."""
    guard = _guard_of(item)
    if guard is not None:
        guard.acquire()
