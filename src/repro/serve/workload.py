"""Workloads and arrival processes for the serving runtime.

A :class:`ServeWorkload` is a feature matrix plus the end node each
query enters at. :func:`make_workload` draws start leaves through
:meth:`HierarchicalInference.entry_leaves`, as
:meth:`HierarchicalInference.run` does, so a served workload and an
offline run over the same features and seed walk identical queries
through identical nodes — the property the equivalence tests pin down.

Arrival processes (all reproducible through :mod:`repro.utils.rng`):

* :func:`poisson_arrivals` — open-loop: memoryless interarrivals at a
  target rate; the generator submits on schedule regardless of how the
  system is coping (the honest way to measure latency under load).
* :func:`uniform_arrivals` — open-loop, deterministic equal spacing.
* closed-loop — no precomputed schedule: ``ServingRuntime.
  serve_closed_loop`` keeps ``n_clients`` requests in flight, each
  client submitting its next query when the previous answer returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.utils.rng import SeedLike, derive_rng
from repro.utils.validation import check_matrix

if TYPE_CHECKING:  # type-only: repro.hierarchy already imports repro.serve
    from repro.hierarchy.inference import HierarchicalInference

__all__ = [
    "ServeWorkload",
    "make_workload",
    "poisson_arrivals",
    "uniform_arrivals",
    "open_loop_arrivals",
]


@dataclass
class ServeWorkload:
    """Queries to serve: one feature row + start leaf per request."""

    features: np.ndarray
    start_leaves: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.features = check_matrix("features", self.features)
        self.start_leaves = np.asarray(self.start_leaves, dtype=np.int64)
        n = self.features.shape[0]
        if self.start_leaves.shape != (n,):
            raise ValueError(
                f"start_leaves must have shape ({n},), got "
                f"{self.start_leaves.shape}"
            )
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape != (n,):
                raise ValueError(
                    f"labels must have shape ({n},), got {self.labels.shape}"
                )

    def __len__(self) -> int:
        return int(self.features.shape[0])

    def accuracy(self, predicted: np.ndarray) -> float:
        if self.labels is None:
            raise ValueError("workload carries no ground-truth labels")
        return float(np.mean(np.asarray(predicted) == self.labels))


def make_workload(
    features: np.ndarray,
    inference: "HierarchicalInference",
    seed: SeedLike = 0,
    labels: Optional[np.ndarray] = None,
    start_leaves: Optional[np.ndarray] = None,
) -> ServeWorkload:
    """Build a workload over a trained ``HierarchicalInference``.

    Start leaves come from :meth:`HierarchicalInference.entry_leaves`,
    the draw ``HierarchicalInference.run(seed=seed)`` makes — so serving
    this workload and running offline with the same seed process the
    same (query, entry node) pairs.
    """
    mat = check_matrix(
        "features", features, cols=inference.federation.partition.n_features
    )
    return ServeWorkload(
        features=mat,
        start_leaves=inference.entry_leaves(mat.shape[0], seed, start_leaves),
        labels=labels,
    )


def poisson_arrivals(
    n: int, rate_rps: float, seed: SeedLike = 0
) -> np.ndarray:
    """Absolute arrival times (seconds) of an open-loop Poisson stream.

    Interarrival gaps are exponential with mean ``1 / rate_rps``;
    the stream is reproducible via ``derive_rng(seed,
    "poisson-arrivals")``.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be positive, got {rate_rps}")
    rng = derive_rng(seed, "poisson-arrivals")
    gaps = rng.exponential(scale=1.0 / rate_rps, size=n)
    return np.cumsum(gaps)


def uniform_arrivals(n: int, rate_rps: float) -> np.ndarray:
    """Deterministic, evenly spaced open-loop arrival times (seconds)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be positive, got {rate_rps}")
    return (np.arange(n, dtype=np.float64) + 1.0) / rate_rps


def open_loop_arrivals(
    n: int,
    rate_rps: float,
    seed: SeedLike = 0,
    arrivals: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The schedule an open-loop run submits on (absolute seconds).

    ``arrivals`` wins when given (validated: one time per request);
    otherwise a Poisson stream at ``rate_rps`` is drawn from ``seed``.
    """
    if arrivals is None:
        return poisson_arrivals(n, rate_rps, seed)
    arrivals = np.asarray(arrivals, dtype=np.float64)
    if arrivals.shape != (n,):
        raise ValueError(
            f"arrivals must have shape ({n},), got {arrivals.shape}"
        )
    return arrivals
