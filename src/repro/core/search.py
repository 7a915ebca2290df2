"""Unified associative-search configuration: :class:`SearchSpec`.

Every inference entry point — ``HDClassifier``, ``EdgeHDModel``,
``HierarchicalInference``, the serving runtime and the CLIs — takes
its whole search configuration, backend and the prefix-pruning knobs
of the branch-and-bound kernel
(:func:`repro.core.kernels.packed_search`), as one frozen dataclass:

* ``backend`` — ``"dense"`` (float cosine) or ``"packed"``
  (XOR+popcount over uint64 bitplanes);
* ``prune`` — ``"off"`` (full search), ``"exact"`` (prefix +
  remaining-word bound + survivor refinement; argmax bit-identical to
  the full packed search) or ``"approx"`` (accept the prefix argmax
  when its similarity margin clears ``margin_threshold``, falling back
  to the exact branch-and-bound below it);
* ``prefix_fraction`` — fraction of the packed words scored in the
  prefix pass (SHEARer-style multifold approximation);
* ``margin_threshold`` — prefix top-1/top-2 similarity margin above
  which the approximate mode trusts the prefix argmax. Calibrate it
  with :meth:`repro.core.classifier.HDClassifier.calibrate_search`.

Resolution order everywhere is *per-call > per-object > process
default* (:func:`get_default_search` / :func:`set_default_search`, the
hook the ``repro reproduce`` CLI uses to apply ``--search-*`` flags to
experiment code it does not construct itself).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = [
    "BACKENDS",
    "PRUNE_MODES",
    "SearchSpec",
    "resolve_search",
    "get_default_search",
    "set_default_search",
]

#: Supported associative-search backends: ``"dense"`` is the float
#: cosine path; ``"packed"`` is the XOR+popcount kernel of
#: :mod:`repro.core.kernels`.
BACKENDS = ("dense", "packed")

#: Prefix-pruning modes of the packed kernel (``"off"`` everywhere else).
PRUNE_MODES = ("off", "exact", "approx")


@dataclass(frozen=True)
class SearchSpec:
    """Frozen bundle of every associative-search tunable.

    The default spec is the dense backend with pruning off.
    """

    backend: str = "dense"
    prune: str = "off"
    #: fraction of the packed uint64 words scored in the prefix pass
    #: (1/8 of D by default, the SHEARer multifold sweet spot).
    prefix_fraction: float = 0.125
    #: prefix similarity margin gating the approximate early accept.
    margin_threshold: float = 0.05

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.prune not in PRUNE_MODES:
            raise ValueError(
                f"prune must be one of {PRUNE_MODES}, got {self.prune!r}"
            )
        if self.prune != "off" and self.backend != "packed":
            raise ValueError(
                f"prune={self.prune!r} requires the packed backend; the "
                f"dense path has no prefix-word structure to bound"
            )
        if not 0.0 < self.prefix_fraction <= 1.0:
            raise ValueError(
                f"prefix_fraction must be in (0, 1], got "
                f"{self.prefix_fraction}"
            )
        if self.margin_threshold < 0.0:
            raise ValueError(
                f"margin_threshold must be >= 0, got {self.margin_threshold}"
            )

    @property
    def is_pruned(self) -> bool:
        """True when this spec runs the prefix-pruned kernel."""
        return self.prune != "off"

    def with_backend(self, backend: str) -> "SearchSpec":
        """Copy with the backend replaced (validation re-runs)."""
        return replace(self, backend=backend)

    def describe(self) -> str:
        """Compact one-line form for logs and benchmark tables."""
        if not self.is_pruned:
            return self.backend
        return (
            f"{self.backend}/{self.prune}"
            f"(prefix={self.prefix_fraction:g}, "
            f"margin={self.margin_threshold:g})"
        )

    def to_metadata(self) -> dict:
        """JSON-safe dict for benchmark artifact metadata."""
        return {
            "backend": self.backend,
            "prune": self.prune,
            "prefix_fraction": self.prefix_fraction,
            "margin_threshold": self.margin_threshold,
        }


#: Process-wide fallback spec; see resolution order in the module doc.
_default_search = SearchSpec()


def get_default_search() -> SearchSpec:
    """The process-default :class:`SearchSpec` (dense, pruning off)."""
    return _default_search


def set_default_search(spec: SearchSpec) -> SearchSpec:
    """Install a new process default; returns the previous one.

    Objects resolve their spec at *construction* time, so the default
    only affects models built afterwards — experiment entry points
    (``repro reproduce --search-*``) set it before building anything.
    """
    global _default_search
    if not isinstance(spec, SearchSpec):
        raise TypeError(
            f"default search must be a SearchSpec, got {type(spec).__name__}"
        )
    previous = _default_search
    _default_search = spec
    return previous


def resolve_search(
    search: Optional[SearchSpec] = None,
    *,
    default: Optional[SearchSpec] = None,
    owner: str = "search",
) -> SearchSpec:
    """``search`` when given, else ``default``, else the process default."""
    if search is None:
        return default if default is not None else get_default_search()
    if not isinstance(search, SearchSpec):
        raise TypeError(
            f"{owner}: search must be a SearchSpec, got "
            f"{type(search).__name__}"
        )
    return search
