"""Unified associative-search configuration: :class:`SearchSpec`.

Every inference entry point — ``HDClassifier``, ``EdgeHDModel``,
``HierarchicalInference``, the serving runtime and the CLIs — takes
its search configuration as one frozen dataclass with one field:

* ``backend`` — ``"dense"`` (float cosine) or ``"packed"``
  (XOR+popcount over uint64 bitplanes).

Resolution order everywhere is *per-call > per-object > process
default* (:func:`get_default_search` / :func:`set_default_search`, the
hook the ``repro reproduce`` CLI uses to apply ``--search-backend`` to
experiment code it does not construct itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "BACKENDS",
    "SearchSpec",
    "resolve_search",
    "get_default_search",
    "set_default_search",
]

#: Supported associative-search backends: ``"dense"`` is the float
#: cosine path; ``"packed"`` is the XOR+popcount kernel of
#: :mod:`repro.core.kernels`.
BACKENDS = ("dense", "packed")


@dataclass(frozen=True)
class SearchSpec:
    """Which kernel answers an associative search; dense by default."""

    backend: str = "dense"

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )

    def describe(self) -> str:
        """Compact one-line form for logs and benchmark tables."""
        return self.backend

    def to_metadata(self) -> dict:
        """JSON-safe dict for benchmark artifact metadata."""
        return {"backend": self.backend}


#: Process-wide fallback spec; see resolution order in the module doc.
_default_search = SearchSpec()


def get_default_search() -> SearchSpec:
    """The process-default :class:`SearchSpec` (dense)."""
    return _default_search


def set_default_search(spec: SearchSpec) -> SearchSpec:
    """Install a new process default; returns the previous one.

    Objects resolve their spec at *construction* time, so the default
    only affects models built afterwards — experiment entry points
    (``repro reproduce --search-backend``) set it before building anything.
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
