"""Baseline HD classifier with linear encoding ([36] in the paper).

The state-of-the-art HD baseline the paper compares against maps each
input feature *linearly* into the hyperspace before the usual class-
hypervector training. Fig. 7 shows EdgeHD's non-linear encoding buys
~4.7% accuracy on average over this baseline — the comparison our
accuracy bench reproduces.
"""

from __future__ import annotations

from typing import Optional

from repro.core.model import EdgeHDModel
from repro.core.search import SearchSpec
from repro.utils.rng import SeedLike

__all__ = ["LinearHDClassifier"]


class LinearHDClassifier(EdgeHDModel):
    """EdgeHD pipeline with the linear random-projection encoder.

    Inherits the full :class:`~repro.core.predictor.Predictor` surface
    (``predict`` / ``predict_labels`` / ``predict_proba``) and the
    :class:`~repro.core.search.SearchSpec` switch from
    :class:`EdgeHDModel`.
    """

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        dimension: int = 4000,
        seed: SeedLike = None,
        search: Optional[SearchSpec] = None,
    ) -> None:
        super().__init__(
            n_features=n_features,
            n_classes=n_classes,
            dimension=dimension,
            encoder="linear",
            seed=seed,
            search=search,
        )
