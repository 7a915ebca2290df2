"""Comparison baselines: MLP (DNN), kernel SVM, AdaBoost, linear HD,
and the centralized-learning traffic. Centralized HD is
:class:`~repro.core.model.EdgeHDModel` trained on every feature plus
:func:`centralized_upload_messages`."""

from repro.baselines.adaboost import AdaBoostClassifier, DecisionStump
from repro.baselines.centralized import centralized_upload_messages
from repro.baselines.linear_hd import LinearHDClassifier
from repro.baselines.mlp import MLPClassifier
from repro.baselines.svm import KernelSVM

__all__ = [
    "AdaBoostClassifier",
    "DecisionStump",
    "centralized_upload_messages",
    "LinearHDClassifier",
    "MLPClassifier",
    "KernelSVM",
]
