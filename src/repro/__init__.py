"""EdgeHD: hierarchical, distributed, brain-inspired learning for IoT.

Reproduction of Imani et al., "Hierarchical, Distributed and
Brain-Inspired Learning for Internet of Things Systems" (ICDCS 2023).

Quick tour
----------
>>> from repro import EdgeHDModel
>>> from repro.data import load_dataset
>>> data = load_dataset("ISOLET", scale=0.02)
>>> model = EdgeHDModel(data.n_features, data.n_classes, dimension=1000)
>>> report = model.fit(data.train_x, data.train_y, retrain_epochs=5)
>>> accuracy = model.accuracy(data.test_x, data.test_y)

Subpackages
-----------
``repro.core``
    Hypervector algebra, encoders, the HD classifier, compression,
    holographic projection, residual accumulators.
``repro.hierarchy``
    Topologies, federated training, escalation inference, online
    learning.
``repro.network``
    Media models, messages, discrete-event simulator, failure
    injection (NS-3 substitute).
``repro.hardware``
    Op counting, platform rooflines, the FPGA design model.
``repro.baselines``
    MLP, kernel SVM, AdaBoost, linear-encoding HD, and the
    centralized-learning traffic (centralized HD is ``EdgeHDModel``
    plus ``centralized_upload_messages``).
``repro.data``
    Synthetic stand-ins for the paper's nine datasets.
``repro.experiments``
    One module per paper table/figure, regenerating its rows/series.
``repro.obs``
    Opt-in observability: metrics registry, span tracing, JSONL trace
    export (enable with ``REPRO_OBS=1`` or ``repro.obs.enable()``).
"""

import logging as _logging

from repro.config import DEFAULT_CONFIG, EdgeHDConfig
from repro.core import EdgeHDModel, HDClassifier
from repro.hierarchy import (
    EdgeHDFederation,
    HierarchicalInference,
    OnlineSession,
    build_pecan,
    build_star,
    build_tree,
)

__version__ = "1.0.0"

# Library logging etiquette: every module logs under the ``repro.*``
# namespace; the package root gets a NullHandler so importing repro
# never prints anything unless the application opts in (e.g. the CLI's
# -v flag or logging.basicConfig()).
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

__all__ = [
    "DEFAULT_CONFIG",
    "EdgeHDConfig",
    "EdgeHDModel",
    "HDClassifier",
    "EdgeHDFederation",
    "HierarchicalInference",
    "OnlineSession",
    "build_pecan",
    "build_star",
    "build_tree",
    "__version__",
]
