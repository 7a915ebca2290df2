"""Cycle-accurate-ish model of the EdgeHD FPGA design (Sec. V, Fig. 6).

This module models the *structure* of the proposed pipeline rather than
a generic roofline, so the Sec. V design choices can be ablated:

* **sparse encoding** (Fig. 6A/B): each of the ``D`` weight rows keeps
  a contiguous run of ``(1-s)*n`` non-zeros, consuming one DSP MAC per
  non-zero; rows are processed ``n_dsp`` at a time and reduced through
  a tree adder of depth ``ceil(log2(block))``.
* **unified residual update** (Fig. 6C/E): model changes accumulate in
  residual hypervectors and are applied once, instead of read-modify-
  writes on BRAM per sample.
* **pre-normalized associative search** (Fig. 6F): binary queries turn
  the cosine into sign-conditioned accumulation — no multiplies.

The model exposes cycle counts for each stage, a resource check against
the Kintex-7 KC705 budget, and a power estimate used for the hierarchy
nodes (0.28 W class) vs the centralized design (9.8 W class).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["FPGAResources", "KC705", "FPGADesign"]


@dataclass(frozen=True)
class FPGAResources:
    """Available resources of an FPGA part."""

    name: str
    n_dsp: int
    bram_kbits: int
    luts: int

    def __post_init__(self) -> None:
        if min(self.n_dsp, self.bram_kbits, self.luts) <= 0:
            raise ValueError("all resource counts must be positive")


#: Xilinx Kintex-7 KC705 evaluation kit (XC7K325T).
KC705 = FPGAResources(name="kc705-xc7k325t", n_dsp=840, bram_kbits=16_020, luts=203_800)


class FPGADesign:
    """One synthesized EdgeHD instance on a given part.

    Parameters
    ----------
    n_features, dimension, n_classes:
        Workload shape at this node.
    sparsity:
        Encoder weight sparsity ``s`` (Sec. V-A).
    n_dsp:
        DSP slices allocated to the encoding dot products.
    clock_hz:
        Pipeline clock. 200 MHz is typical for this class of design.
    part:
        Resource budget to validate against.
    """

    #: power model constants (W): static + per-DSP dynamic at 200 MHz.
    _STATIC_W = 0.12
    _PER_DSP_W = 0.0115
    _BRAM_W_PER_MBIT = 0.05

    def __init__(
        self,
        n_features: int,
        dimension: int,
        n_classes: int,
        sparsity: float = 0.8,
        n_dsp: int = 840,
        clock_hz: float = 200e6,
        part: FPGAResources = KC705,
    ) -> None:
        if n_features <= 0 or dimension <= 0 or n_classes <= 0:
            raise ValueError("workload shape must be positive")
        if not 0.0 <= sparsity < 1.0:
            raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
        if n_dsp <= 0:
            raise ValueError("n_dsp must be positive")
        if clock_hz <= 0:
            raise ValueError("clock_hz must be positive")
        self.n_features = int(n_features)
        self.dimension = int(dimension)
        self.n_classes = int(n_classes)
        self.sparsity = float(sparsity)
        self.n_dsp = int(n_dsp)
        self.clock_hz = float(clock_hz)
        self.part = part
        self.block_length = max(1, math.ceil((1.0 - sparsity) * n_features))

    # ------------------------------------------------------------------
    # resource accounting
    # ------------------------------------------------------------------
    def weight_storage_kbits(self) -> float:
        """BRAM for the sparse weight rows + start indices (Sec. V-A).

        Each row stores ``block_length`` 16-bit fixed-point weights and
        a ``log2(n)``-bit start index.
        """
        index_bits = max(1, math.ceil(math.log2(self.n_features)))
        bits = self.dimension * (self.block_length * 16 + index_bits)
        return bits / 1024.0

    def model_storage_kbits(self) -> float:
        """BRAM for class + residual hypervectors (32-bit elements)."""
        bits = 2 * self.n_classes * self.dimension * 32
        return bits / 1024.0

    def fits(self) -> bool:
        """Whether the design fits the part's DSP + BRAM budget."""
        bram = self.weight_storage_kbits() + self.model_storage_kbits()
        return self.n_dsp <= self.part.n_dsp and bram <= self.part.bram_kbits

    # ------------------------------------------------------------------
    # cycle counts
    # ------------------------------------------------------------------
    def encoding_cycles(self, n_samples: int = 1) -> int:
        """Cycles to encode ``n_samples`` feature vectors.

        ``D`` dot products of ``block_length`` MACs each are spread
        over ``n_dsp`` DSPs; the tree adder and cosine LUT add a
        pipeline fill of ``log2(block)+1`` cycles per sample.
        """
        if n_samples < 0:
            raise ValueError("n_samples must be >= 0")
        macs = self.dimension * self.block_length
        steady = math.ceil(macs / self.n_dsp)
        fill = math.ceil(math.log2(max(2, self.block_length))) + 1
        return n_samples * (steady + fill)

    def search_cycles(self, n_queries: int = 1) -> int:
        """Cycles for the associative search over ``K`` classes.

        Binary queries: the negation block conditionally flips class
        elements, a tree adder accumulates ``D`` terms lane-parallel
        over the DSP-width datapath, and a comparator picks the max.
        """
        if n_queries < 0:
            raise ValueError("n_queries must be >= 0")
        lanes = max(1, self.n_dsp)
        per_class = math.ceil(self.dimension / lanes) + math.ceil(
            math.log2(max(2, self.dimension))
        )
        return n_queries * (self.n_classes * per_class + self.n_classes)

    def model_update_cycles(self, n_updates: int = 1) -> int:
        """Cycles to fold residual hypervectors into the model once.

        The unified-update design (Fig. 6C/E) pays ``K*D`` adds per
        application, independent of how many feedback events were
        accumulated.
        """
        if n_updates < 0:
            raise ValueError("n_updates must be >= 0")
        lanes = max(1, self.n_dsp)
        return n_updates * self.n_classes * math.ceil(self.dimension / lanes)

    def training_cycles(self, n_samples: int, epochs: int = 20) -> int:
        """Encode + initial bundling + retraining passes."""
        if epochs < 0:
            raise ValueError("epochs must be >= 0")
        encode = self.encoding_cycles(n_samples)
        bundle = self.model_update_cycles(1) + n_samples  # streaming adds
        retrain = epochs * (self.search_cycles(n_samples) + self.model_update_cycles(1))
        return encode + bundle + retrain

    def inference_cycles(self, n_queries: int) -> int:
        return self.encoding_cycles(n_queries) + self.search_cycles(n_queries)

    # ------------------------------------------------------------------
    # time / power / energy
    # ------------------------------------------------------------------
    def seconds(self, cycles: int) -> float:
        if cycles < 0:
            raise ValueError("cycles must be >= 0")
        return cycles / self.clock_hz

    def power_w(self) -> float:
        """Activity-based power: static + DSP dynamic + BRAM."""
        bram_mbits = (self.weight_storage_kbits() + self.model_storage_kbits()) / 1024.0
        return (
            self._STATIC_W
            + self._PER_DSP_W * self.n_dsp
            + self._BRAM_W_PER_MBIT * bram_mbits
        )

    def energy_j(self, cycles: int) -> float:
        return self.seconds(cycles) * self.power_w()
