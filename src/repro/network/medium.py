"""Network medium models (Sec. VI-E).

The paper evaluates five media; we model each with its *effective*
(application-level) bandwidth, a per-message latency, and transmit /
receive energy-per-bit figures typical of the corresponding radios.
The Raspberry Pi 3B+ practical figures quoted in the paper (802.11ac
at 46.5 / 23.5 Mbps, Bluetooth 4.0 at 1 Mbps) are used directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.utils.validation import check_positive

__all__ = ["Medium", "MEDIA", "get_medium"]


@dataclass(frozen=True)
class Medium:
    """Point-to-point link model."""

    name: str
    bandwidth_bps: float
    latency_s: float
    #: Joules per transmitted bit (radio + amplifier).
    tx_energy_per_bit: float
    #: Joules per received bit.
    rx_energy_per_bit: float

    def __post_init__(self) -> None:
        check_positive("bandwidth_bps", self.bandwidth_bps)
        check_positive("latency_s", self.latency_s, allow_zero=True)
        check_positive("tx_energy_per_bit", self.tx_energy_per_bit, allow_zero=True)
        check_positive("rx_energy_per_bit", self.rx_energy_per_bit, allow_zero=True)

    def transfer_time(self, payload_bytes: int, jitter_s: float = 0.0) -> float:
        """Seconds to push ``payload_bytes`` through this link.

        ``jitter_s`` adds extra one-way delay for this transfer only
        (contention / retransmission noise injected by a fault plan);
        the link's nominal latency and bandwidth are unchanged.
        """
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0")
        if not 0.0 <= jitter_s < math.inf:  # NaN fails too
            raise ValueError(f"jitter_s must be >= 0 and finite, got {jitter_s}")
        return (
            self.latency_s + jitter_s + (payload_bytes * 8) / self.bandwidth_bps
        )

    def transfer_energy(self, payload_bytes: int) -> float:
        """Joules spent by sender + receiver for ``payload_bytes``."""
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0")
        bits = payload_bytes * 8
        return bits * (self.tx_energy_per_bit + self.rx_energy_per_bit)


#: The five media of Fig. 11, effective bandwidths as the paper quotes.
MEDIA: Dict[str, Medium] = {
    m.name: m
    for m in [
        Medium("wired-1gbps", 1e9, 0.2e-3, 4e-9, 4e-9),
        Medium("wired-500mbps", 500e6, 0.2e-3, 4e-9, 4e-9),
        Medium("wifi-802.11ac", 46.5e6, 1.5e-3, 60e-9, 50e-9),
        Medium("wifi-802.11n", 23.5e6, 2.0e-3, 80e-9, 60e-9),
        Medium("bluetooth-4.0", 1e6, 5.0e-3, 150e-9, 100e-9),
    ]
}


def get_medium(name: str) -> Medium:
    """Look up a medium by name, with a helpful error message."""
    try:
        return MEDIA[name]
    except KeyError:
        raise KeyError(
            f"unknown medium {name!r}; available: {', '.join(MEDIA)}"
        ) from None
