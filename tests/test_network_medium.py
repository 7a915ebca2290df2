"""Unit tests for network medium models."""

import pytest

from repro.network.medium import MEDIA, Medium, get_medium


class TestMediaRegistry:
    def test_five_paper_media(self):
        assert set(MEDIA) == {
            "wired-1gbps",
            "wired-500mbps",
            "wifi-802.11ac",
            "wifi-802.11n",
            "bluetooth-4.0",
        }

    def test_bandwidth_ordering(self):
        """Fig. 11's x-axis ordering: wired > ac > n > bluetooth."""
        ordered = [
            "wired-1gbps",
            "wired-500mbps",
            "wifi-802.11ac",
            "wifi-802.11n",
            "bluetooth-4.0",
        ]
        bws = [MEDIA[name].bandwidth_bps for name in ordered]
        assert bws == sorted(bws, reverse=True)

    def test_paper_effective_bandwidths(self):
        assert MEDIA["wifi-802.11ac"].bandwidth_bps == pytest.approx(46.5e6)
        assert MEDIA["wifi-802.11n"].bandwidth_bps == pytest.approx(23.5e6)
        assert MEDIA["bluetooth-4.0"].bandwidth_bps == pytest.approx(1e6)

    def test_get_medium(self):
        assert get_medium("wired-1gbps") is MEDIA["wired-1gbps"]

    def test_get_medium_unknown(self):
        with pytest.raises(KeyError):
            get_medium("5g")


class TestMedium:
    def test_transfer_time(self):
        m = Medium("test", bandwidth_bps=8e6, latency_s=0.001,
                   tx_energy_per_bit=1e-9, rx_energy_per_bit=1e-9)
        # 1 MB = 8e6 bits -> 1 second + latency.
        assert m.transfer_time(1_000_000) == pytest.approx(1.001)

    def test_zero_payload_costs_latency_only(self):
        m = MEDIA["wifi-802.11n"]
        assert m.transfer_time(0) == m.latency_s
        assert m.transfer_energy(0) == 0.0

    def test_transfer_energy(self):
        m = Medium("test", bandwidth_bps=1e6, latency_s=0.0,
                   tx_energy_per_bit=2e-9, rx_energy_per_bit=1e-9)
        assert m.transfer_energy(1000) == pytest.approx(8000 * 3e-9)

    def test_slower_medium_takes_longer(self):
        fast = MEDIA["wired-1gbps"]
        slow = MEDIA["bluetooth-4.0"]
        assert slow.transfer_time(10_000) > fast.transfer_time(10_000)

    def test_negative_payload(self):
        m = MEDIA["wired-1gbps"]
        with pytest.raises(ValueError):
            m.transfer_time(-1)
        with pytest.raises(ValueError):
            m.transfer_energy(-1)

    @pytest.mark.parametrize("jitter_s", [-1e-3, float("nan"), float("inf")])
    def test_invalid_jitter(self, jitter_s):
        with pytest.raises(ValueError, match="jitter_s"):
            MEDIA["wired-1gbps"].transfer_time(100, jitter_s=jitter_s)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Medium("bad", 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            Medium("bad", 1e6, -1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            Medium("bad", 1e6, 0.0, -1e-9, 0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field",
        ["bandwidth_bps", "latency_s", "tx_energy_per_bit", "rx_energy_per_bit"],
    )
    def test_non_finite_construction(self, field, value):
        kwargs = dict(
            bandwidth_bps=1e6, latency_s=0.0,
            tx_energy_per_bit=0.0, rx_energy_per_bit=0.0,
        )
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            Medium("bad", **kwargs)
