"""Downlink and device-to-device channel model.

Rates follow a gap-adjusted Shannon formula on a flat channel. The cellular
(long-range, LR) link applies the M-QAM SNR gap ``1.5 / (-ln(5 * p_error))``;
the device-to-device (short-range, SR) link does not. Both links sit on an
interference floor equal to a fixed fraction of the received signal power,
which models spectrum-underlay coexistence as a worst case. Channel gains
are flat across subcarriers, so the per-subcarrier sum collapses into a
single bandwidth multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .formation import FormationGraph

DISTANCE_FLOOR_M = 1.0


@dataclass(frozen=True)
class RadioConfig:
    """System and radio constants for one scenario instance.

    Defaults describe a 5 MHz downlink with 25 resource blocks of 12
    subcarriers each, a 5 W base station, and a 125 mW per-device budget
    on the SR link.
    """

    bandwidth_total: float = 5e6          # Hz
    rb_count: int = 25
    subcarriers_per_rb: int = 12
    bs_power_total: float = 5.0           # W, split equally over subcarriers
    sr_power_max: float = 0.125           # W per transmitting device
    noise_power: float = 1e-16            # W per subcarrier
    target_error_prob: float = 1e-3       # must stay below 0.2 for a positive gap
    interference_fraction: float = 1e-4   # fraction of received signal power
    pathloss_ref_db: float = 37.0         # dB at 1 m
    pathloss_exp_lr: float = 3.7
    pathloss_exp_sr: float = 2.95

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.bandwidth_total <= 0:
            raise ValueError("bandwidth_total must be positive")
        if self.rb_count <= 0 or self.subcarriers_per_rb <= 0:
            raise ValueError("rb_count and subcarriers_per_rb must be positive")
        if self.bs_power_total <= 0 or self.sr_power_max <= 0:
            raise ValueError("transmit powers must be positive")
        if self.noise_power <= 0:
            raise ValueError("noise_power must be positive")
        if not 0.0 < self.target_error_prob < 0.2:
            raise ValueError("target_error_prob must lie in (0, 0.2)")
        if self.interference_fraction < 0:
            raise ValueError("interference_fraction must be nonnegative")

    @property
    def subcarrier_count(self) -> int:
        return self.rb_count * self.subcarriers_per_rb

    @property
    def subcarrier_bandwidth(self) -> float:
        return self.bandwidth_total / self.subcarrier_count

    @property
    def snr_gap(self) -> float:
        # Positive M-QAM gap; the raw form 1.5/ln(5 Pe) is negative for
        # Pe < 0.2, so the magnitude is used.
        return 1.5 / (-math.log(5.0 * self.target_error_prob))

    @property
    def bs_power_per_subcarrier(self) -> float:
        return self.bs_power_total / self.subcarrier_count

    @property
    def sr_power_per_subcarrier(self) -> float:
        return self.sr_power_max / self.subcarrier_count


@dataclass(frozen=True)
class Topology:
    """Geometry and gains for one deployment: positions plus per-link
    dimensionless channel gains (flat across subcarriers).

    ``gain_sr`` must be symmetric with a zero diagonal; a zero gain marks a
    dead link.
    """

    bs_position: np.ndarray       # (2,)
    mu_positions: np.ndarray      # (K, 2)
    gain_lr: np.ndarray           # (K,)
    gain_sr: np.ndarray           # (K, K)
    radio: RadioConfig

    def __post_init__(self) -> None:
        bs = np.asarray(self.bs_position, dtype=float)
        pos = np.asarray(self.mu_positions, dtype=float)
        glr = np.asarray(self.gain_lr, dtype=float)
        gsr = np.asarray(self.gain_sr, dtype=float)
        if bs.shape != (2,):
            raise ValueError("bs_position must be a 2-vector")
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError("mu_positions must have shape (K, 2)")
        k = pos.shape[0]
        if k < 1:
            raise ValueError("need at least one MU")
        if glr.shape != (k,):
            raise ValueError("gain_lr must have length K")
        if gsr.shape != (k, k):
            raise ValueError("gain_sr must have shape (K, K)")
        if not (np.all(np.isfinite(glr)) and np.all(np.isfinite(gsr))):
            raise ValueError("gains must be finite")
        if np.any(glr < 0) or np.any(glr > 1) or np.any(gsr < 0) or np.any(gsr > 1):
            raise ValueError("gains must lie in [0, 1]")
        if np.any(np.diag(gsr) != 0):
            raise ValueError("gain_sr diagonal must be zero")
        if not np.array_equal(gsr, gsr.T):
            raise ValueError("gain_sr must be symmetric")
        for name, arr in (("bs_position", bs), ("mu_positions", pos),
                          ("gain_lr", glr), ("gain_sr", gsr)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def mu_count(self) -> int:
        return self.mu_positions.shape[0]


@dataclass(frozen=True)
class RateTable:
    """All bit-rate quantities for one topology: per-MU cellular rates, the
    SR rate matrix, and the derived multicast rate (the cellular minimum)."""

    lr_rate: np.ndarray       # (K,) bits/s
    sr_rate: np.ndarray       # (K, K) bits/s, zero diagonal
    multicast_rate: float = field(init=False)  # bits/s

    def __post_init__(self) -> None:
        lr = np.asarray(self.lr_rate, dtype=float)
        sr = np.asarray(self.sr_rate, dtype=float)
        if lr.ndim != 1 or sr.shape != (lr.shape[0], lr.shape[0]):
            raise ValueError("inconsistent rate table shapes")
        if not (np.all(np.isfinite(lr)) and np.all(np.isfinite(sr))):
            raise ValueError("rates must be finite")
        if np.any(lr < 0) or np.any(sr < 0):
            raise ValueError("rates must be nonnegative")
        if np.any(np.diag(sr) != 0):
            raise ValueError("sr_rate diagonal must be zero")
        lr.setflags(write=False)
        sr.setflags(write=False)
        object.__setattr__(self, "lr_rate", lr)
        object.__setattr__(self, "sr_rate", sr)
        object.__setattr__(self, "multicast_rate", float(lr.min()))


def pathloss_gain(distance, ref_db: float, exponent: float):
    """Log-distance path gain ``10 ** (-(ref_db + 10 e log10 d) / 10)``.

    Distances below 1 m are clamped to 1 m. Accepts scalars or arrays.
    """
    d = np.asarray(distance, dtype=float)
    if not np.all(np.isfinite(d)):
        raise ValueError("distance must be finite")
    d = np.maximum(d, DISTANCE_FLOOR_M)
    gain = 10.0 ** (-(ref_db + 10.0 * exponent * np.log10(d)) / 10.0)
    if np.isscalar(distance) or np.ndim(distance) == 0:
        return float(gain)
    return gain


def _link_rate(power_per_subcarrier: float, gain: float, radio: RadioConfig,
               snr_gap: float = 1.0) -> float:
    """Gap-adjusted Shannon rate over the whole band; the SR link has no gap."""
    signal = power_per_subcarrier * gain
    interference = radio.interference_fraction * signal
    sinr = snr_gap * signal / (radio.noise_power + interference)
    return radio.subcarrier_count * radio.subcarrier_bandwidth * math.log2(1.0 + sinr)


def lr_rate(mu: int, topology: Topology) -> float:
    """Cellular downlink rate of one MU with the full band assigned to it."""
    if not 0 <= mu < topology.mu_count:
        raise ValueError(f"mu index {mu} out of range")
    radio = topology.radio
    return _link_rate(radio.bs_power_per_subcarrier,
                      float(topology.gain_lr[mu]), radio, radio.snr_gap)


def sr_rate(tx: int, rx: int, topology: Topology) -> float:
    """Device-to-device rate between two MUs; symmetric in (tx, rx)."""
    k = topology.mu_count
    if not (0 <= tx < k and 0 <= rx < k):
        raise ValueError("MU index out of range")
    if tx == rx:
        raise ValueError("tx and rx must differ")
    radio = topology.radio
    return _link_rate(radio.sr_power_per_subcarrier,
                      float(topology.gain_sr[tx, rx]), radio)


def rate_table(topology: Topology) -> RateTable:
    """Every MU's cellular rate, their minimum, and the SR rate matrix."""
    radio = topology.radio
    k = topology.mu_count
    lr = np.array([_link_rate(radio.bs_power_per_subcarrier, float(g), radio,
                              radio.snr_gap) for g in topology.gain_lr])
    sr = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            sr[i, j] = sr[j, i] = _link_rate(radio.sr_power_per_subcarrier,
                                             float(topology.gain_sr[i, j]),
                                             radio)
    return RateTable(lr_rate=lr, sr_rate=sr)


def reception_rate(mu: int, graph: "FormationGraph", rates: RateTable) -> float:
    """Rate at which content arrives at ``mu`` inside a formed tree.

    The seed receives at its own cellular rate. Every other node receives at
    its parent's multicast rate, which is the minimum of the parent's own
    reception rate and the parent's slowest child link.
    """
    k = len(rates.lr_rate)
    if not 0 <= mu < k:
        raise ValueError(f"mu index {mu} out of range")
    if not graph.connected[mu]:
        raise ValueError(f"MU {mu} is not part of the tree")
    rec = float(rates.lr_rate[graph.seed])
    node = mu
    while node != graph.seed:
        node = graph.parent[node]
        fanout = min(float(rates.sr_rate[node, c]) for c in graph.children[node])
        rec = min(rec, fanout)
    return rec
