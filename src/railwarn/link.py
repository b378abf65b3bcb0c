"""Per-packet link model: success probability and latency.

Two interchangeable packet-success sources sit behind one call:

* an empirical profile of packet error rate binned by train distance, as
  produced by field measurement campaigns (antenna gains and obstructions
  are already baked into such measurements and are ignored); or
* a synthetic log-distance channel with optional log-normal shadowing and
  explicit obstruction segments, mapped to a success probability through a
  logistic curve centred on a per-modulation SNR threshold.

The synthetic receiver thresholds (QPSK 8 dB, 16QAM 15 dB, 2 dB transition
width) are conventional defaults, not measured values; override them when
calibrating against real hardware.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .units import SPEED_OF_LIGHT_MPS, require_finite

MODULATIONS = ("QPSK", "16QAM")
ALLOWED_TX_POWERS_DBM = (11.0, 23.0)


def friis_reference_loss_db(frequency_hz: float) -> float:
    """Free-space path loss at 1 m for the given carrier."""
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    return 20.0 * math.log10(4.0 * math.pi * frequency_hz / SPEED_OF_LIGHT_MPS)


@dataclass(frozen=True)
class RadioConfig:
    """Transmit-side radio and framing configuration."""

    center_frequency_hz: float = 5.87e9
    channel_number: int = 174
    tx_power_dbm: float = 23.0
    modulation: str = "QPSK"
    packet_size_bytes: int = 99
    tx_period_ms: float = 50.0
    tx_antenna: str = "omni12"
    rx_antenna: str = "omni6"

    def __post_init__(self) -> None:
        require_finite(
            center_frequency_hz=self.center_frequency_hz,
            tx_power_dbm=self.tx_power_dbm,
            tx_period_ms=self.tx_period_ms,
        )
        if self.tx_power_dbm not in ALLOWED_TX_POWERS_DBM:
            raise ValueError(
                f"tx_power_dbm must be one of {ALLOWED_TX_POWERS_DBM}, "
                f"got {self.tx_power_dbm:g}"
            )
        if self.modulation not in MODULATIONS:
            raise ValueError(
                f"modulation must be one of {MODULATIONS}, got {self.modulation!r}"
            )
        if self.packet_size_bytes <= 0:
            raise ValueError("packet size must be positive")
        if self.tx_period_ms <= 0:
            raise ValueError("transmit period must be positive")
        if self.center_frequency_hz <= 0:
            raise ValueError("center frequency must be positive")

    @property
    def tx_period_s(self) -> float:
        return self.tx_period_ms / 1000.0


@dataclass(frozen=True)
class PerProfile:
    """Empirical packet error rate by signed train distance.

    bins are (d_start_m, d_end_m, per) with half-open intervals
    [d_start, d_end), ordered and non-overlapping. out_of_range selects the
    policy for distances not covered by any bin: "zero" treats them as out
    of coverage (success probability 0), "error" raises.
    """

    bins: tuple[tuple[float, float, float], ...]
    out_of_range: str = "zero"

    def __post_init__(self) -> None:
        if not self.bins:
            raise ValueError("PER profile must have at least one bin")
        if self.out_of_range not in ("zero", "error"):
            raise ValueError("out_of_range must be 'zero' or 'error'")
        previous_end = None
        for d_start, d_end, per in self.bins:
            require_finite(d_start_m=d_start, d_end_m=d_end, per=per)
            if d_start >= d_end:
                raise ValueError(f"bin [{d_start}, {d_end}) is empty or reversed")
            if not 0.0 <= per <= 1.0:
                raise ValueError(f"per {per} outside [0, 1]")
            if previous_end is not None and d_start < previous_end:
                raise ValueError("bins must be ordered and non-overlapping")
            previous_end = d_end

    def per_at(self, train_d_t_m: float) -> float:
        for d_start, d_end, per in self.bins:
            if d_start <= train_d_t_m < d_end:
                return per
        if self.out_of_range == "zero":
            return 1.0
        raise ValueError(f"train distance {train_d_t_m:g} m outside the PER profile")

    @classmethod
    def from_csv(cls, path: str | Path, out_of_range: str = "zero") -> "PerProfile":
        """Load a profile from CSV with header d_start_m,d_end_m,per."""
        bins = []
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            required = {"d_start_m", "d_end_m", "per"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise ValueError(f"PER profile CSV must have columns {sorted(required)}")
            for record in reader:
                bins.append(
                    (float(record["d_start_m"]), float(record["d_end_m"]), float(record["per"]))
                )
        return cls(bins=tuple(bins), out_of_range=out_of_range)


@dataclass(frozen=True)
class SyntheticChannel:
    """Log-distance path loss plus a logistic SNR-to-success curve."""

    path_loss_exponent: float = 2.0
    reference_loss_db: float = friis_reference_loss_db(5.87e9)
    shadowing_sigma_db: float = 0.0
    noise_floor_dbm: float = -95.0
    snr_threshold_qpsk_db: float = 8.0
    snr_threshold_16qam_db: float = 15.0
    transition_width_db: float = 2.0

    def __post_init__(self) -> None:
        require_finite(
            path_loss_exponent=self.path_loss_exponent,
            reference_loss_db=self.reference_loss_db,
            shadowing_sigma_db=self.shadowing_sigma_db,
            noise_floor_dbm=self.noise_floor_dbm,
            snr_threshold_qpsk_db=self.snr_threshold_qpsk_db,
            snr_threshold_16qam_db=self.snr_threshold_16qam_db,
            transition_width_db=self.transition_width_db,
        )
        if self.path_loss_exponent < 2.0:
            raise ValueError("path loss exponent below 2 is unphysical here")
        if self.shadowing_sigma_db < 0:
            raise ValueError("shadowing sigma must be >= 0")
        if self.snr_threshold_16qam_db <= self.snr_threshold_qpsk_db:
            raise ValueError("16QAM threshold must exceed the QPSK threshold")
        if self.transition_width_db <= 0:
            raise ValueError("transition width must be positive")

    def threshold_db(self, modulation: str) -> float:
        if modulation == "QPSK":
            return self.snr_threshold_qpsk_db
        if modulation == "16QAM":
            return self.snr_threshold_16qam_db
        raise ValueError(f"unknown modulation {modulation!r}")


@dataclass(frozen=True)
class ObstructionSegment:
    """Extra loss while the train is inside [d_start, d_end).

    A periodic gap pattern models rows of parked rolling stock: within each
    gap_period_m stretch the final gap_width_m is a clear sight line with no
    excess loss. Zero width and period mean the whole segment is blocked.
    """

    d_start_m: float
    d_end_m: float
    excess_loss_db: float
    gap_width_m: float = 0.0
    gap_period_m: float = 0.0

    def __post_init__(self) -> None:
        require_finite(
            d_start_m=self.d_start_m,
            d_end_m=self.d_end_m,
            excess_loss_db=self.excess_loss_db,
            gap_width_m=self.gap_width_m,
            gap_period_m=self.gap_period_m,
        )
        if self.d_start_m >= self.d_end_m:
            raise ValueError("obstruction segment is empty or reversed")
        if self.excess_loss_db < 0:
            raise ValueError("excess loss must be >= 0")
        if self.gap_width_m < 0 or self.gap_period_m < 0:
            raise ValueError("gap geometry must be >= 0")
        if self.gap_width_m > 0 and self.gap_period_m <= self.gap_width_m:
            raise ValueError("gap period must exceed the gap width")

    def excess_at(self, train_d_t_m: float) -> float:
        if not self.d_start_m <= train_d_t_m < self.d_end_m:
            return 0.0
        if self.gap_width_m > 0:
            into_period = (train_d_t_m - self.d_start_m) % self.gap_period_m
            if into_period >= self.gap_period_m - self.gap_width_m:
                return 0.0
        return self.excess_loss_db


@dataclass(frozen=True)
class LatencyModel:
    """End-to-end packet latency: propagation plus processing with jitter."""

    processing_base_ms: float = 4.0
    processing_jitter_ms: float = 1.0
    relay_hops: int = 1

    def __post_init__(self) -> None:
        require_finite(
            processing_base_ms=self.processing_base_ms,
            processing_jitter_ms=self.processing_jitter_ms,
        )
        if self.processing_base_ms < 0 or self.processing_jitter_ms < 0:
            raise ValueError("latency components must be >= 0")
        if self.processing_jitter_ms > self.processing_base_ms:
            # base - jitter would be a negative processing time.
            raise ValueError("processing_jitter_ms must not exceed processing_base_ms")
        if self.relay_hops not in (1, 2):
            raise ValueError("relay_hops must be 1 (direct) or 2 (relayed)")


def path_loss_db(range_m: float, channel: SyntheticChannel) -> float:
    """Deterministic log-distance loss; shadowing is drawn by the caller."""
    if range_m <= 0:
        raise ValueError("range must be positive")
    return channel.reference_loss_db + 10.0 * channel.path_loss_exponent * math.log10(range_m)


def packet_success_probability(
    train_d_t_m: float,
    combined_gain_dbi: float,
    radio: RadioConfig,
    channel,
    obstructions=(),
    shadowing_db: float = 0.0,
    range_m: float | None = None,
) -> float:
    """Probability that one packet decodes at this train position.

    With a PerProfile the answer is 1 - per for the bin containing the
    position; gains, obstructions and shadowing are ignored because the
    measurements already embody them. With a SyntheticChannel the mean SNR
    (tx power + gains - path loss - shadowing - obstruction excess - noise
    floor) feeds the logistic success curve. range_m defaults to the
    unsigned train distance when no slant range is supplied.
    """
    if isinstance(channel, PerProfile):
        return 1.0 - channel.per_at(train_d_t_m)
    if not isinstance(channel, SyntheticChannel):
        raise TypeError("channel must be a PerProfile or SyntheticChannel")
    if range_m is None:
        range_m = abs(train_d_t_m)
    loss = path_loss_db(range_m, channel) + shadowing_db
    loss += sum(segment.excess_at(train_d_t_m) for segment in obstructions)
    snr_db = radio.tx_power_dbm + combined_gain_dbi - loss - channel.noise_floor_dbm
    margin = (snr_db - channel.threshold_db(radio.modulation)) / channel.transition_width_db
    return 1.0 / (1.0 + math.exp(-margin))


def profile_success_probability(profile: PerProfile, train_d_t_m: np.ndarray) -> np.ndarray:
    """1 - profile.per_at(d) at every position of an array.

    Where per_at would raise (a position outside an "error" profile) the
    result is NaN, so the caller can raise at the first such position in
    its own order of checks.
    """
    starts, ends, pers = (np.array(column) for column in zip(*profile.bins))
    index = np.maximum(np.searchsorted(starts, train_d_t_m, side="right") - 1, 0)
    inside = (starts[index] <= train_d_t_m) & (train_d_t_m < ends[index])
    outside = 0.0 if profile.out_of_range == "zero" else np.nan
    return np.where(inside, 1.0 - pers[index], outside)


def obstruction_excess_db(train_d_t_m: np.ndarray, obstructions) -> np.ndarray:
    """Summed ObstructionSegment.excess_at at every position of an array."""
    total = np.zeros_like(train_d_t_m)
    for segment in obstructions:
        blocked = (segment.d_start_m <= train_d_t_m) & (train_d_t_m < segment.d_end_m)
        if segment.gap_width_m > 0:
            into_period = (train_d_t_m - segment.d_start_m) % segment.gap_period_m
            blocked &= into_period < segment.gap_period_m - segment.gap_width_m
        total += np.where(blocked, segment.excess_loss_db, 0.0)
    return total


def mean_snr_db(
    train_d_t_m: np.ndarray,
    range_m: np.ndarray,
    combined_gain_dbi: np.ndarray,
    radio: RadioConfig,
    channel: SyntheticChannel,
    obstructions=(),
) -> np.ndarray:
    """SNR before shadowing at every position; shadowing_db subtracts from it."""
    loss = channel.reference_loss_db + 10.0 * channel.path_loss_exponent * np.log10(range_m)
    loss += obstruction_excess_db(train_d_t_m, obstructions)
    return radio.tx_power_dbm + combined_gain_dbi - loss - channel.noise_floor_dbm


def snr_success_probability(
    snr_db: np.ndarray, radio: RadioConfig, channel: SyntheticChannel
) -> np.ndarray:
    """The logistic SNR-to-success curve of packet_success_probability, on arrays."""
    margin = (snr_db - channel.threshold_db(radio.modulation)) / channel.transition_width_db
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-margin))


def latency_sample(
    range_m: float,
    model: LatencyModel,
    rng: np.random.Generator,
    hops: int | None = None,
) -> float:
    """One latency draw in seconds over the given link distance.

    Propagation contributes hops * range / c; processing contributes
    hops * (base + uniform jitter). Propagation is sub-microsecond at the
    ranges of interest and processing dominates.
    """
    if range_m < 0:
        raise ValueError("range must be >= 0")
    if hops is None:
        hops = model.relay_hops
    propagation_s = hops * range_m / SPEED_OF_LIGHT_MPS
    jitter_ms = 0.0
    if model.processing_jitter_ms > 0:
        jitter_ms = rng.uniform(-model.processing_jitter_ms, model.processing_jitter_ms)
    return propagation_s + hops * (model.processing_base_ms + jitter_ms) * 1e-3
