"""Urban-microcell wireless model: placement, NLOS path loss, uplink throughput.

The cell is a single disk with the base station at the centre.  Each client
gets a fixed mean uplink throughput derived from a distance-dependent NLOS
path loss, a per-client shadow-fading draw, and a capped Shannon-style
capacity formula.  Short-term variation around that mean is handled by the
resources module, not here.  The per-client values are numpy ufunc results
(log10, power, log2 over whole columns); they may differ from the `math`
module's scalar functions in the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MegabitsPerSecond, ParameterError

__all__ = [
    "CellConfig",
    "place_clients",
    "path_loss_db",
    "mean_throughput",
    "THERMAL_NOISE_DBM_PER_HZ",
    "DEFAULT_NOISE_FIGURE_DB",
]

THERMAL_NOISE_DBM_PER_HZ = -174.0

# Receiver noise figure calibrated once so that the population mean
# throughput over 1000 uniformly placed clients lands at 1.4 Mbit/s, the
# operating point this cell model targets.  The negative value absorbs link
# gains that are not modelled explicitly (base-station antenna gain, power
# control headroom); it is a simulation knob, not a hardware figure.
DEFAULT_NOISE_FIGURE_DB = -12.4


@dataclass(frozen=True)
class CellConfig:
    """Static parameters of the simulated cell and its radio link model."""

    radius_m: float = 2000.0
    carrier_freq_ghz: float = 2.5
    tx_power_dbm: float = 20.0
    antenna_gain_dbi: float = 0.0
    rb_bandwidth_total_hz: float = 1.8e6
    noise_figure_db: float = DEFAULT_NOISE_FIGURE_DB
    delta_loss: float = 1.6  # linear SNR divisor inside the capacity formula
    rho_max_bps_hz: float = 4.8  # spectral-efficiency cap
    shadow_sigma_db: float = 4.0
    min_distance_m: float = 10.0  # validity floor of the path-loss model

    def __post_init__(self) -> None:
        if self.radius_m <= 0:
            raise ParameterError("radius_m must be positive", field="radius_m")
        if self.carrier_freq_ghz <= 0:
            raise ParameterError("carrier_freq_ghz must be positive", field="carrier_freq_ghz")
        if self.rb_bandwidth_total_hz <= 0:
            raise ParameterError(
                "rb_bandwidth_total_hz must be positive", field="rb_bandwidth_total_hz"
            )
        if self.rho_max_bps_hz <= 0:
            raise ParameterError("rho_max_bps_hz must be positive", field="rho_max_bps_hz")
        if self.delta_loss < 1.0:
            raise ParameterError("delta_loss must be >= 1", field="delta_loss")
        if self.shadow_sigma_db < 0:
            raise ParameterError("shadow_sigma_db must be >= 0", field="shadow_sigma_db")
        if not 0 < self.min_distance_m <= self.radius_m:
            raise ParameterError("min_distance_m must be in (0, radius_m]", field="min_distance_m")

    @property
    def max_throughput(self) -> MegabitsPerSecond:
        """Hard throughput cap: full bandwidth at the spectral-efficiency cap."""
        return MegabitsPerSecond(self.rb_bandwidth_total_hz * self.rho_max_bps_hz / 1e6)


def place_clients(
    count: int, cell: CellConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Drop `count` clients uniformly over the cell disk: (distances, shadows).

    Uniform area density means the distance d has density proportional to d,
    i.e. d = R * sqrt(U).  The per-client shadow-fading term in dB (sigma
    from the cell config) is drawn here, once, from the same placement
    stream.  Both are float64 arrays of length `count`.
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count!r}")
    # 1 - U lies in (0, 1], keeping distances strictly positive.
    distances = cell.radius_m * np.sqrt(1.0 - rng.random(count))
    if cell.shadow_sigma_db > 0:
        shadows = rng.normal(0.0, cell.shadow_sigma_db, count)
    else:
        shadows = np.zeros(count)
    return distances, shadows


def path_loss_db(distances: np.ndarray, shadows: np.ndarray, cell: CellConfig) -> np.ndarray:
    """NLOS path loss in dB at each client's distance, shadow fading included.

    Distances below the model's validity floor are clamped to it, which also
    keeps the SNR bounded as d -> 0.  Computed with numpy ufuncs, in place,
    so a value may differ from the `math.log10` formula in the last bits.
    """
    loss = np.maximum(distances, cell.min_distance_m)
    np.log10(loss, out=loss)
    loss *= 36.7
    loss += 22.7
    loss += 26.0 * math.log10(cell.carrier_freq_ghz)
    loss += shadows
    return loss


def mean_throughput(distances: np.ndarray, shadows: np.ndarray, cell: CellConfig) -> np.ndarray:
    """Fixed mean uplink throughput in Mbit/s of each client, as float64.

    SNR is computed from transmit power, antenna gain, path loss and thermal
    noise over the full allocated bandwidth; the spectral efficiency is
    log2(1 + SNR / delta_loss) capped at rho_max, where the value is exactly
    `cell.max_throughput`.  Each step is a numpy ufunc over the whole column,
    in place, so a value may differ from the `math` formula in the last bits.
    Per-round fluctuation is sampled around it elsewhere.
    """
    noise_dbm = (
        THERMAL_NOISE_DBM_PER_HZ
        + 10.0 * math.log10(cell.rb_bandwidth_total_hz)
        + cell.noise_figure_db
    )
    x = path_loss_db(distances, shadows, cell)
    np.subtract(cell.tx_power_dbm + cell.antenna_gain_dbi, x, out=x)
    x -= noise_dbm  # SNR in dB
    x /= 10.0
    np.power(10.0, x, out=x)
    x /= cell.delta_loss
    x += 1.0
    np.log2(x, out=x)
    np.minimum(cell.rho_max_bps_hz, x, out=x)  # spectral efficiency
    x *= cell.rb_bandwidth_total_hz
    x /= 1e6
    return x
