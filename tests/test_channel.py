import math

import numpy as np
import pytest

from fedcs_sim.channel import CellConfig, mean_throughput, path_loss_db, place_clients
from fedcs_sim.core import ParameterError, RngStream


def loss_at(distance, cell, shadow=0.0):
    """Path loss of one client, through the column function."""
    return float(path_loss_db(np.array([distance]), np.array([shadow]), cell)[0])


def throughput_at(distance, cell, shadow=0.0):
    """Mean throughput of one client, through the column function."""
    return float(mean_throughput(np.array([distance]), np.array([shadow]), cell)[0])


@pytest.fixture
def cell():
    return CellConfig()


@pytest.fixture
def quiet_cell():
    # Shadow fading disabled for deterministic distance-only checks.
    return CellConfig(shadow_sigma_db=0.0)


class TestPlacement:
    def test_mean_distance_matches_uniform_disk(self, quiet_cell):
        # Analytic mean for a uniform disk is 2R/3 = 1333.3 m.
        rng = RngStream(0, "placement").generator()
        distances, _ = place_clients(10**5, quiet_cell, rng)
        assert 1320.0 <= distances.mean() <= 1347.0

    def test_single_client_in_range(self, quiet_cell):
        rng = RngStream(5, "placement").generator()
        (distance,), (shadow,) = place_clients(1, quiet_cell, rng)
        assert 0.0 < distance <= 2000.0
        assert shadow == 0.0

    def test_inner_half_radius_fraction(self, quiet_cell):
        # Area ratio for d <= R/2 is (1/2)^2 = 0.25.
        rng = RngStream(1, "placement").generator()
        distances, _ = place_clients(10**5, quiet_cell, rng)
        frac = np.mean(distances <= 1000.0)
        assert abs(frac - 0.25) <= 0.01

    def test_count_validation(self, quiet_cell):
        with pytest.raises(ParameterError):
            place_clients(0, quiet_cell, RngStream(0, "p").generator())

    def test_shadowing_drawn_per_client(self, cell):
        rng = RngStream(2, "placement").generator()
        distances, shadows = place_clients(1000, cell, rng)
        assert distances.shape == shadows.shape == (1000,)
        assert abs(shadows.mean()) < 0.5
        assert abs(shadows.std() - cell.shadow_sigma_db) < 0.3


class TestPathLoss:
    def test_reference_distance_1km(self, cell):
        expected = 36.7 * 3.0 + 22.7 + 26.0 * math.log10(2.5)
        assert loss_at(1000.0, cell) == pytest.approx(expected, rel=1e-12)
        assert abs(loss_at(1000.0, cell) - 143.15) < 0.01

    def test_clamp_boundary_10m(self, cell):
        expected = 36.7 + 22.7 + 26.0 * math.log10(2.5)
        assert loss_at(10.0, cell) == pytest.approx(expected, rel=1e-12)
        assert abs(loss_at(10.0, cell) - 69.75) < 0.01

    def test_below_validity_floor_clamps(self, cell):
        assert loss_at(1.0, cell) == loss_at(10.0, cell)

    def test_equal_distance_equal_loss(self, cell):
        losses = path_loss_db(np.array([512.0, 512.0]), np.zeros(2), cell)
        assert losses[0] == losses[1]

    def test_shadow_term_adds_directly(self, cell):
        base = loss_at(800.0, cell)
        shifted = loss_at(800.0, cell, shadow=3.5)
        assert shifted == pytest.approx(base + 3.5)


class TestThroughput:
    def test_cap_equals_bandwidth_times_rho_max(self, quiet_cell):
        # A client close to the mast saturates the spectral-efficiency cap.
        theta = throughput_at(10.0, quiet_cell)
        assert theta == quiet_cell.rb_bandwidth_total_hz * quiet_cell.rho_max_bps_hz / 1e6
        assert float(quiet_cell.max_throughput) == pytest.approx(8.64, abs=1e-12)

    def test_population_mean_hits_calibration_target(self, cell):
        # The default noise figure is calibrated for a 1.4 Mbit/s mean.
        means = []
        for seed in range(10):
            rng = RngStream(seed, "placement").generator()
            means.append(mean_throughput(*place_clients(1000, cell, rng), cell).mean())
        assert np.mean(means) == pytest.approx(1.4, rel=0.15)

    def test_vanishing_snr_gives_vanishing_throughput(self, quiet_cell):
        feeble = CellConfig(tx_power_dbm=-200.0, shadow_sigma_db=0.0)
        assert 0.0 <= throughput_at(2000.0, feeble) < 1e-9

    def test_monotone_in_distance_without_shadowing(self, quiet_cell):
        distances = np.linspace(10.0, 2000.0, 200)
        thetas = mean_throughput(distances, np.zeros(200), quiet_cell)
        assert (np.diff(thetas) <= 1e-15).all()

    def test_every_placed_client_within_bounds(self, cell):
        rng = RngStream(3, "placement").generator()
        thetas = mean_throughput(*place_clients(2000, cell, rng), cell)
        assert thetas.dtype == np.float64
        assert ((0.0 < thetas) & (thetas <= float(cell.max_throughput))).all()


class TestCellConfig:
    def test_invariants_enforced(self):
        with pytest.raises(ParameterError):
            CellConfig(radius_m=0.0)
        with pytest.raises(ParameterError):
            CellConfig(delta_loss=0.5)
        with pytest.raises(ParameterError):
            CellConfig(rho_max_bps_hz=0.0)
        with pytest.raises(ParameterError):
            CellConfig(min_distance_m=0.0)
