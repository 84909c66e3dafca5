import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldstack import (
    Workload,
    classical_energy_time,
    gnfs_operations,
    nisq_circuit,
    nisq_metric,
    nisq_power,
    rsa_workload,
)
from coldstack import qec
from coldstack.workloads import GNFS_ANCHOR_BITS, GNFS_ANCHOR_ENERGY_J, compression_costs


class TestRsaWorkload:
    def test_2048_bit_key_default_log2(self):
        wl = rsa_workload(2048)
        assert wl.q_logical == 6190
        assert wl.d_logical == 2_143_289_344  # (500 + 11) * 2048^2
        assert wl.d_logical == pytest.approx(2.1e9, rel=0.03)

    def test_2048_bit_key_natural_log(self):
        wl = rsa_workload(2048, log_base=math.e)
        assert wl.q_logical == 6176

    def test_2048_bit_key_low_qubit_variant(self):
        wl = rsa_workload(2048, variant="haner")
        assert wl.q_logical == 4098
        assert wl.d_logical == 52 * 2048**3
        assert wl.d_logical == pytest.approx(4.4e11, rel=0.02)

    def test_rejects_small_keys_and_unknown_variants(self):
        with pytest.raises(ValueError):
            rsa_workload(8)
        with pytest.raises(ValueError):
            rsa_workload(2048, variant="mystery")

    @pytest.mark.parametrize("variant", ["gidney", "haner"])
    @pytest.mark.parametrize("n", [int(1e300), int(1e150)], ids=["1e300", "1e150"])
    def test_rejects_keys_beyond_the_float_range(self, n, variant):
        # the depth, or the product Q_L*D_L the metric takes as a float,
        # would overflow
        with pytest.raises(ValueError, match="float range"):
            rsa_workload(n, variant)
        with pytest.raises(ValueError, match="float range"):
            Workload(10**200, 10**200)

    @pytest.mark.parametrize("n", [512, 2048, 8192])
    def test_depth_prefactor_asymptotics(self, n):
        wl = rsa_workload(n)
        assert wl.d_logical / n**2 == pytest.approx(500 + math.log2(n), abs=1.0)

    def test_locations_product(self):
        wl = Workload(7, 11)
        assert wl.n_locations == 77

    @pytest.mark.parametrize("q, d", [(3.0, 5), (3, 5.0), (3.5, 5), ("3", 5)],
                             ids=["float Q_L", "float D_L", "fractional Q_L", "text Q_L"])
    def test_rejects_counts_that_are_not_integers(self, q, d):
        # a float count would be reported as a float number of physical qubits
        with pytest.raises(ValueError, match="must be an integer"):
            Workload(q, d)

    def test_stores_numpy_integer_counts_as_int(self):
        # 91^10 * np.int64(3) overflows int64, which would drop levels 10 and
        # above from the top level
        wl = Workload(np.int64(3), np.int32(5))
        assert type(wl.q_logical) is int and type(wl.d_logical) is int
        assert wl == Workload(3, 5)
        assert qec._top_level(wl.q_logical) == qec._top_level(3.0) == 157
        assert qec.physical_qubits(wl.q_logical, 10) == 91**10 * 3


class TestNisqCircuit:
    def test_uncompressed_25_qubits(self):
        circ = nisq_circuit(25, 0)
        assert circ.depth == 300
        assert circ.n_2qb_total == 300
        assert circ.n_id_total == 25 * 300 - 600 == 6900

    def test_fully_compressed_25_qubits(self):
        circ = nisq_circuit(25, 22)
        assert circ.depth == pytest.approx(47.0)

    def test_smallest_instance(self):
        circ = nisq_circuit(3, 0)
        assert circ.depth == 3
        assert circ.n_2qb_total == 3

    def test_rejects_out_of_range_compression(self):
        with pytest.raises(ValueError):
            nisq_circuit(25, 23)
        with pytest.raises(ValueError):
            nisq_circuit(25, -1)

    @pytest.mark.parametrize("q, m", [(25, 2.5), (25.0, 2), (25, 2.0), (12.0, 0), ("25", 2),
                                      (np.float64(25.0), 2)])
    def test_rejects_sizes_that_are_not_integers(self, q, m):
        # a fractional compression built a depth between two circuits'
        with pytest.raises(ValueError, match="must be an integer"):
            nisq_circuit(q, m)

    def test_stores_numpy_integer_sizes_as_int(self):
        circ = nisq_circuit(np.int64(25), np.int32(2))
        assert type(circ.q) is int and type(circ.m) is int
        assert repr(circ) == repr(nisq_circuit(25, 2))

    def test_epsilon_definition(self):
        assert nisq_circuit(25, 22).epsilon == pytest.approx(22.0 / 24.0)

    @given(q=st.integers(3, 60), frac=st.floats(0.0, 1.0))
    @settings(max_examples=60)
    def test_slot_conservation(self, q, frac):
        m = int(frac * max(q - 3, 0))
        circ = nisq_circuit(q, m)
        assert q * circ.depth == pytest.approx(
            2 * circ.n_2qb_total + circ.n_id_total, rel=1e-12)
        assert circ.n_id_total >= -1e-9

    @given(q=st.integers(4, 40))
    @settings(max_examples=30)
    def test_per_step_averages_recover_totals(self, q):
        circ = nisq_circuit(q, q - 3)
        assert circ.n_2qb_avg * circ.depth == pytest.approx(circ.n_2qb_total,
                                                            rel=1e-12)


class TestNisqMetricAndPower:
    def test_perfect_gates(self):
        assert nisq_metric(nisq_circuit(25, 0).n_gates_weighted, 0.0) == 1.0

    def test_hand_value_uncompressed(self):
        metric = nisq_metric(nisq_circuit(25, 0).n_gates_weighted, 1e-5)
        assert metric == pytest.approx(1.0 - 7500e-5, rel=1e-12)
        assert metric == pytest.approx(0.925, rel=1e-12)

    def test_metric_clamps_at_zero(self):
        assert nisq_metric(nisq_circuit(25, 0).n_gates_weighted, 1.0) == 0.0

    def test_metric_nondecreasing_in_compression(self):
        values = [nisq_metric(nisq_circuit(25, m).n_gates_weighted, 1e-5)
                  for m in range(23)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_metric_slope_is_weighted_gate_count(self):
        circ = nisq_circuit(25, 7)
        eps = 1e-7
        w = circ.n_gates_weighted
        slope = (nisq_metric(w, 0.0) - nisq_metric(w, eps)) / eps
        assert slope == pytest.approx(circ.n_gates_weighted, rel=1e-9)

    def test_power_uncompressed_single_parallel_gate(self):
        assert nisq_power(nisq_circuit(25, 0), 8.0) == pytest.approx(2.0, rel=1e-12)

    def test_power_fully_compressed(self):
        power = nisq_power(nisq_circuit(25, 22), 1.0)
        assert power == pytest.approx(300.0 / 47.0 / 4.0, rel=1e-12)
        assert power == pytest.approx(1.60, rel=0.01)

    def test_zero_gate_power(self):
        assert nisq_power(nisq_circuit(25, 10), 0.0) == 0.0

    @pytest.mark.parametrize("q", [3, 4, 12, 25, 40])
    def test_compression_costs_are_the_circuits_to_the_bit(self, q):
        circuits = [nisq_circuit(q, m) for m in range(q - 2)]
        weights, scales = compression_costs(q, np.arange(q - 2))
        assert weights.tolist() == [c.n_gates_weighted for c in circuits]
        assert scales.tolist() == [nisq_power(c, 1.0) for c in circuits]


class TestClassicalBaseline:
    def test_anchor_point(self):
        energy, duration = classical_energy_time(GNFS_ANCHOR_BITS)
        assert energy == GNFS_ANCHOR_ENERGY_J
        assert 8 * 86400 <= duration <= 9 * 86400

    def test_anchor_efficiency(self):
        energy, _ = classical_energy_time(830)
        assert 830 / energy == pytest.approx(8e-10, rel=0.05)

    def test_ratio_form(self):
        energy, duration = classical_energy_time(1024)
        ratio = gnfs_operations(1024) / gnfs_operations(830)
        assert energy == pytest.approx(GNFS_ANCHOR_ENERGY_J * ratio, rel=1e-12)
        assert duration / energy == pytest.approx(
            classical_energy_time(830)[1] / GNFS_ANCHOR_ENERGY_J, rel=1e-12)

    def test_operation_count_formula(self):
        # direct re-evaluation, independent of the library path
        n = 1024
        inner = (64.0 * n * math.log(2) / 9.0) * math.log(n * math.log(2)) ** 2
        assert gnfs_operations(n) == pytest.approx(math.exp(inner ** (1 / 3)),
                                                   rel=1e-12)

    @pytest.mark.parametrize("n", [452_860, 10**20])
    def test_count_beyond_the_float_range_is_inf(self, n):
        # the exponent passes 709.78 near n = 452,860
        assert gnfs_operations(n) == math.inf
        assert classical_energy_time(n) == (math.inf, math.inf)
        assert math.isfinite(gnfs_operations(450_000))

    def test_monotone_increasing(self):
        sizes = [512, 830, 1024, 2048, 4096, 8192]
        values = [gnfs_operations(n) for n in sizes]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_convex_on_log_log_scale(self):
        # the cost curve bends upward on a log-log plot: ln N sampled at
        # log-spaced key sizes has positive second differences
        sizes = [int(512 * 2 ** (i / 4)) for i in range(17)]
        logs = [math.log(gnfs_operations(n)) for n in sizes]
        for a, b, c in zip(logs, logs[1:], logs[2:]):
            assert c - 2 * b + a > 0
