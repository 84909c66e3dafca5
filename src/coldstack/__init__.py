"""Power and energy modeling of full-stack cryogenic quantum computers.

The library computes computation metrics from an analytic qubit-noise
model, macroscopic power from a cryogenics-and-electronics hardware
model, and minimizes power under a target-metric constraint for single
gates, noisy circuits, and fault-tolerant computations.
"""

from .noise import (
    QubitTechnology,
    bose_einstein,
    chain_occupancy,
    pauli_error_probability,
    pi_pulse_power,
    single_attenuator_occupancy,
    worst_case_infidelity_1qb,
)
from .qec import (
    LogicalGateCounts,
    ft_metric,
    logical_error_probability,
    physical_gate_counts_rectangular,
    physical_qubits,
)
from .thermal import (
    CableModel,
    CryoEfficiencyModel,
    ElectronicsScenario,
    StageRecord,
    attenuator_heat_fractions,
    cable_heat_flow,
    demodulation_power_per_qubit,
    stage_temperatures,
    static_power_breakdown,
    syndrome_power_per_qubit,
)
from .workloads import (
    NisqCircuit,
    Workload,
    classical_energy_time,
    gnfs_operations,
    nisq_circuit,
    nisq_metric,
    nisq_power,
    rsa_workload,
)
from .optimize import (
    ControlPoint,
    FtToggles,
    GridOptions,
    OptimizationResult,
    bare_efficiency_max,
    evaluate_ft_point,
    ft_duration_s,
    optimize_ft,
    optimize_nisq,
    optimize_single_qubit,
    rsa_energy_summary,
    transition_size_estimate,
)

__version__ = "0.1.0"
