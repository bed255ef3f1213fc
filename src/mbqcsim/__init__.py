"""Measurement-based simulation of unitary circuits.

Gate teleportation gadgets, an adapted T gadget driven by a 16-row
measurement table, and three byproduct-handling engines (retry loops,
one postponed dense correction, software Pauli-frame tracking), all
checked against direct state-vector evolution.
"""

from .circuit import (
    Circuit,
    CircuitParseError,
    CNOT_MATRIX,
    Gate,
    H_MATRIX,
    T_MATRIX,
    circuit_unitary,
    oracle_apply,
    parse_circuit,
    render_circuit,
)
from .engines import (
    ENGINE_NAMES,
    ENGINES,
    CostRow,
    GateRecord,
    MAX_LOOP_ATTEMPTS,
    RetryLimitExceeded,
    RunReport,
    TerminationModel,
    compare_costs,
    one_qubit_loop,
    reinterpret_distribution,
    reinterpret_outcomes,
    run_frame,
    run_nielsen,
    run_postponed,
    sample_attempt_counts,
    summarize_costs,
    termination_tail,
)
from .gadgets import (
    GadgetOutcome,
    TABLE1,
    Table1Entry,
    adapted_t_branches,
    adapted_t_gadget,
    cnot_branches,
    cnot_gadget,
    format_table1,
    load_table1,
    one_qubit_branches,
    one_qubit_gadget,
    parse_table1,
    table1_lookup,
    theorem1_correction,
    verify_table1,
)
from .measurement import (
    BasisMeasurement,
    OutcomeBranch,
    RandomSource,
    bell_basis,
    computational_distribution,
    enumerate_branches,
    epr_state,
    measure_basis,
    measure_observable,
    measurement_branches,
    sample_plan,
    u_basis,
)
from .numerics import (
    StateVector,
    apply_unitary,
    basis_state,
    embed_unitary,
    equal_up_to_global_phase,
    factor_out,
    haar_unitary,
    inner_product,
    overlap,
    random_state,
    reorder_qubits,
    tensor,
)
from .pauli import (
    PauliLetter,
    PauliOperator,
    SignedPauliObservable,
    apply_pauli,
    as_pauli,
    conjugate_through_CNOT,
    conjugate_through_H,
    letter_matrix,
    multiply,
)

__version__ = "0.1.0"
