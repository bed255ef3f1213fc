"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints exactly one PASS/FAIL line with the measured numbers
(run pytest with -s to see them) and fails if its bound is not met.
"""

import itertools
from time import perf_counter

import numpy as np
import pytest

from mbqcsim.circuit import (
    CNOT_MATRIX,
    H_MATRIX,
    T_MATRIX,
    parse_circuit,
)
from mbqcsim.engines import (
    compare_costs,
    reinterpret_distribution,
    run_frame,
    run_postponed,
    sample_attempt_counts,
)
from mbqcsim.gadgets import one_qubit_branches, verify_table1
from mbqcsim.measurement import RandomSource
from mbqcsim.numerics import (
    StateVector,
    haar_unitary,
    overlap,
    random_state,
)
from mbqcsim.pauli import (
    PHASES,
    PauliLetter,
    PauliOperator,
    apply_pauli,
    conjugate_through_CNOT,
    conjugate_through_H,
    letter_matrix,
)

L = PauliLetter
LETTERS = (L.I, L.X, L.Y, L.Z)

EXAMPLE = "qubits 2\nCNOT 0 1\nH 0\n"

LOOP_TRIALS = 10_000
LOOP_SEED = 424242


def announce(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def random_circuit(gen, num_qubits, length):
    kinds = ("H", "T", "CNOT")
    lines = [f"qubits {num_qubits}"]
    for _ in range(length):
        kind = kinds[int(gen.integers(0, 3 if num_qubits > 1 else 2))]
        wires = [int(q) for q in gen.permutation(num_qubits)[:2]]
        if kind == "CNOT":
            lines.append(f"CNOT {wires[0]} {wires[1]}")
        else:
            lines.append(f"{kind} {wires[0]}")
    return parse_circuit("\n".join(lines))


@pytest.fixture(scope="module")
def attempt_counts():
    """One shared 10k-loop sample; criteria 4 and 7 both read it."""
    t0 = perf_counter()
    counts = sample_attempt_counts(LOOP_TRIALS, RandomSource(LOOP_SEED))
    return counts, perf_counter() - t0


def test_criterion_1_adapted_t_table_and_correction_map():
    t0 = perf_counter()
    report = verify_table1(states_per_key=20, seed=2026)
    elapsed = perf_counter() - t0
    worst = max(c.max_deficit for c in report.checks)
    complete = len(report.checks) == 64 and all(
        c.realized is not None for c in report.checks
    )
    ok = report.ok and complete and worst < 1e-9 and elapsed < 10.0
    announce(
        1,
        ok,
        f"adapted-T table: 16 keys x 4 outcome pairs x 20 states, "
        f"max fidelity deficit {worst:.2e} < 1e-9, {elapsed:.2f}s < 10s",
    )
    assert report.ok and complete
    assert worst < 1e-9
    assert elapsed < 10.0


def test_criterion_2_one_qubit_gadget_branches():
    gen = np.random.default_rng(220)
    worst_deficit = 0.0
    worst_prob_dev = 0.0
    for _ in range(50):
        u = haar_unitary(2, gen)
        phi = random_state(1, gen)
        branches = one_qubit_branches(u, phi, 0)
        assert len(branches) == 16
        for b in branches:
            n, m = b.transcript
            expect = StateVector(
                1,
                u @ letter_matrix(L(n)) @ letter_matrix(L(m)) @ phi.amplitudes,
                normalize=True,
            )
            worst_deficit = max(
                worst_deficit, 1.0 - overlap(expect, b.post_state)
            )
            worst_prob_dev = max(
                worst_prob_dev, abs(b.branch_probability - 1 / 16)
            )
    ok = worst_deficit < 1e-9 and worst_prob_dev < 1e-9
    announce(
        2,
        ok,
        f"one-qubit gadget: 50 random (u, state) x 16 branches, "
        f"max state deficit {worst_deficit:.2e} < 1e-9, "
        f"max probability deviation {worst_prob_dev:.2e} < 1e-9",
    )
    assert ok


def test_criterion_3_clifford_conjugation_and_t_witness():
    # each image's matrix equals U p U^dagger entrywise, phase included
    failures = []
    for letter in LETTERS:
        for k in range(4):
            p = PauliOperator.from_letters(k, (letter,))
            oracle = H_MATRIX @ p.matrix() @ H_MATRIX.conj().T
            if np.max(np.abs(conjugate_through_H(p, 0).matrix() - oracle)) > 1e-12:
                failures.append(("H", p))
    for a in LETTERS:
        for b in LETTERS:
            for k in range(4):
                p = PauliOperator.from_letters(k, (a, b))
                oracle = CNOT_MATRIX @ p.matrix() @ CNOT_MATRIX.conj().T
                image = conjugate_through_CNOT(p, 0, 1).matrix()
                if np.max(np.abs(image - oracle)) > 1e-12:
                    failures.append(("CNOT", p))
    witness = T_MATRIX @ letter_matrix(L.X) @ T_MATRIX.conj().T
    target = (letter_matrix(L.X) + letter_matrix(L.Y)) / np.sqrt(2.0)
    witness_dev = float(np.max(np.abs(witness - target)))
    # the witness is more than 1e-9 away from each of the 16 i^k P
    nearest = min(
        float(np.max(np.abs(witness - PHASES[k] * letter_matrix(l))))
        for k in range(4)
        for l in LETTERS
    )
    witness_ok = witness_dev < 1e-12 and nearest > 1e-9
    ok = not failures and witness_ok
    announce(
        3,
        ok,
        f"Clifford conjugation: 16 operators through H and 64 through "
        f"CNOT all exact Pauli images, {len(failures)} mismatches; "
        f"T-witness leaves the group, matrix deviation {witness_dev:.2e} "
        f"< 1e-12",
    )
    assert ok


def test_criterion_4_retry_loop_termination_statistics(attempt_counts):
    counts, elapsed = attempt_counts
    total = int(counts.sum())
    rate = LOOP_TRIALS / total
    rate_ok = abs(rate - 0.25) <= 0.02
    tail_devs = []
    tails_ok = True
    for k in range(1, 6):
        model = 0.75**k
        empirical = float(np.mean(counts > k))
        sigma = np.sqrt(model * (1.0 - model) / LOOP_TRIALS)
        tail_devs.append(abs(empirical - model) / sigma)
        tails_ok = tails_ok and abs(empirical - model) <= 3.0 * sigma
    time_ok = elapsed < 30.0
    ok = rate_ok and tails_ok and time_ok
    announce(
        4,
        ok,
        f"retry loop: 10000 loops, per-attempt success rate {rate:.4f} "
        f"within 0.25 +- 0.02, tail deviations k=1..5 "
        f"{max(tail_devs):.2f} sigma max (<= 3), {elapsed:.1f}s < 30s",
    )
    assert rate_ok
    assert tails_ok
    assert time_ok


def test_criterion_5_frame_engine_fixed_cost_and_fidelity():
    gen = np.random.default_rng(505)
    call_deviations = set()
    worst_deficit = 0.0
    for idx in range(200):
        n = int(gen.integers(1, 5))
        length = int(gen.integers(0, 31))
        circuit = random_circuit(gen, n, length)
        state = random_state(n, gen)
        report = run_frame(circuit, state, RandomSource(9000 + idx))
        call_deviations.add(report.total_gadget_calls - len(circuit))
        worst_deficit = max(worst_deficit, 1.0 - report.fidelity_vs_oracle)
    ok = call_deviations == {0} and worst_deficit < 1e-9
    announce(
        5,
        ok,
        f"frame engine: 200 random circuits (n <= 4, l <= 30), gadget "
        f"calls minus l always 0 (deviations seen: "
        f"{sorted(call_deviations)}), max fidelity deficit "
        f"{worst_deficit:.2e} < 1e-9",
    )
    assert ok


def test_criterion_6_postponed_correction_closes():
    gen = np.random.default_rng(606)
    circuits = [parse_circuit(EXAMPLE)]
    for _ in range(100):
        n = int(gen.integers(1, 5))
        circuits.append(random_circuit(gen, n, int(gen.integers(0, 13))))
    # registers wider than any dense 2^n x 2^n correction would reach
    for n in (7, 8, 10):
        circuits.append(random_circuit(gen, n, 12))
    call_deviations = set()
    worst_deficit = 0.0
    for idx, circuit in enumerate(circuits):
        state = random_state(circuit.num_qubits, gen)
        report = run_postponed(circuit, state, RandomSource(7000 + idx))
        call_deviations.add(report.total_gadget_calls - len(circuit))
        call_deviations.add(report.corrective_gadget_calls)
        worst_deficit = max(worst_deficit, 1.0 - report.fidelity_vs_oracle)
    ok = call_deviations == {0} and worst_deficit < 1e-9
    announce(
        6,
        ok,
        f"postponed correction: example circuit plus 100 random (n <= 4) "
        f"and 3 at n = 7, 8, 10, gadget calls minus l and corrective "
        f"calls always 0 (seen: {sorted(call_deviations)}), closing "
        f"step's max fidelity deficit {worst_deficit:.2e} < 1e-9",
    )
    assert ok


def test_criterion_7_cost_dominance(attempt_counts):
    counts, _ = attempt_counts
    mean_attempts = float(counts.mean())
    mean_ok = abs(mean_attempts - 4.0) <= 0.1
    circuits = [
        "qubits 1\nH 0\n",
        "qubits 1\nT 0\nT 0\nH 0\n",
        EXAMPLE,
        "qubits 2\nCNOT 0 1\nCNOT 1 0\n",
        "qubits 3\nH 0\nCNOT 0 1\nT 1\nCNOT 1 2\nH 2\nT 0\n",
    ]
    dominance = []
    for idx, text in enumerate(circuits):
        circuit = parse_circuit(text)
        rows = compare_costs(circuit, trials=15, seed=7700 + idx)
        frame_calls = {r.total_gadget_calls for _, r in rows if r.engine == "frame"}
        nielsen_mean = float(
            np.mean([r.total_gadget_calls for _, r in rows if r.engine == "nielsen"])
        )
        assert frame_calls == {len(circuit)}
        dominance.append((len(circuit), nielsen_mean))
    dominates = all(l < mean for l, mean in dominance)
    ok = mean_ok and dominates
    announce(
        7,
        ok,
        f"cost dominance: frame count l below nielsen mean on all "
        f"{len(circuits)} circuits "
        f"{[(l, round(m, 1)) for l, m in dominance]}, retry-loop mean "
        f"attempts {mean_attempts:.3f} within 4.0 +- 0.1",
    )
    assert mean_ok
    assert dominates


def test_criterion_8_reinterpretation_equivalence():
    gen = np.random.default_rng(808)
    checked = 0
    exact = True
    for n in (1, 2, 3):
        for word in itertools.product(LETTERS, repeat=n):
            frame = PauliOperator.from_letters(0, word)
            state = random_state(n, gen)
            corrected = np.abs(apply_pauli(frame, state).amplitudes) ** 2
            relabeled = reinterpret_distribution(
                frame, np.abs(state.amplitudes) ** 2
            )
            exact = exact and np.array_equal(corrected, relabeled)
            checked += 1
    ok = exact and checked == 4 + 16 + 64
    announce(
        8,
        ok,
        f"reinterpretation: measured-then-relabeled equals "
        f"corrected-then-measured bit-exactly for all {checked} frames "
        f"with n <= 3",
    )
    assert ok
