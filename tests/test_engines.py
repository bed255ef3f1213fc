"""Execution engines, frame reinterpretation, termination statistics."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbqcsim.circuit import (
    CNOT_MATRIX,
    H_MATRIX,
    Circuit,
    Gate,
    oracle_apply,
    parse_circuit,
)
from mbqcsim.engines import (
    ENGINE_NAMES,
    ENGINES,
    MAX_LOOP_ATTEMPTS,
    RetryLimitExceeded,
    compare_costs,
    one_qubit_loop,
    reinterpret_distribution,
    reinterpret_outcomes,
    run_frame,
    run_nielsen,
    run_postponed,
    sample_attempt_counts,
    termination_tail,
)
from mbqcsim.gadgets import GadgetOutcome, cnot_branches, one_qubit_branches
from mbqcsim.measurement import RandomSource
from mbqcsim.numerics import (
    StateVector,
    basis_state,
    haar_unitary,
    overlap,
    random_state,
)
from mbqcsim.pauli import PauliLetter, PauliOperator, apply_pauli, letter_matrix

L = PauliLetter

EXAMPLE = "qubits 2\nCNOT 0 1\nH 0\n"


# ---------------------------------------------------------------------------
# retry loop
# ---------------------------------------------------------------------------


def test_one_qubit_loop_terminates_clean():
    gen = np.random.default_rng(40)
    for trial in range(10):
        u = haar_unitary(2, gen)
        s = random_state(1, gen)
        out, words = one_qubit_loop(u, s, 0, RandomSource(trial))
        # every word but the last is an error, the last is clean
        assert all(n != m for n, m in words[:-1])
        assert words[-1][0] == words[-1][1]
        expect = StateVector(1, u @ s.amplitudes)
        assert overlap(expect, out) >= 1.0 - 1e-9


def test_one_qubit_loop_is_bounded(monkeypatch):
    from mbqcsim import engines

    calls = []

    def never_clean(u, s, q, rng):
        calls.append(q)
        word = (len(calls) % 4, (len(calls) + 1) % 4)
        return GadgetOutcome(s, PauliOperator.from_letters(0, (L.X,)), word, 1 / 16)

    monkeypatch.setattr(engines, "one_qubit_gadget", never_clean)
    with pytest.raises(RetryLimitExceeded, match="no clean outcome in 200"):
        one_qubit_loop(H_MATRIX, basis_state("0"), 0, RandomSource(1))
    assert len(calls) == MAX_LOOP_ATTEMPTS == 200


def test_one_qubit_loop_deterministic():
    u = haar_unitary(2, np.random.default_rng(41))
    s = random_state(1, np.random.default_rng(42))
    a = one_qubit_loop(u, s, 0, RandomSource(77))
    b = one_qubit_loop(u, s, 0, RandomSource(77))
    assert a[1] == b[1]
    assert np.array_equal(a[0].amplitudes, b[0].amplitudes)


def realized_one_qubit(u, word):
    """The 2x2 unitary a one-qubit gadget applied, from its word alone."""
    n, m = word
    return u @ letter_matrix(L(n)) @ letter_matrix(L(m))


def realized_cnot(word):
    """The 4x4 unitary a CNOT gadget applied, from its word alone."""
    n, m = word
    return CNOT_MATRIX @ np.kron(letter_matrix(L(n)), letter_matrix(L(m)))


def test_realized_one_qubit():
    # the unitary postponed accrues, u . byproduct, is exactly the
    # word's u sigma_n sigma_m: entries move and change sign or phase
    # by i, so no rounding enters and seeded output cannot shift
    u = haar_unitary(2, np.random.default_rng(43))
    s = random_state(1, np.random.default_rng(44))
    for b in one_qubit_branches(u, s, 0):
        got = u @ b.byproduct.matrix()
        assert np.array_equal(got, realized_one_qubit(u, b.transcript)), b.transcript
        assert b.byproduct.is_identity_word() == (b.transcript[0] == b.transcript[1])


def test_realized_cnot():
    s = random_state(2, np.random.default_rng(45))
    for b in cnot_branches(s, 0, 1):
        got = b.byproduct.matrix() @ CNOT_MATRIX
        assert np.array_equal(got, realized_cnot(b.transcript)), b.transcript


# ---------------------------------------------------------------------------
# engines against the oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_engine_matches_oracle_on_example(name):
    c = parse_circuit(EXAMPLE)
    s = random_state(2, np.random.default_rng(50))
    report = ENGINES[name](c, s, RandomSource(8))
    assert report.engine == name
    assert report.fidelity_vs_oracle >= 1.0 - 1e-9
    assert overlap(oracle_apply(c, s), report.final_state) >= 1.0 - 1e-6


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_engine_on_random_circuits(name):
    gen = np.random.default_rng(51)
    kinds = ("H", "T", "CNOT")
    for trial in range(6):
        n = int(gen.integers(1, 4))
        lines = [f"qubits {n}"]
        for _ in range(int(gen.integers(1, 8))):
            kind = kinds[int(gen.integers(0, 3 if n > 1 else 2))]
            wires = [int(q) for q in gen.permutation(n)[:2]]
            lines.append(
                f"{kind} {wires[0]} {wires[1]}" if kind == "CNOT" else f"{kind} {wires[0]}"
            )
        c = parse_circuit("\n".join(lines))
        s = random_state(n, gen)
        report = ENGINES[name](c, s, RandomSource(100 + trial))
        assert report.fidelity_vs_oracle >= 1.0 - 1e-9, (name, lines)


def _gates(n):
    one = st.tuples(st.sampled_from(["H", "T"]), st.tuples(st.integers(0, n - 1)))
    two = st.permutations(range(n)).map(lambda p: ("CNOT", tuple(p[:2])))
    return st.lists(st.one_of(one, two) if n > 1 else one, max_size=10)


def _circuits(max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: _gates(n).map(lambda gs: Circuit(n, tuple(Gate(k, w) for k, w in gs)))
    )


circuits = _circuits(7)


@settings(max_examples=25, deadline=None)
@given(circuits, st.integers(0, 2**32 - 1))
def test_every_engine_reaches_the_oracle(c, seed):
    s = random_state(c.num_qubits, np.random.default_rng(seed))
    for name, run in ENGINES.items():
        report = run(c, s, RandomSource(seed))
        assert report.fidelity_vs_oracle >= 1.0 - 1e-9, name


def test_nielsen_accounting():
    c = parse_circuit(EXAMPLE)
    report = run_nielsen(c, basis_state("00"), RandomSource(4))
    assert [r.gate.render() for r in report.records] == ["CNOT 0 1", "H 0"]
    assert report.total_gadget_calls == sum(
        r.call_count() for r in report.records
    )
    assert (
        report.corrective_gadget_calls
        == report.total_gadget_calls - len(c.gates)
    )
    assert report.total_gadget_calls >= len(c.gates)
    assert report.final_frame is None
    # CNOT fixes repair only wires whose byproduct letter is not I
    cnot_record = report.records[0]
    byproduct_wires = {q for q, _ in cnot_record.fixes}
    assert byproduct_wires <= {0, 1}


def random_circuit(gen, n, length):
    kinds = ("H", "T", "CNOT")
    gates = []
    for _ in range(length):
        kind = kinds[int(gen.integers(0, 3 if n > 1 else 2))]
        wires = tuple(int(q) for q in gen.permutation(n)[:2])
        gates.append(Gate(kind, wires if kind == "CNOT" else wires[:1]))
    return Circuit(n, tuple(gates))


def test_postponed_costs_are_fixed_and_correction_closes():
    # the closing step undoes every realized gate and applies the
    # circuit on the register itself, so wide registers close as well
    gen = np.random.default_rng(60)
    circuits = [
        parse_circuit(EXAMPLE), random_circuit(gen, 8, 12), random_circuit(gen, 10, 12)
    ]
    for c in circuits:
        s = random_state(c.num_qubits, gen)
        report = run_postponed(c, s, RandomSource(15))
        assert report.total_gadget_calls == len(c.gates)
        assert report.corrective_gadget_calls == 0
        assert report.fidelity_vs_oracle >= 1.0 - 1e-9, c.num_qubits


def test_frame_costs_have_zero_variance():
    c = parse_circuit("qubits 2\nH 0\nT 0\nCNOT 0 1\nT 1\nH 1\n")
    calls = set()
    for seed in range(6):
        report = run_frame(c, basis_state("00"), RandomSource(seed))
        calls.add(report.total_gadget_calls)
        assert report.fidelity_vs_oracle >= 1.0 - 1e-9
    assert calls == {len(c.gates)}


def test_frame_engine_runs_an_eighteen_qubit_register():
    # every gadget runs on the Choi state of at most four qubits, so a
    # 4 MB register never grows to the 64 MB of an extended one
    gen = np.random.default_rng(18)
    c = random_circuit(gen, 18, 50)
    s = random_state(18, gen)
    report = run_frame(c, s, RandomSource(18))
    assert report.total_gadget_calls == 50
    assert report.fidelity_vs_oracle >= 1.0 - 1e-9


def test_frame_report_mode_returns_frame():
    c = parse_circuit("qubits 2\nH 0\nCNOT 0 1\nT 1\n")
    s = random_state(2, np.random.default_rng(61))
    report = run_frame(c, s, RandomSource(3), finalize="report")
    assert report.final_frame is not None
    corrected = apply_pauli(report.final_frame, report.final_state)
    assert overlap(oracle_apply(c, s), corrected) ** 2 >= 1.0 - 1e-9
    assert report.fidelity_vs_oracle >= 1.0 - 1e-9
    # apply mode folds the same frame in
    applied = run_frame(c, s, RandomSource(3), finalize="apply")
    assert applied.final_frame is None
    assert overlap(applied.final_state, corrected) >= 1.0 - 1e-6


def test_frame_invariant_check_runs_clean():
    # physical state == frame . ideal prefix state after every gate,
    # checked from outside: each prefix, run on the same stream, repeats
    # the full run's first words and reports the frame at that step
    c = parse_circuit("qubits 2\nT 0\nH 0\nCNOT 1 0\nT 1\nT 0\nH 1\n")
    s = random_state(2, np.random.default_rng(62))
    full = run_frame(c, s, RandomSource(29), finalize="report")
    assert full.fidelity_vs_oracle >= 1.0 - 1e-9
    for k in range(len(c) + 1):
        prefix = Circuit(c.num_qubits, c.gates[:k])
        report = run_frame(prefix, s, RandomSource(29), finalize="report")
        assert report.records == full.records[:k]
        framed = apply_pauli(report.final_frame, oracle_apply(prefix, s))
        assert overlap(framed, report.final_state) >= 1.0 - 1e-9, k


def test_frame_rejects_bad_finalize():
    c = parse_circuit(EXAMPLE)
    with pytest.raises(ValueError, match="finalize"):
        run_frame(c, basis_state("00"), RandomSource(0), finalize="drop")


def test_report_json_shape():
    c = parse_circuit("qubits 2\nH 0\nT 1\n")
    report = run_frame(
        c, basis_state("00"), RandomSource(5), finalize="report"
    )
    d = report.to_json_dict()
    assert d["version"] == "1"
    assert d["engine"] == "frame"
    assert d["seed"] == 5
    assert d["num_qubits"] == 2
    assert d["total_gadget_calls"] == 2
    assert isinstance(d["final_frame"]["letters"], str)
    assert len(d["final_frame"]["letters"]) == 2
    assert "correction_unitary" not in d
    assert [g["gate"] for g in d["gates"]] == ["H 0", "T 1"]
    for g in d["gates"]:
        assert isinstance(g["attempts"], list)
        assert isinstance(g["fixes"], list)


# ---------------------------------------------------------------------------
# outcome reinterpretation
# ---------------------------------------------------------------------------


def test_reinterpret_outcomes_flip_rule():
    frame = PauliOperator.from_letters(0, (L.X, L.I, L.Y, L.Z))
    assert reinterpret_outcomes(frame, (0, 0, 0, 0)) == (1, 0, 1, 0)
    assert reinterpret_outcomes(frame, (1, 1, 1, 1)) == (0, 1, 0, 1)


def test_reinterpret_outcomes_validation():
    frame = PauliOperator.from_letters(0, (L.X, L.I))
    with pytest.raises(ValueError, match="2 qubit"):
        reinterpret_outcomes(frame, (0,))
    for bits in ((0, 2), (1.0, 0)):
        with pytest.raises(ValueError, match="0 or 1"):
            reinterpret_outcomes(frame, bits)
    # numpy integers are ints too
    assert reinterpret_outcomes(frame, (np.int64(1), np.int64(1))) == (0, 1)


def test_reinterpret_distribution_permutes_by_flipmask():
    # X on qubit 0 of two: flipmask 10, so halves swap
    frame = PauliOperator.from_letters(0, (L.X, L.I))
    dist = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.array_equal(
        reinterpret_distribution(frame, dist), [0.3, 0.4, 0.1, 0.2]
    )
    # Z never flips
    z_frame = PauliOperator.from_letters(0, (L.Z, L.Z))
    assert np.array_equal(reinterpret_distribution(z_frame, dist), dist)


def test_reinterpret_distribution_is_bitwise_the_xor_index():
    # entry b of the result is entry b ^ mask of the input, mask holding
    # a 1 on every X/Y wire with qubit 0 most significant; the result is
    # an owned C-ordered copy, never a reversed view of the input
    gen = np.random.default_rng(65)
    for n in range(5):
        dist = np.abs(random_state(n, gen).amplitudes) ** 2
        for letters in itertools.product(L, repeat=n):
            frame = PauliOperator.from_letters(0, letters)
            mask = sum(1 << (n - 1 - q) for q, l in enumerate(letters) if l in (L.X, L.Y))
            got = reinterpret_distribution(frame, dist)
            assert got.tobytes() == dist[np.arange(2**n) ^ mask].tobytes(), letters
            assert got.flags.c_contiguous and got.flags.owndata


def test_reinterpret_distribution_shape_check():
    with pytest.raises(ValueError, match="shape"):
        reinterpret_distribution(PauliOperator.identity(2), np.ones(3) / 3)


def test_reinterpretation_equals_applying_the_frame():
    # measuring through the frame then relabeling is bit-exact equal
    # to correcting the state first
    gen = np.random.default_rng(64)
    for _ in range(10):
        letters = tuple(L(int(i)) for i in gen.integers(0, 4, size=2))
        frame = PauliOperator.from_letters(int(gen.integers(0, 4)), letters)
        s = random_state(2, gen)
        corrected = np.abs(apply_pauli(frame, s).amplitudes) ** 2
        relabeled = reinterpret_distribution(frame, np.abs(s.amplitudes) ** 2)
        assert np.array_equal(corrected, relabeled)


@settings(max_examples=25, deadline=None)
@given(_circuits(6), st.integers(0, 2**32 - 1))
def test_reinterpreting_a_frame_run_equals_applying_its_frame(c, seed):
    # the raw output of a report-mode frame run, measured and relabeled
    # through its frame, is bit for bit the corrected output measured
    s = random_state(c.num_qubits, np.random.default_rng(seed))
    report = run_frame(c, s, RandomSource(seed), finalize="report")
    raw, frame = report.final_state, report.final_frame
    assert np.array_equal(
        reinterpret_distribution(frame, np.abs(raw.amplitudes) ** 2),
        np.abs(apply_pauli(frame, raw).amplitudes) ** 2,
    )


def test_reinterpreted_outcome_indexing_is_consistent():
    # flipping bits of the outcome tuple lands on the permuted index
    frame = PauliOperator.from_letters(0, (L.Y, L.I, L.X))
    for idx in range(8):
        bits = tuple((idx >> (2 - q)) & 1 for q in range(3))
        new_bits = reinterpret_outcomes(frame, bits)
        new_idx = sum(b << (2 - q) for q, b in enumerate(new_bits))
        dist = np.zeros(8)
        dist[idx] = 1.0
        assert reinterpret_distribution(frame, dist)[new_idx] == 1.0


# ---------------------------------------------------------------------------
# termination statistics
# ---------------------------------------------------------------------------


def test_termination_tail_frozen_values():
    assert termination_tail(0) == 1.0
    assert termination_tail(1) == 0.75
    assert termination_tail(4) == 0.31640625


def test_termination_tail_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        termination_tail(-1)


def test_sample_attempt_counts_deterministic_and_plausible():
    a = sample_attempt_counts(300, RandomSource(11))
    b = sample_attempt_counts(300, RandomSource(11))
    assert np.array_equal(a, b)
    assert a.min() >= 1
    # mean 4, sd sqrt(12); 3 sigma over 300 trials
    assert abs(a.mean() - 4.0) < 3 * np.sqrt(12 / 300)


# ---------------------------------------------------------------------------
# cost comparison
# ---------------------------------------------------------------------------


def test_compare_costs_rows_and_summary():
    c = parse_circuit("qubits 2\nH 0\nCNOT 0 1\nT 1\n")
    rows = compare_costs(c, trials=4, seed=2)
    assert len(rows) == 4 * len(ENGINE_NAMES)
    for _, r in rows:
        assert r.fidelity_vs_oracle >= 1.0 - 1e-9
        if r.engine in ("postponed", "frame"):
            assert r.total_gadget_calls == 3
            assert r.corrective_gadget_calls == 0
        else:
            assert r.total_gadget_calls >= 3
    assert [r.engine for _, r in rows] == list(ENGINE_NAMES) * 4
    assert [t for t, _ in rows] == [t for t in range(4) for _ in ENGINE_NAMES]


def test_compare_costs_deterministic():
    c = parse_circuit(EXAMPLE)

    def run():
        return [
            (t, r.to_json_dict(), r.final_state.amplitudes.tobytes())
            for t, r in compare_costs(c, trials=2, seed=9)
        ]

    assert run() == run()
