"""Circuit text format, parsing errors, and the dense oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbqcsim.circuit import (
    CNOT_MATRIX,
    GATE_MATRICES,
    H_MATRIX,
    T_MATRIX,
    Circuit,
    CircuitParseError,
    Gate,
    oracle_apply,
    parse_circuit,
    render_circuit,
)
from mbqcsim.numerics import basis_state, random_state


def test_gate_matrices_frozen():
    s = 1 / np.sqrt(2.0)
    assert np.allclose(H_MATRIX, [[s, s], [s, -s]], atol=1e-15)
    assert np.allclose(
        T_MATRIX, [[1, 0], [0, np.exp(1j * np.pi / 4)]], atol=1e-15
    )
    assert np.array_equal(
        CNOT_MATRIX,
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    )


def test_parse_basic():
    c = parse_circuit("qubits 2\nCNOT 0 1\nH 0\n")
    assert c.num_qubits == 2
    assert len(c) == 2
    assert c.gates[0] == Gate("CNOT", (0, 1))
    assert c.gates[1] == Gate("H", (0,))


def test_parse_comments_blanks_and_case():
    text = """
    # leading comment
    QUBITS 3

    h 2   # trailing comment
    t 0
    cnot 2 1
    """
    c = parse_circuit(text)
    assert [g.render() for g in c.gates] == ["H 2", "T 0", "CNOT 2 1"]


def test_render_parse_round_trip():
    c = parse_circuit("qubits 3\nH 0\nT 1\nCNOT 1 2\nCNOT 2 0\n")
    assert parse_circuit(render_circuit(c)) == c
    assert render_circuit(c) == "qubits 3\nH 0\nT 1\nCNOT 1 2\nCNOT 2 0\n"


def _gates(n):
    one = st.tuples(st.sampled_from(["H", "T"]), st.tuples(st.integers(0, n - 1)))
    two = st.permutations(range(n)).map(lambda p: ("CNOT", tuple(p[:2])))
    return st.lists(st.one_of(one, two) if n > 1 else one, max_size=20)


circuits = st.one_of(
    st.just(Circuit(0, ())),
    st.integers(1, 6).flatmap(
        lambda n: _gates(n).map(
            lambda gs: Circuit(n, tuple(Gate(k, w) for k, w in gs))
        )
    ),
)


@settings(max_examples=200, deadline=None)
@given(circuits)
def test_parse_inverts_render(c):
    assert parse_circuit(render_circuit(c)) == c


@settings(max_examples=200, deadline=None)
@given(
    circuits,
    st.sampled_from(
        ["SWAP 0 1", "H", "T 0 0", "CNOT 0", "H x", "H 99", "CNOT 0 0", "qubits 2"]
    ),
    st.data(),
)
def test_parse_error_names_the_line_of_any_bad_statement(c, bad, data):
    lines = render_circuit(c).splitlines()
    at = data.draw(st.integers(1, len(lines)))
    lines.insert(at, bad)
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("\n".join(lines))
    assert err.value.line == at + 1
    assert str(err.value).endswith(f" at line {at + 1}")


@pytest.mark.parametrize(
    "text, message",
    [
        ("H 0", "expected 'qubits <n>' header before gates at line 1"),
        ("qubits", "malformed qubits header at line 1"),
        ("qubits two", "invalid qubit count 'two' at line 1"),
        ("qubits -1", "qubit count must be nonnegative at line 1"),
        ("qubits 2\nqubits 2", "duplicate qubits header at line 2"),
        ("qubits 2\nSWAP 0 1", "unknown gate 'SWAP' at line 2"),
        ("qubits 2\nH 0 1", "H takes 1 qubit argument(s) at line 2"),
        ("qubits 2\nCNOT 0", "CNOT takes 2 qubit argument(s) at line 2"),
        ("qubits 2\nH x", "invalid qubit index in 'H x' at line 2"),
        ("qubits 2\nH 2", "qubit 2 out of range at line 2"),
        ("qubits 2\n\nCNOT 1 1", "control equals target at line 3"),
        ("", "missing 'qubits <n>' header at line 1"),
        ("# only a comment\n", "missing 'qubits <n>' header at line 1"),
    ],
)
def test_parse_errors_name_the_line(text, message):
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(text)
    assert str(err.value) == message


def test_parse_error_is_a_value_error_with_line_attr():
    with pytest.raises(ValueError) as err:
        parse_circuit("qubits 1\nH 5")
    assert err.value.line == 2


def test_gate_validation():
    with pytest.raises(ValueError, match="unknown gate 'SWAP'"):
        Gate("SWAP", (0, 1))
    with pytest.raises(ValueError, match="takes 2"):
        Gate("CNOT", (0,))
    with pytest.raises(ValueError, match="control equals target"):
        Gate("CNOT", (1, 1))


def test_circuit_validates_gate_range():
    with pytest.raises(ValueError, match="out of range"):
        Circuit(1, (Gate("CNOT", (0, 1)),))
    with pytest.raises(ValueError, match="nonnegative"):
        Circuit(-1, ())


def dense_unitary(c):
    """The circuit's 2^n x 2^n matrix, each gate embedded with np.kron
    between identities and a wire permutation: an oracle reference
    built independently of ``apply_unitary``."""
    n = c.num_qubits
    u = np.eye(2**n, dtype=complex)
    for g in c.gates:
        rest = [q for q in range(n) if q not in g.qubits]
        order = list(g.qubits) + rest
        # perm takes a basis index in wire order to one in ``order``
        perm = np.zeros((2**n, 2**n))
        for i in range(2**n):
            bits = [(i >> (n - 1 - q)) & 1 for q in range(n)]
            perm[sum(bits[q] << (n - 1 - k) for k, q in enumerate(order)), i] = 1
        full = np.kron(GATE_MATRICES[g.kind], np.eye(2 ** len(rest)))
        u = perm.T @ full @ perm @ u
    return u


def test_two_qubit_example_unitary():
    # CNOT then H on the control wire
    c = parse_circuit("qubits 2\nCNOT 0 1\nH 0\n")
    expect = np.kron(H_MATRIX, np.eye(2)) @ CNOT_MATRIX
    assert np.allclose(dense_unitary(c), expect, atol=1e-12)
    for i in range(4):
        col = oracle_apply(c, basis_state(format(i, "02b"))).amplitudes
        assert np.allclose(col, expect[:, i], atol=1e-12)


def test_oracle_apply_matches_dense_reference():
    gen = np.random.default_rng(63)
    kinds = ("H", "T", "CNOT")
    for _ in range(15):
        n = int(gen.integers(1, 5))
        gates = []
        for _ in range(int(gen.integers(0, 12))):
            kind = kinds[int(gen.integers(0, 3 if n > 1 else 2))]
            wires = tuple(int(q) for q in gen.permutation(n)[:2])
            gates.append(
                Gate(kind, wires if kind == "CNOT" else wires[:1])
            )
        c = Circuit(n, tuple(gates))
        s = random_state(n, gen)
        direct = oracle_apply(c, s)
        via_matrix = dense_unitary(c) @ s.amplitudes
        assert np.allclose(direct.amplitudes, via_matrix, atol=1e-9)


def test_oracle_apply_checks_register_width():
    c = parse_circuit("qubits 2\nH 0\n")
    with pytest.raises(ValueError, match="circuit needs"):
        oracle_apply(c, basis_state("0"))


def test_empty_circuit_is_identity():
    c = parse_circuit("qubits 2\n")
    s = random_state(2, np.random.default_rng(0))
    assert np.array_equal(oracle_apply(c, s).amplitudes, s.amplitudes)


def test_gate_matrices_cover_every_kind():
    assert set(GATE_MATRICES) == {"H", "T", "CNOT"}
    for kind, m in GATE_MATRICES.items():
        assert np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12), kind
