"""State-vector core: construction, gate application, factoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbqcsim.numerics import (
    StateVector,
    apply_unitary,
    basis_state,
    factor_out,
    haar_unitary,
    overlap,
    permute_qubits,
    purify,
    random_state,
    reorder_qubits,
    require_unitary,
    tensor,
)

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_basis_state_msb_convention():
    # qubit 0 is the most significant bit: |10> sits at index 2
    s = basis_state("10")
    assert s.num_qubits == 2
    assert np.array_equal(s.amplitudes, np.array([0, 0, 1, 0], dtype=complex))


def test_basis_state_rejects_non_bits():
    with pytest.raises(ValueError, match="only 0 and 1"):
        basis_state("02")


def test_state_vector_length_check():
    with pytest.raises(ValueError):
        StateVector(2, np.ones(3, dtype=complex))


def test_state_vector_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, np.array([1.0, 1.0], dtype=complex))


def test_state_vector_normalize_flag():
    s = StateVector(1, np.array([1.0, 1.0], dtype=complex), normalize=True)
    assert np.isclose(np.linalg.norm(s.amplitudes), 1.0)
    with pytest.raises(ValueError, match="zero vector"):
        StateVector(1, np.zeros(2, dtype=complex), normalize=True)


def test_state_vector_immutable():
    s = basis_state("0")
    with pytest.raises(AttributeError):
        s.num_qubits = 3
    # the amplitude buffer is frozen too
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.5


def test_tensor_orders_factors():
    s = tensor(basis_state("0"), basis_state("1"))
    assert np.array_equal(s.amplitudes, basis_state("01").amplitudes)
    assert s.num_qubits == 2


def test_apply_unitary_single_qubit():
    s = apply_unitary(X, basis_state("00"), [0])
    assert np.array_equal(s.amplitudes, basis_state("10").amplitudes)
    s = apply_unitary(X, basis_state("00"), [1])
    assert np.array_equal(s.amplitudes, basis_state("01").amplitudes)


def test_apply_unitary_target_order_matters():
    # CNOT with (control, target) = (1, 0) flips the most significant bit
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    s = apply_unitary(cnot, basis_state("01"), (1, 0))
    assert np.array_equal(s.amplitudes, basis_state("11").amplitudes)


def test_apply_unitary_validates_targets():
    with pytest.raises(ValueError, match="duplicate"):
        apply_unitary(np.eye(4), basis_state("00"), (0, 0))
    with pytest.raises(ValueError):
        apply_unitary(X, basis_state("0"), [1])
    with pytest.raises(ValueError):
        apply_unitary(np.eye(4), basis_state("00"), (0,))


def test_apply_unitary_matches_dense_reference():
    # reference: move the targets to the front with np.transpose, act
    # with u (x) I through np.kron, and move them back
    gen = np.random.default_rng(11)
    for _ in range(20):
        u = haar_unitary(4, gen)
        targets = tuple(int(q) for q in gen.permutation(3)[:2])
        s = random_state(3, gen)
        order = list(targets) + [q for q in range(3) if q not in targets]
        front = np.transpose(s.amplitudes.reshape(2, 2, 2), order).reshape(-1)
        acted = (np.kron(u, np.eye(2)) @ front).reshape(2, 2, 2)
        expect = np.transpose(acted, np.argsort(order)).reshape(-1)
        via_apply = apply_unitary(u, s, targets)
        assert np.allclose(expect, via_apply.amplitudes, atol=1e-12)


def test_apply_unitary_shape_check():
    with pytest.raises(ValueError, match="does not act on"):
        apply_unitary(np.eye(3), basis_state("00"), (0,))


def test_overlap_is_abs_inner_product():
    plus = StateVector(1, np.array([1, 1], dtype=complex), normalize=True)
    zero = basis_state("0")
    assert np.isclose(overlap(zero, plus), 1 / np.sqrt(2.0))
    s = random_state(2, np.random.default_rng(3))
    rotated = StateVector(2, np.exp(0.7j) * s.amplitudes)
    assert np.isclose(overlap(s, rotated), 1.0, atol=1e-12)


def test_overlap_dimension_check():
    with pytest.raises(ValueError, match="qubit count mismatch"):
        overlap(basis_state("0"), basis_state("00"))


def test_require_unitary():
    out = require_unitary(H)
    assert out.dtype == complex
    with pytest.raises(ValueError, match="not unitary"):
        require_unitary(2.0 * H)
    with pytest.raises(ValueError, match="square"):
        require_unitary(np.ones((2, 3)))


def test_reorder_qubits_semantics():
    # new wire i carries old wire perm[i]
    s = tensor(basis_state("0"), tensor(basis_state("1"), basis_state("0")))
    out = reorder_qubits(s, [1, 0, 2])
    assert np.array_equal(out.amplitudes, basis_state("100").amplitudes)


def test_reorder_qubits_round_trip():
    gen = np.random.default_rng(5)
    s = random_state(4, gen)
    perm = list(gen.permutation(4))
    inverse = list(np.argsort(perm))
    back = reorder_qubits(reorder_qubits(s, perm), inverse)
    assert np.allclose(back.amplitudes, s.amplitudes)


def test_reorder_qubits_validates_perm():
    with pytest.raises(ValueError, match="permutation"):
        reorder_qubits(basis_state("00"), [0, 0])


def test_factor_out_product_state():
    gen = np.random.default_rng(7)
    parts = [random_state(1, gen) for _ in range(3)]
    s = tensor(parts[0], tensor(parts[1], parts[2]))
    reduced = factor_out(s, [1])
    assert reduced.num_qubits == 2
    # kept wires stay in original relative order
    expect = tensor(parts[0], parts[2])
    assert np.isclose(overlap(reduced, expect), 1.0)


def _reduced(s, wires):
    """Density matrix of ``wires`` of ``s``, wires in the given order."""
    rest = [q for q in range(s.num_qubits) if q not in wires]
    m = np.transpose(s.amplitudes.reshape((2,) * s.num_qubits), [*wires, *rest])
    m = m.reshape(2 ** len(wires), -1)
    return m @ m.conj().T


@pytest.mark.parametrize("n, wires", [
    (1, (0,)), (2, (1,)), (3, (2,)), (5, (0,)), (2, (1, 0)), (3, (2, 0)),
    (4, (1, 3)), (6, (4, 1)),
])
def test_purify_keeps_the_wires_reduced_state_and_lifts_back(n, wires):
    k = len(wires)
    # a random state, and a basis state whose Gram matrix has vanishing pivots
    for s in (random_state(n, np.random.default_rng(n)), basis_state(("01" * n)[:n])):
        small, lift = purify(s, wires)
        # the smallest purification: k + log2(min(2^k, 2^(n - k))) qubits
        assert small.num_qubits == k + min(k, n - k)
        data = tuple(range(small.num_qubits - k, small.num_qubits))
        assert np.allclose(_reduced(small, data), _reduced(s, wires), atol=1e-12)
        # the untouched purification lifts back to the register itself
        assert np.allclose(lift(small).amplitudes, s.amplitudes, atol=1e-12)


def test_factor_out_rejects_entanglement():
    epr = StateVector(2, np.array([1, 0, 0, 1], dtype=complex), normalize=True)
    with pytest.raises(ValueError, match="entangle"):
        factor_out(epr, [0])


def test_factor_out_everything_leaves_scalar_register():
    s = basis_state("01")
    reduced = factor_out(s, [0, 1])
    assert reduced.num_qubits == 0
    assert np.isclose(abs(reduced.amplitudes[0]), 1.0)


def test_random_state_normalized_and_seeded():
    a = random_state(3, np.random.default_rng(42))
    b = random_state(3, np.random.default_rng(42))
    assert np.isclose(np.linalg.norm(a.amplitudes), 1.0)
    assert np.array_equal(a.amplitudes, b.amplitudes)


def test_haar_unitary_is_unitary_and_seeded():
    a = haar_unitary(4, np.random.default_rng(9))
    b = haar_unitary(4, np.random.default_rng(9))
    assert np.allclose(a @ a.conj().T, np.eye(4), atol=1e-12)
    assert np.array_equal(a, b)


def test_unitary_evolution_preserves_norm():
    gen = np.random.default_rng(101)
    for _ in range(25):
        n = int(gen.integers(1, 4))
        s = random_state(n, gen)
        k = int(gen.integers(1, n + 1))
        targets = tuple(gen.permutation(n)[:k])
        u = haar_unitary(2**k, gen)
        out = apply_unitary(u, s, targets)
        assert np.isclose(np.linalg.norm(out.amplitudes), 1.0, atol=1e-12)


def test_overlap_invariant_under_shared_unitary():
    gen = np.random.default_rng(202)
    for _ in range(25):
        a = random_state(2, gen)
        b = random_state(2, gen)
        u = haar_unitary(4, gen)
        before = overlap(a, b)
        after = overlap(
            apply_unitary(u, a, (0, 1)), apply_unitary(u, b, (0, 1))
        )
        assert np.isclose(before, after, atol=1e-12)


# ---------------------------------------------------------------------------
# merged-axis qubit permutations
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10).flatmap(lambda n: st.permutations(range(n))))
def test_permute_qubits_is_the_plain_transpose(perm):
    n = len(perm)
    a = np.random.default_rng(n).standard_normal(2**n) + 0j
    a += 1j * np.arange(2**n)
    expected = np.transpose(a.reshape((2,) * n), perm).reshape(-1)
    assert np.array_equal(permute_qubits(a, perm).reshape(-1), expected)
    back = permute_qubits(expected, perm, inverse=True).reshape(-1)
    assert np.array_equal(back, a)


def test_permute_qubits_merges_adjacent_runs():
    # 16 qubits in three runs: two blocks swapped around a single wire
    perm = [*range(8, 16), 7, *range(7)]
    assert permute_qubits(np.zeros(2**16), perm).ndim == 3


def test_permute_qubits_rejects_non_permutation():
    with pytest.raises(ValueError, match="permutation"):
        permute_qubits(np.zeros(4), [1, 1])
