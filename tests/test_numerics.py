"""State-vector core: construction, gate application, factoring."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbqcsim.numerics import (
    StateVector,
    _choi_state,
    _move,
    _transpose_plan,
    apply_unitary,
    basis_state,
    choi,
    factor_out,
    haar_unitary,
    overlap,
    random_state,
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


def test_state_vector_norm_check_rejects_nan():
    for amps in ([np.nan, 0], [np.inf, 0], [1, np.nan]):
        with pytest.raises(ValueError, match="not finite"):
            StateVector(1, np.array(amps, dtype=complex))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_state_vector_normalize_check_rejects_non_finite():
    # inf / inf used to slip through as [nan, 0], and an overflowing
    # norm turned 1e200 into a zero vector
    for amps in ([np.inf, 0], [np.nan, 1], [1e200, 0]):
        with pytest.raises(ValueError, match="not finite"):
            StateVector(1, np.array(amps, dtype=complex), normalize=True)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_require_unitary_rejects_nan():
    for bad in ([[np.nan, 0], [0, 1]], [[np.inf, 0], [0, 1]]):
        with pytest.raises(ValueError, match="not unitary"):
            require_unitary(np.array(bad, dtype=complex))


def test_factor_out_product_state():
    gen = np.random.default_rng(7)
    parts = [random_state(1, gen) for _ in range(3)]
    s = tensor(parts[0], tensor(parts[1], parts[2]))
    reduced = factor_out(s, [1])
    assert reduced.num_qubits == 2
    # kept wires stay in original relative order
    expect = tensor(parts[0], parts[2])
    assert np.isclose(overlap(reduced, expect), 1.0)


@pytest.mark.parametrize("n, wires", [
    (1, (0,)), (2, (1,)), (2, (0,)), (2, (1, 0)), (3, (2, 0)), (4, (1, 3)),
])
def test_choi_runs_a_small_register_on_the_choi_state(n, wires):
    # however few its qubits, no register runs as it is: the gadget runs
    # on |Phi+>^(x)k, and the lift of that untouched state is the register
    s = random_state(n, np.random.default_rng(n))
    k = len(wires)
    state, data, lift = choi(s, wires)
    assert state is _choi_state(k) and data == tuple(range(k, 2 * k))
    assert np.max(np.abs(lift(state).amplitudes - s.amplitudes)) <= 1e-15


@pytest.mark.parametrize("n, wires", [
    (3, (2,)), (5, (0,)), (5, (3, 1)), (6, (4, 1)),
])
def test_choi_runs_a_wide_register_on_the_choi_state(n, wires):
    k = len(wires)
    state, data, _ = choi(random_state(n, np.random.default_rng(n)), wires)
    # |Phi+>^(x)k: k reference wires, then the k data wires
    assert state.num_qubits == 2 * k and data == tuple(range(k, 2 * k))
    phi = np.eye(2**k) / np.sqrt(2**k)
    assert np.allclose(state.amplitudes, phi.reshape(-1), atol=1e-15)


@pytest.mark.parametrize("n, wires", [
    (3, (2,)), (5, (0,)), (5, (3, 1)), (6, (4, 1)), (6, (0, 5)),
])
def test_choi_lift_applies_the_operator_on_the_data_wires(n, wires):
    gen = np.random.default_rng(10 + n)
    u = haar_unitary(2 ** len(wires), gen)
    for s in (random_state(n, gen), basis_state(("01" * n)[:n])):
        state, data, lift = choi(s, wires)
        lifted = lift(apply_unitary(u, state, data)).amplitudes
        expect = apply_unitary(u, s, wires).amplitudes
        assert np.max(np.abs(lifted - expect)) <= 1e-12


def test_choi_lift_renormalizes_and_rejects_a_non_unitary_operator():
    s = random_state(4, np.random.default_rng(4))
    state, _, lift = choi(s, (2,))
    # a norm off by 2e-10 passes every check and still lifts to a unit vector
    off = StateVector(2, state.amplitudes * (1 + 2e-10))
    assert abs(np.linalg.norm(lift(off).amplitudes) - 1) <= 1e-14
    # a projection on the data wire is a word no unitary explains
    with pytest.raises(ValueError, match="not unitary"):
        lift(basis_state("00"))


def _raw(amps):
    """A register that skips StateVector's checks, as a corrupt one would."""
    amps = np.array(amps, dtype=complex)
    return SimpleNamespace(num_qubits=int(np.log2(amps.size)), amplitudes=amps)


def test_factor_out_zero_row_check_rejects_nan():
    with pytest.raises(ValueError, match="zero vector"):
        factor_out(_raw([1, 0, 0, np.nan]), [0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_factor_out_residual_check_rejects_nan():
    # the kept row is inf / inf = NaN, so the residual is NaN
    with pytest.raises(ValueError, match="entangled"):
        factor_out(_raw([np.inf, 0, 0, 0]), [0])


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
def test_transpose_plan_is_the_plain_transpose(perm):
    n = len(perm)
    a = np.random.default_rng(n).standard_normal(2**n) + 0j
    a += 1j * np.arange(2**n)
    expected = np.transpose(a.reshape((2,) * n), perm).reshape(-1)
    assert np.array_equal(_move(a, _transpose_plan(tuple(perm), False)).reshape(-1), expected)
    back = _move(expected, _transpose_plan(tuple(perm), True)).reshape(-1)
    assert np.array_equal(back, a)


def test_transpose_plan_merges_adjacent_runs():
    # 16 qubits in three runs: two blocks swapped around a single wire
    perm = (*range(8, 16), 7, *range(7))
    assert _move(np.zeros(2**16), _transpose_plan(perm, False)).ndim == 3


def test_transpose_plan_rejects_non_permutation():
    with pytest.raises(ValueError, match="permutation"):
        _transpose_plan((1, 1), False)
