"""Exact Pauli algebra against dense-matrix oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbqcsim.circuit import CNOT_MATRIX, H_MATRIX, T_MATRIX
from mbqcsim.numerics import StateVector, apply_unitary, basis_state, random_state
from mbqcsim.pauli import (
    PHASES,
    PauliLetter,
    PauliOperator,
    SignedPauliObservable,
    apply_pauli,
    conjugate_through_CNOT,
    conjugate_through_H,
    letter_matrix,
    multiply,
    observable_matrix,
)

L = PauliLetter
LETTERS = (L.I, L.X, L.Y, L.Z)


def test_from_char():
    assert PauliLetter.from_char("x") is L.X
    assert PauliLetter.from_char("I") is L.I
    with pytest.raises(ValueError, match="unknown Pauli letter"):
        PauliLetter.from_char("Q")


def test_letter_matrices_frozen():
    assert np.array_equal(letter_matrix(L.I), np.eye(2))
    assert np.array_equal(letter_matrix(L.X), [[0, 1], [1, 0]])
    assert np.array_equal(letter_matrix(L.Y), [[0, -1j], [1j, 0]])
    assert np.array_equal(letter_matrix(L.Z), [[1, 0], [0, -1]])


def test_phases_are_powers_of_i():
    assert PHASES == (1, 1j, -1, -1j)


def test_operator_constructors():
    p = PauliOperator.identity(3)
    assert p.is_identity_word() and p.phase_exp == 0
    assert not PauliOperator.from_letters(0, (L.I, L.X, L.I)).is_identity_word()
    q = PauliOperator.from_letters(2, (L.Y,)).embedded(3, [1])
    assert q.letters == (L.I, L.Y, L.I)
    assert PHASES[q.phase_exp] == -1
    assert q.with_letter(2, L.Z).letters == (L.I, L.Y, L.Z)
    assert (q.x, q.z) == (0b10, 0b10) and PauliOperator(2, 3, 0b10, 0b10) == q
    for bad in ((3, 0b1000, 0), (3, 0, -1), (-1, 0, 0)):
        with pytest.raises(ValueError, match="do not fit"):
            PauliOperator(0, *bad)
    for out_of_range in (q.letter, lambda w: q.with_letter(w, L.X)):
        with pytest.raises(ValueError, match="out of range"):
            out_of_range(3)


def test_embedded_places_letters_on_wires():
    p = PauliOperator.from_letters(3, (L.X, L.Z))
    wide = p.embedded(4, (3, 1))
    assert wide == PauliOperator.from_letters(3, (L.I, L.Z, L.I, L.X))
    with pytest.raises(ValueError, match="out of range"):
        p.embedded(2, (0, 2))
    with pytest.raises(ValueError, match="duplicate"):
        p.embedded(3, (1, 1))
    with pytest.raises(ValueError):
        p.embedded(3, (0,))


def test_operator_matrix_kron_order():
    # qubit 0 is the left kron factor
    p = PauliOperator.from_letters(1, (L.X, L.Z))
    expect = 1j * np.kron(letter_matrix(L.X), letter_matrix(L.Z))
    assert np.array_equal(p.matrix(), expect)


def test_operator_matrix_is_bitwise_the_kron_product():
    # engines build realized gates from byproduct matrices, so seeded
    # output depends on every bit, signed zeros included
    for k in range(4):
        for r in range(5):
            for letters in itertools.product(LETTERS, repeat=r):
                m = np.ones((1, 1), dtype=complex)
                for l in letters:
                    m = np.kron(m, letter_matrix(l))
                expect = PHASES[k] * m
                p = PauliOperator.from_letters(k, letters)
                got = p.matrix()
                assert got.shape == expect.shape
                assert got.tobytes() == expect.tobytes(), (k, letters)
                # built once per operator and shared, so never writable
                assert p.matrix() is got
                assert not got.flags.writeable


def test_multiply_exact_all_single_letter_pairs():
    # every product must match the matrix oracle entry for entry
    for a in LETTERS:
        for b in LETTERS:
            for ka in range(4):
                for kb in range(4):
                    p = PauliOperator.from_letters(ka, (a,))
                    q = PauliOperator.from_letters(kb, (b,))
                    prod = multiply(p, q)
                    assert np.array_equal(
                        prod.matrix(), p.matrix() @ q.matrix()
                    ), f"{p} * {q}"


def test_multiply_is_letterwise_on_words():
    gen = np.random.default_rng(17)
    for _ in range(30):
        lp = tuple(L(int(i)) for i in gen.integers(0, 4, size=3))
        lq = tuple(L(int(i)) for i in gen.integers(0, 4, size=3))
        p = PauliOperator.from_letters(int(gen.integers(0, 4)), lp)
        q = PauliOperator.from_letters(int(gen.integers(0, 4)), lq)
        assert np.array_equal(multiply(p, q).matrix(), p.matrix() @ q.matrix())


def test_multiply_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        multiply(PauliOperator.identity(1), PauliOperator.identity(2))


def test_conjugate_through_h_matches_matrix_oracle():
    for letter in LETTERS:
        for k in range(4):
            p = PauliOperator.from_letters(k, (L.I, letter))
            image = conjugate_through_H(p, 1)
            big_h = np.kron(np.eye(2), H_MATRIX)
            oracle = big_h @ p.matrix() @ big_h.conj().T
            assert np.allclose(image.matrix(), oracle, atol=1e-12), p


def test_conjugate_through_cnot_matches_matrix_oracle():
    # all 16 letter words, all 4 phases, both wire orders
    for a in LETTERS:
        for b in LETTERS:
            for k in range(4):
                p = PauliOperator.from_letters(k, (a, b))
                image = conjugate_through_CNOT(p, 0, 1)
                oracle = CNOT_MATRIX @ p.matrix() @ CNOT_MATRIX
                assert np.allclose(image.matrix(), oracle, atol=1e-12), p
                flipped = conjugate_through_CNOT(p, 1, 0)
                rev = np.array(
                    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]],
                    dtype=complex,
                )
                oracle = rev @ p.matrix() @ rev
                assert np.allclose(flipped.matrix(), oracle, atol=1e-12), p


#: sqrt(2) H, so that H-conjugated words stay exact Gaussian integers
_H_TIMES_SQRT2 = np.array([[1, 1], [1, -1]], dtype=complex)


def _dense(k, letters):
    """i^k times the np.kron product of the letters' matrices."""
    m = PHASES[k] * np.ones((1, 1), dtype=complex)
    for l in letters:
        m = np.kron(m, letter_matrix(l))
    return m


def _dense_cnot(n, c, t):
    """CNOT(c, t) on n qubits as a permutation matrix, qubit 0 the most
    significant bit of the basis index."""
    u = np.zeros((2**n, 2**n), dtype=complex)
    for b in range(2**n):
        u[b ^ (b >> (n - 1 - c) & 1) << (n - 1 - t), b] = 1
    return u


@st.composite
def _word_pairs(draw):
    """Two words on the same 1 to 4 qubits, and the second one's phase."""
    word = st.tuples(*[st.sampled_from(LETTERS)] * draw(st.integers(1, 4)))
    return draw(word), draw(word), draw(st.integers(0, 3))


@settings(max_examples=100, deadline=None)
@given(_word_pairs())
def test_bit_rules_equal_dense_products(words):
    a, b, kb = words
    n = len(a)
    assert np.array_equal(_dense_cnot(2, 0, 1), CNOT_MATRIX)
    q = PauliOperator.from_letters(kb, b)

    def dense(o):
        return _dense(o.phase_exp, o.letters)

    for k in range(4):
        p = PauliOperator.from_letters(k, a)
        assert p.letters == a and p.phase_exp == k
        assert all(p.letter(w) is a[w] for w in range(n))
        dp = _dense(k, a)
        assert np.array_equal(dense(multiply(p, q)), dp @ _dense(kb, b))
        for w in range(n):
            h = np.kron(np.kron(np.eye(2**w), _H_TIMES_SQRT2), np.eye(2 ** (n - 1 - w)))
            assert np.array_equal(2 * dense(conjugate_through_H(p, w)), h @ dp @ h)
        for c, t in itertools.permutations(range(n), 2):
            u = _dense_cnot(n, c, t)
            assert np.array_equal(dense(conjugate_through_CNOT(p, c, t)), u @ dp @ u)
        # letter i on wire 2n - 2 - 2i: reversed, and never adjacent
        wires = range(2 * n - 2, -1, -2)
        wide = [L.I] * (2 * n - 1)
        for w, l in zip(wires, a):
            wide[w] = l
        assert p.embedded(2 * n - 1, wires) == PauliOperator.from_letters(k, wide)
        for w in range(n):
            swapped = p.with_letter(w, b[w])
            assert swapped.letters == a[:w] + (b[w],) + a[w + 1:]
            assert swapped.phase_exp == k


def test_conjugations_preserve_identity():
    p = PauliOperator.identity(2)
    assert conjugate_through_H(p, 0) == p
    assert conjugate_through_CNOT(p, 0, 1) == p


def test_t_conjugation_leaves_the_pauli_group():
    # T X Tdag = (X + Y)/sqrt(2), which is why the T gadget needs the
    # adapted measurement table instead of letter bookkeeping
    witness = T_MATRIX @ letter_matrix(L.X) @ T_MATRIX.conj().T
    expect = (letter_matrix(L.X) + letter_matrix(L.Y)) / np.sqrt(2.0)
    s = 1.0 / np.sqrt(2.0)
    explicit = np.array([[0, s - s * 1j], [s + s * 1j, 0]])
    assert np.max(np.abs(witness - expect)) < 1e-12
    assert np.max(np.abs(witness - explicit)) < 1e-12
    # more than 1e-9 away from each of the 16 one-qubit i^k P
    assert min(_distances_to_paulis(witness)) > 1e-9


def test_t_commutes_with_z_but_not_x():
    t = T_MATRIX
    z = t @ letter_matrix(L.Z) @ t.conj().T
    assert np.max(np.abs(z - letter_matrix(L.Z))) < 1e-12
    assert min(_distances_to_paulis(t @ letter_matrix(L.X) @ t.conj().T)) > 1e-9


def _distances_to_paulis(u):
    """Largest entrywise distance of ``u`` from each one-qubit i^k P."""
    return [
        float(np.max(np.abs(u - PHASES[k] * letter_matrix(p))))
        for k in range(4)
        for p in LETTERS
    ]


def test_signed_observable_validation():
    with pytest.raises(ValueError, match="sign"):
        SignedPauliObservable(0, (L.Z, L.Z))
    with pytest.raises(ValueError, match="two letters"):
        SignedPauliObservable(1, (L.Z,))
    with pytest.raises(ValueError, match="identity"):
        SignedPauliObservable(1, (L.I, L.I))


def test_signed_observable_render():
    assert str(SignedPauliObservable(-1, (L.Z, L.Z))) == "-Z⊗Z"
    assert str(SignedPauliObservable(1, (L.Y, L.X))) == "+Y⊗X"


def test_observable_matrix_squares_to_identity():
    for sign in (1, -1):
        for a in LETTERS:
            for b in LETTERS:
                if (a, b) == (L.I, L.I):
                    continue
                m = observable_matrix(SignedPauliObservable(sign, (a, b)))
                assert np.allclose(m @ m, np.eye(4), atol=1e-12)
                assert np.allclose(m, m.conj().T, atol=1e-12)
                # cached and shared by every caller, so never writable
                assert not m.flags.writeable
                kron = sign * np.kron(letter_matrix(a), letter_matrix(b))
                assert m.tobytes() == kron.tobytes()


def test_apply_pauli_ignores_phase():
    s = basis_state("0")
    for k in range(4):
        out = apply_pauli(PauliOperator.from_letters(k, (L.X,)), s)
        assert np.array_equal(out.amplitudes, basis_state("1").amplitudes)


def test_apply_pauli_matches_letter_matrices():
    gen = np.random.default_rng(23)
    for _ in range(20):
        s = random_state(2, gen)
        letters = tuple(L(int(i)) for i in gen.integers(0, 4, size=2))
        p = PauliOperator.from_letters(0, letters)
        out = apply_pauli(p, s)
        expect = p.matrix() @ s.amplitudes
        assert np.allclose(out.amplitudes, expect, atol=1e-12)


def _letter_by_letter(p, s):
    """Each letter's matrix on its wire, qubit 0 first, I skipped."""
    for q, l in enumerate(p.letters):
        if l is not L.I:
            s = apply_unitary(letter_matrix(l), s, [q])
    return s


def test_apply_pauli_from_the_masks_has_the_bits_of_letter_by_letter():
    gen = np.random.default_rng(24)
    for n in range(1, 5):
        # generic amplitudes: every real and imaginary part nonzero
        generic = [random_state(n, gen) for _ in range(3)]
        # exact zeros: the values agree, the sign of a zero part may not
        zeros = [basis_state(format(i, f"0{n}b")) for i in range(2**n)]
        mixed = random_state(n, gen).amplitudes.copy()
        mixed.real[::2] = 0.0
        zeros.append(StateVector(n, mixed, normalize=True))
        for letters in itertools.product(LETTERS, repeat=n):
            for k in range(4):
                p = PauliOperator.from_letters(k, letters)
                for s in generic:
                    out, expect = apply_pauli(p, s), _letter_by_letter(p, s)
                    assert out.amplitudes.tobytes() == expect.amplitudes.tobytes(), letters
                for s in zeros:
                    out, expect = apply_pauli(p, s), _letter_by_letter(p, s)
                    assert np.array_equal(out.amplitudes, expect.amplitudes), letters


def test_apply_pauli_length_check():
    with pytest.raises(ValueError, match="mismatch"):
        apply_pauli(PauliOperator.identity(1), basis_state("00"))
