"""The sampled-gadget hot path, bit for bit against the plain formulas.

Each reference below is the straightforward numpy formula the package
once used (``v.conj() @ mat``, ``np.outer``, ``np.kron``,
``float(np.real(np.vdot(...)))``, numpy's ``sum``), kept here so that
a change of call pattern in ``numerics``, ``measurement``, ``pauli`` or
``gadgets`` cannot move a single output bit unnoticed.  The wire
layouts those modules cache per (width, wires) are held to the plain
``np.transpose`` of their wire order the same way.
"""

import itertools

import numpy as np
import pytest

from mbqcsim.circuit import CNOT_MATRIX, H_MATRIX, T_MATRIX
from mbqcsim.gadgets import (
    _cnot_byproduct,
    _one_qubit_byproduct,
    _t_byproduct,
    cnot_gadget,
    one_qubit_gadget,
    theorem1_correction,
)
from mbqcsim.measurement import (
    BELL_BASIS,
    PRUNE_TOL,
    RandomSource,
    measurement_branches,
    u_basis,
)
from mbqcsim.numerics import (
    StateVector,
    _move,
    _wire_layout,
    apply_unitary,
    basis_state,
    choi,
    factor_out,
    haar_unitary,
    random_state,
    tensor,
)
from mbqcsim.pauli import (
    PauliLetter,
    PauliOperator,
    SignedPauliObservable,
    conjugate_through_CNOT,
    letter_matrix,
    multiply,
)

L = PauliLetter

#: all 30 signed two-qubit observables
OBSERVABLES = [
    SignedPauliObservable(sign, letters)
    for sign in (1, -1)
    for letters in itertools.product(L, repeat=2)
    if letters != (L.I, L.I)
]


def _pair_first(s, wires):
    """(order, 4 x 2^(n-2) block) of ``s`` with ``wires`` moved first."""
    n = s.num_qubits
    order = [*wires, *(q for q in range(n) if q not in wires)]
    return order, np.transpose(s.amplitudes.reshape((2,) * n), order).reshape(4, -1)


def _back(n, order, block):
    """Normalized state of a pair-first ``block`` put back in place."""
    amp = np.transpose(block.reshape((2,) * n), np.argsort(order)).reshape(-1)
    return StateVector(n, amp, normalize=True)


def _reference_branches(s, m, wires):
    """(outcome, probability, post-state) by the plain formulas."""
    n = s.num_qubits
    order, mat = _pair_first(s, wires)
    if isinstance(m, SignedPauliObservable):
        a, b = (letter_matrix(l) for l in m.letters)
        applied = (m.sign * np.kron(a, b)) @ mat
        blocks = [(sign, None, (mat + sign * applied) / 2.0) for sign in (1, -1)]
    else:
        blocks = [
            (label, v.amplitudes, v.amplitudes.conj() @ mat)
            for label, v in zip(m.labels, m.vectors)
        ]
    out = []
    for outcome, vector, block in blocks:
        p = float(np.real(np.vdot(block, block)))
        if p < PRUNE_TOL:
            continue
        if vector is not None:
            block = np.outer(vector, block / np.sqrt(p))
        out.append((outcome, p, _back(n, order, block)))
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_measurement_branches_are_the_plain_formulas(n):
    gen = np.random.default_rng(900 + n)
    bases = [
        BELL_BASIS,
        u_basis(H_MATRIX),
        u_basis(T_MATRIX),
        u_basis(haar_unitary(2, gen)),
    ]
    # random states, and a basis state whose branches get pruned
    bits = "".join(str(b) for b in gen.integers(0, 2, size=n))
    states = [random_state(n, gen), random_state(n, gen), basis_state(bits)]
    for s in states:
        for wires in itertools.permutations(range(n), 2):
            for m in [*bases, *OBSERVABLES]:
                got = measurement_branches(s, m, wires)
                ref = _reference_branches(s, m, wires)
                assert [b.outcomes for b in got] == [(r[0],) for r in ref]
                for b, (_, p, post) in zip(got, ref):
                    assert type(b.probability) is float
                    assert b.probability == p, (wires, m)
                    assert b.post_state.amplitudes.tobytes() == post.amplitudes.tobytes()


def test_u_basis_vectors_are_the_per_letter_products():
    # (u sigma_i)^T / sqrt(2), one product per letter, for every letter
    gen = np.random.default_rng(77)
    us = [np.eye(2), H_MATRIX, T_MATRIX, *(haar_unitary(2, gen) for _ in range(50))]
    for u in us:
        basis = u_basis(u)
        u = np.asarray(u, dtype=complex)
        for i, v in enumerate(basis.vectors):
            expect = (u @ letter_matrix(L(i))).T.reshape(-1) / np.sqrt(2.0)
            assert v.amplitudes.tobytes() == expect.tobytes()
        # the stored bras are the vectors conjugated, and read-only
        for v, row in zip(basis.vectors, basis.rows):
            assert row.tobytes() == v.amplitudes.conj().tobytes()
            assert not row.flags.writeable


def test_tensor_is_bitwise_kron():
    gen = np.random.default_rng(5)
    for na, nb in itertools.product(range(4), repeat=2):
        a, b = random_state(na, gen), random_state(nb, gen)
        got = tensor(a, b).amplitudes
        assert got.tobytes() == np.kron(a.amplitudes, b.amplitudes).tobytes()


def _reference_factor_out(s, dead):
    keep = [q for q in range(s.num_qubits) if q not in dead]
    order = [*dead, *keep]
    mat = np.transpose(s.amplitudes.reshape((2,) * s.num_qubits), order)
    mat = mat.reshape(2 ** len(dead), -1)
    norms2 = np.einsum("ij,ij->i", mat, mat.conj()).real
    row = int(np.argmax(norms2))
    return StateVector(len(keep), mat[row] / np.sqrt(norms2[row]), normalize=True)


def test_factor_out_is_the_plain_formula():
    gen = np.random.default_rng(11)
    for n in range(1, 7):
        for k in range(n + 1):
            for dead in itertools.combinations(range(n), k):
                # a product of the dead wires' state and the others'
                keep = [q for q in range(n) if q not in dead]
                joined = tensor(random_state(k, gen), random_state(n - k, gen))
                perm = np.argsort([*dead, *keep])
                amp = np.transpose(joined.amplitudes.reshape((2,) * n), perm)
                s = StateVector(n, amp.reshape(-1))
                got = factor_out(s, dead).amplitudes
                assert got.tobytes() == _reference_factor_out(s, list(dead)).amplitudes.tobytes()


def _ordered_wires(n):
    """Every tuple of distinct wires of an n-qubit register: the pairs a
    measurement takes, a gadget's data wires and outputs, and targets."""
    for k in range(n + 1):
        yield from itertools.permutations(range(n), k)


def _check_layout(n, lay, wires):
    """``lay`` against the plain formulas for the distinct ``wires``."""
    rest = tuple(q for q in range(n) if q not in wires)
    assert (lay.wires, lay.rest) == (wires, rest)
    assert lay.wires_last == (rest + wires == tuple(sorted(rest + wires)))
    a = np.arange(2**n, dtype=float) + 0.5j
    first = np.transpose(a.reshape((2,) * n), wires + rest).reshape(-1)
    assert _move(a, lay.first).reshape(-1).tobytes() == first.tobytes(), wires
    assert _move(first, lay.first_back).reshape(-1).tobytes() == a.tobytes(), wires
    last = np.transpose(a.reshape((2,) * n), rest + wires).reshape(-1)
    assert _move(last, lay.last_back).reshape(-1).tobytes() == a.tobytes(), wires


@pytest.mark.parametrize("n", range(7))
def test_wire_layouts_are_the_plain_formulas(n):
    for wires in _ordered_wires(n):
        _check_layout(n, _wire_layout(n, wires), wires)
        # a second lookup is the cached layout itself
        assert _wire_layout(n, wires) is _wire_layout(n, wires)
    # a dead set, in any order and with repeats, is laid out sorted
    for k in range(min(n, 3) + 1):
        for dead in itertools.product(range(n), repeat=k):
            _check_layout(n, _wire_layout(n, dead, True), tuple(sorted(set(dead))))


@pytest.mark.parametrize("call, message", [
    (lambda s: measurement_branches(s, BELL_BASIS, (1, 1)),
     r"duplicate target qubits: \[1, 1\]"),
    (lambda s: measurement_branches(s, BELL_BASIS, (0, 4)),
     "target qubit 4 out of range for 4-qubit register"),
    (lambda s: measurement_branches(s, BELL_BASIS, [-1, 0]),
     "target qubit -1 out of range for 4-qubit register"),
    (lambda s: measurement_branches(s, BELL_BASIS, (0, 1, 2)),
     "a measurement acts on 2 wires, got 3"),
    (lambda s: factor_out(s, [2, 4, 2]), "target qubit 4 out of range for 4-qubit register"),
    (lambda s: factor_out(s, (-2,)), "target qubit -2 out of range for 4-qubit register"),
    (lambda s: apply_unitary(CNOT_MATRIX, s, [3, 3]), r"duplicate target qubits: \[3, 3\]"),
    (lambda s: apply_unitary(H_MATRIX, s, [6]),
     "target qubit 6 out of range for 4-qubit register"),
    (lambda s: choi(s, (5,)), "target qubit 5 out of range for 4-qubit register"),
    (lambda s: one_qubit_gadget(H_MATRIX, s, -1, RandomSource(0)),
     "target qubit -1 out of range for 4-qubit register"),
    (lambda s: cnot_gadget(s, 2, 2, RandomSource(0)), "control equals target"),
    (lambda s: cnot_gadget(s, 1, 4, RandomSource(0)),
     "target qubit 4 out of range for 4-qubit register"),
])
def test_bad_wires_raise_the_same_error_on_every_call(call, message):
    s = random_state(4, np.random.default_rng(4))
    for _ in range(2):
        hits = _wire_layout.cache_info().hits
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(s)
        # checked afresh: no layout, and no error, came from the cache
        assert _wire_layout.cache_info().hits == hits


def test_the_wire_layout_cache_is_bounded():
    assert isinstance(_wire_layout.cache_info().maxsize, int)


def _reference_choose(gen, probabilities):
    p = np.asarray(probabilities, dtype=float)
    u = gen.random() * float(p.sum())
    acc = 0.0
    for i, pi in enumerate(p):
        acc += pi
        if u < acc:
            return i
    return len(p) - 1


def test_choose_matches_the_numpy_sum_draw():
    gen = np.random.default_rng(3)
    ours, theirs = RandomSource(8), RandomSource(8)
    for t in range(20000):
        k = int(gen.integers(1, 5))
        if t % 3:
            weights = gen.random(k) * gen.choice([1e-3, 1.0, 7.0])
        else:  # the exact weights of uniform and pruned outcomes
            weights = gen.choice([0.0, 1 / 16, 0.25, 0.5, 1 / 3], k)
            weights[0] = 0.25
        probabilities = [float(x) for x in weights]
        assert ours.choose(probabilities) == _reference_choose(theirs.gen, probabilities)


def test_cached_decoders_equal_a_fresh_decode():
    pairs = list(itertools.product(range(4), repeat=2))
    triples = list(itertools.product(range(4), (1, -1), (1, -1)))
    cases = [
        (
            _one_qubit_byproduct,
            pairs,
            lambda n, m: multiply(
                PauliOperator.from_letters(0, (L(n),)),
                PauliOperator.from_letters(0, (L(m),)),
            ),
        ),
        (
            _cnot_byproduct,
            pairs,
            lambda n, m: conjugate_through_CNOT(
                PauliOperator.from_letters(0, (L(n), L(m))), 0, 1
            ),
        ),
        (
            _t_byproduct,
            triples,
            lambda n, r1, r2: PauliOperator.from_letters(
                0, (theorem1_correction(r1, r2),)
            ),
        ),
    ]
    for decode, words, fresh in cases:
        assert len(words) == 16
        for word in words:
            got = decode(word)
            assert got == fresh(*word), (decode.__name__, word)
            # shared, not rebuilt: one operator (and matrix) per word
            assert decode(word) is got
            assert not got.matrix().flags.writeable
