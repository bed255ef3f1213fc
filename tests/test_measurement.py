"""Projective measurement machinery: bases, branching, sampling."""

import itertools
import re
from types import SimpleNamespace

import numpy as np
import pytest

from mbqcsim.circuit import H_MATRIX, T_MATRIX
from mbqcsim.measurement import (
    BELL_LABEL_FROM_SIGNS,
    BELL_BASIS,
    PRUNE_TOL,
    BasisMeasurement,
    RandomSource,
    enumerate_branches,
    epr_state,
    measurement_branches,
    sample_plan,
    u_basis,
)
from mbqcsim.numerics import (
    StateVector,
    apply_unitary,
    basis_state,
    overlap,
    random_state,
    tensor,
)
from mbqcsim.pauli import (
    PauliLetter,
    SignedPauliObservable,
    letter_matrix,
    observable_matrix,
)

L = PauliLetter
SQ2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# random source
# ---------------------------------------------------------------------------


def test_random_source_reproducible():
    a = RandomSource(99)
    b = RandomSource(99)
    assert a.gen.random(5).tolist() == b.gen.random(5).tolist()


def test_substreams_are_stable_and_distinct():
    root = RandomSource(7)
    one = root.substream(3).gen.random(4)
    again = RandomSource(7).substream(3).gen.random(4)
    other = RandomSource(7).substream(4).gen.random(4)
    assert np.array_equal(one, again)
    assert not np.array_equal(one, other)
    # nested indices address the same stream as a flat call
    assert np.array_equal(
        root.substream(1).substream(2).gen.random(3),
        RandomSource(7).substream(1, 2).gen.random(3),
    )


def test_substream_does_not_disturb_parent():
    a = RandomSource(5)
    a.substream(0)
    b = RandomSource(5)
    assert a.gen.random() == b.gen.random()


def test_choose_handles_unnormalized_weights():
    rng = RandomSource(1)
    counts = [0, 0]
    for _ in range(2000):
        counts[rng.choose([3.0, 1.0])] += 1
    # expect ratio 3:1; 3 sigma on 2000 draws is about 58
    assert abs(counts[0] - 1500) < 60


def test_choose_rejects_vanishing_weights():
    with pytest.raises(ValueError, match="vanish"):
        RandomSource(0).choose([0.0, 1e-14])


def test_choose_rejects_non_finite_weights():
    # a NaN total used to draw the last index
    for weights in ([np.nan, 0.5], [np.inf, 1.0], [0.5, np.nan]):
        with pytest.raises(ValueError, match="not finite"):
            RandomSource(0).choose(weights)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        RandomSource(-1)


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------


def test_epr_state_amplitudes():
    assert np.allclose(
        epr_state().amplitudes, np.array([1, 0, 0, 1]) / SQ2, atol=1e-15
    )


def test_bell_basis_vectors():
    frozen = {
        0: np.array([1, 0, 0, 1]) / SQ2,
        1: np.array([0, 1, 1, 0]) / SQ2,
        2: np.array([0, 1j, -1j, 0]) / SQ2,
        3: np.array([1, 0, 0, -1]) / SQ2,
    }
    basis = BELL_BASIS
    for label, v in zip(basis.labels, basis.vectors):
        assert np.allclose(v.amplitudes, frozen[label], atol=1e-15), label


def test_bell_labels_match_sign_decomposition():
    # label n of a Bell vector is recoverable from its Z(x)Z and
    # X(x)X eigenvalues through BELL_LABEL_FROM_SIGNS
    zz = observable_matrix(SignedPauliObservable(1, (L.Z, L.Z)))
    xx = observable_matrix(SignedPauliObservable(1, (L.X, L.X)))
    for label, v in zip(BELL_BASIS.labels, BELL_BASIS.vectors):
        ev_zz = round(np.real(v.amplitudes.conj() @ zz @ v.amplitudes))
        ev_xx = round(np.real(v.amplitudes.conj() @ xx @ v.amplitudes))
        assert BELL_LABEL_FROM_SIGNS[(ev_zz, ev_xx)] == label


def test_u_basis_matches_direct_construction():
    gen = np.random.default_rng(31)
    from mbqcsim.numerics import haar_unitary

    for _ in range(10):
        u = haar_unitary(2, gen)
        basis = u_basis(u)
        for i, v in enumerate(basis.vectors):
            direct = apply_unitary(
                u @ letter_matrix(L(i)), epr_state(), [1]
            )
            assert np.allclose(v.amplitudes, direct.amplitudes, atol=1e-12)


def test_u_basis_of_identity_is_bell():
    eye = u_basis(np.eye(2))
    for a, b in zip(eye.vectors, BELL_BASIS.vectors):
        assert np.array_equal(a.amplitudes, b.amplitudes)


def test_u_basis_is_orthonormal():
    basis = u_basis(H_MATRIX)
    for i, a in enumerate(basis.vectors):
        for j, b in enumerate(basis.vectors):
            assert np.isclose(
                np.vdot(a.amplitudes, b.amplitudes), float(i == j), atol=1e-12
            )


def test_u_basis_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        u_basis(np.array([[1, 1], [0, 1]], dtype=complex))


def test_basis_measurement_rejects_non_orthonormal():
    v = epr_state()
    with pytest.raises(ValueError, match="orthonormal"):
        BasisMeasurement((v, v, v, v))


def test_basis_measurement_gram_check_rejects_nan():
    # vectors that skip StateVector's checks, as corrupt ones would
    vectors = [SimpleNamespace(num_qubits=2, amplitudes=v.amplitudes)
               for v in BELL_BASIS.vectors]
    vectors[3] = SimpleNamespace(num_qubits=2, amplitudes=np.full(4, np.nan + 0j))
    with pytest.raises(ValueError, match="orthonormal"):
        BasisMeasurement(tuple(vectors))


# ---------------------------------------------------------------------------
# branching
# ---------------------------------------------------------------------------


def test_branch_probabilities_complete():
    gen = np.random.default_rng(12)
    for _ in range(10):
        s = random_state(3, gen)
        branches = measurement_branches(s, BELL_BASIS, (0, 2))
        assert np.isclose(sum(b.probability for b in branches), 1.0, atol=1e-12)
        for b in branches:
            assert np.isclose(np.linalg.norm(b.post_state.amplitudes), 1.0)


def test_bell_state_measured_in_bell_basis_is_deterministic():
    branches = measurement_branches(epr_state(), BELL_BASIS, (0, 1))
    assert len(branches) == 1
    assert branches[0].outcomes == (0,)
    assert np.isclose(branches[0].probability, 1.0)


def test_measurement_collapse_is_idempotent():
    s = random_state(2, np.random.default_rng(44))
    for b in measurement_branches(s, BELL_BASIS, (0, 1)):
        again = measurement_branches(b.post_state, BELL_BASIS, (0, 1))
        assert len(again) == 1
        assert again[0].outcomes == b.outcomes


def test_basis_branch_leaves_pair_in_basis_vector():
    s = random_state(3, np.random.default_rng(8))
    basis = BELL_BASIS
    for b in measurement_branches(s, basis, (1, 2)):
        v = basis.vectors[basis.labels.index(b.outcomes[0])]
        # overlap with (anything) (x) v on the measured pair is full
        marginal = overlap(tensor(basis_state("0"), v), b.post_state)
        marginal1 = overlap(tensor(basis_state("1"), v), b.post_state)
        assert np.isclose(marginal**2 + marginal1**2, 1.0, atol=1e-9)


def test_observable_sign_convention():
    # -Z(x)Z on |00> reports eigenvalue -1 with certainty
    minus = SignedPauliObservable(-1, (L.Z, L.Z))
    branches = measurement_branches(basis_state("00"), minus, (0, 1))
    assert len(branches) == 1
    assert branches[0].outcomes == (-1,)


def test_observable_branches_of_xx_on_00():
    branches = measurement_branches(
        basis_state("00"), SignedPauliObservable(1, (L.X, L.X)), (0, 1)
    )
    assert sorted(b.outcomes[0] for b in branches) == [-1, 1]
    for b in branches:
        assert np.isclose(b.probability, 0.5, atol=1e-12)
        sign = b.outcomes[0]
        expect = np.array([1, 0, 0, sign]) / SQ2
        assert np.allclose(b.post_state.amplitudes, expect, atol=1e-12)


def test_observable_on_retargeted_pair():
    # X(x)X measured on wires (2, 0) of |000>: the middle wire rides along
    obs = SignedPauliObservable(1, (L.X, L.X))
    branches = measurement_branches(basis_state("000"), obs, (2, 0))
    assert np.isclose(sum(b.probability for b in branches), 1.0, atol=1e-12)
    for b in branches:
        dist = np.abs(b.post_state.amplitudes) ** 2
        # entries 010 and 111 stay empty: wire 1 never leaves |0> but
        # wires 0 and 2 are now correlated
        assert np.isclose(dist[0b010], 0.0, atol=1e-12)
        assert np.isclose(dist[0b000], 0.5, atol=1e-12)


def test_commuting_observable_sequence_eigenvectors():
    # Z(x)Z then Y(x)X commute; the four joint branches project onto
    # (|00> +- i|11>)/sqrt2 and (|01> +- i|10>)/sqrt2
    plan = [
        ((0, 1), SignedPauliObservable(1, (L.Z, L.Z))),
        ((0, 1), SignedPauliObservable(1, (L.Y, L.X))),
    ]
    s = random_state(2, np.random.default_rng(55))
    frozen = [
        np.array([1, 0, 0, 1j]) / SQ2,
        np.array([1, 0, 0, -1j]) / SQ2,
        np.array([0, 1, 1j, 0]) / SQ2,
        np.array([0, 1, -1j, 0]) / SQ2,
    ]
    leaves = enumerate_branches(s, plan)
    assert np.isclose(sum(b.probability for b in leaves), 1.0, atol=1e-12)
    for b in leaves:
        hits = [
            f
            for f in frozen
            if np.isclose(
                abs(np.vdot(f, b.post_state.amplitudes)), 1.0, atol=1e-9
            )
        ]
        assert len(hits) == 1, b.outcomes


def test_adaptive_plan_sees_outcome_word():
    seen = []

    def second(word):
        seen.append(word)
        return SignedPauliObservable(word[0], (L.X, L.X))

    plan = [((0, 1), SignedPauliObservable(1, (L.Z, L.Z))), ((0, 1), second)]
    leaves = enumerate_branches(random_state(2, np.random.default_rng(2)), plan)
    assert sorted(set(seen)) == [(-1,), (1,)]
    assert np.isclose(sum(b.probability for b in leaves), 1.0, atol=1e-12)


def _depth_first(s, plan):
    """Reference enumeration: recurse into each kept branch in turn."""
    leaves = []

    def walk(state, word, prob, step):
        if step == len(plan):
            leaves.append((word, prob, state))
            return
        wires, m = plan[step]
        for b in measurement_branches(state, m(word) if callable(m) else m, wires):
            if prob * b.probability >= PRUNE_TOL:
                walk(b.post_state, word + b.outcomes, prob * b.probability, step + 1)

    walk(s, (), 1.0, 0)
    return leaves


def test_enumeration_matches_a_depth_first_walk_bit_for_bit(monkeypatch):
    # an adaptive plan on a random state, and on a basis state whose
    # first Bell measurement prunes two of its four labels
    from mbqcsim import measurement

    plan = [
        ((2, 0), BELL_BASIS),
        ((1, 2), lambda w: SignedPauliObservable(1 if w[0] < 2 else -1, (L.Y, L.X))),
        ((0, 1), lambda w: u_basis(T_MATRIX) if w[1] > 0 else BELL_BASIS),
    ]
    for s in (random_state(3, np.random.default_rng(8)), basis_state("010")):
        calls = []
        real = measurement.measurement_branches

        def counting(*args, calls=calls, real=real):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(measurement, "measurement_branches", counting)
        leaves = enumerate_branches(s, plan)
        monkeypatch.undo()
        expect = _depth_first(s, plan)
        assert [b.outcomes for b in leaves] == [w for w, _, _ in expect]
        for b, (_, prob, state) in zip(leaves, expect):
            assert b.probability == prob
            assert b.post_state.amplitudes.tobytes() == state.amplitudes.tobytes()
        # one measurement per kept inner node: 1 + 4 + 8, fewer when pruned
        inner = {w[:k] for w, _, _ in expect for k in range(len(plan))}
        assert len(calls) == len(inner)


def test_branch_pruning_drops_impossible_outcomes():
    # |00> has no -1 component of +Z(x)Z at all
    branches = measurement_branches(
        basis_state("00"), SignedPauliObservable(1, (L.Z, L.Z)), (0, 1)
    )
    assert [b.outcomes for b in branches] == [(1,)]


@pytest.mark.parametrize("m", [BELL_BASIS, SignedPauliObservable(1, (L.Z, L.Z))])
@pytest.mark.parametrize(
    "wires, message",
    [
        ((0, 3), "target qubit 3 out of range for 3-qubit register"),
        ((0, 0), "duplicate target qubits: [0, 0]"),
        ((0,), "a measurement acts on 2 wires, got 1"),
    ],
)
def test_measurement_branches_rejects_bad_wires(m, wires, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        measurement_branches(basis_state("000"), m, wires)


#: all 30 signed two-qubit observables
OBSERVABLES = [
    SignedPauliObservable(sign, letters)
    for sign in (1, -1)
    for letters in itertools.product(L, repeat=2)
    if letters != (L.I, L.I)
]


def _dense_observable_branches(s, o, wires):
    """(sign, p, post-state) of O applied to the whole register."""
    applied = apply_unitary(observable_matrix(o), s, wires)
    out = []
    for sign in (1, -1):
        amp = (s.amplitudes + sign * applied.amplitudes) / 2.0
        p = float(np.real(np.vdot(amp, amp)))
        if p >= PRUNE_TOL:
            out.append((sign, p, StateVector(s.num_qubits, amp, normalize=True)))
    return out


def _dense_basis_branches(s, basis, wires):
    """(label, p, post-state) of |v><v| applied to the whole register."""
    psi = s.amplitudes.reshape((2,) * s.num_qubits)
    out = []
    for label, v in zip(basis.labels, basis.vectors):
        proj = np.outer(v.amplitudes, v.amplitudes.conj()).reshape(2, 2, 2, 2)
        projected = np.tensordot(proj, psi, axes=([2, 3], list(wires)))
        amp = np.moveaxis(projected, [0, 1], list(wires)).reshape(-1)
        p = float(np.real(np.vdot(amp, amp)))
        if p >= PRUNE_TOL:
            out.append((label, p, StateVector(s.num_qubits, amp, normalize=True)))
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_branches_match_dense_reference(n):
    # a random state and a basis state, which prunes branches, on every
    # ordered pair: observables bit for bit, bases to rounding
    gen = np.random.default_rng(400 + n)
    bits = "".join(str(b) for b in gen.integers(0, 2, size=n))
    bases = [BELL_BASIS, u_basis(H_MATRIX), u_basis(T_MATRIX)]
    for s in (random_state(n, gen), basis_state(bits)):
        for wires in itertools.permutations(range(n), 2):
            for o in OBSERVABLES:
                got = measurement_branches(s, o, wires)
                ref = _dense_observable_branches(s, o, wires)
                assert [b.outcomes for b in got] == [(r[0],) for r in ref]
                for b, (_, p, post) in zip(got, ref):
                    assert abs(b.probability - p) <= 1e-15
                    got_bytes = b.post_state.amplitudes.tobytes()
                    assert got_bytes == post.amplitudes.tobytes()
            for basis in bases:
                got = measurement_branches(s, basis, wires)
                ref = _dense_basis_branches(s, basis, wires)
                assert [b.outcomes for b in got] == [(r[0],) for r in ref]
                for b, (_, p, post) in zip(got, ref):
                    assert abs(b.probability - p) <= 1e-12
                    assert overlap(b.post_state, post) >= 1 - 1e-12


def test_measurement_branches_rejects_unknown_type():
    with pytest.raises(TypeError, match="not a measurement"):
        measurement_branches(basis_state("00"), object(), (0, 1))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _enumerated(s, plan, word):
    """The enumerated branch of ``word``."""
    (b,) = [b for b in enumerate_branches(s, plan) if b.outcomes == word]
    return b


def _same_leaf(leaf, b):
    """The sampled leaf is the enumerated branch of its word, bit for bit."""
    assert leaf.outcomes == b.outcomes
    assert leaf.probability == b.probability
    assert leaf.post_state.amplitudes.tobytes() == b.post_state.amplitudes.tobytes()


def test_measure_basis_is_deterministic_per_seed():
    s = random_state(2, np.random.default_rng(1))
    plan = [((0, 1), BELL_BASIS)]
    a = sample_plan(s, plan, RandomSource(10))
    b = sample_plan(s, plan, RandomSource(10))
    assert a.outcomes == b.outcomes
    assert np.array_equal(a.post_state.amplitudes, b.post_state.amplitudes)
    _same_leaf(a, _enumerated(s, plan, a.outcomes))


def test_measure_observable_returns_eigenpair():
    plan = [((0, 1), SignedPauliObservable(1, (L.Z, L.Z)))]
    leaf = sample_plan(basis_state("00"), plan, RandomSource(3))
    assert leaf.outcomes == (1,) and leaf.probability == 1.0
    assert np.array_equal(leaf.post_state.amplitudes, basis_state("00").amplitudes)
    _same_leaf(leaf, _enumerated(basis_state("00"), plan, (1,)))


def test_sample_plan_probability_matches_branch():
    s = random_state(2, np.random.default_rng(21))
    plan = [
        ((0, 1), SignedPauliObservable(1, (L.Z, L.Z))),
        ((0, 1), SignedPauliObservable(1, (L.X, L.X))),
    ]
    leaf = sample_plan(s, plan, RandomSource(77))
    b = _enumerated(s, plan, leaf.outcomes)
    assert np.isclose(overlap(leaf.post_state, b.post_state), 1.0, atol=1e-12)
    _same_leaf(leaf, b)


def test_sampled_frequencies_match_probabilities():
    # |00> decomposes onto Bell labels 0 and 3 only, half and half
    rng = RandomSource(1234)
    counts = {0: 0, 3: 0}
    trials = 4000
    for _ in range(trials):
        (label,) = sample_plan(basis_state("00"), [((0, 1), BELL_BASIS)], rng).outcomes
        counts[label] += 1
    # 3 sigma for a fair coin over 4000 draws
    assert abs(counts[0] - trials / 2) < 3 * np.sqrt(trials * 0.25)
