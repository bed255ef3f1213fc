"""Teleportation gadgets and the adapted-T measurement table."""

import itertools
import sys
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from mbqcsim.circuit import CNOT_MATRIX, H_MATRIX, T_MATRIX
from mbqcsim.gadgets import (
    TABLE1,
    Table1Entry,
    adapted_t_branches,
    adapted_t_gadget,
    cnot_branches,
    cnot_gadget,
    load_table1,
    one_qubit_branches,
    one_qubit_gadget,
    parse_table1,
    theorem1_correction,
    verify_table1,
)
from mbqcsim.measurement import BasisMeasurement, RandomSource
from mbqcsim.numerics import (
    StateVector,
    apply_unitary,
    basis_state,
    haar_unitary,
    overlap,
    random_state,
    tensor,
)
from mbqcsim.pauli import (
    PauliLetter,
    PauliOperator,
    SignedPauliObservable,
    apply_pauli,
    letter_matrix,
    multiply,
)

L = PauliLetter
LETTERS = (L.I, L.X, L.Y, L.Z)

# all 48 signs, frozen: (m1, m2 at r1=+1, m2 at r1=-1) per (sigma_p, n)
TABLE_SIGNS = {
    (L.I, 0): (+1, +1, -1),
    (L.I, 1): (-1, +1, -1),
    (L.I, 2): (-1, -1, +1),
    (L.I, 3): (+1, -1, +1),
    (L.X, 0): (-1, +1, +1),
    (L.X, 1): (+1, +1, +1),
    (L.X, 2): (+1, -1, -1),
    (L.X, 3): (-1, -1, -1),
    (L.Y, 0): (-1, -1, -1),
    (L.Y, 1): (+1, -1, -1),
    (L.Y, 2): (+1, +1, +1),
    (L.Y, 3): (-1, +1, +1),
    (L.Z, 0): (+1, -1, +1),
    (L.Z, 1): (-1, -1, +1),
    (L.Z, 2): (-1, +1, -1),
    (L.Z, 3): (+1, +1, -1),
}


def commute_sign(a, b):
    if a is L.I or b is L.I or a is b:
        return 1
    return -1


TABLE_TEXT = resources.files("mbqcsim").joinpath("data/table1.txt").read_text(
    encoding="utf-8"
)


# ---------------------------------------------------------------------------
# table content
# ---------------------------------------------------------------------------


def test_table_signs_frozen():
    for (p, n), (s1, s2p, s2n) in TABLE_SIGNS.items():
        e = TABLE1[(p, n)]
        assert (e.m1.sign, e.m2_pos.sign, e.m2_neg.sign) == (s1, s2p, s2n), (
            p,
            n,
        )


def test_table_letter_structure():
    for key in TABLE_SIGNS:
        e = TABLE1[key]
        assert e.m1.letters == (L.Z, L.Z)
        assert e.m2_pos.letters == (L.X, L.X)
        assert e.m2_neg.letters == (L.Y, L.X)


def test_table_satisfies_commutation_sign_law():
    # every sign is a product of commutation signs; this closed form
    # pins all 48 entries at once
    for p in LETTERS:
        for n in range(4):
            e = TABLE1[(p, n)]
            ln = L(n)
            assert e.m1.sign == commute_sign(ln, L.Z) * commute_sign(p, L.Z)
            assert e.m2_pos.sign == commute_sign(ln, L.X) * commute_sign(p, L.X)
            assert e.m2_neg.sign == -commute_sign(ln, L.X) * commute_sign(p, L.Y)


def test_theorem1_correction_map():
    assert theorem1_correction(1, 1) is L.I
    assert theorem1_correction(-1, 1) is L.X
    assert theorem1_correction(-1, -1) is L.Y
    assert theorem1_correction(1, -1) is L.Z
    with pytest.raises(ValueError, match="outcomes"):
        theorem1_correction(0, 1)


# ---------------------------------------------------------------------------
# table file
# ---------------------------------------------------------------------------


def test_load_table1_default_and_explicit(tmp_path):
    assert load_table1() == TABLE1
    path = tmp_path / "table.txt"
    path.write_text(TABLE_TEXT, encoding="utf-8")
    assert load_table1(path) == TABLE1
    assert load_table1(str(path)) == TABLE1


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda t: t.replace("I 0 + + -", "I 0 + +"), "expected 5 fields"),
        (lambda t: t.replace("I 0 + + -", "I x + + -"), "bad label"),
        (lambda t: t.replace("I 0 + + -", "I 7 + + -"), "label out of range"),
        (lambda t: t.replace("I 0 + + -", "I 0 + ? -"), "bad sign"),
        (lambda t: t.replace("I 1 - + -", "I 0 + + -"), "duplicate row"),
        (lambda t: t.replace("I 0 + + -\n", ""), "15 rows, expected 16"),
        (lambda t: t.replace("I 0 + + -", "Q 0 + + -"), "unknown Pauli letter"),
    ],
)
def test_parse_table1_errors(mangle, message):
    with pytest.raises(ValueError, match=message):
        parse_table1(mangle(TABLE_TEXT))


@pytest.mark.parametrize(
    "row, message",
    [
        ("Q 2 + - -", "unknown Pauli letter 'Q' at line 14"),
        ("X 2 + -", "expected 5 fields, got 4 at line 14"),
        ("X two + - -", "bad label 'two' at line 14"),
        ("X 4 + - -", "label out of range (4) at line 14"),
        ("X 2 + - 0", "bad sign '0' at line 14"),
        ("X 1 + - -", "duplicate row for X 1 at line 14"),
    ],
)
def test_parse_table1_row_errors_name_the_line(row, message):
    # line 14 of the packaged table is its X 2 row
    lines = TABLE_TEXT.splitlines()
    assert lines[13] == "X 2 + - -"
    lines[13] = row
    with pytest.raises(ValueError) as err:
        parse_table1("\n".join(lines))
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# one-qubit gadget
# ---------------------------------------------------------------------------


def test_one_qubit_branches_exhaustive_and_uniform():
    gen = np.random.default_rng(70)
    u = haar_unitary(2, gen)
    s = random_state(1, gen)
    branches = one_qubit_branches(u, s, 0)
    assert sorted(b.transcript for b in branches) == [
        (n, m) for n in range(4) for m in range(4)
    ]
    for b in branches:
        assert abs(b.branch_probability - 1 / 16) < 1e-12


def test_one_qubit_branch_states_match_byproduct_law():
    gen = np.random.default_rng(71)
    for _ in range(8):
        u = haar_unitary(2, gen)
        s = random_state(1, gen)
        for b in one_qubit_branches(u, s, 0):
            n, m = b.transcript
            assert b.byproduct == multiply(
                PauliOperator.from_letters(0, (L(n),)),
                PauliOperator.from_letters(0, (L(m),)),
            )
            expect = StateVector(
                1,
                u @ letter_matrix(L(n)) @ letter_matrix(L(m)) @ s.amplitudes,
                normalize=True,
            )
            assert overlap(expect, b.post_state) >= 1.0 - 1e-9


def test_one_qubit_gadget_on_entangled_register():
    # q=1 of a 3-qubit register entangled across all wires
    gen = np.random.default_rng(72)
    u = haar_unitary(2, gen)
    s = random_state(3, gen)
    out = one_qubit_gadget(u, s, 1, RandomSource(5))
    assert out.post_state.num_qubits == 3
    expect = apply_unitary(u, apply_pauli(out.byproduct.embedded(3, [1]), s), [1])
    assert overlap(expect, out.post_state) >= 1.0 - 1e-9


def test_one_qubit_sampled_branch_is_among_enumerated():
    gen = np.random.default_rng(73)
    u = haar_unitary(2, gen)
    s = random_state(2, gen)
    out = one_qubit_gadget(u, s, 0, RandomSource(9))
    for b in one_qubit_branches(u, s, 0):
        if b.transcript == out.transcript:
            assert overlap(b.post_state, out.post_state) >= 1.0 - 1e-9
            assert abs(b.branch_probability - out.branch_probability) < 1e-12
            break
    else:
        pytest.fail("sampled transcript missing from enumeration")


def test_one_qubit_gadget_requires_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        one_qubit_gadget(
            np.array([[1, 1], [0, 1]], dtype=complex),
            random_state(1, np.random.default_rng(0)),
            0,
            RandomSource(0),
        )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_one_qubit_gadget_rejects_a_nan_matrix():
    # it used to give an all-NaN post-state with transcript (3, 3)
    with pytest.raises(ValueError, match="not unitary"):
        one_qubit_gadget(
            np.array([[np.nan, 0], [0, 1]], dtype=complex),
            random_state(1, np.random.default_rng(0)),
            0,
            RandomSource(0),
        )


def test_one_qubit_gadget_spectator_wires_untouched():
    gen = np.random.default_rng(74)
    u = haar_unitary(2, gen)
    s = random_state(1, gen)
    from mbqcsim.numerics import basis_state, factor_out, tensor

    reg = tensor(basis_state("1"), tensor(s, basis_state("0")))
    out = one_qubit_gadget(u, reg, 1, RandomSource(11))
    # wires 0 and 2 still factor out exactly as |1> and |0>
    rest = factor_out(out.post_state, [1])
    assert np.isclose(abs(rest.amplitudes[0b10]), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# adapted T gadget
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sigma_p", LETTERS)
def test_adapted_t_branches_realize_corrected_t(sigma_p):
    gen = np.random.default_rng(80 + int(sigma_p))
    for _ in range(5):
        phi = random_state(1, gen)
        twisted = StateVector(
            1, letter_matrix(sigma_p) @ phi.amplitudes, normalize=True
        )
        branches = adapted_t_branches(twisted, 0, sigma_p)
        words = sorted(b.transcript for b in branches)
        assert words == [
            (n, r1, r2) for n in range(4) for r1 in (-1, 1) for r2 in (-1, 1)
        ]
        for b in branches:
            assert abs(b.branch_probability - 1 / 16) < 1e-12
            _, r1, r2 = b.transcript
            c = theorem1_correction(r1, r2)
            assert b.byproduct.letters == (c,)
            expect = StateVector(
                1,
                letter_matrix(c) @ T_MATRIX @ phi.amplitudes,
                normalize=True,
            )
            assert overlap(expect, b.post_state) >= 1.0 - 1e-9


def test_adapted_t_on_entangled_register():
    # twist wire 1 of an entangled 2-qubit state by Y, then gadget it
    gen = np.random.default_rng(85)
    phi = random_state(2, gen)
    twisted = apply_unitary(letter_matrix(L.Y), phi, [1])
    for b in adapted_t_branches(twisted, 1, L.Y):
        _, r1, r2 = b.transcript
        c = theorem1_correction(r1, r2)
        expect = apply_unitary(letter_matrix(c) @ T_MATRIX, phi, [1])
        assert overlap(expect, b.post_state) >= 1.0 - 1e-9
        assert b.post_state.num_qubits == 2


def test_adapted_t_sampling_matches_enumeration():
    gen = np.random.default_rng(86)
    phi = random_state(1, gen)
    out = adapted_t_gadget(phi, 0, L.I, RandomSource(13))
    assert len(out.transcript) == 3
    for b in adapted_t_branches(phi, 0, L.I):
        if b.transcript == out.transcript:
            assert overlap(b.post_state, out.post_state) >= 1.0 - 1e-9
            break
    else:
        pytest.fail("sampled transcript missing from enumeration")


def test_adapted_t_accepts_custom_table():
    table = load_table1()
    phi = random_state(1, np.random.default_rng(87))
    a = adapted_t_branches(phi, 0, L.Z, table)
    b = adapted_t_branches(phi, 0, L.Z)
    assert [x.transcript for x in a] == [x.transcript for x in b]
    for x, y in zip(a, b):
        assert np.array_equal(x.post_state.amplitudes, y.post_state.amplitudes)
    # a corrupted custom table changes what the gadget measures
    corrupted = parse_table1(TABLE_TEXT.replace("Z 0 + - +", "Z 0 - - +"))
    bad = adapted_t_branches(phi, 0, L.Z, corrupted)
    assert any(
        overlap(x.post_state, y.post_state) < 1.0 - 1e-9
        for x, y in zip(bad, b)
    )


# ---------------------------------------------------------------------------
# CNOT gadget
# ---------------------------------------------------------------------------


def test_cnot_branches_exhaustive_and_uniform():
    gen = np.random.default_rng(90)
    s = random_state(2, gen)
    branches = cnot_branches(s, 0, 1)
    assert sorted(b.transcript for b in branches) == [
        (n, m) for n in range(4) for m in range(4)
    ]
    for b in branches:
        assert abs(b.branch_probability - 1 / 16) < 1e-12


def test_cnot_branch_states_match_byproduct_law():
    gen = np.random.default_rng(91)
    s = random_state(2, gen)
    for b in cnot_branches(s, 0, 1):
        after_gate = apply_unitary(CNOT_MATRIX, s, (0, 1))
        expect = apply_pauli(b.byproduct, after_gate)
        assert overlap(expect, b.post_state) >= 1.0 - 1e-9


def test_cnot_gadget_reversed_wires_on_entangled_register():
    gen = np.random.default_rng(92)
    s = random_state(3, gen)
    out = cnot_gadget(s, 2, 0, RandomSource(21))
    assert out.post_state.num_qubits == 3
    after_gate = apply_unitary(CNOT_MATRIX, s, (2, 0))
    expect = apply_pauli(out.byproduct.embedded(3, (2, 0)), after_gate)
    assert overlap(expect, out.post_state) >= 1.0 - 1e-9


def test_cnot_gadget_rejects_equal_wires():
    s = random_state(2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="control equals target"):
        cnot_gadget(s, 1, 1, RandomSource(0))
    with pytest.raises(ValueError, match="control equals target"):
        cnot_branches(s, 0, 0)


# ---------------------------------------------------------------------------
# table verification
# ---------------------------------------------------------------------------


def test_verify_table1_passes_on_shipped_table():
    report = verify_table1(states_per_key=3, seed=17)
    assert report.ok
    assert len(report.checks) == 64
    assert all(c.ok for c in report.checks)
    text = report.render()
    assert "table verification: PASS" in text
    assert "(3 random states per key)" in text


def test_verify_table1_catches_a_corrupted_row():
    # negative control: flip one sign and the verifier must localize it
    corrupted = parse_table1(TABLE_TEXT.replace("X 2 + - -", "X 2 - - -"))
    report = verify_table1(table=corrupted, states_per_key=2, seed=3)
    assert not report.ok
    bad = [c for c in report.checks if not c.ok]
    assert bad
    assert all(c.sigma_p is L.X and c.n == 2 for c in bad)
    text = report.render()
    # the key line shows the corrupted row that was verified
    assert "sigma_p=X n=2  M1=-Z⊗Z  " in text
    assert "MISMATCH" in text
    assert "table verification: FAIL" in text


def test_verify_table1_fails_a_branch_some_input_never_reaches(monkeypatch):
    from mbqcsim import gadgets

    real = gadgets.adapted_t_branches
    dropped = (L.Y, 1, -1, 1)

    def dropping(s, q, sigma_p, table=None):
        return [
            b
            for b in real(s, q, sigma_p, table)
            if (sigma_p, *b.transcript) != dropped
        ]

    monkeypatch.setattr(gadgets, "adapted_t_branches", dropping)
    report = verify_table1(states_per_key=2, seed=23)
    assert not report.ok
    assert len(report.checks) == 64
    [bad] = [c for c in report.checks if not c.ok]
    assert (bad.sigma_p, bad.n, bad.r1, bad.r2) == dropped
    assert bad.realized is None and bad.max_deficit == 1.0
    assert bad.mean_probability == 0.0
    text = report.render()
    block = text.split("sigma_p=Y n=1")[1].split("sigma_p=")[0]
    assert "(r1=-1, r2=+1) -> ?  expected X  MISMATCH" in block
    assert text.count("MISMATCH") == 1 and text.count("-> ?") == 1
    assert "table verification: FAIL" in text


def test_verify_table1_reports_branch_probabilities():
    report = verify_table1(states_per_key=2, seed=19)
    for c in report.checks:
        assert abs(c.mean_probability - 1 / 16) < 1e-9


def test_verify_table1_passes_on_every_seed_of_a_sweep():
    # seeds 1 to 40 at two states per key, each report held to the
    # properties a rendered report line shows
    for seed in range(1, 41):
        report = verify_table1(states_per_key=2, seed=seed)
        assert report.ok, seed
        for c in report.checks:
            assert c.realized is c.expected, (seed, c)
            assert f"{c.mean_probability:.4f}" == "0.0625", (seed, c)
            assert c.max_deficit <= 1e-9, (seed, c)
        text = report.render()
        assert "-> ?" not in text and text.count("  ok  p~0.0625  ") == 64, seed


# ---------------------------------------------------------------------------
# sampling builds only the branch it keeps
# ---------------------------------------------------------------------------


def _gadget_pairs(num_qubits=3):
    """(name, sample(rng), enumerate()) for each gadget on one input: a
    one-wire gadget on the last wire, the CNOT on (last, first)."""
    s = random_state(num_qubits, np.random.default_rng(31))
    u = haar_unitary(2, np.random.default_rng(32))
    q = num_qubits - 1
    return [
        ("one_qubit", lambda rng: one_qubit_gadget(u, s, q, rng),
         lambda: one_qubit_branches(u, s, q)),
        ("adapted_t", lambda rng: adapted_t_gadget(s, q, L.Y, rng),
         lambda: adapted_t_branches(s, q, L.Y)),
        ("cnot", lambda rng: cnot_gadget(s, q, 0, rng),
         lambda: cnot_branches(s, q, 0)),
    ]


class Scripted:
    """Stands in for RandomSource: each draw takes the next given index."""

    def __init__(self, picks):
        self.picks = iter(picks)

    def choose(self, probabilities):
        return next(self.picks)


def _every_word_against_dense(s, q, cnot_wires, gen):
    """Sample every word of every gadget on ``s`` (one-wire gadgets on
    q, CNOT on ``cnot_wires`` unless None) and check each against the
    dense branch with the same word, enumerated on the register itself.
    """
    u = haar_unitary(2, gen)
    cases = [(lambda rng: one_qubit_gadget(u, s, q, rng),
              one_qubit_branches(u, s, q), (4, 4))]
    for p in LETTERS:
        cases.append((lambda rng, p=p: adapted_t_gadget(s, q, p, rng),
                      adapted_t_branches(s, q, p), (4, 2, 2)))
    if cnot_wires is not None:
        cases.append((lambda rng: cnot_gadget(s, *cnot_wires, rng),
                      cnot_branches(s, *cnot_wires), (4, 4)))
    for sample, dense, sizes in cases:
        by_word = {b.transcript: b for b in dense}
        sampled = set()
        for picks in itertools.product(*map(range, sizes)):
            out = sample(Scripted(picks))
            b = by_word[out.transcript]
            assert out.byproduct == b.byproduct
            assert overlap(out.post_state, b.post_state) ** 2 >= 1 - 1e-12
            assert abs(out.branch_probability - b.branch_probability) <= 1e-12
            sampled.add(out.transcript)
        assert sampled == set(by_word)


def _random_wires(gen, n):
    q = int(gen.integers(n))
    return q, (tuple(int(w) for w in gen.permutation(n)[:2]) if n > 1 else None)


@pytest.mark.parametrize("n", range(1, 7))
def test_sampled_branch_matches_the_dense_branch(n):
    gen = np.random.default_rng(40 + n)
    _every_word_against_dense(random_state(n, gen), *_random_wires(gen, n), gen)


@pytest.mark.parametrize("n", range(1, 7))
def test_sampled_branch_matches_the_dense_branch_on_rank_deficient_inputs(n):
    gen = np.random.default_rng(50 + n)
    # basis states: the register is mostly exact zeros; a wide call
    # draws its word on the Choi state without reading them, and the
    # lift's one product with K must still give the dense branch
    for bits in ("0" * n, ("10" * n)[:n], "1" * n):
        _every_word_against_dense(basis_state(bits), *_random_wires(gen, n), gen)
    # a pure data wire q inside a product state: the data wires' block
    # has rank 1, and rank 2 for a CNOT whose other wire is entangled
    # with the rest; the dense branch must still have the Choi draw's 1/16
    for q in range(n):
        s = tensor(tensor(random_state(q, gen), random_state(1, gen)),
                   random_state(n - 1 - q, gen))
        other = (q + 1) % n
        _every_word_against_dense(s, q, (q, other) if n > 1 else None, gen)
        # nearly so: an admixture of about 1e-4, which the lift must carry
        near = s.amplitudes + 1e-4 * random_state(n, gen).amplitudes
        s = StateVector(n, near, normalize=True)
        _every_word_against_dense(s, q, (q, other) if n > 1 else None, gen)
    # both CNOT wires pure
    if n > 1:
        s = tensor(tensor(random_state(1, gen), random_state(1, gen)),
                   random_state(n - 2, gen))
        _every_word_against_dense(s, 0, (1, 0), gen)


@pytest.fixture
def memo():
    """The memo of checked word operators, emptied for the test."""
    from mbqcsim import gadgets

    gadgets._OPERATORS.clear()
    return gadgets._OPERATORS


@pytest.mark.parametrize("name, data_wires, measurements", [
    ("one_qubit", 1, 2), ("adapted_t", 1, 3), ("cnot", 2, 2),
])
def test_sampled_gadget_builds_one_post_state_per_measurement(
    name, data_wires, measurements, memo, monkeypatch
):
    from mbqcsim import measurement

    built = []
    real = measurement._post_state

    def counting(*args):
        built.append(args[0])
        return real(*args)

    def built_by(call, seed):
        built.clear()
        call(RandomSource(seed))
        return len(built)

    def sample(num_qubits):
        return {n: f for n, f, _ in _gadget_pairs(num_qubits)}[name]

    monkeypatch.setattr(measurement, "_post_state", counting)
    # 2k qubits run on the register itself: the leaf's state is the output
    narrow = sample(2 * data_wires)
    for seed in range(4):
        assert built_by(narrow, seed) == measurements
    assert not memo
    # wider: a cold memo builds the leaf's state to read the word's
    # operator, a warm one applies the stored operator without it
    wide = sample(2 * data_wires + 3)
    for seed in range(4):
        cold = built_by(wide, seed)
        assert (cold, built_by(wide, seed)) == (measurements, measurements - 1)
        memo.clear()
    # enumeration still builds every kept branch: 4 + 16, or 4 + 8 + 16 for T
    built.clear()
    {n: f for n, _, f in _gadget_pairs()}[name]()
    assert len(built) == {"one_qubit": 20, "adapted_t": 28, "cnot": 20}[name]


def _count_measurements_and_draws(monkeypatch):
    """Count ``measurement_branches`` calls and ``RandomSource.choose``
    draws through the attributes the benchmark tracer wraps: the name in
    every mbqcsim module that holds it, and the method on the class."""
    from mbqcsim import measurement

    counts = {"measurements": 0, "draws": 0}
    branches, choose = measurement.measurement_branches, RandomSource.choose

    def counting_branches(*args):
        counts["measurements"] += 1
        return branches(*args)

    def counting_choose(self, probabilities):
        counts["draws"] += 1
        return choose(self, probabilities)

    for name, module in list(sys.modules.items()):
        if name == "mbqcsim" or name.startswith("mbqcsim."):
            for key, value in list(vars(module).items()):
                if value is branches:
                    monkeypatch.setattr(module, key, counting_branches)
    monkeypatch.setattr(RandomSource, "choose", counting_choose)
    return counts


@pytest.mark.parametrize("name, data_wires, measurements", [
    ("one_qubit", 1, 2), ("adapted_t", 1, 3), ("cnot", 2, 2),
])
def test_sampled_gadget_measures_and_draws_once_per_measurement(
    name, data_wires, measurements, monkeypatch
):
    # the benchmark tracer fails a traced run unless every sampled call
    # makes one measurement_branches call and one draw per measurement;
    # on 2k qubits the call runs on the register, on more on the Choi state
    counts = _count_measurements_and_draws(monkeypatch)
    u = haar_unitary(2, np.random.default_rng(33))
    calls = {
        "one_qubit": lambda s, rng: one_qubit_gadget(u, s, s.num_qubits - 1, rng),
        "adapted_t": lambda s, rng: adapted_t_gadget(s, 0, L.Z, rng),
        "cnot": lambda s, rng: cnot_gadget(s, s.num_qubits - 1, 0, rng),
    }
    for n in (2 * data_wires, 2 * data_wires + 1):
        s = random_state(n, np.random.default_rng(n))
        for seed in range(4):
            counts.update(measurements=0, draws=0)
            calls[name](s, RandomSource(seed))
            assert counts == {"measurements": measurements, "draws": measurements}, n


@pytest.mark.parametrize("n", [1, 2, 4])
def test_every_retry_attempt_measures_and_draws_twice(n, monkeypatch):
    from mbqcsim import engines

    counts = _count_measurements_and_draws(monkeypatch)
    attempts = []

    def checked(*args):
        counts.update(measurements=0, draws=0)
        out = one_qubit_gadget(*args)
        attempts.append(dict(counts))
        return out

    monkeypatch.setattr(engines, "one_qubit_gadget", checked)
    gen = np.random.default_rng(70 + n)
    for seed in range(6):
        attempts.clear()
        _, words = engines.one_qubit_loop(
            haar_unitary(2, gen), random_state(n, gen), n - 1, RandomSource(seed)
        )
        assert attempts == [{"measurements": 2, "draws": 2}] * len(words)


# ---------------------------------------------------------------------------
# wire checks and memory of the Choi path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("call, message", [
    (lambda s, rng: one_qubit_gadget(T_MATRIX, s, 5, rng),
     "target qubit 5 out of range for 5-qubit register"),
    (lambda s, rng: one_qubit_gadget(T_MATRIX, s, -1, rng),
     "target qubit -1 out of range for 5-qubit register"),
    (lambda s, rng: adapted_t_gadget(s, 7, L.X, rng),
     "target qubit 7 out of range for 5-qubit register"),
    (lambda s, rng: cnot_gadget(s, 2, 2, rng), "control equals target"),
    (lambda s, rng: cnot_gadget(s, 9, 9, rng), "control equals target"),
    (lambda s, rng: cnot_gadget(s, 0, 5, rng),
     "target qubit 5 out of range for 5-qubit register"),
], ids=["one_qubit", "one_qubit_negative", "adapted_t", "cnot_equal",
        "cnot_equal_out_of_range", "cnot"])
def test_sampled_gadget_rejects_bad_wires_before_array_work(call, message, monkeypatch):
    from mbqcsim import gadgets

    def no_array_work(*args, **kwargs):
        raise AssertionError("array work before the wire check")

    for module, name in ((gadgets, "choi"), (gadgets, "tensor")):
        monkeypatch.setattr(module, name, no_array_work)
    s = random_state(5, np.random.default_rng(0))
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(s, RandomSource(0))


def test_sampled_gadget_peak_memory_is_a_few_registers():
    s = random_state(16, np.random.default_rng(16))
    u = haar_unitary(2, np.random.default_rng(17))
    calls = {
        "one_qubit": lambda rng: one_qubit_gadget(u, s, 9, rng),
        "adapted_t": lambda rng: adapted_t_gadget(s, 4, L.Y, rng),
        "cnot": lambda rng: cnot_gadget(s, 11, 3, rng),
    }
    for name, call in calls.items():
        call(RandomSource(0))  # fills the basis and wire-layout caches
        tracemalloc.start()
        try:
            call(RandomSource(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * s.amplitudes.nbytes, (name, peak / s.amplitudes.nbytes)


# ---------------------------------------------------------------------------
# the operator a wide call reads off the Choi state
# ---------------------------------------------------------------------------


def _closed_forms():
    """(name, sample(rng), sizes, closed form of a word) on a 5-qubit
    register, wider than 2k for every gadget."""
    s = random_state(5, np.random.default_rng(60))
    u = haar_unitary(2, np.random.default_rng(61))
    cases = [
        (name, lambda rng, m=m: one_qubit_gadget(m, s, 3, rng), (4, 4),
         lambda w, m=m: m @ letter_matrix(L(w[0])) @ letter_matrix(L(w[1])))
        for name, m in (("H", H_MATRIX), ("T", T_MATRIX), ("haar", u))
    ]
    for p in LETTERS:
        cases.append((
            f"adapted_t_{p.name}", lambda rng, p=p: adapted_t_gadget(s, 1, p, rng), (4, 2, 2),
            lambda w, p=p: (letter_matrix(theorem1_correction(*w[1:]))
                            @ T_MATRIX @ letter_matrix(p)),
        ))

    def cnot_form(w):
        byproduct = CNOT_MATRIX @ np.kron(*(letter_matrix(L(l)) for l in w)) @ CNOT_MATRIX
        return byproduct @ CNOT_MATRIX

    cases.append(("cnot", lambda rng: cnot_gadget(s, 4, 0, rng), (4, 4), cnot_form))
    return cases


@pytest.mark.parametrize("case", _closed_forms(), ids=lambda c: c[0])
def test_choi_lift_reads_each_words_operator(case, memo, monkeypatch):
    from mbqcsim import numerics

    _, sample, sizes, closed_form = case
    read = []
    real = numerics.require_unitary

    def recording(op):
        read.append(np.array(op))
        return real(op)

    monkeypatch.setattr(numerics, "require_unitary", recording)
    posts = {}
    # cold: one checked operator per distinct word
    for picks in itertools.product(*map(range, sizes)):
        out = sample(Scripted(picks))
        word = out.transcript
        assert word not in posts
        posts[word] = out.post_state.amplitudes.tobytes()
        (op,) = read
        read.clear()
        assert np.max(np.abs(op @ op.conj().T - np.eye(len(op)))) <= 1e-12, word
        expect = closed_form(word)
        phase = np.vdot(expect, op)  # tr(expect^dagger op)
        assert np.max(np.abs(op - phase / abs(phase) * expect)) <= 1e-12, word
    assert len(posts) == 16
    # warm: no operator is read again, and every post-state keeps its bytes
    for picks in itertools.product(*map(range, sizes)):
        out = sample(Scripted(picks))
        assert read == [], out.transcript
        assert out.post_state.amplitudes.tobytes() == posts[out.transcript]


def test_a_word_that_is_not_unitary_raises_instead_of_sampling(monkeypatch):
    from mbqcsim import gadgets

    # a computational-basis second measurement projects the data wire
    computational = BasisMeasurement(
        tuple(basis_state(b) for b in ("00", "01", "10", "11"))
    )
    monkeypatch.setattr(gadgets, "BELL_BASIS", computational)
    s = random_state(5, np.random.default_rng(5))
    for seed in range(4):
        with pytest.raises(ValueError, match="not unitary"):
            one_qubit_gadget(H_MATRIX, s, 2, RandomSource(seed))
        with pytest.raises(ValueError, match="not unitary"):
            cnot_gadget(s, 1, 3, RandomSource(seed))


# ---------------------------------------------------------------------------
# the memo of checked word operators
# ---------------------------------------------------------------------------


def _every_word(sample, sizes):
    """Each word's GadgetOutcome, in the order the picks give them."""
    return [sample(Scripted(picks)) for picks in itertools.product(*map(range, sizes))]


@pytest.mark.parametrize("case", _closed_forms(), ids=lambda c: c[0])
def test_warm_and_cold_calls_give_the_same_outcome_bytes(case, memo):
    _, sample, sizes, _ = case
    cold = []
    for picks in itertools.product(*map(range, sizes)):
        memo.clear()
        cold.append(sample(Scripted(picks)))
    warm = _every_word(sample, sizes)
    assert len(memo) == 16
    for a, b in zip(cold, warm, strict=True):
        assert a.transcript == b.transcript
        assert a.byproduct == b.byproduct
        assert a.branch_probability == b.branch_probability
        assert a.post_state.num_qubits == b.post_state.num_qubits == 5
        assert a.post_state.amplitudes.tobytes() == b.post_state.amplitudes.tobytes()


def test_distinct_unitaries_leave_the_memo_at_its_bound(memo, monkeypatch):
    from mbqcsim import gadgets, numerics

    gen = np.random.default_rng(80)
    s = random_state(3, gen)
    one_qubit_gadget(H_MATRIX, s, 0, RandomSource(0))
    (h_key,) = memo
    for seed in range(1000):
        one_qubit_gadget(haar_unitary(2, gen), s, 1, RandomSource(seed))
        # a key in use is the most recently used one, so never evicted
        one_qubit_gadget(H_MATRIX, s, 0, RandomSource(0))
        assert next(reversed(memo)) == h_key
        assert len(memo) <= gadgets._OPERATORS_MAX
    assert len(memo) == gadgets._OPERATORS_MAX

    def no_reads(op):
        raise AssertionError("the H word was read again")

    monkeypatch.setattr(numerics, "require_unitary", no_reads)
    one_qubit_gadget(H_MATRIX, s, 0, RandomSource(0))


def test_a_warm_memo_answers_for_no_other_table_or_basis(memo, monkeypatch):
    from mbqcsim import gadgets

    s = random_state(5, np.random.default_rng(82))
    one_qubit = (lambda rng: one_qubit_gadget(H_MATRIX, s, 2, rng), (4, 4))
    t = (lambda rng: adapted_t_gadget(s, 2, L.X, rng), (4, 2, 2))
    cnot = (lambda rng: cnot_gadget(s, 1, 3, rng), (4, 4))
    for call in (one_qubit, t, cnot):
        _every_word(*call)
    # every sign of the table flipped: a warm call gives a cold call's bytes
    flipped = {
        key: Table1Entry(*(SignedPauliObservable(-o.sign, o.letters)
                           for o in (e.m1, e.m2_pos, e.m2_neg)))
        for key, e in TABLE1.items()
    }
    monkeypatch.setattr(gadgets, "TABLE1", flipped)
    warm = _every_word(*t)
    memo.clear()
    for a, b in zip(warm, _every_word(*t), strict=True):
        assert a.transcript == b.transcript
        assert a.post_state.amplitudes.tobytes() == b.post_state.amplitudes.tobytes()
    # a computational-basis second measurement: no word is unitary
    computational = BasisMeasurement(
        tuple(basis_state(b) for b in ("00", "01", "10", "11"))
    )
    monkeypatch.setattr(gadgets, "BELL_BASIS", computational)
    for seed in range(4):
        with pytest.raises(ValueError, match="not unitary"):
            one_qubit[0](RandomSource(seed))
        with pytest.raises(ValueError, match="not unitary"):
            cnot[0](RandomSource(seed))


class _NoReads(dict):
    """A memo whose every use fails the test."""

    def _fail(self, *args):
        raise AssertionError("the memo was read")

    get = pop = __getitem__ = __setitem__ = __contains__ = __len__ = __iter__ = _fail


def test_a_register_of_at_most_2k_qubits_never_reads_the_memo(monkeypatch):
    from mbqcsim import engines, gadgets

    monkeypatch.setattr(gadgets, "_OPERATORS", _NoReads())
    gen = np.random.default_rng(81)
    u = haar_unitary(2, gen)
    for n in (1, 2):
        s = random_state(n, gen)
        _every_word(lambda rng: one_qubit_gadget(u, s, n - 1, rng), (4, 4))
        for p in LETTERS:
            _every_word(lambda rng, p=p: adapted_t_gadget(s, 0, p, rng), (4, 2, 2))
    for n in (2, 3, 4):
        s = random_state(n, gen)
        _every_word(lambda rng: cnot_gadget(s, n - 1, 0, rng), (4, 4))
    # a retry loop runs every attempt on the Choi state of its wire,
    # 2 qubits, and lifts the register once, past the memo
    for seed in range(4):
        engines.one_qubit_loop(u, random_state(5, gen), 2, RandomSource(seed))
