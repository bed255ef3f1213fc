"""Measurement gadgets: one-qubit gate teleportation, CNOT teleportation,
and the adapted T gadget driven by the 16-row measurement table.

Wiring shared by the one-qubit and T gadgets.  The register is
extended by three ancillas: a1 in |0>, and a pair (a2, a3) prepared in
|EPR>.  The first measurement projects (a1, a2) onto the u-twisted
basis {(I (x) u sigma_i)|EPR>}; whatever the outcome n, it leaves
(a1, a2) holding the entangled resource (I (x) u sigma_n)|EPR> and
teleports a1's junk onto a3.  Because a2 starts maximally mixed, the
outcome n is uniform for every u.  The second measurement attaches the
data wire q to a1; the output appears on a2 and is relabeled back to
index q.  Every measured pair contains a maximally mixed qubit, so all
outcome words are exactly uniform.

The adapted T gadget replaces the second (Bell) measurement with two
signed two-qubit observables chosen from the table by (sigma_p, n).
Wire assignment, fixed by exhaustive verification against the
correction map: each observable's FIRST letter acts on the data wire
q and its SECOND letter on ancilla a1.  Only the r1 = -1 observable
(Y(x)X) is sensitive to this order; the search over all wire
assignments singles this one out.

The CNOT gadget teleports both data qubits through the 4-qubit
resource CNOT_(2,3)(|EPR>_(1,2) (x) |EPR>_(3,4)).  Resource
preparation applies the CNOT matrix directly, so this gadget is not
measurement-only; the two attachments are plain Bell measurements.

Each gadget is one spec: its (cached) resource wires, the measurement
plan, the decoding of an outcome word into the byproduct (the one
word-to-byproduct rule, cached per word: engines read ``byproduct``,
never the word), the ``dead`` wires ``compact`` factors out, the
``outputs`` the resource wires left last carry back, and the plan's
``key``.  ``*_branches`` enumerates all 16 words on the register itself,
the reference.  ``*_gadget`` samples one word, one draw per measurement,
at any width on what ``narrow`` gives: the Choi state |Phi+>^(x)k of the
k data wires (with the resource adjoined, built once).  A word acts on
the data wires as a multiple of one unitary K, the teleported gate with
its byproduct (gate teleportation, Gottesman & Chuang,
quant-ph/9908010), so its probability is 1/16 for every input, and the
register is touched once, by K.  The Choi side of a call depends on its
plan alone, so one bounded memo holds one entry per key, the plan's
measurements as values (the basis ``u_basis`` gives, or sigma_p and its
four table rows, then the basis the second step measures).  An entry is
filled word by word with each drawn inner state the next measurement
reads and each word's K, read and checked unitary (the proof of that
claim) once per key.  A warm call still measures and draws once per
measurement, on the stored states, and builds no state but the lifted
register.  A sampled branch is the enumerated branch of the same word up
to rounding, not bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from importlib import resources
from operator import attrgetter
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .circuit import CNOT_MATRIX, T_MATRIX
from .measurement import (
    BELL_BASIS,
    BELL_LABEL_FROM_SIGNS,
    RandomSource,
    enumerate_branches,
    epr_state,
    sample_plan,
    u_basis,
)
from .numerics import (
    StateVector,
    _move,
    _wire_layout,
    apply_unitary,
    basis_state,
    choi,
    choi_operator,
    factor_out,
    overlap,
    random_state,
    tensor,
)
from .pauli import (
    PauliLetter,
    PauliOperator,
    SignedPauliObservable,
    conjugate_through_CNOT,
    letter_matrix,
    multiply,
)

_L = PauliLetter

# ---------------------------------------------------------------------------
# the adapted-T measurement table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table1Entry:
    """Measurements for one (sigma_p, n) key.

    The observables name no wires; the gadget's plan measures each on
    (data wire, first ancilla).
    """

    m1: SignedPauliObservable
    m2_pos: SignedPauliObservable
    m2_neg: SignedPauliObservable


def theorem1_correction(r1, r2):
    """Pauli correction implied by the (r1, r2) outcome pair: the letter
    indexed by the Bell label of the same signs (``BELL_LABEL_FROM_SIGNS``)."""
    try:
        return _L(BELL_LABEL_FROM_SIGNS[(r1, r2)])
    except KeyError:
        raise ValueError(f"outcomes must be +-1, got {(r1, r2)!r}") from None


# ---------------------------------------------------------------------------
# the table file (``data/table1.txt``, header included, is its one copy)
# ---------------------------------------------------------------------------

def _parse_row(fields):
    """The (key, entry) of one row's fields; raises ValueError."""
    if len(fields) != 5:
        raise ValueError(f"expected 5 fields, got {len(fields)}")
    letter = PauliLetter.from_char(fields[0])
    try:
        n = int(fields[1])
    except ValueError:
        raise ValueError(f"bad label {fields[1]!r}") from None
    if n not in (0, 1, 2, 3):
        raise ValueError(f"label out of range ({n})")
    signs = []
    for f in fields[2:]:
        if f not in ("+", "-"):
            raise ValueError(f"bad sign {f!r}")
        signs.append(+1 if f == "+" else -1)
    s1, s2p, s2n = signs
    return (letter, n), Table1Entry(
        m1=SignedPauliObservable(s1, (_L.Z, _L.Z)),
        m2_pos=SignedPauliObservable(s2p, (_L.X, _L.X)),
        m2_neg=SignedPauliObservable(s2n, (_L.Y, _L.X)),
    )


def parse_table1(text):
    """Parse table text; a row error ends with ``at line N``."""
    table = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            key, entry = _parse_row(line.split())
            if key in table:
                raise ValueError(f"duplicate row for {key[0].name} {key[1]}")
        except ValueError as exc:
            raise ValueError(f"{exc} at line {lineno}") from None
        table[key] = entry
    if len(table) != 16:
        raise ValueError(f"table has {len(table)} rows, expected 16")
    return table


def load_table1(path=None):
    """Load a table file (the packaged ``data/table1.txt`` by default)."""
    if path is None:
        source = resources.files("mbqcsim").joinpath("data/table1.txt")
    else:
        source = Path(path)
    return parse_table1(source.read_text(encoding="utf-8"))


#: the packaged table, the one runtime source of its 48 signs; the test
#: suite proves the sign law and, key by key, the correction map
TABLE1 = load_table1()


# ---------------------------------------------------------------------------
# gadgets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GadgetOutcome:
    """Result of one gadget application.

    ``byproduct`` sits between the intended gate and the input for the
    one-qubit gadget (post = u . byproduct . input), in front of the
    gate for the CNOT gadget (post = byproduct . CNOT . input), and is
    the outstanding correction C_T for the adapted T gadget
    (post = C_T . T . underlying input).  All equalities hold up to
    global phase.
    """

    post_state: StateVector
    byproduct: PauliOperator
    transcript: tuple
    branch_probability: float


class _Spec(NamedTuple):
    """One gadget call, as the module docstring lays out."""

    resource: StateVector
    plan: list
    decode: Callable
    dead: tuple
    outputs: tuple
    key: tuple

    def compact(self, state):
        """Drop ``dead``; the resource wires left last carry ``outputs`` back."""
        reduced = factor_out(state, self.dead)
        n = reduced.num_qubits
        lay = _wire_layout(n, self.outputs)
        if lay.wires_last:
            return reduced
        return StateVector(n, _move(reduced.amplitudes, lay.last_back).reshape(-1))


def _check_wires(s, wires):
    try:
        _wire_layout(s.num_qubits, wires)
    except ValueError:
        if len(set(wires)) < len(wires):
            raise ValueError("control equals target") from None
        raise


def narrow(s, wires):
    """Check ``wires``, then ``choi``: the (state, wires, lift) a gadget runs on."""
    _check_wires(s, wires)
    return choi(s, wires)


#: a call's register, Choi state and resource: the same every call
_choi_register = lru_cache(maxsize=4)(tensor)
#: per plan key, on its register, the inner Choi states and checked word
#: operators by word so far; least recently used key first
_OPERATORS, _OPERATORS_MAX = {}, 128


def _recall(entries, branch, build=attrgetter("post_state")):
    """The entry of a drawn ``branch``'s word: its post-state, or what
    ``build`` makes of the branch, built once per key."""
    word = branch.outcomes
    value = entries.get(word)
    if value is None:
        value = entries[word] = build(branch)
    return value


def _sample(spec_of, s, wires, rng):
    state, at, _ = narrow(s, wires)
    spec = spec_of(state.num_qubits, *at)
    register = _choi_register(state, spec.resource)
    key = (register, spec.key)
    entries = _OPERATORS.pop(key, None) or {}
    if len(_OPERATORS) >= _OPERATORS_MAX:
        del _OPERATORS[next(iter(_OPERATORS))]
    _OPERATORS[key] = entries
    recall = partial(_recall, entries)
    leaf = sample_plan(register, spec.plan, rng, recall)
    op = recall(leaf, lambda b: choi_operator(spec.compact(b.post_state)))
    return _outcome(spec, leaf, apply_unitary(op, s, wires, normalize=True))


def _outcome(spec, leaf, post):
    return GadgetOutcome(post, spec.decode(leaf.outcomes), leaf.outcomes, leaf.probability)


def _enumerate(spec_of, s, wires):
    _check_wires(s, wires)
    spec = spec_of(s.num_qubits, *wires)
    leaves = enumerate_branches(tensor(s, spec.resource), spec.plan)
    return [_outcome(spec, b, spec.compact(b.post_state)) for b in leaves]


@cache
def _three_wires():
    """a1 = |0> and (a2, a3) = |EPR>, adjoined by every one-qubit call."""
    return tensor(basis_state("0"), epr_state())


@cache
def _cnot_wires():
    """The 4-wire resource CNOT_(2,3)(|EPR>_(1,2) (x) |EPR>_(3,4))."""
    return apply_unitary(CNOT_MATRIX, tensor(epr_state(), epr_state()), (1, 2))


def _one_wire_spec(n, q, basis, second, decode, key):
    """Spec of a one-qubit or T call on n data qubits: ``basis`` on
    (a1, a2), then each measurement of ``second`` on (q, a1)."""
    return _Spec(
        _three_wires(),
        [((n, n + 1), basis), *(((q, n), m) for m in second)],
        decode,
        (q, n, n + 2),
        (q,),
        (basis, *key),
    )


@lru_cache(maxsize=16)  # one entry per outcome word
def _one_qubit_byproduct(word):
    """sigma_n sigma_m of the word (n, m); a frozen operator, so shared."""
    sigma_n, sigma_m = (PauliOperator.from_letters(0, [l]) for l in word)
    return multiply(sigma_n, sigma_m)


def _one_qubit_spec(u, n, q):
    # u_basis rejects a u that is not unitary, once per distinct matrix
    second = BELL_BASIS
    return _one_wire_spec(n, q, u_basis(u), (second,), _one_qubit_byproduct, (second,))


def one_qubit_gadget(u, s, q, rng):
    """Teleport qubit q through a 2x2 unitary ``u``.

    Post-state is (u sigma_n sigma_m at q)|input> up to global phase,
    where (n, m) is the transcript; each of the 16 words has
    probability exactly 1/16.  The call runs on the Choi state of q and
    lifts the register by the word's operator (``narrow``).
    """
    return _sample(partial(_one_qubit_spec, u), s, (q,), rng)


def one_qubit_branches(u, s, q):
    """All 16 branches of the one-qubit gadget, exactly enumerated."""
    return _enumerate(partial(_one_qubit_spec, u), s, (q,))


def _t_spec(sigma_p, table, n, q):
    """Adaptive plan for the adapted T gadget.

    M1/M2 are read from row (sigma_p, outcome n) of sigma_p's four rows,
    taken from the table once and keyed by value; their first letter
    lands on the data wire q, second on a1.
    """
    sigma_p = PauliLetter(sigma_p)
    table = TABLE1 if table is None else table
    rows = tuple(table[(sigma_p, i)] for i in range(4))

    def m1(word):
        return rows[word[0]].m1

    def m2(word):
        entry = rows[word[0]]
        return entry.m2_pos if word[1] > 0 else entry.m2_neg

    return _one_wire_spec(n, q, u_basis(T_MATRIX), (m1, m2), _t_byproduct, (sigma_p, rows))


@lru_cache(maxsize=16)  # one entry per outcome word
def _t_byproduct(word):
    """C_T of the word (n, r1, r2); a frozen operator, so shared."""
    n_lbl, r1, r2 = word
    return PauliOperator.from_letters(0, [theorem1_correction(r1, r2)])


def adapted_t_gadget(s, q, sigma_p, rng):
    """Apply T at q to a register currently carrying sigma_p at q.

    Precondition: the register state is (sigma_p at q)|phi> for some
    underlying |phi>.  Post-state is (C_T T at q)|phi> up to global
    phase, with C_T = theorem1_correction(r1, r2) returned as the
    byproduct.  Transcript is (n, r1, r2).  The packaged table drives
    it; ``adapted_t_branches`` takes any table.
    """
    return _sample(partial(_t_spec, sigma_p, None), s, (q,), rng)


def adapted_t_branches(s, q, sigma_p, table=None):
    """All 16 branches (n, r1, r2) of the adapted T gadget."""
    return _enumerate(partial(_t_spec, sigma_p, table), s, (q,))


@lru_cache(maxsize=16)  # one entry per outcome word
def _cnot_byproduct(word):
    """The output-side image of the word's corrections, which enter
    before the CNOT as sigma_n (x) sigma_m; frozen, so shared."""
    return conjugate_through_CNOT(PauliOperator.from_letters(0, word), 0, 1)


def _cnot_spec(n, control, target):
    # r1 = n and r4 = n + 3 are measured; r2 and r3 carry the outputs
    basis = BELL_BASIS
    return _Spec(
        _cnot_wires(),
        [((control, n), basis), ((target, n + 3), basis)],
        _cnot_byproduct,
        (control, target, n, n + 3),
        (control, target),
        (basis,),
    )


def cnot_gadget(s, control, target, rng):
    """Teleport (control, target) through a CNOT.

    Post-state is (P . CNOT at (control, target))|input> up to global
    phase with P = CNOT (sigma_n (x) sigma_m) CNOT, n and m being the
    two Bell outcomes; each of the 16 words has probability 1/16.
    """
    return _sample(_cnot_spec, s, (control, target), rng)


def cnot_branches(s, control, target):
    """All 16 branches of the CNOT gadget, exactly enumerated."""
    return _enumerate(_cnot_spec, s, (control, target))


# ---------------------------------------------------------------------------
# table verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table1BranchCheck:
    sigma_p: PauliLetter
    n: int
    r1: int
    r2: int
    expected: PauliLetter
    realized: PauliLetter | None
    max_deficit: float
    mean_probability: float
    ok: bool


@dataclass(frozen=True)
class Table1Report:
    """Exhaustive verification result over all 16 keys of ``table``."""

    table: dict
    checks: tuple
    states_per_key: int
    ok: bool

    def render(self):
        lines = []
        key = None
        for c in self.checks:
            if (c.sigma_p, c.n) != key:
                key = (c.sigma_p, c.n)
                e = self.table[key]
                lines.append(
                    f"sigma_p={c.sigma_p.name} n={c.n}  M1={e.m1}  "
                    f"M2(r1=+1)={e.m2_pos}  M2(r1=-1)={e.m2_neg}"
                )
            realized = "?" if c.realized is None else c.realized.name
            lines.append(
                f"  (r1={c.r1:+d}, r2={c.r2:+d}) -> {realized}  "
                f"expected {c.expected.name}  "
                f"{'ok' if c.ok else 'MISMATCH'}  "
                f"p~{c.mean_probability:.4f}  "
                f"max deficit {c.max_deficit:.2e}"
            )
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"table verification: {verdict} "
            f"({self.states_per_key} random states per key)"
        )
        return "\n".join(lines) + "\n"


#: largest fidelity deficit a verified branch may show
VERIFY_TOL = 1e-9


def verify_table1(table=None, states_per_key=20, seed=0):
    """Check every (sigma_p, n, r1, r2) branch against the correction map.

    For each key the gadget's branches are exhaustively enumerated on
    ``states_per_key`` random inputs; every branch's post-state must
    match (C_T T)|phi> within ``VERIFY_TOL`` fidelity deficit, where
    C_T is theorem1_correction(r1, r2) and |phi> the underlying input
    below the sigma_p twist.  The realized correction letter is
    recovered independently by matching against all four candidates
    (the first best fit on a tie), on the last input.  A branch that
    some input does not reach fails with deficit 1.
    """
    if states_per_key < 1:
        raise ValueError(f"states_per_key must be at least 1, got {states_per_key}")
    table = TABLE1 if table is None else table
    rng = RandomSource(seed)
    # per key and input: (realized letter, deficit, best fit expected, p);
    # an input that does not reach the branch: no letter, deficit 1, p = 0
    runs = {
        key: [(None, 1.0, False, 0.0)] * states_per_key
        for key in itertools.product(_L, range(4), (1, -1), (1, -1))
    }
    for letter in _L:
        gen = rng.substream(int(letter)).gen
        for trial in range(states_per_key):
            phi = random_state(1, gen)
            twisted = StateVector(
                1, letter_matrix(letter) @ phi.amplitudes, normalize=True
            )
            ideal = T_MATRIX @ phi.amplitudes
            candidates = {
                cand: StateVector(1, letter_matrix(cand) @ ideal, normalize=True)
                for cand in _L
            }
            for b in adapted_t_branches(twisted, 0, letter, table):
                fits = {cand: overlap(candidates[cand], b.post_state) for cand in _L}
                best = max(fits, key=fits.get)
                expected = theorem1_correction(*b.transcript[1:])
                runs[(letter, *b.transcript)][trial] = (
                    best if fits[best] >= 1.0 - VERIFY_TOL else None,
                    1.0 - fits[expected],
                    best is expected,
                    b.branch_probability,
                )
    checks = []
    for (letter, n_lbl, r1, r2), per_input in runs.items():
        realized, deficits, matched, probs = zip(*per_input)
        # the 0.0 floor keeps a -2e-16 rounding deficit from printing
        deficit = max(0.0, *deficits)
        checks.append(
            Table1BranchCheck(
                sigma_p=letter,
                n=n_lbl,
                r1=r1,
                r2=r2,
                expected=theorem1_correction(r1, r2),
                realized=realized[-1],
                max_deficit=deficit,
                mean_probability=float(np.mean(probs)),
                ok=deficit <= VERIFY_TOL and all(matched),
            )
        )
    return Table1Report(table, tuple(checks), states_per_key, all(c.ok for c in checks))
