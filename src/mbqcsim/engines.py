"""Circuit execution engines built on the teleportation gadgets.

Three strategies for dealing with the random Pauli byproducts:

* ``nielsen``: repeat-until-clean.  Every one-qubit gate runs a retry
  loop (success when the two outcome labels agree, probability 1/4
  per attempt); a CNOT costs one gadget call plus one retry loop per
  non-identity byproduct letter.  Gadget count is random.
* ``postponed``: accept every byproduct, accumulate the realized
  unitary U_sim as a dense matrix, and apply the single correction
  C = U_circuit U_sim^dagger at the end.  Exactly one gadget call per
  gate; the closing correction is a dense unitary, not a gadget.
* ``frame``: track the byproducts as a Pauli frame in classical
  software.  H and CNOT conjugate the frame; T consumes the frame
  letter on its wire through the adapted gadget and writes the
  correction letter back.  Exactly one gadget call per gate, never
  more, and the frame is either applied at the end (one Pauli layer)
  or reported alongside the raw output.

The frame's i^k phase component is bookkeeping only: states are
compared up to global phase throughout, and outcome reinterpretation
reads just the letters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import CNOT_MATRIX, GATE_MATRICES, circuit_unitary, oracle_apply
from .gadgets import adapted_t_gadget, cnot_gadget, one_qubit_gadget
from .measurement import RandomSource
from .numerics import (
    apply_unitary,
    embed_unitary,
    haar_unitary,
    overlap,
    random_state,
)
from .pauli import (
    PauliLetter,
    PauliOperator,
    apply_pauli,
    conjugate_through_CNOT,
    conjugate_through_H,
    letter_matrix,
    multiply,
    render_letters,
)

_L = PauliLetter

ENGINE_NAMES = ("nielsen", "postponed", "frame")


@dataclass(frozen=True)
class GateRecord:
    """Outcome words spent on one circuit gate.

    ``attempts`` are the words of the gadget call(s) realizing the
    gate itself; ``fixes`` are (qubit, words) pairs for byproduct
    repair loops (nielsen CNOT only).
    """

    gate: object
    attempts: tuple
    fixes: tuple = ()

    def call_count(self):
        return len(self.attempts) + sum(len(w) for _, w in self.fixes)

    def to_json_dict(self):
        return {
            "gate": self.gate.render(),
            "attempts": [list(w) for w in self.attempts],
            "fixes": [
                {"qubit": q, "attempts": [list(w) for w in words]}
                for q, words in self.fixes
            ],
        }


@dataclass(frozen=True)
class RunReport:
    """Everything observable about one engine run."""

    engine: str
    seed: int
    num_qubits: int
    total_gadget_calls: int
    corrective_gadget_calls: int
    fidelity_vs_oracle: float
    final_state: object
    final_frame: PauliOperator | None
    records: tuple
    correction_unitary: np.ndarray | None = None

    def to_json_dict(self):
        frame = None
        if self.final_frame is not None:
            frame = {
                "phase_exp": self.final_frame.phase_exp,
                "letters": "".join(l.name for l in self.final_frame.letters),
            }
        return {
            "version": "1",
            "engine": self.engine,
            "seed": self.seed,
            "num_qubits": self.num_qubits,
            "total_gadget_calls": self.total_gadget_calls,
            "corrective_gadget_calls": self.corrective_gadget_calls,
            "fidelity_vs_oracle": self.fidelity_vs_oracle,
            "final_frame": frame,
            "gates": [r.to_json_dict() for r in self.records],
        }


def _fidelity(a, b):
    return overlap(a, b) ** 2


# ---------------------------------------------------------------------------
# repeat-until-clean
# ---------------------------------------------------------------------------


#: attempts before a retry loop gives up; a sound gadget gets there
#: with probability (3/4)**200 ~ 1e-25
MAX_LOOP_ATTEMPTS = 200


class RetryLimitExceeded(RuntimeError):
    """A retry loop made MAX_LOOP_ATTEMPTS attempts without a clean word."""


def one_qubit_loop(u, state, q, rng):
    """Realize ``u`` at q through repeated teleportation.

    An attempt with pending unitary V leaves (V sigma_n sigma_m V*) V
    on the wire; labels n == m mean the error is trivial.  Otherwise
    the next attempt aims at the inverse error V sigma_m sigma_n V*.
    Returns (state, words); attempt count is geometric with success
    probability 1/4.  Raises RetryLimitExceeded after
    ``MAX_LOOP_ATTEMPTS`` attempts.
    """
    pending = np.asarray(u, dtype=complex)
    words = []
    for _ in range(MAX_LOOP_ATTEMPTS):
        out = one_qubit_gadget(pending, state, q, rng)
        words.append(out.transcript)
        state = out.post_state
        n, m = out.transcript
        if n == m:
            return state, tuple(words)
        pending = (
            pending
            @ letter_matrix(_L(m))
            @ letter_matrix(_L(n))
            @ pending.conj().T
        )
        # repeated conjugation drifts off the unitary manifold in
        # floats; snap back so the gadget's validator never trips
        w, _, vh = np.linalg.svd(pending)
        pending = w @ vh
    raise RetryLimitExceeded(
        f"retry loop on qubit {q} found no clean outcome in "
        f"{MAX_LOOP_ATTEMPTS} attempts; last word {words[-1]}"
    )


def run_nielsen(circuit, input_state, rng):
    """Execute with per-gate retry loops; gadget count is random."""
    state = input_state
    records = []
    for gate in circuit.gates:
        if gate.kind == "CNOT":
            out = cnot_gadget(state, gate.qubits[0], gate.qubits[1], rng)
            state = out.post_state
            fixes = []
            for wire, letter in zip(gate.qubits, out.byproduct.letters):
                if letter is _L.I:
                    continue
                state, words = one_qubit_loop(
                    letter_matrix(letter), state, wire, rng
                )
                fixes.append((wire, words))
            records.append(GateRecord(gate, (out.transcript,), tuple(fixes)))
        else:
            state, words = one_qubit_loop(
                GATE_MATRICES[gate.kind], state, gate.qubits[0], rng
            )
            records.append(GateRecord(gate, words))
    total = sum(r.call_count() for r in records)
    fid = _fidelity(oracle_apply(circuit, input_state), state)
    return RunReport(
        engine="nielsen",
        seed=rng.seed,
        num_qubits=circuit.num_qubits,
        total_gadget_calls=total,
        corrective_gadget_calls=total - len(circuit.gates),
        fidelity_vs_oracle=fid,
        final_state=state,
        final_frame=None,
        records=tuple(records),
    )


# ---------------------------------------------------------------------------
# postponed correction
# ---------------------------------------------------------------------------


def realized_one_qubit(u, word):
    """The 2x2 unitary a one-qubit gadget applied, given its word."""
    n, m = word
    return u @ letter_matrix(_L(n)) @ letter_matrix(_L(m))


def realized_cnot(word):
    """The 4x4 unitary a CNOT gadget applied, given its word."""
    n, m = word
    p = conjugate_through_CNOT(PauliOperator(0, (_L(n), _L(m))), 0, 1)
    return p.matrix() @ CNOT_MATRIX


def run_postponed(circuit, input_state, rng):
    """Accept all byproducts; correct once at the end.

    Each gate costs exactly one gadget call.  The realized unitary
    U_sim accrues as a dense matrix, and the closing correction
    C = U_circuit U_sim^dagger is applied directly to the register
    (a dense unitary, so the register is capped at 6 qubits).  The
    report carries C as ``correction_unitary``.
    """
    n = circuit.num_qubits
    target = circuit_unitary(circuit)
    u_sim = np.eye(2**n, dtype=complex)
    state = input_state
    records = []
    for gate in circuit.gates:
        if gate.kind == "CNOT":
            out = cnot_gadget(state, gate.qubits[0], gate.qubits[1], rng)
            realized = embed_unitary(realized_cnot(out.transcript), n, gate.qubits)
        else:
            out = one_qubit_gadget(
                GATE_MATRICES[gate.kind], state, gate.qubits[0], rng
            )
            realized = embed_unitary(
                realized_one_qubit(GATE_MATRICES[gate.kind], out.transcript),
                n,
                gate.qubits,
            )
        state = out.post_state
        u_sim = realized @ u_sim
        records.append(GateRecord(gate, (out.transcript,)))
    correction = target @ u_sim.conj().T
    state = apply_unitary(correction, state, range(n))
    fid = _fidelity(oracle_apply(circuit, input_state), state)
    return RunReport(
        engine="postponed",
        seed=rng.seed,
        num_qubits=n,
        total_gadget_calls=len(circuit.gates),
        corrective_gadget_calls=0,
        fidelity_vs_oracle=fid,
        final_state=state,
        final_frame=None,
        records=tuple(records),
        correction_unitary=correction,
    )


# ---------------------------------------------------------------------------
# Pauli frame
# ---------------------------------------------------------------------------


def _embed_single(n, q, p1):
    return PauliOperator.single(n, q, p1.letters[0], p1.phase_exp)


def _embed_pair(n, wires, p2):
    letters = [_L.I] * n
    letters[wires[0]] = p2.letters[0]
    letters[wires[1]] = p2.letters[1]
    return PauliOperator(p2.phase_exp, tuple(letters))


def run_frame(circuit, input_state, rng, finalize="apply", verify_each_step=False):
    """Execute with software Pauli-frame tracking.

    Invariant: physical state == frame . (ideal prefix state) up to
    global phase.  H and CNOT fold their byproduct into the frame and
    conjugate it through the gate; T reads the frame letter on its
    wire, runs the adapted gadget, and replaces the letter with the
    outstanding correction.  Exactly one gadget call per gate.

    ``finalize="apply"`` closes with one layer of Pauli letters so the
    final state matches the circuit output; ``"report"`` returns the
    raw state plus the frame.  ``verify_each_step`` checks the
    invariant against a directly computed prefix state after every
    gate (slow; for diagnostics).
    """
    if finalize not in ("apply", "report"):
        raise ValueError(f"finalize must be 'apply' or 'report', got {finalize!r}")
    n = circuit.num_qubits
    frame = PauliOperator.identity(n)
    state = input_state
    ideal = input_state if verify_each_step else None
    records = []
    for step, gate in enumerate(circuit.gates):
        if gate.kind == "H":
            q = gate.qubits[0]
            out = one_qubit_gadget(GATE_MATRICES["H"], state, q, rng)
            frame = conjugate_through_H(
                multiply(_embed_single(n, q, out.byproduct), frame), q
            )
        elif gate.kind == "CNOT":
            out = cnot_gadget(state, gate.qubits[0], gate.qubits[1], rng)
            frame = multiply(
                _embed_pair(n, gate.qubits, out.byproduct),
                conjugate_through_CNOT(frame, gate.qubits[0], gate.qubits[1]),
            )
        elif gate.kind == "T":
            q = gate.qubits[0]
            out = adapted_t_gadget(state, q, frame.letters[q], rng)
            frame = frame.with_letter(q, out.byproduct.letters[0])
        else:
            raise ValueError(f"unsupported gate kind {gate.kind!r}")
        state = out.post_state
        records.append(GateRecord(gate, (out.transcript,)))
        if verify_each_step:
            ideal = apply_unitary(GATE_MATRICES[gate.kind], ideal, gate.qubits)
            if overlap(apply_pauli(frame, ideal), state) < 1.0 - 1e-9:
                raise RuntimeError(
                    f"frame invariant violated after gate {step} "
                    f"({gate.render()}), frame {render_letters(frame.letters)}"
                )
    oracle = oracle_apply(circuit, input_state)
    if finalize == "apply":
        state = apply_pauli(frame, state)
        fid = _fidelity(oracle, state)
        final_frame = None
    else:
        fid = _fidelity(oracle, apply_pauli(frame, state))
        final_frame = frame
    return RunReport(
        engine="frame",
        seed=rng.seed,
        num_qubits=n,
        total_gadget_calls=len(circuit.gates),
        corrective_gadget_calls=0,
        fidelity_vs_oracle=fid,
        final_state=state,
        final_frame=final_frame,
        records=tuple(records),
    )


ENGINES = {
    "nielsen": run_nielsen,
    "postponed": run_postponed,
    "frame": run_frame,
}


# ---------------------------------------------------------------------------
# outcome reinterpretation (the measure-through-the-frame alternative)
# ---------------------------------------------------------------------------


def reinterpret_outcomes(frame, bits):
    """Correct computational-basis outcomes measured under a frame.

    A frame letter X or Y flips the measured bit on that wire; I and Z
    leave it alone.  Exact, no state manipulation involved.
    """
    bits = tuple(bits)
    if len(bits) != frame.num_qubits:
        raise ValueError(
            f"got {len(bits)} bits for {frame.num_qubits} qubit(s)"
        )
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"bits must be 0 or 1, got {bits!r}")
    return tuple(
        b ^ 1 if l in (_L.X, _L.Y) else b for b, l in zip(bits, frame.letters)
    )


def reinterpret_distribution(frame, dist):
    """Permute a computational-basis distribution through a frame.

    Index arithmetic only, so the result is bit-exact: entry b of the
    output is entry b XOR flipmask of the input, where the flipmask
    has a 1 on every X/Y wire (qubit 0 is the most significant bit).
    """
    dist = np.asarray(dist)
    n = frame.num_qubits
    if dist.shape != (2**n,):
        raise ValueError(f"distribution shape {dist.shape} does not match {n} qubit(s)")
    mask = 0
    for q, l in enumerate(frame.letters):
        if l in (_L.X, _L.Y):
            mask |= 1 << (n - 1 - q)
    return dist[np.arange(2**n) ^ mask]


# ---------------------------------------------------------------------------
# termination statistics
# ---------------------------------------------------------------------------


def termination_tail(k, success_probability=0.25):
    """P(a retry loop needs more than k attempts) = (1 - p)^k."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if not 0.0 < success_probability <= 1.0:
        raise ValueError(f"bad success probability {success_probability}")
    return (1.0 - success_probability) ** k


@dataclass(frozen=True)
class TerminationModel:
    """Geometric attempt-count model for the retry loop."""

    success_probability: float = 0.25

    @property
    def mean_attempts(self):
        return 1.0 / self.success_probability

    def tail(self, k):
        return termination_tail(k, self.success_probability)


def sample_attempt_counts(trials, rng):
    """Attempt counts of ``trials`` independent retry loops.

    Each trial teleports a fresh random one-qubit state through a
    fresh Haar-random unitary and loops until the clean outcome.
    Returns an int array of per-loop attempt counts.
    """
    counts = np.empty(trials, dtype=int)
    for t in range(trials):
        sub = rng.substream(t)
        u = haar_unitary(2, sub.gen)
        state = random_state(1, sub.gen)
        _, words = one_qubit_loop(u, state, 0, sub)
        counts[t] = len(words)
    return counts


# ---------------------------------------------------------------------------
# engine cost comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostRow:
    engine: str
    circuit_len: int
    trial: int
    gadget_calls: int
    corrective_calls: int
    fidelity: float


def compare_costs(circuit, trials, seed):
    """Run every engine ``trials`` times on shared random inputs.

    Trial t of every engine starts from the same random input state;
    engines draw from disjoint substreams.  Returns a list of CostRow.
    """
    src = RandomSource(seed)
    rows = []
    for trial in range(trials):
        sub = src.substream(trial)
        state = random_state(circuit.num_qubits, sub.substream(0).gen)
        for k, name in enumerate(ENGINE_NAMES):
            report = ENGINES[name](circuit, state, sub.substream(1 + k))
            rows.append(
                CostRow(
                    engine=name,
                    circuit_len=len(circuit),
                    trial=trial,
                    gadget_calls=report.total_gadget_calls,
                    corrective_calls=report.corrective_gadget_calls,
                    fidelity=report.fidelity_vs_oracle,
                )
            )
    return rows


def summarize_costs(rows):
    """Per-engine means and worst fidelity over CostRow lists."""
    out = {}
    for name in ENGINE_NAMES:
        mine = [r for r in rows if r.engine == name]
        if not mine:
            continue
        out[name] = {
            "runs": len(mine),
            "mean_gadget_calls": float(np.mean([r.gadget_calls for r in mine])),
            "mean_corrective_calls": float(
                np.mean([r.corrective_calls for r in mine])
            ),
            "min_fidelity": min(r.fidelity for r in mine),
        }
    return out
