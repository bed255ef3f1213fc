"""Circuit execution engines built on the teleportation gadgets.

Three strategies for dealing with the random Pauli byproducts.  Each
gadget decodes its own outcome word into ``GadgetOutcome.byproduct``;
the engines differ only in what they do with it:

* ``nielsen``: repeat-until-clean.  Every one-qubit gate runs a retry
  loop (success when the byproduct is the identity, probability 1/4
  per attempt); a CNOT costs one gadget call plus one retry loop per
  non-identity byproduct letter.  Gadget count is random.
* ``postponed``: accept every byproduct, keep each gate's realized
  unitary (the gate with its byproduct), and close the run by undoing
  them in reverse order and then applying the circuit, all as
  state-vector operations.  Exactly one gadget call per gate; the
  closing step is classical register work, not a gadget.
* ``frame``: track the byproducts as a Pauli frame in classical
  software.  H and CNOT conjugate the frame; T consumes the frame
  letter on its wire through the adapted gadget and writes the
  correction letter back.  Exactly one gadget call per gate, never
  more, and the frame is either applied at the end (one Pauli layer)
  or reported alongside the raw output.

The frame's i^k phase component is bookkeeping only: states are
compared up to global phase throughout, and outcome reinterpretation
reads just the frame's ``x`` mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import CNOT_MATRIX, GATE_MATRICES, oracle_apply
from .gadgets import adapted_t_gadget, cnot_gadget, narrow, one_qubit_gadget
from .measurement import RandomSource
from .numerics import apply_unitary, haar_unitary, overlap, random_state
from .pauli import (
    PauliLetter,
    PauliOperator,
    apply_pauli,
    conjugate_through_CNOT,
    conjugate_through_H,
    letter_matrix,
    multiply,
)

_L = PauliLetter


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
    records: tuple
    final_frame: PauliOperator | None = None

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


def _report(engine, oracle, rng, records, state, frame=None):
    """RunReport of a finished run.

    Gadget counts come from the records, one per gate; the fidelity
    compares ``oracle`` (from ``oracle_apply``) with the final state,
    ``frame`` applied first when a frame run reports one.
    """
    total = sum(r.call_count() for r in records)
    checked = state if frame is None else apply_pauli(frame, state)
    return RunReport(
        engine=engine,
        seed=rng.seed,
        num_qubits=oracle.num_qubits,
        total_gadget_calls=total,
        corrective_gadget_calls=total - len(records),
        fidelity_vs_oracle=overlap(oracle, checked) ** 2,
        final_state=state,
        records=tuple(records),
        final_frame=frame,
    )


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

    An attempt with pending unitary V and byproduct B leaves
    (V B V*) V on the wire; an identity B means the error is trivial.
    Otherwise the next attempt aims at the inverse error V B* V*.
    Returns (state, words); attempt count is geometric with success
    probability 1/4.  Every attempt runs on one narrowed state, the Choi
    state of q (``narrow``), whatever the register's width, so the
    register is lifted once, by the composed operator of all attempts.
    Raises RetryLimitExceeded after MAX_LOOP_ATTEMPTS.
    """
    pending = np.asarray(u, dtype=complex)
    words = []
    state, (at,), lift = narrow(state, (q,))
    for _ in range(MAX_LOOP_ATTEMPTS):
        out = one_qubit_gadget(pending, state, at, rng)
        words.append(out.transcript)
        state = out.post_state
        if out.byproduct.is_identity_word():
            return lift(state), tuple(words)
        pending = pending @ out.byproduct.matrix().conj().T @ pending.conj().T
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
    return _report("nielsen", oracle_apply(circuit, input_state), rng, records, state)


# ---------------------------------------------------------------------------
# postponed correction
# ---------------------------------------------------------------------------


def run_postponed(circuit, input_state, rng):
    """Accept all byproducts; correct once at the end.

    Each gate costs exactly one gadget call, whose realized unitary
    (the gate with the gadget's byproduct) is kept with its wires.
    The closing step applies their adjoints in reverse order, which
    returns the register to the input state, and then the circuit
    itself: one correction as O(2^n) state operations, so it runs on
    any register the gadgets run on.
    """
    state = input_state
    realized = []
    records = []
    for gate in circuit.gates:
        if gate.kind == "CNOT":
            out = cnot_gadget(state, gate.qubits[0], gate.qubits[1], rng)
            realized.append((out.byproduct.matrix() @ CNOT_MATRIX, gate.qubits))
        else:
            u = GATE_MATRICES[gate.kind]
            out = one_qubit_gadget(u, state, gate.qubits[0], rng)
            realized.append((u @ out.byproduct.matrix(), gate.qubits))
        state = out.post_state
        records.append(GateRecord(gate, (out.transcript,)))
    for u, wires in reversed(realized):
        state = apply_unitary(u.conj().T, state, wires)
    state = oracle_apply(circuit, state)
    return _report("postponed", oracle_apply(circuit, input_state), rng, records, state)


# ---------------------------------------------------------------------------
# Pauli frame
# ---------------------------------------------------------------------------


def run_frame(circuit, input_state, rng, finalize="apply"):
    """Execute with software Pauli-frame tracking.

    Invariant: physical state == frame . (ideal prefix state) up to
    global phase.  H and CNOT fold their byproduct into the frame and
    conjugate it through the gate; T reads the frame letter on its
    wire, runs the adapted gadget, and replaces the letter with the
    outstanding correction.  Exactly one gadget call per gate.

    ``finalize="apply"`` closes with one layer of Pauli letters so the
    final state matches the circuit output; ``"report"`` returns the
    raw state plus the frame.  The run of any prefix of the circuit
    with the same stream reports the frame after that prefix, so the
    invariant can be checked from outside at every step.
    """
    if finalize not in ("apply", "report"):
        raise ValueError(f"finalize must be 'apply' or 'report', got {finalize!r}")
    n = circuit.num_qubits
    frame = PauliOperator.identity(n)
    state = input_state
    records = []
    for gate in circuit.gates:
        if gate.kind == "H":
            q = gate.qubits[0]
            out = one_qubit_gadget(GATE_MATRICES["H"], state, q, rng)
            frame = conjugate_through_H(
                multiply(out.byproduct.embedded(n, gate.qubits), frame), q
            )
        elif gate.kind == "CNOT":
            out = cnot_gadget(state, gate.qubits[0], gate.qubits[1], rng)
            frame = multiply(
                out.byproduct.embedded(n, gate.qubits),
                conjugate_through_CNOT(frame, gate.qubits[0], gate.qubits[1]),
            )
        else:  # T: Gate admits no other kind
            q = gate.qubits[0]
            out = adapted_t_gadget(state, q, frame.letter(q), rng)
            frame = frame.with_letter(q, out.byproduct.letter(0))
        state = out.post_state
        records.append(GateRecord(gate, (out.transcript,)))
    oracle = oracle_apply(circuit, input_state)
    if finalize == "apply":
        return _report("frame", oracle, rng, records, apply_pauli(frame, state))
    return _report("frame", oracle, rng, records, state, frame)


ENGINES = {
    "nielsen": run_nielsen,
    "postponed": run_postponed,
    "frame": run_frame,
}
ENGINE_NAMES = tuple(ENGINES)


# ---------------------------------------------------------------------------
# outcome reinterpretation (the measure-through-the-frame alternative)
# ---------------------------------------------------------------------------


def reinterpret_outcomes(frame, bits):
    """Correct computational-basis outcomes measured under a frame.

    A frame letter X or Y (a set bit of ``frame.x``) flips the measured
    bit on that wire; I and Z leave it alone.  Exact, no state
    manipulation involved.
    """
    bits = tuple(bits)
    if len(bits) != frame.num_qubits:
        raise ValueError(
            f"got {len(bits)} bits for {frame.num_qubits} qubit(s)"
        )
    if any(not isinstance(b, (int, np.integer)) or b not in (0, 1) for b in bits):
        raise ValueError(f"bits must be 0 or 1, got {bits!r}")
    return tuple(b ^ (frame.x >> q & 1) for q, b in enumerate(bits))


def reinterpret_distribution(frame, dist):
    """Permute a computational-basis distribution through a frame.

    Entry b of the output is entry b of the input with the bit of every
    X/Y wire flipped, qubit 0 most significant: with one axis per qubit,
    a reversal along those axes.  Bit-exact, and a C-ordered copy, since
    numpy and BLAS take other paths on a reversed view, with other bits.
    """
    dist = np.asarray(dist)
    n = frame.num_qubits
    if dist.shape != (2**n,):
        raise ValueError(f"distribution shape {dist.shape} does not match {n} qubit(s)")
    flips = tuple(q for q in range(n) if frame.x >> q & 1)
    return np.flip(dist.reshape((2,) * n), flips).flatten()


# ---------------------------------------------------------------------------
# termination statistics
# ---------------------------------------------------------------------------


def termination_tail(k):
    """P(a retry loop needs more than k attempts) = (3/4)^k.

    An attempt succeeds with probability 1/4: 4 of its 16 uniform
    words decode to the identity byproduct.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return 0.75**k


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


def compare_costs(circuit, trials, seed):
    """Run every engine ``trials`` times on shared random inputs.

    Trial t of every engine starts from the same random input state;
    engines draw from disjoint substreams.  Returns a list of
    (trial, RunReport) pairs, trial by trial in ``ENGINES`` order.
    """
    src = RandomSource(seed)
    rows = []
    for trial in range(trials):
        sub = src.substream(trial)
        state = random_state(circuit.num_qubits, sub.substream(0).gen)
        for k, run in enumerate(ENGINES.values()):
            rows.append((trial, run(circuit, state, sub.substream(1 + k))))
    return rows
