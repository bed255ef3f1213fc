"""Pauli operators with exact phase bookkeeping.

Operators are words of single-qubit letters {I, X, Y, Z} times a
phase i^k, k in {0, 1, 2, 3}.  All products and Clifford conjugations
here are exact integer bookkeeping; no floating tolerance is needed
until a matrix is materialized.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .numerics import _check_targets, apply_unitary


class PauliLetter(enum.IntEnum):
    I = 0
    X = 1
    Y = 2
    Z = 3

    @classmethod
    def from_char(cls, c):
        try:
            return cls[c.upper()]
        except KeyError:
            raise ValueError(f"unknown Pauli letter {c!r}") from None


_L = PauliLetter

_LETTER_MATRICES = {
    _L.I: np.array([[1, 0], [0, 1]], dtype=complex),
    _L.X: np.array([[0, 1], [1, 0]], dtype=complex),
    _L.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    _L.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}

#: i^k for k = 0..3, exact
PHASES = (1 + 0j, 1j, -1 + 0j, -1j)

def _letter_product(a, b):
    """Single-letter product a b as (letter, phase exponent delta).

    Under I, X, Y, Z = 0..3 the letter is ``a ^ b``.  Two distinct
    non-identity letters pick up +i in the cyclic order X -> Y -> Z -> X
    (XY = iZ, YZ = iX, ZX = iY) and -i against it.
    """
    if a and b and a != b:
        return _L(a ^ b), 1 if (b - a) % 3 == 1 else 3
    return _L(a ^ b), 0


_MUL = {(a, b): _letter_product(a, b) for a in _L for b in _L}


def letter_matrix(letter):
    """2x2 matrix of a single letter (copy; entries in {0, +-1, +-i})."""
    return _LETTER_MATRICES[PauliLetter(letter)].copy()


@dataclass(frozen=True)
class PauliOperator:
    """i^phase_exp times a tensor word of letters, one per qubit."""

    phase_exp: int
    letters: tuple

    def __post_init__(self):
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)
        object.__setattr__(
            self, "letters", tuple(PauliLetter(l) for l in self.letters)
        )

    @classmethod
    def identity(cls, num_qubits):
        return cls(0, (_L.I,) * num_qubits)

    def embedded(self, num_qubits, wires):
        """This operator on ``wires`` of a wider register, identity
        elsewhere: letter i lands on ``wires[i]``, the phase is kept."""
        letters = [_L.I] * num_qubits
        for w, l in zip(_check_targets(num_qubits, wires), self.letters, strict=True):
            letters[w] = l
        return PauliOperator(self.phase_exp, tuple(letters))

    @property
    def num_qubits(self):
        return len(self.letters)

    def is_identity_word(self):
        """True when every letter is I (phase ignored)."""
        return all(l is _L.I for l in self.letters)

    def matrix(self):
        """Read-only matrix of the operator, built once and shared."""
        return self._matrix

    @cached_property
    def _matrix(self):
        # np.kron's products in np.kron's order, without its overhead
        m = np.ones((1, 1), dtype=complex)
        for l in self.letters:
            s = _LETTER_MATRICES[l]
            m = (m[:, None, :, None] * s[None, :, None, :]).reshape(2 * len(m), -1)
        m = PHASES[self.phase_exp] * m
        m.setflags(write=False)
        return m

    def with_letter(self, qubit, letter):
        letters = list(self.letters)
        letters[qubit] = PauliLetter(letter)
        return PauliOperator(self.phase_exp, tuple(letters))

    def __str__(self):
        """Text form like ``i^1 . X(x)I(x)Z`` (with real tensor glyphs)."""
        return f"i^{self.phase_exp} · {_render_letters(self.letters)}"


def _render_letters(letters):
    return "⊗".join(PauliLetter(l).name for l in letters)


def multiply(p, q):
    """Exact product of two operators on the same register."""
    if p.num_qubits != q.num_qubits:
        raise ValueError(
            f"qubit count mismatch: {p.num_qubits} vs {q.num_qubits}"
        )
    phase = p.phase_exp + q.phase_exp
    letters = []
    for a, b in zip(p.letters, q.letters):
        c, d = _MUL[(a, b)]
        letters.append(c)
        phase += d
    return PauliOperator(phase, tuple(letters))


# H sigma H: X <-> Z, Y -> -Y.
_H_IMAGE = {
    _L.I: (_L.I, 0),
    _L.X: (_L.Z, 0),
    _L.Y: (_L.Y, 2),
    _L.Z: (_L.X, 0),
}


def conjugate_through_H(p, qubit):
    """H_q p H_q as exact letter bookkeeping."""
    _check_targets(p.num_qubits, [qubit])
    new, delta = _H_IMAGE[p.letters[qubit]]
    return PauliOperator(
        p.phase_exp + delta,
        tuple(new if i == qubit else l for i, l in enumerate(p.letters)),
    )


# CNOT conjugation images of the generator letters, written as the
# exact 2-letter word (control slot, target slot); all are phase free.
_CNOT_CONTROL_IMAGE = {
    _L.I: (_L.I, _L.I),
    _L.X: (_L.X, _L.X),
    _L.Y: (_L.Y, _L.X),
    _L.Z: (_L.Z, _L.I),
}
_CNOT_TARGET_IMAGE = {
    _L.I: (_L.I, _L.I),
    _L.X: (_L.I, _L.X),
    _L.Y: (_L.Z, _L.Y),
    _L.Z: (_L.Z, _L.Z),
}


def conjugate_through_CNOT(p, control, target):
    """CNOT p CNOT with control/target at the given qubits, exact.

    Split the 2-qubit part as (L_c (x) I)(I (x) L_t), push each factor
    through (the generator images above are phase free), and multiply
    the images back together; any phase comes from that product.
    """
    _check_targets(p.num_qubits, [control, target])
    img_c = PauliOperator(0, _CNOT_CONTROL_IMAGE[p.letters[control]])
    img_t = PauliOperator(0, _CNOT_TARGET_IMAGE[p.letters[target]])
    combined = multiply(img_c, img_t)
    letters = list(p.letters)
    letters[control] = combined.letters[0]
    letters[target] = combined.letters[1]
    return PauliOperator(p.phase_exp + combined.phase_exp, tuple(letters))


@dataclass(frozen=True)
class SignedPauliObservable:
    """Two-qubit observable ``sign * (letters[0] (x) letters[1])``.

    The first letter acts on the first wire of the plan step that
    measures it.  Measurement outcomes are eigenvalues of the signed
    operator, so -Z(x)Z on |00> reports -1.
    """

    sign: int
    letters: tuple

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        letters = tuple(PauliLetter(l) for l in self.letters)
        if len(letters) != 2:
            raise ValueError("observable needs exactly two letters")
        if letters == (_L.I, _L.I):
            raise ValueError("observable letters must not both be identity")
        object.__setattr__(self, "letters", letters)

    def __str__(self):
        sign = "+" if self.sign > 0 else "-"
        return f"{sign}{_render_letters(self.letters)}"


@lru_cache(maxsize=30)  # one entry per signed observable
def observable_matrix(o):
    """Read-only 4x4 matrix of a signed observable, built once and shared."""
    a, b = (_LETTER_MATRICES[l] for l in o.letters)
    m = o.sign * np.kron(a, b)
    m.setflags(write=False)
    return m


def apply_pauli(p, s):
    """Apply an operator's letters to a state, qubit by qubit.

    The i^k phase is NOT applied; callers compare up to global phase.
    """
    if p.num_qubits != s.num_qubits:
        raise ValueError(
            f"qubit count mismatch: {p.num_qubits} vs {s.num_qubits}"
        )
    out = s
    for q, l in enumerate(p.letters):
        if l is not _L.I:
            out = apply_unitary(_LETTER_MATRICES[l], out, [q])
    return out
