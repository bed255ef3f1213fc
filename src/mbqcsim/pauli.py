"""Pauli operators with exact phase bookkeeping.

An operator is i^k times a word of letters {I, X, Y, Z}, held as two
bit masks as in the CHP tableau (Aaronson & Gottesman,
quant-ph/0406196).  Bit q of ``x`` and ``z`` belongs to qubit q, whose
letter is i^(x_q z_q) X^x_q Z^z_q: X = (1, 0), Y = (1, 1), Z = (0, 1).
With |m| the number of set bits of m, and every exponent mod 4:

* ``multiply``: x = x1 ^ x2, z = z1 ^ z2 and k = k1 + k2 + |x1 & z1|
  + |x2 & z2| + 2 |z1 & x2| - |x & z| (each Z part moves past the
  next X part, then the word regroups qubit by qubit);
* H on q swaps bit q of x and z, and adds 2 when both were set (HYH = -Y);
* CNOT(c, t) sets x_t ^= x_c and z_c ^= z_t.  X parts map to X parts
  and Z parts to Z parts, in order, so k gains |x & z| before minus after.

All of it is exact integer bookkeeping; no floating tolerance is
needed until a matrix is materialized.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .numerics import StateVector, _check_targets


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

#: the letter of the bits (x_q, z_q), at index x_q | z_q << 1
_LETTER_OF_BITS = (_L.I, _L.X, _L.Z, _L.Y)

#: i^k for k = 0..3, exact
PHASES = (1 + 0j, 1j, -1 + 0j, -1j)


def letter_matrix(letter):
    """2x2 matrix of a single letter (copy; entries in {0, +-1, +-i})."""
    return _LETTER_MATRICES[PauliLetter(letter)].copy()


@dataclass(frozen=True)
class PauliOperator:
    """i^phase_exp times a word, held as the module docstring lays out."""

    phase_exp: int
    num_qubits: int
    x: int
    z: int

    def __post_init__(self):
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)
        if self.num_qubits < 0 or (self.x | self.z) >> self.num_qubits:
            raise ValueError(f"x and z masks do not fit {self.num_qubits} qubit(s)")

    @classmethod
    def from_letters(cls, phase_exp, letters):
        """i^phase_exp times the word ``letters``, letter q on qubit q."""
        x = z = 0
        for q, l in enumerate(letters):
            b = _LETTER_OF_BITS.index(PauliLetter(l))
            x |= (b & 1) << q
            z |= (b >> 1) << q
        return cls(phase_exp, len(letters), x, z)

    @classmethod
    def identity(cls, num_qubits):
        return cls(0, num_qubits, 0, 0)

    @cached_property
    def letters(self):
        """The word as a tuple of ``PauliLetter``, qubit 0 first."""
        return tuple(self.letter(q) for q in range(self.num_qubits))

    def letter(self, qubit):
        """The ``PauliLetter`` on one qubit."""
        _check_targets(self.num_qubits, [qubit])
        return _LETTER_OF_BITS[(self.x >> qubit & 1) | (self.z >> qubit & 1) << 1]

    def embedded(self, num_qubits, wires):
        """This operator on ``wires`` of a wider register, identity
        elsewhere: letter i lands on ``wires[i]``, the phase is kept."""
        x = z = 0
        wires = _check_targets(num_qubits, wires)
        for i, w in zip(range(self.num_qubits), wires, strict=True):
            x |= (self.x >> i & 1) << w
            z |= (self.z >> i & 1) << w
        return PauliOperator(self.phase_exp, num_qubits, x, z)

    def is_identity_word(self):
        """True when every letter is I (phase ignored)."""
        return not (self.x | self.z)

    def matrix(self):
        """Read-only matrix of the operator, built once and shared."""
        return self._matrix

    @cached_property
    def _matrix(self):
        letters = (_LETTER_MATRICES[l] for l in self.letters)
        word = reduce(np.kron, letters, np.ones((1, 1), dtype=complex))
        m = PHASES[self.phase_exp] * word
        m.setflags(write=False)
        return m

    def with_letter(self, qubit, letter):
        """This operator with ``letter`` on ``qubit``, the phase kept."""
        b = _LETTER_OF_BITS.index(PauliLetter(letter))
        _check_targets(self.num_qubits, [qubit])
        keep = ~(1 << qubit)
        x, z = self.x & keep | (b & 1) << qubit, self.z & keep | (b >> 1) << qubit
        return PauliOperator(self.phase_exp, self.num_qubits, x, z)

    def __str__(self):
        """Text form like ``i^1 . X(x)I(x)Z`` (with real tensor glyphs)."""
        return f"i^{self.phase_exp} · {_render_letters(self.letters)}"


def _render_letters(letters):
    return "⊗".join(PauliLetter(l).name for l in letters)


def multiply(p, q):
    """Exact product p q of two operators on the same register."""
    if p.num_qubits != q.num_qubits:
        raise ValueError(
            f"qubit count mismatch: {p.num_qubits} vs {q.num_qubits}"
        )
    x, z = p.x ^ q.x, p.z ^ q.z
    k = (
        p.phase_exp + q.phase_exp + (p.x & p.z).bit_count() + (q.x & q.z).bit_count()
        + 2 * (p.z & q.x).bit_count() - (x & z).bit_count()
    )
    return PauliOperator(k, p.num_qubits, x, z)


def conjugate_through_H(p, qubit):
    """H_q p H_q: swap bit q of x and z; H Y H = -Y."""
    _check_targets(p.num_qubits, [qubit])
    b = 1 << qubit
    swap = (p.x ^ p.z) & b
    k = p.phase_exp + 2 * (p.x & p.z & b).bit_count()
    return PauliOperator(k, p.num_qubits, p.x ^ swap, p.z ^ swap)


def conjugate_through_CNOT(p, control, target):
    """CNOT p CNOT with control/target at the given qubits, exact."""
    _check_targets(p.num_qubits, [control, target])
    x = p.x ^ (p.x >> control & 1) << target
    z = p.z ^ (p.z >> target & 1) << control
    k = p.phase_exp + (p.x & p.z).bit_count() - (x & z).bit_count()
    return PauliOperator(k, p.num_qubits, x, z)


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
    """Apply an operator's letters to a state, from its X and Z masks.

    Amplitude b of the result is amplitude b ^ x of the input, negated
    once per Z part whose wire reads 1 in the input, times i once per Y
    letter: a reversal along the X wires' axes, sign flips and at most
    one multiply by a unit, each exact.  On amplitudes without a zero
    real or imaginary part the bits are those of applying each letter's
    matrix in turn; a zero part may come out with the other sign.

    The i^k phase is NOT applied; callers compare up to global phase.
    """
    if p.num_qubits != s.num_qubits:
        raise ValueError(
            f"qubit count mismatch: {p.num_qubits} vs {s.num_qubits}"
        )
    n = p.num_qubits
    flips = tuple(q for q in range(n) if p.x >> q & 1)
    out = np.flip(s.amplitudes.reshape((2,) * n), flips).copy()
    for q in range(n):
        if p.z >> q & 1:
            # after the reversal, input bit 1 sits at output bit 1 ^ x_q
            b = 1 ^ (p.x >> q & 1)
            part = out[(slice(None),) * q + (slice(b, b + 1),)]
            np.negative(part, out=part)
    ys = (p.x & p.z).bit_count() % 4
    if ys:
        out *= PHASES[ys]
    return StateVector(n, out.reshape(-1))
