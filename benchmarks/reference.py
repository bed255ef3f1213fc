"""Independent reference for the benchmark's correctness checks.

Nothing here imports mbqcsim: gates, Pauli matrices, the input-state
derivation, the table sign law and the gadget closed forms are
written out again from the paper and the README, so a fault in the
package cannot hide by agreeing with itself.

Conventions follow the package README: qubit 0 is the most
significant bit, and trial t of a CLI run draws its random input from
the SeedSequence substream (t, 0) of the run's seed.
"""

from __future__ import annotations

import numpy as np

LETTERS = "IXYZ"
PAULI = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
T = np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(complex)
CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
GATES = {"H": H, "T": T, "CNOT": CNOT}

#: Theorem 1 of the paper: the (r1, r2) outcome pair names the
#: outstanding correction C_T of the adapted T gadget.
CORRECTION = {(1, 1): "I", (-1, 1): "X", (-1, -1): "Y", (1, -1): "Z"}

FIDELITY_FLOOR = 1.0 - 1e-9

_AXES = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def apply(psi, matrix, wires):
    """Apply a 2^k x 2^k matrix to ``wires`` of a (2,)*n tensor by einsum."""
    n, k = psi.ndim, len(wires)
    old = _AXES[:n]
    new = _AXES[n : n + k]
    out = list(old)
    for j, w in enumerate(wires):
        out[w] = new[j]
    spec = f"{new}{''.join(old[w] for w in wires)},{old}->{''.join(out)}"
    return np.einsum(spec, matrix.reshape((2,) * (2 * k)), psi)


def evolve(amplitudes, num_qubits, gates):
    """Apply (kind, wires) gates in order to a flat amplitude vector."""
    psi = np.asarray(amplitudes, dtype=complex).reshape((2,) * num_qubits)
    for kind, wires in gates:
        psi = apply(psi, GATES[kind], wires)
    return psi.reshape(-1)


def input_amplitudes(seed, key, num_qubits):
    """Normalized complex Gaussian vector from substream (seed, *key)."""
    gen = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    dim = 2**num_qubits
    amps = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    return amps / np.linalg.norm(amps)


def fidelity(a, b):
    """|<a|b>|^2 of two flat vectors, each normalized here."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    return abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real)


def commutes(a, b):
    """+1 when the letters' matrices commute, -1 when they anticommute."""
    pa, pb = PAULI[a], PAULI[b]
    return 1 if np.allclose(pa @ pb, pb @ pa) else -1


def table_signs(sigma_p, n):
    """Signs (M1, M2 at r1=+1, M2 at r1=-1) the commutation law gives.

    m1 = c(n,Z)c(p,Z), m2(+1) = c(n,X)c(p,X), m2(-1) = -c(n,X)c(p,Y),
    where c(a, b) is computed from the matrices by :func:`commutes`.
    """
    sn = LETTERS[n]
    return (
        commutes(sn, "Z") * commutes(sigma_p, "Z"),
        commutes(sn, "X") * commutes(sigma_p, "X"),
        -commutes(sn, "X") * commutes(sigma_p, "Y"),
    )


def letters_of(matrix):
    """Two-letter Pauli word proportional to a 4x4 matrix, or None."""
    for a in LETTERS:
        for b in LETTERS:
            cand = np.kron(PAULI[a], PAULI[b])
            overlap = np.vdot(cand, matrix) / 4.0
            if abs(abs(overlap) - 1.0) < 1e-9:
                return a + b
    return None


def cnot_byproduct(n, m):
    """Letters of P = CNOT (sigma_n (x) sigma_m) CNOT."""
    p = CNOT @ np.kron(PAULI[LETTERS[n]], PAULI[LETTERS[m]]) @ CNOT
    return letters_of(p)


def one_qubit_branch_state(u, psi, q, word):
    """Closed form of a one-qubit gadget branch: (u s_n s_m at q)|psi>."""
    n, m = word
    op = u @ PAULI[LETTERS[n]] @ PAULI[LETTERS[m]]
    return apply(psi, op, (q,))


def cnot_branch_state(psi, control, target, word):
    """Closed form of a CNOT gadget branch: P CNOT = CNOT (s_n (x) s_m)."""
    n, m = word
    op = CNOT @ np.kron(PAULI[LETTERS[n]], PAULI[LETTERS[m]])
    return apply(psi, op, (control, target))


def adapted_t_branch_state(phi, q, word):
    """Closed form of an adapted T branch: (C_T T at q)|phi>."""
    _, r1, r2 = word
    return apply(phi, PAULI[CORRECTION[(r1, r2)]] @ T, (q,))
