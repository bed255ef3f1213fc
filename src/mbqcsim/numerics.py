"""Dense complex linear algebra on small qubit registers.

Basis convention used throughout the package: qubit 0 is the MOST
SIGNIFICANT bit of the basis index.  For a 2-qubit register the
amplitude order is |00>, |01>, |10>, |11>, and ``basis_state("10")``
is the vector with a 1 at index 2.

Everything here is straightforward dense arithmetic on complex128
arrays; registers stay small (a handful of qubits plus gadget
ancillas), so no sparse or compiled machinery is involved.

On a register that small, a call costs interpreter and numpy dispatch
more than arithmetic, so the hot helpers call ndarray methods and
ufuncs directly, with the arithmetic of the plain formulas.  A tensor
or rank-1 product is ``a[:, None] * b[None, :]``, the very multiply
``np.outer`` calls after its ravel and asarray calls (and so the
products of ``np.kron``); ``b`` goes in as a row, because a 1-D ``b``
of length 1 sends numpy down another loop that rounds differently.
``permute_qubits`` calls ``.transpose``, the method ``np.transpose``
forwards to.  Results are bit for bit those of the plain formulas;
``factor_out``'s leak residual, a check that gates but never enters a
result, is one ``vdot``.

``permute_qubits`` is the one wire permutation; ``purify`` alone
decides whether a register is small enough to run as it is.  A
tolerance check reads ``not x <= tol``, so a NaN fails it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

#: default tolerance for state equality / normalization checks
STATE_TOL = 1e-9
#: tolerance of the unitarity check
UNITARY_TOL = 1e-9


class StateVector:
    """Normalized amplitude vector over ``num_qubits`` qubits.

    A 0-qubit state is the scalar 1 and acts as the identity for
    :func:`tensor`.  Instances are treated as immutable: every
    operation returns a fresh state.

    Args:
        num_qubits: number of qubits, >= 0.
        amplitudes: length ``2**num_qubits`` complex sequence.
        normalize: rescale to unit norm instead of requiring it.

    Raises:
        ValueError: wrong length, a norm that is not finite, a norm not
            1 within ``STATE_TOL`` (when ``normalize`` is false), or zero.
    """

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits, amplitudes, *, normalize=False):
        if num_qubits < 0:
            raise ValueError(f"num_qubits must be nonnegative, got {num_qubits}")
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.size != 2**num_qubits:
            raise ValueError(
                f"amplitude count {amps.size} does not match "
                f"2**{num_qubits} = {2**num_qubits}"
            )
        # np.linalg.norm's own formula for complex vectors, minus its overhead
        re, im = amps.real, amps.imag
        nrm = math.sqrt(re.dot(re) + im.dot(im))
        if not math.isfinite(nrm):
            raise ValueError(f"state vector norm is not finite: {nrm!r}")
        if normalize:
            if not nrm >= 1e-12:
                raise ValueError("cannot normalize a zero vector")
            amps = amps / nrm
        elif not abs(nrm - 1.0) <= STATE_TOL:
            raise ValueError(f"state vector is not normalized: norm = {nrm!r}")
        # shared freely (basis caches hand out the same instance), so
        # the buffer must not be writable through this handle
        amps.setflags(write=False)
        object.__setattr__(self, "num_qubits", num_qubits)
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def __repr__(self):
        return f"StateVector(num_qubits={self.num_qubits})"


def basis_state(bits):
    """Computational basis state from a bitstring, e.g. ``"01"``.

    Bit i of the string is the value of qubit i (qubit 0 first, i.e.
    most significant).
    """
    if not all(b in "01" for b in bits):
        raise ValueError(f"bitstring may contain only 0 and 1, got {bits!r}")
    n = len(bits)
    amps = np.zeros(2**n, dtype=complex)
    amps[int(bits, 2) if n else 0] = 1.0
    return StateVector(n, amps)


def tensor(a, b):
    """Tensor product; ``a``'s qubits come first (more significant)."""
    # the outer product holds np.kron's products in np.kron's order
    amps = (a.amplitudes[:, None] * b.amplitudes[None, :]).reshape(-1)
    return StateVector(a.num_qubits + b.num_qubits, amps)


def _check_targets(num_qubits, targets):
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits: {targets}")
    for t in targets:
        if not 0 <= t < num_qubits:
            raise ValueError(
                f"target qubit {t} out of range for {num_qubits}-qubit register"
            )
    return targets


@lru_cache(maxsize=4096)
def _transpose_plan(perm, inverse):
    """(shape, axes) that move qubits like ``perm``; source qubits that
    stay adjacent and in order travel as one axis."""
    if sorted(perm) != list(range(len(perm))):
        raise ValueError(f"not a permutation of 0..{len(perm) - 1}: {perm}")
    if inverse:
        perm = tuple(sorted(range(len(perm)), key=perm.__getitem__))
    runs = []
    for p in perm:
        if runs and runs[-1][-1] + 1 == p:
            runs[-1].append(p)
        else:
            runs.append([p])
    by_source = sorted(range(len(runs)), key=lambda r: runs[r][0])
    shape = tuple(2 ** len(runs[r]) for r in by_source)
    return shape, tuple(by_source.index(r) for r in range(len(runs)))


def permute_qubits(amps, perm, inverse=False):
    """``amps`` with new qubit i taken from old qubit ``perm[i]``.

    The array ``np.transpose(amps.reshape((2,) * n), perm)`` with its
    axes grouped so that a wide register transposes only a few, which
    reshapes to the same bytes.  ``inverse=True`` undoes ``perm``.
    """
    shape, axes = _transpose_plan(tuple(perm), inverse)
    return amps.reshape(shape).transpose(axes)


def apply_unitary(u, s, targets):
    """Apply a ``2**k x 2**k`` matrix to the ordered ``targets`` of ``s``.

    ``targets[0]`` is the most significant qubit of the matrix's own
    index space.  Returns a new StateVector; dimension mismatches and
    bad targets raise ValueError.
    """
    u = np.asarray(u, dtype=complex)
    targets = _check_targets(s.num_qubits, targets)
    k = len(targets)
    if u.shape != (2**k, 2**k):
        raise ValueError(f"matrix shape {u.shape} does not act on {k} qubit(s)")
    order = targets + [q for q in range(s.num_qubits) if q not in targets]
    out = u @ permute_qubits(s.amplitudes, order).reshape(2**k, -1)
    psi = permute_qubits(out, order, inverse=True)
    return StateVector(s.num_qubits, psi.reshape(-1))


def overlap(a, b):
    """``|<a|b>|``, the fidelity between two pure states."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"qubit count mismatch: {a.num_qubits} vs {b.num_qubits}"
        )
    return abs(complex(np.vdot(a.amplitudes, b.amplitudes)))


def require_unitary(u):
    """Validate unitarity and return the matrix as complex128.

    Raises ValueError when ``u`` is not square or ``u u† != I``
    within ``UNITARY_TOL``.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    dev = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
    if not dev <= UNITARY_TOL:
        raise ValueError(f"matrix is not unitary: deviation {dev:.3e}")
    return u


def factor_out(s, dead):
    """Remove qubits that are in a pure state unentangled with the rest.

    Returns the state of the remaining qubits, in their original
    relative order.  Raises ValueError when the ``dead`` qubits are
    still entangled with the keep set (an ancilla leak), detected by a
    rank-1 residual above ``STATE_TOL``.
    """
    dead = sorted(set(dead))
    _check_targets(s.num_qubits, dead)
    keep = [q for q in range(s.num_qubits) if q not in dead]
    mat = permute_qubits(s.amplitudes, dead + keep).reshape(2 ** len(dead), -1)
    norms2 = np.einsum("ij,ij->i", mat, mat.conj()).real
    row = int(np.argmax(norms2))
    if not norms2[row] >= 1e-12:
        raise ValueError("cannot factor out qubits from a zero vector")
    live = mat[row] / np.sqrt(norms2[row])
    coeffs = mat @ live.conj()
    diff = mat - coeffs[:, None] * live[None, :]
    residual = math.sqrt(np.vdot(diff, diff).real)
    if not residual <= STATE_TOL:
        raise ValueError(
            f"qubits {dead} remain entangled with the register "
            f"(rank-1 residual {residual:.3e})"
        )
    return StateVector(len(keep), live, normalize=True)


def _cholesky(gram):
    """Lower L with L L^dagger = ``gram`` (nested lists) and the rows of
    its inverse, in Python scalars.  A pivot with square <= 1e-30, far
    below rounding, vanishes: its column of L and row of L^-1 are zero."""
    d = len(gram)
    low = [[0j] * d for _ in range(d)]
    inv = [[0j] * d for _ in range(d)]
    for i, (gi, li, vi) in enumerate(zip(gram, low, inv)):
        for j, lj in enumerate(low[: i + 1]):
            acc = gi[j]
            for t in range(j):
                acc -= li[t] * lj[t].conjugate()
            if j < i:
                li[j] = acc / lj[j] if lj[j] else 0j
            elif acc.real > 1e-30:
                li[i] = math.sqrt(acc.real)
        for j in range(i + 1 if li[i] else 0):
            vi[j] = ((i == j) - sum(li[t] * inv[t][j] for t in range(j, i))) / li[i]
    return np.array(low), np.array(inv)


def purify(s, wires):
    """The smallest purification of ``wires``: (state, wires, lift).  A
    register of 2k qubits or fewer is its own, with its wires and the
    identity lift.  A wider one, with the k wires moved last, has a 2^k x
    2^(n-k) amplitude block M = L R, L L^dagger = M M^dagger, R's rows
    orthonormal or zero where a pivot vanishes: ``state`` is L on k
    reference wires, then the wires, and ``lift`` maps a post-state P of
    it back as P R.  What acts on the wires alone sees only M M^dagger."""
    n, k = s.num_qubits, len(wires)
    if n <= 2 * k:
        return s, wires, lambda p: p
    order = [*(i for i in range(n) if i not in wires), *wires]
    m = permute_qubits(s.amplitudes, order).reshape(-1, 2**k)  # M^T
    low, inv = _cholesky((m.T @ m.conj()).tolist())
    right_t = m @ inv.T

    def lift(p):
        out = right_t @ p.amplitudes.reshape(-1, 2**k)
        return StateVector(n, permute_qubits(out, order, inverse=True).reshape(-1))

    return StateVector(2 * k, low.T.reshape(-1)), tuple(range(k, 2 * k)), lift


def random_state(num_qubits, gen):
    """Haar-like random pure state: normalized i.i.d. Gaussian components."""
    dim = 2**num_qubits
    amps = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    return StateVector(num_qubits, amps, normalize=True)


def haar_unitary(dim, gen):
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
