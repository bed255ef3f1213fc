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
A wire permutation calls ``.transpose``, the method ``np.transpose``
forwards to, and a scalar square root ``math.sqrt``, correctly rounded
as ``np.sqrt`` is.  Results are bit for bit those of the plain formulas;
``factor_out``'s leak residual and ``StateVector``'s norm check, checks
that gate but never enter a result, are one dot each.  A state is
normalized by one multiply with the reciprocal of its norm, the multiply
numpy's division by a real does, so only the sign of a zero part may
differ from ``amps / norm``.

A width and a tuple of wires fix the wire checks and the transpose
plans that move the wires first and back, or back from last:
``_wire_layout`` builds them once per pair, in a bounded cache.  A layout holds no
amplitudes and each array call gets the operands it had, so no bit
moves; bad wires raise on every call.  ``choi`` gives the state a
gadget on k data wires runs on, whatever the register's width: the
Choi state of those wires.  The register is touched once, by the drawn
word's operator, which ``choi_operator`` reads and checks unitary and
``apply_unitary`` applies.  A tolerance check reads ``not x <= tol``,
so a NaN fails it.
"""

from __future__ import annotations

import math
from collections import namedtuple
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

    ``normalize`` computes the norm by ``np.linalg.norm``'s formula and
    multiplies by its reciprocal.  numpy divides a complex array by a
    real the same way, by one reciprocal and one multiply per part, so
    every part that is not an exact zero has the bits of ``amps / norm``;
    an exact zero part may come out with the other sign.  Without
    ``normalize`` the norm only gates, so it is one dot of the
    contiguous float view (of a copy, for a strided input).

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
        if normalize:
            # np.linalg.norm's own formula for complex vectors, minus its overhead
            re, im = amps.real, amps.imag
            nrm = math.sqrt(re.dot(re) + im.dot(im))
        else:
            flat = np.ascontiguousarray(amps).view(float)
            nrm = math.sqrt(flat.dot(flat))
        if not math.isfinite(nrm):
            raise ValueError(f"state vector norm is not finite: {nrm!r}")
        if normalize:
            if not nrm >= 1e-12:
                raise ValueError("cannot normalize a zero vector")
            amps = amps * (1.0 / nrm)
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


def _move(amps, plan):
    shape, axes = plan
    return amps.reshape(shape).transpose(axes)


_Layout = namedtuple("_Layout", "wires rest wires_last first first_back last_back")


@lru_cache(maxsize=2048)
def _wire_layout(num_qubits, wires, as_set=False):
    """The checked tuple ``wires`` (sorted and deduplicated first when
    ``as_set``), the ``rest`` ascending, whether the wires already are
    the last ones, and the transpose plans that move them first and
    back, or back from last.  Bad wires raise, so nothing is cached for
    them."""
    wires = tuple(_check_targets(num_qubits, sorted(set(wires)) if as_set else wires))
    rest = tuple(q for q in range(num_qubits) if q not in wires)
    first, last = wires + rest, rest + wires
    plans = (_transpose_plan(first, False), _transpose_plan(first, True),
             _transpose_plan(last, True))
    return _Layout(wires, rest, last == tuple(range(num_qubits)), *plans)


def apply_unitary(u, s, targets, *, normalize=False):
    """Apply a ``2**k x 2**k`` matrix to the ordered ``targets`` of ``s``.

    ``targets[0]`` is the most significant qubit of the matrix's own
    index space.  Returns a new StateVector, rescaled to unit norm when
    ``normalize``; dimension mismatches and bad targets raise ValueError.
    """
    u = np.asarray(u, dtype=complex)
    lay = _wire_layout(s.num_qubits, tuple(targets))
    k = len(lay.wires)
    if u.shape != (2**k, 2**k):
        raise ValueError(f"matrix shape {u.shape} does not act on {k} qubit(s)")
    out = u @ _move(s.amplitudes, lay.first).reshape(2**k, -1)
    return StateVector(
        s.num_qubits, _move(out, lay.first_back).reshape(-1), normalize=normalize
    )


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
    dev = np.abs(u @ u.conj().T - np.eye(u.shape[0])).max()
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
    lay = _wire_layout(s.num_qubits, tuple(dead), True)
    mat = _move(s.amplitudes, lay.first).reshape(2 ** len(lay.wires), -1)
    norms2 = np.einsum("ij,ij->i", mat, mat.conj()).real
    row = int(norms2.argmax())
    if not norms2[row] >= 1e-12:
        raise ValueError("cannot factor out qubits from a zero vector")
    live = mat[row] / math.sqrt(norms2[row])
    coeffs = mat @ live.conj()
    diff = mat - coeffs[:, None] * live[None, :]
    residual = math.sqrt(np.vdot(diff, diff).real)
    if not residual <= STATE_TOL:
        raise ValueError(
            f"qubits {list(lay.wires)} remain entangled with the register "
            f"(rank-1 residual {residual:.3e})"
        )
    return StateVector(len(lay.rest), live, normalize=True)


@lru_cache(maxsize=4)
def _choi_state(k):
    """|Phi+>^(x)k on 2k qubits: k reference wires, then k data wires."""
    return StateVector(2 * k, np.eye(2**k).reshape(-1) / math.sqrt(2**k))


def choi_operator(p):
    """The operator K of a Choi post-state P = (I (x) K)|Phi+>^(x)k, read
    as K = sqrt(2^k) P^T, checked unitary and returned read-only."""
    d = 2 ** (p.num_qubits // 2)
    op = require_unitary(math.sqrt(d) * p.amplitudes.reshape(d, d).T)
    op.setflags(write=False)
    return op


def choi(s, wires):
    """The (state, wires, lift) a gadget on ``wires`` runs on: the Choi
    state |Phi+>^(x)k, the k data wires after k reference wires, at
    every width of ``s``.  ``lift`` takes a post-state P of it in two
    steps: ``choi_operator`` reads and checks K, and ``apply_unitary``
    applies it to the wires of ``s``, renormalized.  A unitary K is a
    word whose probability does not depend on the input, so a word
    drawn on the Choi state is drawn as on ``s`` itself."""
    _wire_layout(s.num_qubits, tuple(wires))  # bad wires raise here, not in the lift
    k = len(wires)
    return (
        _choi_state(k),
        tuple(range(k, 2 * k)),
        lambda p: apply_unitary(choi_operator(p), s, wires, normalize=True),
    )


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
