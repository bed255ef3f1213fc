"""Projective measurements, seeded sampling, and branch enumeration.

Two measurement kinds exist:

* :class:`BasisMeasurement`: four orthonormal 2-qubit vectors; the
  outcome is the vector's label and the measured pair collapses onto
  the labeled vector.
* :class:`~mbqcsim.pauli.SignedPauliObservable`: a +-1-valued 2-qubit
  observable; the outcome is the eigenvalue of the signed operator.

``measurement_branches`` is the one per-measurement primitive: it lays
the register out with the pair first, computes every branch's exact
Born probability up front, and builds a branch's post-state only when
it is read.  ``sample_plan`` draws one branch per measurement (one
``RandomSource.choose`` each) and reads the post-state the next step
measures through ``read``; every sampled gadget call, at any width,
takes it from its plan key's memo of Choi states, built on first use.
It returns the drawn leaf, whose own post-state is built only if read.
``enumerate_branches`` expands a plan into every outcome word with its
post-state.  Enumeration, on the whole register, is the brute-force
oracle the test suite checks gadgets (which sample on the Choi state
of their data wires) and engines against.

An outcome costs one product with the pair-first block, as few numpy
calls as that allows, and every bit is that of the plain formulas; the
pair's checks and moves are the cached ``_wire_layout`` of numerics.  A
basis stores its conjugated rows once, so ``rows[i] @ block`` has the
operands of ``v.conj() @ block``; a probability is
``np.vdot(b, b).real.item()``, the float ``float(np.real(...))`` gives;
a basis post-state puts the vector back by ``np.outer``'s own
broadcast multiply.  One stacked 4 x 4 product for all four
outcomes would save calls but sums in another order, which moves the
last bit of some rows, so it is not used.

A plan is a sequence of ``(wires, measurement)`` steps, where the
measurement may be a callable of the outcome word so far; a
measurement names no wires, so one object serves every pair.  Bases
from :func:`u_basis` are built and Gram-checked once per distinct
matrix; ``BELL_BASIS`` is the one of the identity.

Outcome bookkeeping for the Bell basis: measuring +Z(x)Z then +X(x)X
is equivalent to a Bell-basis measurement under the fixed sign-to-label
mapping ``BELL_LABEL_FROM_SIGNS``:

    (+1, +1) -> 0    (-1, +1) -> 1    (-1, -1) -> 2    (+1, -1) -> 3

i.e. the first sign carries the X component of the label's Pauli and
the second sign its Z component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter

import numpy as np

from .numerics import StateVector, _move, _wire_layout, require_unitary
from .pauli import (
    PauliLetter,
    SignedPauliObservable,
    letter_matrix,
    observable_matrix,
)

#: probability below which a branch is dropped by enumeration
PRUNE_TOL = 1e-12

#: (r1, r2) -> Bell label for the Z(x)Z then X(x)X decomposition
BELL_LABEL_FROM_SIGNS = {(1, 1): 0, (-1, 1): 1, (-1, -1): 2, (1, -1): 3}


class RandomSource:
    """Deterministic random stream from a single 64-bit seed.

    Substreams derive by hashing the seed together with integer
    indices (numpy SeedSequence spawn keys), so trial i of a run is
    reproducible in isolation: ``RandomSource(seed).substream(i)``.
    """

    __slots__ = ("seed", "key", "gen")

    def __init__(self, seed, key=()):
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        self.key = tuple(int(k) for k in key)
        self.gen = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=self.key)
        )

    def substream(self, *indices):
        """Independent stream for (seed, *key, *indices)."""
        return RandomSource(self.seed, self.key + indices)

    def choose(self, probabilities):
        """Sample an index; probabilities need not be exactly normalized.

        Sums in Python floats, left to right: for four or fewer
        weights, as every draw of the package has, that is the sum
        numpy's ``sum`` gives, so the drawn index is the same.
        """
        total = 0.0
        for p in probabilities:
            total += p
        if not PRUNE_TOL <= total < np.inf:
            raise ValueError(
                f"outcome probabilities vanish or are not finite: total {total!r}"
            )
        u = self.gen.random() * total
        acc = 0.0
        for i, p in enumerate(probabilities):
            acc += p
            if u < acc:
                return i
        return len(probabilities) - 1


def epr_state():
    """(|00> + |11>) / sqrt(2)."""
    return StateVector(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


@dataclass(frozen=True)
class BasisMeasurement:
    """Measurement of a qubit pair in an orthonormal 4-vector basis."""

    vectors: tuple
    #: row i is vector i conjugated (read-only), the bra of outcome i
    rows: tuple = field(init=False, repr=False, compare=False)
    #: the outcome of vector i (a class constant, not a field)
    labels = (0, 1, 2, 3)

    def __post_init__(self):
        vectors = tuple(self.vectors)
        if len(vectors) != 4 or any(v.num_qubits != 2 for v in vectors):
            raise ValueError("need exactly four 2-qubit basis vectors")
        stacked = np.array([v.amplitudes for v in vectors])
        rows = stacked.conj()
        gram = rows @ stacked.T
        if not np.max(np.abs(gram - np.eye(4))) <= 1e-9:
            raise ValueError("basis vectors are not orthonormal")
        rows.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "rows", tuple(rows))


#: sigma_0..sigma_3 stacked, so ``u @ _LETTERS`` is every u sigma_i at once
_LETTERS = np.array([letter_matrix(PauliLetter(i)) for i in range(4)])


@lru_cache(maxsize=256)
def _u_basis(shape, raw):
    """u_basis of the matrix with these C-order bytes."""
    u = require_unitary(np.frombuffer(raw, dtype=complex).reshape(shape))
    # (I (x) A)|EPR> laid out on (row, col) indices is A^T / sqrt(2); an
    # entry of u sigma_i is an entry of u times 0, +-1 or +-i plus a
    # zero, all exact, so one stacked product has the bytes of four
    # separate ones
    rows = (u @ _LETTERS).transpose(0, 2, 1).reshape(4, 4) / np.sqrt(2.0)
    return BasisMeasurement(tuple(StateVector(2, r) for r in rows))


def u_basis(u):
    """Basis {(I (x) u sigma_i)|EPR>} for i = 0..3; u must be unitary.

    Each distinct matrix is built and checked once; a bounded cache
    keyed on its bytes hands out the same basis afterwards.
    """
    u = np.asarray(u, dtype=complex)
    return _u_basis(u.shape, u.tobytes())


#: Bell basis {(I (x) sigma_n)|EPR>}, the u_basis of the identity
BELL_BASIS = u_basis(np.eye(2))


@dataclass(slots=True)
class OutcomeBranch:
    """One leaf of a measurement plan: outcome word, probability, state.

    A branch from :func:`measurement_branches` holds the arguments of
    its post-state instead, and builds the state on first read.
    """

    outcomes: tuple
    probability: float
    _state: StateVector | None = None
    _pending: tuple = field(default=(), repr=False, compare=False)

    @property
    def post_state(self):
        if self._state is None:
            self._state, self._pending = _post_state(*self._pending), ()
        return self._state


def _post_state(n, lay, block, vector=None, p=None):
    """Renormalized post-state from a pair-first ``block`` of the wire
    layout ``lay``; a basis branch first puts ``vector`` back on the pair."""
    if vector is not None:
        # np.outer's multiply, without its ravel and asarray calls
        block = vector[:, None] * (block / math.sqrt(p))[None, :]
    amp = _move(block, lay.first_back).reshape(-1)
    return StateVector(n, amp, normalize=True)


def measurement_branches(s, m, wires):
    """All outcome branches of measuring the pair ``wires``, exactly.

    Accepts a BasisMeasurement or a SignedPauliObservable, whose first
    vector factor or letter acts on ``wires[0]``.  One 4 x 2^(n-2) block
    with the pair first gives every outcome's block: ``v^dagger`` times
    it for basis vector v, ``(1 +- O)/2`` times it for observable O.
    Branches below ``PRUNE_TOL`` are dropped; a post-state is built only
    when read, and a basis branch leaves the pair in its vector.
    """
    n = s.num_qubits
    if len(wires) != 2:
        raise ValueError(f"a measurement acts on 2 wires, got {len(wires)}")
    lay = _wire_layout(n, tuple(wires))
    mat = _move(s.amplitudes, lay.first).reshape(4, -1)
    if isinstance(m, BasisMeasurement):
        blocks = [
            (l, v.amplitudes, row @ mat)
            for l, v, row in zip(m.labels, m.vectors, m.rows)
        ]
    elif isinstance(m, SignedPauliObservable):
        applied = observable_matrix(m) @ mat
        blocks = [(sign, None, (mat + sign * applied) / 2.0) for sign in (1, -1)]
    else:
        raise TypeError(f"not a measurement: {m!r}")
    branches = []
    for outcome, vector, block in blocks:
        p = np.vdot(block, block).real.item()
        if p < PRUNE_TOL:
            continue
        pending = (n, lay, block, vector, p)
        branches.append(OutcomeBranch((outcome,), p, _pending=pending))
    return branches


def enumerate_branches(s, plan):
    """Expand a measurement plan into all outcome words, step by step.

    ``plan`` is a sequence of ``(wires, measurement)`` steps; a
    callable measurement receives the outcome word so far and returns
    the one to make, which lets plans adapt to earlier outcomes.  A step
    measures every kept path and keeps each branch whose joint
    probability is at least ``PRUNE_TOL``.  Returns OutcomeBranch leaves
    in word order, whose joint probabilities sum to 1 up to pruning.
    """
    paths = [((), 1.0, s)]
    for wires, m in plan:
        paths = [
            (word + b.outcomes, joint, b.post_state)
            for word, prob, state in paths
            for b in measurement_branches(state, m(word) if callable(m) else m, wires)
            if (joint := prob * b.probability) >= PRUNE_TOL
        ]
    return [OutcomeBranch(*path) for path in paths]


def sample_plan(s, plan, rng, read=attrgetter("post_state")):
    """Sample one path through a plan; returns its OutcomeBranch leaf.

    Each step makes one ``measurement_branches`` call and one draw.  A
    step after the first measures the post-state of the branch drawn
    before it, which ``read(branch)`` gives: the branch builds it, or a
    gadget call reads it from the memo that keeps its key's Choi states.
    The leaf holds the whole word and its joint probability, the product
    ``enumerate_branches`` forms; its post-state is built when read.
    """
    leaf = OutcomeBranch((), 1.0, s)
    for i, (wires, m) in enumerate(plan):
        if callable(m):
            m = m(leaf.outcomes)
        branches = measurement_branches(read(leaf) if i else s, m, wires)
        b = branches[rng.choose([b.probability for b in branches])]
        b.outcomes = leaf.outcomes + b.outcomes
        b.probability *= leaf.probability
        leaf = b
    return leaf
