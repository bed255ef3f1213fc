"""Circuit description, text format, and the direct-unitary oracle.

The text format (extension ``.mbqc``) is line oriented:

    qubits 2        header, required first statement
    H 0             Hadamard on qubit 0
    T 1             T gate on qubit 1
    CNOT 0 1        controlled NOT, control 0, target 1
    # comment       '#' starts a comment, full line or trailing

Gate names are case insensitive.  Gates apply top to bottom; the
circuit's unitary is the right-to-left product G_l ... G_1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import apply_unitary

SQRT2 = np.sqrt(2.0)

H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2
T_MATRIX = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

GATE_MATRICES = {"H": H_MATRIX, "T": T_MATRIX, "CNOT": CNOT_MATRIX}
GATE_ARITY = {"H": 1, "T": 1, "CNOT": 2}

class CircuitParseError(ValueError):
    """Parse failure; the message always names the offending line."""

    def __init__(self, message, line):
        super().__init__(f"{message} at line {line}")
        self.line = line


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple

    def __post_init__(self):
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate {self.kind!r}")
        qubits = tuple(int(q) for q in self.qubits)
        if len(qubits) != GATE_ARITY[self.kind]:
            raise ValueError(
                f"{self.kind} takes {GATE_ARITY[self.kind]} qubit argument(s)"
            )
        if self.kind == "CNOT" and qubits[0] == qubits[1]:
            raise ValueError("control equals target")
        object.__setattr__(self, "qubits", qubits)

    def render(self):
        return " ".join([self.kind, *map(str, self.qubits)])


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple

    def __post_init__(self):
        if self.num_qubits < 0:
            raise ValueError("qubit count must be nonnegative")
        gates = tuple(self.gates)
        for g in gates:
            for q in g.qubits:
                if not 0 <= q < self.num_qubits:
                    raise ValueError(f"qubit {q} out of range")
        object.__setattr__(self, "gates", gates)

    def __len__(self):
        return len(self.gates)


def _integer(field, message):
    try:
        return int(field)
    except ValueError:
        raise ValueError(message) from None


def parse_circuit(text):
    """Parse circuit text; raises CircuitParseError with a line number.

    ``Gate`` and ``Circuit`` validate every statement; their message
    gets the number of the line it came from.
    """
    num_qubits = None
    gates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *args = line.split()
        head = head.upper()
        try:
            if num_qubits is None:
                if head != "QUBITS":
                    raise ValueError("expected 'qubits <n>' header before gates")
                if len(args) != 1:
                    raise ValueError("malformed qubits header")
                count = _integer(args[0], f"invalid qubit count {args[0]!r}")
                num_qubits = Circuit(count, ()).num_qubits  # rejects count < 0
            elif head == "QUBITS":
                raise ValueError("duplicate qubits header")
            else:
                bad = f"invalid qubit index in {line!r}"
                gate = Gate(head, [_integer(a, bad) for a in args])
                Circuit(num_qubits, (gate,))
                gates.append(gate)
        except ValueError as exc:
            raise CircuitParseError(str(exc), lineno) from None
    if num_qubits is None:
        raise CircuitParseError("missing 'qubits <n>' header", 1)
    return Circuit(num_qubits, tuple(gates))


def render_circuit(c):
    """Canonical text form; parse(render(c)) round-trips."""
    lines = [f"qubits {c.num_qubits}"]
    lines.extend(g.render() for g in c.gates)
    return "\n".join(lines) + "\n"


def oracle_apply(c, s):
    """Apply the circuit directly as matrices: the reference evolution."""
    if s.num_qubits != c.num_qubits:
        raise ValueError(
            f"state has {s.num_qubits} qubit(s), circuit needs {c.num_qubits}"
        )
    out = s
    for g in c.gates:
        out = apply_unitary(GATE_MATRICES[g.kind], out, g.qubits)
    return out
