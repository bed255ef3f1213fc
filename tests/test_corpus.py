"""Seeded CLI corpus: 178 in-process runs of every subcommand, hashed.

The goldens pin eight runs digit for digit.  This corpus pins twenty
times as many at the level a refactor must keep: outcome words, gadget
counts, frames, CSV rows, ``stats`` tables and ``verify-table1``
reports.  Circuits of 1 to 12 qubits are generated from fixed seeds
here, each run through every engine (and the frame engine once more
with ``--finalize report``), the 24 of at most 8 qubits through
``compare``; six ``stats`` and four ``verify-table1`` runs close it.

One sha256 covers every run's argv, stdin, exit code, stdout and
stderr, with each fidelity value (the JSON ``fidelity_vs_oracle``, the
CSV ``fidelity`` column and the ``# min fidelity`` line) replaced by a
marker, so that arithmetic which moves only a last digit keeps the
hash.  Every masked value must still be at least 1 - 1e-12.  A change
that moves the hash on purpose says why and replaces the constant with
the one the failure prints.
"""

import hashlib
import io
import re

import numpy as np

from mbqcsim.cli import main

CORPUS_SHA256 = "3ae2358736cf3b848a9345852d004050aa047d52fcdfb2ed624c4fd6e64491a1"

ENGINES = ("nielsen", "postponed", "frame")
MIN_FIDELITY = 1.0 - 1e-12

#: a fidelity value, the text around it kept
_FIDELITY = re.compile(
    r'(?P<pre>"fidelity_vs_oracle": |^# min fidelity |^(?:nielsen|postponed|frame)'
    r",\d+,\d+,\d+,\d+,)(?P<value>[^,\s}]+)",
    re.MULTILINE,
)


def _circuit(index):
    """Circuit ``index`` of 36: 1 + index % 12 qubits, 1 to 12 gates."""
    gen = np.random.default_rng(9000 + index)
    n = 1 + index % 12
    lines = [f"qubits {n}"]
    for _ in range(int(gen.integers(1, 13))):
        kind = ("H", "T", "CNOT")[int(gen.integers(3 if n > 1 else 2))]
        if kind == "CNOT":
            c, t = gen.choice(n, size=2, replace=False)
            lines.append(f"CNOT {c} {t}")
        else:
            lines.append(f"{kind} {int(gen.integers(n))}")
    return "\n".join(lines) + "\n"


def _runs():
    """(argv, stdin text or None) of every corpus run, seeds 100 up."""
    runs = []
    for i in range(36):
        text = _circuit(i)
        for engine, extra in [(e, []) for e in ENGINES] + [("frame", ["--finalize", "report"])]:
            runs.append((["simulate", "--circuit", "-", "--engine", engine, *extra,
                          "--input", "random", "--trials", "1"], text))
        if i % 12 < 8:
            runs.append((["compare", "--circuit", "-", "--trials", "1"], text))
    for trials, max_k in ((20, 0), (50, 3), (80, 10), (120, 6), (30, 25), (60, 12)):
        runs.append((["stats", "--trials", str(trials), "--max-k", str(max_k)], None))
    for _ in range(4):
        runs.append((["verify-table1", "--states", "1"], None))
    return [(argv + ["--seed", str(100 + k)], text) for k, (argv, text) in enumerate(runs)]


def test_seeded_cli_corpus(capsys, monkeypatch):
    runs = _runs()
    assert len(runs) == 178
    digest = hashlib.sha256()
    fidelities = []

    def mask(match):
        fidelities.append(float(match["value"]))
        return match["pre"] + "<fidelity>"

    for argv, text in runs:
        monkeypatch.setattr("sys.stdin", io.StringIO(text or ""))
        code = main(argv)
        out, err = capsys.readouterr()
        masked = [_FIDELITY.sub(mask, stream) for stream in (out, err)]
        for part in (" ".join(argv), text or "", str(code), *masked):
            digest.update(part.encode() + b"\0")
    # two per simulate run (its JSON line and its stderr), and one per
    # engine row of each compare run
    assert len(fidelities) == 2 * 144 + 3 * 24
    assert min(fidelities) >= MIN_FIDELITY
    assert digest.hexdigest() == CORPUS_SHA256
