"""The benchmark's workloads: seeded inputs, CLI argument lists, checks.

One operation is one in-process invocation of ``mbqcsim.cli.main``.
Each workload draws its circuit from the benchmark seed, gives
operation i its own CLI ``--seed``, and checks every output against
the independent reference in :mod:`reference` and against properties
the method must satisfy.  A failed check raises :class:`CheckError`.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

import reference as ref

FLOOR = ref.FIDELITY_FLOOR


class CheckError(Exception):
    """An output of the program is wrong."""


class KnownFault(Exception):
    """The output is wrong only by a fault recorded in CHANGES.md.

    The operation still did all its work: ``calls`` gadget calls.
    """

    def __init__(self, message, calls):
        super().__init__(message)
        self.calls = calls


def require(cond, message):
    if not cond:
        raise CheckError(message)


def random_gates(rng, num_qubits, mix):
    """Gates with exactly the counts in ``mix``, in random order and wires."""
    kinds = [kind for kind, count in mix for _ in range(count)]
    rng.shuffle(kinds)
    gates = []
    for kind in kinds:
        if kind == "CNOT":
            control, target = rng.choice(num_qubits, size=2, replace=False)
            gates.append((kind, (int(control), int(target))))
        else:
            gates.append((kind, (int(rng.integers(num_qubits)),)))
    return gates


def render(kind, wires):
    return " ".join([kind, *map(str, wires)])


class Workload:
    """Inputs and checks shared by every workload."""

    name = ""
    tag = 0  # separates the workloads' input streams for one seed

    def __init__(self, seed, workdir, mb):
        self.seed = seed
        self.workdir = workdir
        self.mb = mb
        self.rng = np.random.default_rng([seed, self.tag])
        self.circuit_len = 0

    def op_seed(self, i):
        """CLI --seed of operation i (i = -1 is the warm-up)."""
        return self.seed * 1_000_000 + i + 1

    def write_circuit(self, num_qubits, mix):
        self.num_qubits = num_qubits
        self.gates = random_gates(self.rng, num_qubits, mix)
        self.circuit_len = len(self.gates)
        text = f"# seed {self.seed}\nqubits {num_qubits}\n" + "".join(
            render(k, w) + "\n" for k, w in self.gates
        )
        self.path = self.workdir / f"{self.name}.mbqc"
        self.path.write_text(text, encoding="utf-8")
        c = self.mb.circuit
        self.circuit = c.Circuit(num_qubits, tuple(c.Gate(k, w) for k, w in self.gates))

    def rerun_input(self, seed):
        """The program's input state and engine stream for trial 0."""
        src = self.mb.measurement.RandomSource(seed).substream(0)
        state = self.mb.numerics.random_state(self.num_qubits, src.substream(0).gen)
        return state, src

    def reference_output(self, seed):
        amps = ref.input_amplitudes(seed, (0, 0), self.num_qubits)
        return ref.evolve(amps, self.num_qubits, self.gates)

    def check_stderr(self, err, seed):
        require(err.startswith(f"# seed {seed}\n"), f"stderr does not echo seed {seed}")

    def finish(self):
        """Checks over the whole run; raises CheckError."""


class SimulateWide(Workload):
    """Frame engine on a 12-qubit, 50-gate circuit, one trial per operation."""

    name = "simulate-wide"
    tag = 1
    mix = (("H", 17), ("T", 17), ("CNOT", 16))

    def __init__(self, seed, workdir, mb):
        super().__init__(seed, workdir, mb)
        self.write_circuit(12, self.mix)

    def argv(self, i):
        return ["simulate", "--circuit", str(self.path), "--engine", "frame",
                "--input", "random", "--trials", "1", "--seed", str(self.op_seed(i))]

    def check(self, i, res):
        seed = self.op_seed(i)
        self.check_stderr(res.err, seed)
        require("# min fidelity" in res.err, "no min fidelity line")
        lines = res.out.splitlines()
        require(len(lines) == 1, f"expected 1 JSON line, got {len(lines)}")
        p = json.loads(lines[0])
        L = self.circuit_len
        require(p["trial"] == 0 and p["version"] == "1" and p["engine"] == "frame",
                "wrong trial, version or engine")
        require(p["seed"] == seed and p["num_qubits"] == self.num_qubits, "wrong seed or width")
        require(p["total_gadget_calls"] == L and p["corrective_gadget_calls"] == 0,
                "frame engine must make exactly l gadget calls, none corrective")
        require(p["final_frame"] is None, "finalize=apply must not report a frame")
        require(p["fidelity_vs_oracle"] >= FLOOR, "reported fidelity below floor")
        require(len(p["gates"]) == L, "wrong number of gate records")
        calls = 0
        for rec, (kind, wires) in zip(p["gates"], self.gates):
            require(rec["gate"] == render(kind, wires), f"gate {rec['gate']!r} not in input")
            require(len(rec["attempts"]) == 1 and rec["fixes"] == [],
                    "frame engine made a repeat or corrective call")
            word = rec["attempts"][0]
            if kind == "T":
                require(len(word) == 3 and word[0] in range(4) and word[1] in (1, -1)
                        and word[2] in (1, -1), f"bad adapted-T word {word}")
            else:
                require(len(word) == 2 and all(w in range(4) for w in word),
                        f"bad {kind} word {word}")
            calls += len(rec["attempts"]) + sum(len(f["attempts"]) for f in rec["fixes"])
        state, src = self.rerun_input(seed)
        report = self.mb.engines.run_frame(self.circuit, state, src.substream(1),
                                           finalize="apply")
        rerun = json.dumps({"trial": 0, **report.to_json_dict()})
        require(rerun == lines[0], "re-run JSON differs from the CLI line")
        fid = ref.fidelity(self.reference_output(seed), report.final_state.amplitudes)
        require(fid >= FLOOR, f"final state fidelity {fid!r} against the reference")
        return calls


class CompareNarrow(Workload):
    """nielsen, postponed and frame on one 4-qubit, 30-gate input."""

    name = "compare-narrow"
    tag = 2
    mix = (("H", 10), ("T", 10), ("CNOT", 10))
    header = "engine,circuit_len,trial,gadget_calls,corrective_calls,fidelity"
    engines = ("nielsen", "postponed", "frame")

    def __init__(self, seed, workdir, mb):
        super().__init__(seed, workdir, mb)
        self.write_circuit(4, self.mix)
        self.loop_attempts = 0
        self.loop_successes = 0

    def argv(self, i):
        return ["compare", "--circuit", str(self.path), "--trials", "1",
                "--seed", str(self.op_seed(i))]

    def check(self, i, res):
        seed = self.op_seed(i)
        self.check_stderr(res.err, seed)
        lines = res.out.splitlines()
        require(lines[0] == self.header, "wrong CSV header")
        require(len(lines) == 1 + len(self.engines), f"expected 3 rows, got {len(lines) - 1}")
        state, src = self.rerun_input(seed)
        expected = self.reference_output(seed)
        L = self.circuit_len
        calls = 0
        for k, (name, row) in enumerate(zip(self.engines, lines[1:])):
            fields = row.split(",")
            require(len(fields) == 6 and fields[0] == name, f"row {k} is not {name}")
            require(int(fields[1]) == L and fields[2] == "0", f"{name}: wrong length or trial")
            made, corrective = int(fields[3]), int(fields[4])
            require(float(fields[5]) >= FLOOR, f"{name}: fidelity below floor")
            if name == "nielsen":
                require(made >= L and corrective == made - L, "nielsen call counts inconsistent")
            else:
                require(made == L and corrective == 0,
                        f"{name} must make exactly l gadget calls, none corrective")
            run = getattr(self.mb.engines, f"run_{name}")
            report = run(self.circuit, state, src.substream(1 + k))
            rerun = (f"{name},{L},0,{report.total_gadget_calls},"
                     f"{report.corrective_gadget_calls},{report.fidelity_vs_oracle:.12f}")
            require(rerun == row, f"{name}: re-run row differs from the CLI row")
            fid = ref.fidelity(expected, report.final_state.amplitudes)
            require(fid >= FLOOR, f"{name}: final state fidelity {fid!r} against the reference")
            if name == "nielsen":
                self.check_retry_loops(report)
            calls += made
        return calls

    def check_retry_loops(self, report):
        """Loops stop at the first clean word; CNOT repairs every non-I letter."""
        calls = 0
        for rec, (kind, wires) in zip(report.records, self.gates):
            if kind == "CNOT":
                require(len(rec.attempts) == 1, "nielsen CNOT must be one gadget call")
                letters = ref.cnot_byproduct(*rec.attempts[0])
                needed = [w for w, letter in zip(wires, letters) if letter != "I"]
                require([q for q, _ in rec.fixes] == needed,
                        f"CNOT repairs {[q for q, _ in rec.fixes]}, byproduct {letters}")
                loops = [words for _, words in rec.fixes]
                calls += 1
            else:
                require(not rec.fixes, "one-qubit gate with repair loops")
                loops = [rec.attempts]
            for words in loops:
                require(words and all(n != m for n, m in words[:-1])
                        and words[-1][0] == words[-1][1],
                        f"retry loop does not stop at its first clean word: {words}")
                self.loop_attempts += len(words)
                self.loop_successes += 1
                calls += len(words)
        require(calls == report.total_gadget_calls, "nielsen call count differs from its words")

    def finish(self):
        n = self.loop_attempts
        require(n > 0, "no retry-loop attempts seen")
        frac = self.loop_successes / n
        # 5 standard deviations: a false alarm about once in 2 million runs
        bound = 5.0 * math.sqrt(0.25 * 0.75 / n)
        require(abs(frac - 0.25) <= bound,
                f"per-attempt success {frac:.4f} over {n} attempts, outside 1/4 +- {bound:.4f}")


_KEY_LINE = re.compile(
    r"sigma_p=([IXYZ]) n=([0-3])  M1=([+-])Z⊗Z  "
    r"M2\(r1=\+1\)=([+-])X⊗X  M2\(r1=-1\)=([+-])Y⊗X"
)
_CHECK_LINE = re.compile(
    r"  \(r1=([+-]1), r2=([+-]1)\) -> (\S)  expected (\S)  (\S+)  "
    r"p~([0-9.]+)  max deficit (\S+)"
)


class VerifyTable1(Workload):
    """Exhaustive adapted-T table check, a fixed --states over many seeds.

    Every report renders the realized correction I as '?' (PauliLetter.I
    is falsy in Table1Report.render), so each operation ends in
    KnownFault.  The CLI seeds do not depend on the benchmark seed,
    which makes that failure the same on every run.
    """

    name = "verify-table1"
    tag = 3
    states = 2

    def op_seed(self, i):
        return i + 1

    def argv(self, i):
        return ["verify-table1", "--states", str(self.states), "--seed", str(self.op_seed(i))]

    def check(self, i, res):
        self.check_stderr(res.err, self.op_seed(i))
        lines = res.out.splitlines()
        require(len(lines) == 16 * 5 + 1, f"expected 81 report lines, got {len(lines)}")
        ok_rows = unrendered_i = 0
        for block, p in enumerate(ref.LETTERS):
            for n in range(4):
                at = (4 * block + n) * 5
                key = _KEY_LINE.fullmatch(lines[at])
                require(key is not None and key.group(1, 2) == (p, str(n)),
                        f"line {at + 1} is not the key line for {p} {n}")
                signs = tuple(1 if s == "+" else -1 for s in key.group(3, 4, 5))
                require(signs == ref.table_signs(p, n),
                        f"signs for {p} {n} break the commutation law")
                pairs = set()
                for row in lines[at + 1 : at + 5]:
                    m = _CHECK_LINE.fullmatch(row)
                    require(m is not None, f"malformed check row {row!r}")
                    r1, r2 = int(m.group(1)), int(m.group(2))
                    pairs.add((r1, r2))
                    want = ref.CORRECTION[(r1, r2)]
                    realized = m.group(3)
                    if realized == "?" and want == "I":
                        unrendered_i += 1
                        realized = want
                    require(realized == want and m.group(4) == want and m.group(5) == "ok",
                            f"{p} {n} ({r1}, {r2}): {row.strip()}")
                    require(m.group(6) == "0.0625", f"branch probability {m.group(6)} is not 1/16")
                    require(float(m.group(7)) <= 1e-9, f"deficit {m.group(7)} above 1e-9")
                    ok_rows += 1
                require(len(pairs) == 4, f"{p} {n}: outcome pairs repeat")
        require(ok_rows == 64, f"{ok_rows} checks, expected 64")
        require(lines[-1] == f"table verification: PASS ({self.states} random states per key)",
                f"verdict line {lines[-1]!r}")
        if unrendered_i:
            raise KnownFault(f"{unrendered_i} rows render realized correction I as '?'",
                             4 * self.states)
        return 4 * self.states


WORKLOADS = {w.name: w for w in (SimulateWide, CompareNarrow, VerifyTable1)}


def check_table(mb, table):
    """The 48 signs of a loaded table obey the commutation law."""
    L = mb.pauli.PauliLetter
    for p in ref.LETTERS:
        for n in range(4):
            e = table[(L[p], n)]
            got = (e.m1.sign, e.m2_pos.sign, e.m2_neg.sign)
            require(got == ref.table_signs(p, n), f"table row {p} {n} signs {got}")
            words = tuple("".join(l.name for l in o.letters) for o in (e.m1, e.m2_pos, e.m2_neg))
            require(words == ("ZZ", "XX", "YX"), f"table row {p} {n} letters {words}")


def _check_branches(branches, closed_form, words, label):
    require(len(branches) == 16, f"{label}: {len(branches)} branches, expected 16")
    require({b.transcript for b in branches} == words, f"{label}: wrong outcome words")
    for b in branches:
        require(abs(b.branch_probability - 1 / 16) <= 1e-9,
                f"{label} {b.transcript}: probability {b.branch_probability!r}")
        fid = ref.fidelity(closed_form(b.transcript), b.post_state.amplitudes)
        require(fid >= FLOOR, f"{label} {b.transcript}: closed-form fidelity {fid!r}")


def check_gadget_branches(mb, seed, num_qubits=3):
    """Every branch of the three gadgets against its closed form."""
    rng = np.random.default_rng([seed, 9])
    amps = ref.input_amplitudes(seed, (9,), num_qubits)
    psi = amps.reshape((2,) * num_qubits)
    state = mb.numerics.StateVector(num_qubits, amps)
    g = mb.gadgets
    pairs = {(n, m) for n in range(4) for m in range(4)}
    for name in ("H", "T"):
        q = int(rng.integers(num_qubits))
        u = ref.GATES[name]
        _check_branches(g.one_qubit_branches(u, state, q),
                        lambda w: ref.one_qubit_branch_state(u, psi, q, w),
                        pairs, f"one_qubit_branches({name}, q={q})")
    c, t = (int(x) for x in rng.choice(num_qubits, size=2, replace=False))
    branches = g.cnot_branches(state, c, t)
    _check_branches(branches, lambda w: ref.cnot_branch_state(psi, c, t, w),
                    pairs, f"cnot_branches({c}, {t})")
    for b in branches:
        letters = "".join(l.name for l in b.byproduct.letters)
        require(letters == ref.cnot_byproduct(*b.transcript),
                f"cnot byproduct {letters} for word {b.transcript}")
    triples = {(n, r1, r2) for n in range(4) for r1 in (1, -1) for r2 in (1, -1)}
    for p in ref.LETTERS:
        q = int(rng.integers(num_qubits))
        twisted = ref.apply(psi, ref.PAULI[p], (q,)).reshape(-1)
        branches = g.adapted_t_branches(mb.numerics.StateVector(num_qubits, twisted), q,
                                        mb.pauli.PauliLetter[p])
        _check_branches(branches, lambda w: ref.adapted_t_branch_state(psi, q, w),
                        triples, f"adapted_t_branches(sigma_p={p}, q={q})")
        for b in branches:
            letter = b.byproduct.letters[0].name
            require(letter == ref.CORRECTION[b.transcript[1:]],
                    f"adapted-T correction {letter} for word {b.transcript}")
