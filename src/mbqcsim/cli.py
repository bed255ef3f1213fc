"""Command-line front end.

Subcommands:

* ``simulate``: run a circuit file through an engine, one JSON object
  per trial on stdout.
* ``verify-table1``: exhaustively check the adapted-T measurement
  table (optionally a user-supplied table file) and print the report.
* ``stats``: sample retry-loop attempt counts and emit a CSV of
  empirical vs model tail probabilities.
* ``compare``: run every engine on the same circuit and inputs and
  emit a per-run cost CSV.

Exit codes: 0 success, 1 verification or fidelity failure, 2 bad
usage, unreadable input, a register too wide to allocate, or a retry
loop that hit its attempt cap; each exit 2 prints one ``error:`` line.
Seeds come from --seed, else the MBQC_SEED environment variable, else
fresh entropy; the chosen seed is always echoed to stderr so any run
can be replayed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import secrets
import sys

import numpy as np

from .circuit import parse_circuit
from .engines import (
    ENGINE_NAMES,
    ENGINES,
    MAX_LOOP_ATTEMPTS,
    RetryLimitExceeded,
    compare_costs,
    sample_attempt_counts,
    termination_tail,
)
from .gadgets import load_table1, verify_table1
from .measurement import RandomSource
from .numerics import basis_state, random_state

FIDELITY_GATE = 1.0 - 1e-9


def _seed(value):
    """Seed from the flag, MBQC_SEED, or fresh entropy; echoed to stderr."""
    auto = False
    if value is None:
        env = os.environ.get("MBQC_SEED")
        if env is None:
            value, auto = secrets.randbits(32), True
        else:
            try:
                value = int(env)
            except ValueError:
                raise ValueError(f"MBQC_SEED is not an integer: {env!r}") from None
    print(f"# seed {value}{' (auto)' if auto else ''}", file=sys.stderr)
    return value


def _read_circuit(path):
    if path == "-":
        return parse_circuit(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_circuit(fh.read())


def _input_state(spec, num_qubits, gen):
    """Initial register from an --input spec.

    ``None`` means |0...0>; ``random`` draws a fresh state from the
    trial's input substream; anything else must be a bit string of
    the register width.
    """
    if spec is None:
        return basis_state("0" * num_qubits)
    if spec == "random":
        return random_state(num_qubits, gen)
    if len(spec) != num_qubits or any(c not in "01" for c in spec):
        raise ValueError(
            f"--input must be 'random' or {num_qubits} bits, got {spec!r}"
        )
    return basis_state(spec)


@contextlib.contextmanager
def _output(path):
    """stdout, or the --out file (closed afterwards)."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _cmd_simulate(args):
    opts = {}
    if args.finalize is not None:
        if args.engine != "frame":
            raise ValueError(
                f"--finalize applies to the frame engine only, not {args.engine!r}"
            )
        opts["finalize"] = args.finalize
    circuit = _read_circuit(args.circuit)
    src = RandomSource(_seed(args.seed))
    worst = 1.0
    with _output(args.out) as out:
        for trial in range(args.trials):
            sub = src.substream(trial)
            state = _input_state(
                args.input, circuit.num_qubits, sub.substream(0).gen
            )
            report = ENGINES[args.engine](circuit, state, sub.substream(1), **opts)
            payload = {"trial": trial}
            payload.update(report.to_json_dict())
            print(json.dumps(payload), file=out)
            worst = min(worst, report.fidelity_vs_oracle)
    print(f"# min fidelity {worst:.12f}", file=sys.stderr)
    return 0 if worst >= FIDELITY_GATE else 1


def _cmd_verify_table1(args):
    seed = _seed(args.seed)
    table = load_table1(args.table) if args.table else None
    report = verify_table1(table=table, states_per_key=args.states, seed=seed)
    with _output(args.out) as out:
        out.write(report.render())
    return 0 if report.ok else 1


def _cmd_stats(args):
    seed = _seed(args.seed)
    counts = sample_attempt_counts(args.trials, RandomSource(seed))
    total = int(counts.sum())
    lines = [
        f"# seed {seed}",
        f"# trials {args.trials}",
        f"# total_attempts {total}",
        f"# success_rate {args.trials / total:.6f}",
        f"# mean_attempts {total / args.trials:.6f}",
        "k,empirical_tail,model_tail,stderr",
    ]
    for k in range(args.max_k + 1):
        tail = termination_tail(k)
        empirical = float(np.mean(counts > k))
        err = np.sqrt(tail * (1.0 - tail) / args.trials)
        lines.append(f"{k},{empirical:.6f},{tail:.6f},{err:.6f}")
    with _output(args.out) as out:
        out.write("\n".join(lines) + "\n")
    return 0


def _cmd_compare(args):
    circuit = _read_circuit(args.circuit)
    rows = compare_costs(circuit, args.trials, _seed(args.seed))
    with _output(args.out) as out:
        print(
            "engine,circuit_len,trial,gadget_calls,corrective_calls,fidelity",
            file=out,
        )
        for trial, r in rows:
            print(
                f"{r.engine},{len(circuit)},{trial},{r.total_gadget_calls},"
                f"{r.corrective_gadget_calls},{r.fidelity_vs_oracle:.12f}",
                file=out,
            )
    return 0 if all(r.fidelity_vs_oracle >= FIDELITY_GATE for _, r in rows) else 1


#: smallest and largest accepted value of each counting option; every
#: retry loop stops by MAX_LOOP_ATTEMPTS, so a tail row past it would
#: only print 0, and a huge --max-k would burn time and memory on them
_BOUNDS = {
    "trials": (1, math.inf),
    "states": (1, math.inf),
    "max_k": (0, MAX_LOOP_ATTEMPTS),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mbqcsim",
        description="Measurement-based simulation of unitary circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a circuit through an engine")
    sim.add_argument("--circuit", required=True, help="circuit file, or - for stdin")
    sim.add_argument("--engine", choices=ENGINE_NAMES, default="frame")
    sim.add_argument(
        "--input",
        default=None,
        help="initial register: bit string or 'random' (default all zeros)",
    )
    sim.add_argument("--trials", type=int, default=1)
    sim.add_argument(
        "--finalize",
        choices=("apply", "report"),
        default=None,
        help="frame engine only: apply the frame or report it raw (default apply)",
    )
    sim.set_defaults(func=_cmd_simulate)

    ver = sub.add_parser(
        "verify-table1", help="check the adapted-T measurement table"
    )
    ver.add_argument("--table", default=None, help="table file (default: packaged)")
    ver.add_argument("--states", type=int, default=20, help="random states per key")
    ver.set_defaults(func=_cmd_verify_table1)

    st = sub.add_parser("stats", help="retry-loop attempt statistics as CSV")
    st.add_argument("--trials", type=int, default=10000)
    st.add_argument(
        "--max-k",
        type=int,
        default=10,
        help=f"largest tail cutoff, at most {MAX_LOOP_ATTEMPTS}",
    )
    st.set_defaults(func=_cmd_stats)

    cmp_ = sub.add_parser("compare", help="per-engine gadget-cost CSV")
    cmp_.add_argument("--circuit", required=True)
    cmp_.add_argument("--trials", type=int, default=20)
    cmp_.set_defaults(func=_cmd_compare)

    # every subcommand takes a seed and writes to stdout or --out
    for cmd in (sim, ver, st, cmp_):
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--out", default=None, help="write output to a file")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        for name, (low, high) in _BOUNDS.items():
            value = getattr(args, name, low)
            flag = "--" + name.replace("_", "-")
            if value < low:
                raise ValueError(f"{flag} must be at least {low}, got {value}")
            if value > high:
                raise ValueError(f"{flag} must be at most {high}, got {value}")
        return args.func(args)
    except (ValueError, OSError, RetryLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the allocation that failed; a bare one says nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
