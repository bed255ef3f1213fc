#!/usr/bin/env python3
"""Layered benchmark of mbqcsim, run from the root of a checkout.

    python3 benchmarks/bench.py --workload simulate-wide --seed 1 \
        --seconds 15 --trace 0

One client, closed loop: operations run one after another in this
process, each an in-process call of ``mbqcsim.cli.main``.  The run
issues operations until their summed wall time reaches ``--seconds``;
every output is checked outside the timed region.  With ``--trace 0``
the last stdout line holds the end-to-end metrics; with ``--trace 1``
each operation runs once untraced and once traced, the two outputs
must be byte-identical, and the last line holds the per-layer metrics
(raw spans go to ``benchmarks/out/``).  End-to-end timings are scaled
to the host's speed at the time (see :func:`kernel_ms`).  See README.md
in this directory for the workloads and the metric-to-layer map.
"""

import os

# one BLAS thread, set before numpy loads, so a 2-CPU box measures the
# program and not the scheduler
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import reference as ref  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("simulate-wide", "compare-narrow", "verify-table1")
SETUP_PROBES = 5  # fresh interpreters timed per run for setup_s
RAW_SPAN_OPS = 3  # traced operations whose raw spans are written out
PROBE_TIMEOUT_S = 120

# On a shared host the same work runs up to 1.6x slower for seconds to
# minutes at a time, and CPU time slows with it.  End-to-end timings
# are therefore scaled by a fixed kernel timed next to the work:
# t * KERNEL_REF_MS / kernel time, i.e. milliseconds at the speed at
# which the kernel takes KERNEL_REF_MS (its time on the README's
# machine when the host is quiet).
KERNEL_REF_MS = 3.6


def _kernel_input(num_qubits, rounds):
    gates = []
    for r in range(rounds):
        q = r % num_qubits
        gates += [("H", (q,)), ("T", (q,)), ("CNOT", (q, (q + 1) % num_qubits))]
    return ref.input_amplitudes(0, (0,), num_qubits), num_qubits, gates


# a narrow register through many gates (per-call overhead) and a wide
# one through a few (array work): the two sides of the workloads
KERNEL = (_kernel_input(6, 100), _kernel_input(15, 2))


def kernel_ms():
    """Wall time of the speed kernel: the reference einsum, no mbqcsim."""
    start = time.perf_counter()
    for amps, num_qubits, gates in KERNEL:
        ref.evolve(amps, num_qubits, gates)
    return (time.perf_counter() - start) * 1e3


def load_package():
    """Import mbqcsim from this checkout's src/, never from elsewhere."""
    if not (SRC / "mbqcsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no mbqcsim package under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    mods = {layer: importlib.import_module(f"mbqcsim.{layer}")
            for layer in ("numerics", "pauli", "measurement", "circuit",
                          "gadgets", "engines", "cli")}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "mbqcsim":
        raise SystemExit(f"error: mbqcsim imported from {mods['cli'].__file__}")
    return SimpleNamespace(**mods)


def run_op(mb, argv):
    """One operation: the CLI in-process, stdout and stderr captured.

    Garbage left by earlier checks is collected first, outside the
    timed region, so it does not land in this operation's time.  The
    speed kernel runs right before and right after the operation;
    ``scale`` turns its wall time into kernel-scaled time.
    """
    gc.collect()
    before = kernel_ms()
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = mb.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an operation that raises counts as failed
            rc, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
    scale = KERNEL_REF_MS / ((before + kernel_ms()) / 2)
    return SimpleNamespace(rc=rc, out=out.getvalue(), err=err.getvalue(),
                           seconds=seconds, scale=scale, error=error)


def run_traced(mb, tracer, argv):
    """One operation with every public function of the package wrapped."""
    tracer.install()
    try:
        return run_op(mb, argv)
    finally:
        tracer.uninstall()


def setup(name, seed, workdir):
    """Import, write the circuit files, load the table, warm up once."""
    mb = load_package()
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, workdir, mb)
    workloads.check_table(mb, mb.gadgets.load_table1())
    run_op(mb, workload.argv(-1))  # warm-up; its outcome shows in the timed operations
    return mb, workload


def probe_setup(name, seed):
    """Seconds from starting a fresh interpreter to the end of its setup.

    The probe times the speed kernel once it is ready; the result is
    scaled by it like an operation's time.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - start
            kernel = proc.communicate(timeout=PROBE_TIMEOUT_S)[0]
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return seconds * KERNEL_REF_MS / float(kernel)


def measure(mb, workload, seconds, tracer, problems):
    """Issue operations until their summed wall time reaches ``seconds``.

    An operation fails when the CLI raises or exits non-zero, or when
    its output shows a known fault (workloads.KnownFault).  Every
    operation is timed, failed or not.
    """
    times, scaled, traced_times, rates = [], [], [], []
    attempted = failed = 0
    i = 0
    while sum(times) + sum(traced_times) < seconds:
        argv = workload.argv(i)
        traced = None
        if tracer is not None and i % 2:
            # odd rounds trace first, so running second favours neither side
            traced = run_traced(mb, tracer, argv)
        res = run_op(mb, argv)
        if tracer is not None and traced is None:
            traced = run_traced(mb, tracer, argv)
        attempted += 1
        times.append(res.seconds)
        scaled.append(res.seconds * res.scale)
        calls = 0
        ok = res.rc == 0
        if not ok:
            if failed == 0:
                print(f"# op {i} failed (rc={res.rc}): {res.error or res.err}", file=sys.stderr)
        else:
            try:
                calls = workload.check(i, res)
            except workloads.KnownFault as exc:
                ok = False
                calls = exc.calls
                if failed == 0:
                    print(f"# op {i} failed by a known fault: {exc}", file=sys.stderr)
            except workloads.CheckError as exc:
                problems.append(f"op {i}: {exc}")
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                problems.append(f"op {i}: malformed output: {exc!r}")
        rates.append(calls / scaled[-1])
        failed += not ok
        if tracer is not None:
            tracer.finish_op(workload.circuit_len, keep_raw=i < RAW_SPAN_OPS)
            attempted += 1
            traced_times.append(traced.seconds)
            failed += not ok or traced.rc != 0
            if (traced.rc, traced.out, traced.err) != (res.rc, res.out, res.err):
                problems.append(f"op {i}: traced output differs from untraced output")
        i += 1
    return SimpleNamespace(times=times, scaled=scaled, traced_times=traced_times, rates=rates,
                           attempted=attempted, failed=failed)


def end_to_end(run, setup_samples):
    ms = [t * 1e3 for t in run.scaled]
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (p90, "ms"),
        "gadget_calls_per_s": (statistics.median(run.rates), "calls/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def write_trace(tracer, args, run, metrics):
    names = sorted({s[0] for op in tracer.kept_spans for s in op})
    index = {n: k for k, n in enumerate(names)}
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "traced_ops": tracer.ops,
        "untraced_op_ms": [t * 1e3 for t in run.times],
        "traced_op_ms": [t * 1e3 for t in run.traced_times],
        "self_ms_per_op": tracing.self_time_by_layer(tracer),
        "counts": dict(sorted(tracer.totals.items())),
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "span_fields": ["op", "name", "start_ns", "end_ns", "parent"],
        "span_names": names,
        "spans": [[op, index[s[0]], s[1], s[2], s[3]]
                  for op, spans in enumerate(tracer.kept_spans) for s in spans],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (times setup_s)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    workdir = OUT / f"run-{os.getpid()}"
    problems = []
    try:
        mb, workload = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            kernel_ms()  # warm
            print(kernel_ms())
            return 0
        tracer = tracing.Tracer() if args.trace else None
        run = measure(mb, workload, args.seconds, tracer, problems)
        try:
            workload.finish()
            workloads.check_gadget_branches(mb, args.seed)
        except workloads.CheckError as exc:
            problems.append(str(exc))
        if tracer is None:
            samples = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = end_to_end(run, samples)
        print(f"# unscaled wall op_ms_p50 {statistics.median(run.times) * 1e3:.6g} ms, "
              f"median scale {statistics.median(s / t for s, t in zip(run.scaled, run.times)):.4f}",
              file=sys.stderr)
    else:
        problems.extend(tracer.problems)
        metrics = tracing.layer_metrics(tracer)
        # each traced operation directly follows its untraced twin
        pairs = [t - u for t, u in zip(run.traced_times, run.times)]
        metrics["trace.overhead_ms_per_op"] = (statistics.median(pairs) * 1e3, "ms")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    if tracer is not None:
        path = write_trace(tracer, args, run, metrics)
        print(f"# spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    for p in problems:
        print(f"# CHECK FAILED: {p}", file=sys.stderr)
    for k, v in metrics.items():
        print(f"# {k:44s} {v['value']:14.6g} {v['unit']}", file=sys.stderr)
    result = {"correct": not problems,
              "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
