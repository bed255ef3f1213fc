"""Outside-in tracing of mbqcsim's layers for the traced benchmark run.

The tracer wraps every public function and public method of the
package's modules (one module = one layer) and, while installed,
records one span per call: name, start, end and the span that caused
it.  It also counts ``StateVector`` constructions with their width
and bytes.  The program itself is not changed: wrappers are set on
the module and class attributes for the duration of one traced
operation and the originals are put back afterwards, so an untraced
operation runs the package's code unwrapped.

Spans stay in memory.  :meth:`Tracer.finish_op` folds the spans of
one operation into running totals, and :func:`layer_metrics` turns
the totals into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

PACKAGE = "mbqcsim"
LAYERS = ("numerics", "pauli", "measurement", "circuit", "gadgets", "engines", "cli")

SAMPLED_GADGETS = {
    "gadgets.one_qubit_gadget": ("one_qubit", 2),
    "gadgets.cnot_gadget": ("cnot", 2),
    "gadgets.adapted_t_gadget": ("adapted_t", 3),
}
GADGETS = set(SAMPLED_GADGETS) | {
    "gadgets.one_qubit_branches", "gadgets.cnot_branches", "gadgets.adapted_t_branches",
}
ENGINE_RUNS = {
    "engines.run_frame": "frame",
    "engines.run_nielsen": "nielsen",
    "engines.run_postponed": "postponed",
}
CHOOSE = "measurement.RandomSource.choose"
BRANCHES = "measurement.measurement_branches"
ENUMERATE = "measurement.enumerate_branches"
SINGLE_PATH = {"measurement.sample_plan", "measurement.measure_basis",
               "measurement.measure_observable"}
# spans whose result length is recorded: branches built / leaves kept
RECORD_LEN = {BRANCHES, ENUMERATE}

# span record fields
NAME, START, END, PARENT, LENGTH = range(5)


class Tracer:
    """Span recorder over the modules of the imported mbqcsim package."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.vectors = []  # (parent span, num_qubits, nbytes)
        self.totals = Counter()
        self.peak_width = 0
        self.ops = 0
        self.kept_spans = []  # raw spans of the first few operations
        self.problems = []
        self._replacements = {}  # id(original) -> wrapper
        self._class_patches = []  # (cls, attr, original raw, wrapped raw)
        self._site_patches = []  # (namespace dict, key, original)
        self._build()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, key, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        record_len = key in RECORD_LEN

        def wrapper(*args, **kwargs):
            rec = [key, 0, 0, stack[-1] if stack else -1, -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if record_len:
                rec[LENGTH] = len(result)
            return result

        return functools.wraps(fn)(wrapper)

    def _build(self):
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._replacements[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        self._count_vectors(importlib.import_module(f"{PACKAGE}.numerics").StateVector)

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            key = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(key, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(key, raw)
            else:
                continue
            self._class_patches.append((cls, attr, raw, wrapped))

    def _count_vectors(self, cls):
        original = cls.__init__
        vectors, stack = self.vectors, self.stack

        def __init__(self, *args, **kwargs):
            original(self, *args, **kwargs)
            vectors.append(
                (stack[-1] if stack else -1, self.num_qubits, self.amplitudes.nbytes)
            )

        self._class_patches.append((cls, "__init__", original, __init__))

    # -- install / uninstall --------------------------------------------------

    def install(self):
        """Route every reference to a public function through its wrapper."""
        if self._site_patches:
            raise RuntimeError("tracer already installed")
        for cls, attr, _, wrapped in self._class_patches:
            setattr(cls, attr, wrapped)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            self._patch_namespace(vars(mod))
            for value in list(vars(mod).values()):
                # dispatch tables such as engines.ENGINES hold references too
                if isinstance(value, dict):
                    self._patch_namespace(value)

    def _patch_namespace(self, ns):
        for key, value in list(ns.items()):
            wrapper = self._replacements.get(id(value))
            if wrapper is not None:
                self._site_patches.append((ns, key, value))
                ns[key] = wrapper

    def uninstall(self):
        for ns, key, original in reversed(self._site_patches):
            ns[key] = original
        self._site_patches.clear()
        for cls, attr, raw, _ in self._class_patches:
            setattr(cls, attr, raw)

    # -- folding one operation's spans into totals ----------------------------

    def finish_op(self, circuit_len, keep_raw):
        """Fold the spans of the operation just traced into the totals."""
        spans, vectors, tot = self.spans, self.vectors, self.totals
        if self.stack:
            self.problems.append("unbalanced span stack after an operation")
        n = len(spans)
        dur = [s[END] - s[START] for s in spans]
        child = [0] * n
        gadget = [-1] * n  # nearest gadget span at or above each span
        engine = [-1] * n  # nearest engine run at or above each span
        draws = Counter()
        measured = Counter()
        enum_children = Counter()
        for i, s in enumerate(spans):
            name, parent = s[NAME], s[PARENT]
            if parent >= 0:
                child[parent] += dur[i]
                gadget[i] = gadget[parent]
                engine[i] = engine[parent]
            if name in GADGETS:
                gadget[i] = i
            if name in ENGINE_RUNS:
                engine[i] = i
            if name == CHOOSE and gadget[i] >= 0:
                draws[gadget[i]] += 1
            if name == BRANCHES:
                if gadget[i] >= 0:
                    measured[gadget[i]] += 1
                tot["branches_built"] += s[LENGTH]
                pname = spans[parent][NAME] if parent >= 0 else None
                if pname in SINGLE_PATH:
                    tot["branches_kept"] += 1 if s[LENGTH] else 0
                elif pname == ENUMERATE:
                    enum_children[parent] += 1
                else:
                    tot["branches_kept"] += s[LENGTH]
        for i, s in enumerate(spans):
            name = s[NAME]
            layer = name.split(".", 1)[0]
            own = dur[i] - child[i]
            tot[f"self_ns.{layer}"] += own
            tot[f"calls.{name}"] += 1
            tot[f"ns.{name}"] += dur[i]
            if layer == "gadgets" and gadget[i] >= 0:
                tot["gadget_self_ns"] += own
            if name == ENUMERATE:
                # each kept inner node triggers one more measurement
                tot["branches_kept"] += enum_children[i] - 1 + s[LENGTH]
            if name in GADGETS:
                tot["gadget_calls"] += 1
                if engine[i] >= 0:
                    tot["engine_gadget_calls"] += 1
                    tot[f"gadget_calls.{ENGINE_RUNS[spans[engine[i]][NAME]]}"] += 1
            if name in SAMPLED_GADGETS:
                expected = SAMPLED_GADGETS[name][1]
                if draws[i] != expected or measured[i] != expected:
                    self.problems.append(
                        f"{name}: {draws[i]} draws and {measured[i]} measurements,"
                        f" expected {expected} each"
                    )
            if name in ENGINE_RUNS:
                tot["engine_runs"] += 1
                tot[f"gates.{ENGINE_RUNS[name]}"] += circuit_len
        for parent, width, nbytes in vectors:
            tot["vectors"] += 1
            tot["vector_bytes"] += nbytes
            if parent >= 0 and gadget[parent] >= 0:
                tot["gadget_vectors"] += 1
                self.peak_width = max(self.peak_width, width)
        self.ops += 1
        if keep_raw:
            self.kept_spans.append(list(spans))
        spans.clear()
        vectors.clear()


def _mean(tot, name, scale):
    calls = tot[f"calls.{name}"]
    return tot[f"ns.{name}"] / calls / scale if calls else 0.0


def layer_metrics(tracer):
    """Per-layer metrics from a tracer's totals; 0 where a layer is unused."""
    tot, ops = tracer.totals, max(tracer.ops, 1)
    us, ms = 1e3, 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "cli.self_ms_per_op": (tot["self_ns.cli"] / ops / ms, "ms"),
        "circuit.parse_circuit.us_per_call": (_mean(tot, "circuit.parse_circuit", us), "us"),
        "circuit.oracle_apply.ms_per_call": (_mean(tot, "circuit.oracle_apply", ms), "ms"),
        "circuit.circuit_unitary.ms_per_call": (_mean(tot, "circuit.circuit_unitary", ms), "ms"),
        "circuit.self_ms_per_op": (tot["self_ns.circuit"] / ops / ms, "ms"),
    }
    oracle = _mean(tot, "circuit.oracle_apply", ms)
    for span, engine in ENGINE_RUNS.items():
        run_ms = _mean(tot, span, ms)
        m[f"engines.{engine}.ms_per_run"] = (run_ms, "ms")
        m[f"engines.{engine}.oracle_ratio"] = (ratio(run_ms, oracle), "ratio")
    m["engines.self_ms_per_run"] = (ratio(tot["self_ns.engines"], tot["engine_runs"]) / ms, "ms")
    m["engines.gadget_calls"] = (ratio(tot["engine_gadget_calls"], tot["engine_runs"]), "count")
    m["engines.nielsen.useful_call_ratio"] = (
        ratio(tot["gates.nielsen"], tot["gadget_calls.nielsen"]), "ratio")
    for span, (short, _) in SAMPLED_GADGETS.items():
        m[f"gadgets.{short}.us_per_call"] = (_mean(tot, span, us), "us")
    m["gadgets.adapted_t_branches.us_per_call"] = (
        _mean(tot, "gadgets.adapted_t_branches", us), "us")
    m["gadgets.self_us_per_call"] = (ratio(tot["gadget_self_ns"], tot["gadget_calls"]) / us, "us")
    m["gadgets.peak_width_qubits"] = (tracer.peak_width, "count")
    m["gadgets.peak_state_bytes"] = (
        16 * 2**tracer.peak_width if tracer.peak_width else 0, "computed-B")
    m["measurement.measurement_branches.us_per_call"] = (_mean(tot, BRANCHES, us), "us")
    m["measurement.kept_post_state_ratio"] = (
        ratio(tot["branches_kept"], tot["branches_built"]), "ratio")
    m["measurement.u_basis.calls"] = (tot["calls.measurement.u_basis"] / ops, "count")
    m["measurement.self_ms_per_op"] = (tot["self_ns.measurement"] / ops / ms, "ms")
    m["numerics.statevector_new_per_gadget"] = (
        ratio(tot["gadget_vectors"], tot["gadget_calls"]), "count")
    for fn in ("apply_unitary", "factor_out", "reorder_qubits", "tensor"):
        m[f"numerics.{fn}.us_per_call"] = (_mean(tot, f"numerics.{fn}", us), "us")
    m["numerics.bytes_materialized"] = (tot["vector_bytes"] / ops, "computed-B/op")
    m["numerics.self_ms_per_op"] = (tot["self_ns.numerics"] / ops / ms, "ms")
    m["pauli.self_ms_per_op"] = (tot["self_ns.pauli"] / ops / ms, "ms")
    return m


def self_time_by_layer(tracer):
    """Milliseconds of self time per operation, for every layer."""
    ops = max(tracer.ops, 1)
    return {layer: tracer.totals[f"self_ns.{layer}"] / ops / 1e6 for layer in LAYERS}
