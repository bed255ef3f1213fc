"""Command-line interface: exit codes, formats, determinism."""

import io
import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from mbqcsim.cli import main
from mbqcsim.gadgets import GadgetOutcome
from mbqcsim.pauli import PauliLetter, PauliOperator

EXAMPLE = "qubits 2\nCNOT 0 1\nH 0\n"
TABLE_TEXT = resources.files("mbqcsim").joinpath("data/table1.txt").read_text(
    encoding="utf-8"
)


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "example.mbqc"
    path.write_text(EXAMPLE, encoding="utf-8")
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_emits_json_lines(circuit_file, capsys):
    code, out, err = run_cli(
        ["simulate", "--circuit", circuit_file, "--seed", "7", "--trials", "3"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    for trial, line in enumerate(lines):
        payload = json.loads(line)
        assert payload["trial"] == trial
        assert payload["version"] == "1"
        assert payload["engine"] == "frame"
        assert payload["num_qubits"] == 2
        assert payload["fidelity_vs_oracle"] >= 1.0 - 1e-9
        assert payload["final_frame"] is None
    assert "# seed 7" in err
    assert "# min fidelity" in err


def test_simulate_same_seed_same_bytes(circuit_file, capsys):
    args = ["simulate", "--circuit", circuit_file, "--seed", "21",
            "--engine", "nielsen", "--input", "random", "--trials", "2"]
    code_a, out_a, _ = run_cli(args, capsys)
    code_b, out_b, _ = run_cli(args, capsys)
    assert code_a == code_b == 0
    assert out_a == out_b


@pytest.mark.parametrize("engine", ["nielsen", "postponed", "frame"])
def test_simulate_every_engine(circuit_file, engine, capsys):
    code, out, _ = run_cli(
        ["simulate", "--circuit", circuit_file, "--engine", engine,
         "--seed", "3"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["engine"] == engine


def test_simulate_finalize_report_carries_frame(circuit_file, capsys):
    code, out, _ = run_cli(
        ["simulate", "--circuit", circuit_file, "--seed", "5",
         "--finalize", "report"],
        capsys,
    )
    assert code == 0
    frame = json.loads(out.strip())["final_frame"]
    assert set(frame) == {"phase_exp", "letters"}
    assert len(frame["letters"]) == 2
    assert all(c in "IXYZ" for c in frame["letters"])


@pytest.mark.parametrize("engine", ["nielsen", "postponed"])
@pytest.mark.parametrize("mode", ["apply", "report"])
def test_finalize_needs_the_frame_engine(engine, mode, circuit_file, capsys):
    code, out, err = run_cli(
        ["simulate", "--circuit", circuit_file, "--engine", engine,
         "--finalize", mode, "--seed", "1"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == f"error: --finalize applies to the frame engine only, not {engine!r}\n"


def test_simulate_explicit_input_bits(circuit_file, capsys):
    code, _, _ = run_cli(
        ["simulate", "--circuit", circuit_file, "--input", "10", "--seed", "2"],
        capsys,
    )
    assert code == 0


def test_simulate_rejects_bad_input_spec(circuit_file, capsys):
    code, _, err = run_cli(
        ["simulate", "--circuit", circuit_file, "--input", "012", "--seed", "2"],
        capsys,
    )
    assert code == 2
    assert "error:" in err


def test_simulate_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(EXAMPLE))
    code, out, _ = run_cli(["simulate", "--circuit", "-", "--seed", "1"], capsys)
    assert code == 0
    assert json.loads(out.strip())["num_qubits"] == 2


def test_simulate_writes_out_file(circuit_file, tmp_path, capsys):
    target = tmp_path / "runs.jsonl"
    code, out, err = run_cli(
        ["simulate", "--circuit", circuit_file, "--seed", "4",
         "--out", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text().strip())["trial"] == 0
    assert "# min fidelity" in err


def test_simulate_parse_error_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.mbqc"
    bad.write_text("qubits 2\nSWAP 0 1\n", encoding="utf-8")
    code, _, err = run_cli(
        ["simulate", "--circuit", str(bad), "--seed", "1"], capsys
    )
    assert code == 2
    assert "error: unknown gate 'SWAP' at line 2" in err


def test_simulate_missing_file(capsys):
    code, _, err = run_cli(
        ["simulate", "--circuit", "/nonexistent/x.mbqc", "--seed", "1"], capsys
    )
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------


def test_seed_env_fallback(circuit_file, monkeypatch, capsys):
    monkeypatch.setenv("MBQC_SEED", "21")
    code, via_env, err = run_cli(
        ["simulate", "--circuit", circuit_file], capsys
    )
    assert code == 0
    assert "# seed 21" in err
    assert "(auto)" not in err
    monkeypatch.delenv("MBQC_SEED")
    _, via_flag, _ = run_cli(
        ["simulate", "--circuit", circuit_file, "--seed", "21"], capsys
    )
    assert via_env == via_flag


def test_seed_env_must_be_integer(circuit_file, monkeypatch, capsys):
    monkeypatch.setenv("MBQC_SEED", "not-a-number")
    code, out, err = run_cli(["simulate", "--circuit", circuit_file], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: MBQC_SEED is not an integer: 'not-a-number'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stats", "--trials", "0"], "--trials must be at least 1, got 0"),
        (["stats", "--max-k", "-1"], "--max-k must be at least 0, got -1"),
        (["simulate", "--trials", "-1"], "--trials must be at least 1, got -1"),
        (["compare", "--trials", "0"], "--trials must be at least 1, got 0"),
        (["verify-table1", "--states", "0"], "--states must be at least 1, got 0"),
        (["stats", "--max-k", "201"], "--max-k must be at most 200, got 201"),
        (
            ["stats", "--max-k", "100000000"],
            "--max-k must be at most 200, got 100000000",
        ),
    ],
)
def test_bad_counts_exit_2_with_one_line(argv, message, circuit_file, capsys):
    if argv[0] in ("simulate", "compare"):
        argv = [*argv, "--circuit", circuit_file]
    code, out, err = run_cli([*argv, "--seed", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_retry_limit_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    from mbqcsim import engines

    def never_clean(u, s, q, rng):
        return GadgetOutcome(s, PauliOperator(0, (PauliLetter.X,)), (0, 1), 1 / 16)

    monkeypatch.setattr(engines, "one_qubit_gadget", never_clean)
    path = tmp_path / "h.mbqc"
    path.write_text("qubits 1\nH 0\n", encoding="utf-8")
    code, out, err = run_cli(
        ["simulate", "--circuit", str(path), "--engine", "nielsen",
         "--seed", "1"],
        capsys,
    )
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert lines[0] == "# seed 1"
    assert lines[1:] == [
        "error: retry loop on qubit 0 found no clean outcome in 200 attempts;"
        " last word (0, 1)"
    ]


@pytest.mark.parametrize(
    "raised, message",
    [
        (
            MemoryError("Unable to allocate 16.0 TiB for an array"),
            "Unable to allocate 16.0 TiB for an array",
        ),
        (MemoryError(), "out of memory"),
    ],
)
def test_register_too_wide_to_allocate_exits_2(
    raised, message, tmp_path, monkeypatch, capsys
):
    from mbqcsim import cli

    def no_memory(bits):
        assert len(bits) == 40
        raise raised

    # stands in for the allocation of 2**40 amplitudes, never made here
    monkeypatch.setattr(cli, "basis_state", no_memory)
    path = tmp_path / "wide.mbqc"
    path.write_text("qubits 40\nH 0\n", encoding="utf-8")
    code, out, err = run_cli(
        ["simulate", "--circuit", str(path), "--seed", "1"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["# seed 1", f"error: {message}"]


def test_auto_seed_announced(circuit_file, monkeypatch, capsys):
    monkeypatch.delenv("MBQC_SEED", raising=False)
    code, _, err = run_cli(["simulate", "--circuit", circuit_file], capsys)
    assert code == 0
    assert "(auto)" in err


# ---------------------------------------------------------------------------
# verify-table1
# ---------------------------------------------------------------------------


def test_verify_table1_passes(capsys):
    code, out, _ = run_cli(
        ["verify-table1", "--states", "2", "--seed", "0"], capsys
    )
    assert code == 0
    assert "table verification: PASS (2 random states per key)" in out
    assert "sigma_p=Z n=3" in out


def test_verify_table1_renders_realized_identity(capsys):
    code, out, _ = run_cli(
        ["verify-table1", "--states", "2", "--seed", "0"], capsys
    )
    assert code == 0
    assert out.count(" -> I  expected I  ok") == 16
    assert "?" not in out


def test_verify_table1_fails_on_corrupted_file(tmp_path, capsys):
    corrupted = tmp_path / "table.txt"
    corrupted.write_text(
        TABLE_TEXT.replace("X 2 + - -", "X 2 - - -"), encoding="utf-8"
    )
    code, out, _ = run_cli(
        ["verify-table1", "--table", str(corrupted), "--states", "2",
         "--seed", "0"],
        capsys,
    )
    assert code == 1
    assert "table verification: FAIL" in out
    assert "MISMATCH" in out
    # the offending key is named
    bad_block = out.split("sigma_p=X n=2")[1].split("sigma_p=")[0]
    assert "MISMATCH" in bad_block


def test_verify_table1_unreadable_file(capsys):
    code, _, err = run_cli(
        ["verify-table1", "--table", "/nonexistent/table.txt"], capsys
    )
    assert code == 2
    assert "error:" in err


def test_verify_table1_out_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run_cli(
        ["verify-table1", "--states", "2", "--seed", "1", "--out", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert "table verification: PASS" in target.read_text()


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def test_stats_csv_shape(capsys):
    code, out, err = run_cli(
        ["stats", "--trials", "400", "--max-k", "3", "--seed", "5"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# seed 5"
    assert lines[1] == "# trials 400"
    assert lines[2].startswith("# total_attempts ")
    assert lines[3].startswith("# success_rate ")
    assert lines[4].startswith("# mean_attempts ")
    assert lines[5] == "k,empirical_tail,model_tail,stderr"
    data = [line.split(",") for line in lines[6:]]
    assert [row[0] for row in data] == ["0", "1", "2", "3"]
    assert [row[2] for row in data] == [
        "1.000000",
        "0.750000",
        "0.562500",
        "0.421875",
    ]
    # empirical tail at k=0 is every loop
    assert data[0][1] == "1.000000"


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_csv(circuit_file, capsys):
    code, out, _ = run_cli(
        ["compare", "--circuit", circuit_file, "--trials", "2", "--seed", "3"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "engine,circuit_len,trial,gadget_calls,corrective_calls,fidelity"
    assert len(lines) == 1 + 2 * 3
    for line in lines[1:]:
        engine, clen, trial, calls, fixes, fid = line.split(",")
        assert engine in ("nielsen", "postponed", "frame")
        assert clen == "2"
        assert trial in ("0", "1")
        if engine != "nielsen":
            assert calls == "2" and fixes == "0"
        assert float(fid) >= 1.0 - 1e-9


@pytest.fixture
def seven_qubit_file(tmp_path):
    lines = ["qubits 7"]
    lines += [f"H {q}" for q in range(7)]
    lines += [f"CNOT {q} {q + 1}" for q in range(6)]
    lines += ["T 0", "T 6", "CNOT 6 0", "H 3"]
    path = tmp_path / "seven.mbqc"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_compare_runs_a_seven_qubit_register(seven_qubit_file, capsys):
    code, out, err = run_cli(
        ["compare", "--circuit", seven_qubit_file, "--trials", "1", "--seed", "8"],
        capsys,
    )
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["nielsen", "postponed", "frame"]
    assert all(float(r[5]) >= 1.0 - 1e-9 for r in rows)


def test_simulate_postponed_runs_a_seven_qubit_register(seven_qubit_file, capsys):
    code, out, err = run_cli(
        ["simulate", "--circuit", seven_qubit_file, "--engine", "postponed",
         "--input", "random", "--seed", "9"],
        capsys,
    )
    assert code == 0, err
    payload = json.loads(out.strip())
    assert payload["num_qubits"] == 7
    assert payload["total_gadget_calls"] == 17
    assert payload["corrective_gadget_calls"] == 0
    assert payload["fidelity_vs_oracle"] >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def test_module_entry_point(tmp_path):
    path = tmp_path / "c.mbqc"
    path.write_text(EXAMPLE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "mbqcsim", "simulate", "--circuit", str(path),
         "--seed", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.strip())["engine"] == "frame"


def test_unknown_subcommand_exits_with_usage(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--circuit", "-", "--trials", "abc"],
     "argument --trials: invalid int value: 'abc'"),
    (["simulate", "--circuit", "-", "--engine", "foo"],
     "argument --engine: invalid choice: 'foo'"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    (["simulate"], "the following arguments are required: --circuit"),
], ids=["trials", "engine", "subcommand", "circuit"])
def test_usage_errors_exit_2_with_one_line(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # the parser is built once per process: a failed parse must leave
    # nothing behind for the runs after it
    from mbqcsim import cli

    def rebuilt():
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    golden = Path(__file__).resolve().parent / "golden"
    with pytest.raises(SystemExit):
        main(["simulate", "--circuit", "-", "--trials", "abc"])
    capsys.readouterr()
    runs = {
        "simulate-frame-report.out": [
            "simulate", "--circuit", str(golden / "narrow.mbqc"), "--engine",
            "frame", "--finalize", "report", "--input", "random", "--trials", "2",
            "--seed", "11"],
        "stats.out": ["stats", "--trials", "200", "--seed", "14"],
    }
    for name, argv in runs.items():
        assert main(argv) == 0
        assert capsys.readouterr().out == (golden / name).read_text(encoding="utf-8")
