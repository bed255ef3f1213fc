"""Golden seeded outputs: every subcommand, byte for byte.

Each case runs the CLI in-process with a fixed seed and compares its
stdout with the file committed under ``tests/golden/``.  A refactor
that keeps seeded behaviour keeps these files; a change that alters
them on purpose regenerates them and says why:

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

from mbqcsim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
NARROW = str(GOLDEN / "narrow.mbqc")
WIDE = str(GOLDEN / "wide.mbqc")

CASES = {
    "simulate-nielsen": ["simulate", "--circuit", NARROW, "--engine", "nielsen",
                         "--input", "random", "--trials", "2", "--seed", "11"],
    "simulate-postponed": ["simulate", "--circuit", NARROW, "--engine", "postponed",
                           "--input", "random", "--trials", "2", "--seed", "11"],
    "simulate-frame-apply": ["simulate", "--circuit", NARROW, "--engine", "frame",
                             "--finalize", "apply", "--input", "random",
                             "--trials", "2", "--seed", "11"],
    "simulate-frame-report": ["simulate", "--circuit", NARROW, "--engine", "frame",
                              "--finalize", "report", "--input", "random",
                              "--trials", "2", "--seed", "11"],
    "simulate-frame-wide": ["simulate", "--circuit", WIDE, "--engine", "frame",
                            "--input", "random", "--trials", "1", "--seed", "12"],
    "compare": ["compare", "--circuit", NARROW, "--trials", "3", "--seed", "13"],
    "stats": ["stats", "--trials", "200", "--seed", "14"],
    "verify-table1": ["verify-table1", "--states", "2", "--seed", "15"],
}


def golden_path(name):
    return GOLDEN / f"{name}.out"


def run_case(name, capsys):
    code = main(CASES[name])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys):
    code, out = run_case(name, capsys)
    assert code == 0
    assert out == golden_path(name).read_text(encoding="utf-8")


def test_every_case_keeps_its_bytes_with_a_cold_and_a_warm_memo(capsys):
    from mbqcsim import gadgets

    # first each case on an empty memo of word operators, then all of
    # them again on the memo the first pass filled
    for warm in (False, True):
        for name in sorted(CASES):
            if not warm:
                gadgets._OPERATORS.clear()
            code, out = run_case(name, capsys)
            assert code == 0
            assert out == golden_path(name).read_text(encoding="utf-8"), (name, warm)


if __name__ == "__main__":
    import contextlib
    import io

    for name, argv in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        golden_path(name).write_text(buf.getvalue(), encoding="utf-8")
        print(f"wrote {golden_path(name).name}", file=sys.stderr)
