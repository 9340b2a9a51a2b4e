"""Pinned reproduction output.

``tests/data/reproduce_scale0.05.txt`` is the rendered output of
``python -m repro reproduce --scale 0.05 --no-store``: every figure,
table, ablation and extension sweep. Any change to the simulator, the
experiments or the rendering that moves a single number shows up here
as a diff. A refactor or deletion that claims to change nothing must
keep this test passing with the file untouched; a change that means to
move the numbers regenerates the file with the command above and says
why.
"""

from __future__ import annotations

from pathlib import Path

from repro.cli import main

GOLDEN = Path(__file__).parent / "data" / "reproduce_scale0.05.txt"


def test_reproduce_output_is_byte_identical_to_golden(capsys):
    assert main(["reproduce", "--scale", "0.05", "--no-store"]) == 0
    out = capsys.readouterr().out
    golden = GOLDEN.read_text()
    if out != golden:
        got, want = out.splitlines(), golden.splitlines()
        first = next(
            (i for i, (a, b) in enumerate(zip(got, want)) if a != b),
            min(len(got), len(want)),
        )
        raise AssertionError(
            f"reproduce output differs from {GOLDEN.name} at line {first + 1}:\n"
            f"  got:  {got[first] if first < len(got) else '<end of output>'}\n"
            f"  want: {want[first] if first < len(want) else '<end of file>'}"
        )
