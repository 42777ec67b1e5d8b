"""The table commands' transcripts, byte for byte.

tests/golden/ holds the stdout and stderr of `classify`, `betti`,
`betti --verify` and `alpha`, each with `--check`, in every format, and
exit_codes.tsv their exit codes.  After a deliberate change to an output,
regenerate them from the repository root with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gwpskit.cli import FORMATS, run

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = {"classify": ["classify"], "betti": ["betti"],
            "betti-verify": ["betti", "--verify"], "alpha": ["alpha"]}
CASES = {f"{name}-{fmt}": [*argv, "--check", "--format", fmt]
         for name, argv in COMMANDS.items() for fmt in FORMATS}


def transcript(argv) -> tuple[bytes, bytes, int]:
    """stdout, stderr and exit code of one `cli.run`."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return out.getvalue().encode(), err.getvalue().encode(), code


def exit_codes() -> dict[str, int]:
    lines = (GOLDEN / "exit_codes.tsv").read_text().splitlines()
    return {case: int(code) for case, code in (line.split("\t") for line in lines)}


@pytest.mark.parametrize("case", CASES)
def test_table_command_transcript(case):
    out, err, code = transcript(CASES[case])
    assert out == (GOLDEN / f"{case}.stdout").read_bytes()
    assert err == (GOLDEN / f"{case}.stderr").read_bytes()
    assert code == exit_codes()[case]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = []
    for case, argv in CASES.items():
        out, err, code = transcript(argv)
        (GOLDEN / f"{case}.stdout").write_bytes(out)
        (GOLDEN / f"{case}.stderr").write_bytes(err)
        codes.append(f"{case}\t{code}\n")
    (GOLDEN / "exit_codes.tsv").write_text("".join(codes))
