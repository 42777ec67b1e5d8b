"""Every CLI and demo output, byte for byte.

tests/golden/ holds the stdout and stderr of `classify`, `betti`,
`betti --verify` and `alpha`, each with `--check`, in every format, of the
`veronese` calls below, and of each script in demos/, run as its own
process; exit_codes.tsv holds their exit codes.  After a deliberate change
to an output, regenerate them from the repository root with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from conftest import REPO_ROOT, src_env
from gwpskit import exactla, lattice, resolution, tangent, toric
from gwpskit.cli import FORMATS, run

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = {"classify": ["classify"], "betti": ["betti"],
            "betti-verify": ["betti", "--verify"], "alpha": ["alpha"]}
VERONESE = [["veronese", "1,1,4,6", "2", "--cutoff", "4"],
            ["veronese", "1,1,2,4", "2", "--cutoff", "2"],
            ["veronese", "1,1,1,1", "1", "--cutoff", "3"],
            ["veronese", "1,2,2,5", "2", "--cutoff", "2"],
            ["veronese", "2,4,6,8", "2"]]
# A case is a `cli.run` argv or a demo script.
CASES = {
    **{f"{name}-{fmt}": [*argv, "--check", "--format", fmt]
       for name, argv in COMMANDS.items() for fmt in FORMATS},
    **{"-".join(arg.lstrip("-") for arg in argv): argv for argv in VERONESE},
    **{f"demo-{demo.stem}": demo for demo in sorted((REPO_ROOT / "demos").glob("*.py"))},
}


def transcript(case) -> tuple[bytes, bytes, int]:
    """stdout, stderr and exit code of one `cli.run`, or of one demo run as
    its own process."""
    if isinstance(case, Path):
        done = subprocess.run([sys.executable, str(case)], env=src_env(),
                              capture_output=True, timeout=300)
        return done.stdout, done.stderr, done.returncode
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(case)
    return out.getvalue().encode(), err.getvalue().encode(), code


def exit_codes() -> dict[str, int]:
    lines = (GOLDEN / "exit_codes.tsv").read_text().splitlines()
    return {case: int(code) for case, code in (line.split("\t") for line in lines)}


def golden(case: str) -> tuple[bytes, bytes, int]:
    """The pinned stdout, stderr and exit code of a case."""
    return ((GOLDEN / f"{case}.stdout").read_bytes(), (GOLDEN / f"{case}.stderr").read_bytes(),
            exit_codes()[case])


@pytest.mark.parametrize("case", CASES)
def test_table_command_transcript(case):
    assert transcript(CASES[case]) == golden(case)


def test_golden_holds_only_current_cases():
    """A renamed or deleted case leaves no transcript that no test reads."""
    assert sorted(exit_codes()) == sorted(CASES)
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(
        ["exit_codes.tsv", *(f"{case}.{stream}" for case in CASES for stream in ("stdout", "stderr"))]
    )


@pytest.mark.parametrize("name", ["betti", "betti-verify", "alpha"],
                         ids=lambda name: " ".join(COMMANDS[name]))
def test_commands_stay_off_the_reference_route(name, monkeypatch):
    """No command takes the paper's route: the quadric generators, the cubic
    syzygy basis, the Hom(I, A) shift blocks and the prime-field ranks.
    With all of it made to raise, and the GF(2) rank too except under
    `--verify`, each command prints its tsv transcript on all 14 spaces."""
    argv = COMMANDS[name]

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{' '.join(argv)} took the reference route")

    route = {toric: ["quadric_generators"], lattice: ["pair_sums"],
             exactla: ["_dense_rank", "_dense_rref", "_sparse_rank", "rank_mod_p",
                       "kernel_basis_mod_p", "solution_dim", "certified_solution_dim"],
             resolution: ["linear_syzygies", "_check_cancels", "_fundamental_cycles"],
             tangent: ["linear_syzygies", "hom_dimension_minus1", "build_block"]}
    if name != "betti-verify":
        route[exactla].append("rank_gf2")
    for owner, attrs in route.items():
        for attr in attrs:
            monkeypatch.setattr(owner, attr, forbidden)
    assert transcript([*argv, "--check"]) == golden(f"{name}-tsv")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = []
    for case in CASES:
        out, err, code = transcript(CASES[case])
        (GOLDEN / f"{case}.stdout").write_bytes(out)
        (GOLDEN / f"{case}.stderr").write_bytes(err)
        codes.append(f"{case}\t{code}\n")
    (GOLDEN / "exit_codes.tsv").write_text("".join(codes))
