import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env
from gwpskit import cache as cache_mod
from gwpskit.cli import (
    RunConfig,
    cmd_alpha,
    cmd_betti,
    cmd_classify,
    cmd_veronese,
    compute_alpha,
    load_expected,
    run,
)
from gwpskit.resolution import linear_syzygies
from gwpskit.tangent import hom_dimension_minus1
from gwpskit.toric import quadric_generators
from gwpskit.wps import weighted_space


def test_classify_default_rows():
    text, code = cmd_classify(RunConfig())
    assert code == 0
    lines = text.strip().split("\n")
    assert len(lines) == 15  # header + 14 rows
    assert lines[0].split("\t") == ["#", "weights", "-K^3", "m", "s", "i_S", "g_1"]
    assert lines[9].split("\t") == ["9", "(2,3,3,4)", "24", "12", "12", "2", "4"]


def test_classify_bound_three():
    text, code = cmd_classify(RunConfig(bound=3))
    assert code == 0
    assert len(text.strip().split("\n")) == 4


def test_classify_check_passes():
    _, code = cmd_classify(RunConfig(check=True))
    assert code == 0


def test_classify_check_detects_mismatch(monkeypatch):
    import gwpskit.cli as cli

    expected = load_expected()
    expected[(2, 3, 3, 4)] = dict(expected[(2, 3, 3, 4)], K3=999)
    monkeypatch.setattr(cli, "load_expected", lambda: expected)
    _, code = cmd_classify(RunConfig(check=True))
    assert code == 1


def test_classify_check_counts_spaces(monkeypatch, capsys):
    import gwpskit.cli as cli

    enumerate_all = cli.wps.enumerate_gorenstein
    last = weighted_space(1, 6, 14, 21)
    monkeypatch.setattr(
        cli.wps, "enumerate_gorenstein", lambda bound: [sp for sp in enumerate_all(bound) if sp != last]
    )
    assert run(["classify", "--check"]) == 1
    assert capsys.readouterr().err == "CHECK FAIL: expected 14 spaces, found 13\n"


def test_classify_check_reports_an_unexpected_space(monkeypatch, capsys):
    import gwpskit.cli as cli

    expected = load_expected()
    del expected[(2, 3, 3, 4)]
    monkeypatch.setattr(cli, "load_expected", lambda: expected)
    assert run(["classify", "--check"]) == 1
    assert capsys.readouterr().err == (
        "CHECK FAIL: expected 13 spaces, found 14\n"
        "CHECK FAIL: unexpected space (2,3,3,4)\n"
    )


def test_classify_deterministic():
    a, _ = cmd_classify(RunConfig())
    b, _ = cmd_classify(RunConfig())
    assert a == b


def test_betti_rows():
    text, code = cmd_betti(RunConfig())
    assert code == 0
    rows = [line.split("\t") for line in text.strip().split("\n")[1:]]
    by_weights = {r[1]: r for r in rows}
    assert by_weights["(1,3,8,12)"][4:7] == ["25", "253", "3520"]
    assert by_weights["(1,6,14,21)"][4:7] == ["22", "190", "2261"]
    from math import comb

    for r in rows:
        g = int(r[4])
        assert int(r[5]) == comb(g - 2, 2)


def test_betti_check():
    _, code = cmd_betti(RunConfig(check=True))
    assert code == 0


def test_markdown_and_latex_formats():
    md, _ = cmd_classify(RunConfig(bound=3, output_format="markdown"))
    assert md.startswith("| # | weights |")
    assert md.count("\n") == 5
    tex, _ = cmd_classify(RunConfig(bound=3, output_format="latex"))
    assert tex.startswith("\\begin{tabular}")
    assert "\\end{tabular}" in tex


def test_tsv_contract():
    text, _ = cmd_classify(RunConfig(bound=3))
    lines = text.splitlines()
    assert all("\t" in line for line in lines)
    assert lines[0].startswith("#\t")


def test_veronese_command_lines():
    line, code = cmd_veronese(weighted_space(1, 1, 4, 6), 2, 4)
    assert code == 0 and line.strip() == "(1,1,1,2,3); relations: [2]"
    line, _ = cmd_veronese(weighted_space(1, 1, 2, 4), 2, 2)
    assert line.strip() == "(1,1,1,1,2); relations: [2]"
    line, _ = cmd_veronese(weighted_space(1, 1, 1, 1), 1, 3)
    assert line.strip() == "(1,1,1,1); relations: []"
    line, _ = cmd_veronese(weighted_space(1, 2, 2, 5), 2, 2)
    assert "may be missing" in line


def test_run_entrypoint(capsys):
    code = run(["classify", "--bound", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 4


@pytest.mark.parametrize("module", ["gwpskit", "gwpskit.cli"])
def test_python_dash_m_runs_the_cli(module):
    done = subprocess.run(
        [sys.executable, "-m", module, "classify", "--check"],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 15  # header + 14 rows
    assert "CHECK OK (14 rows verified)" in done.stderr


@pytest.mark.parametrize("argv", [
    ["veronese", "1,1,4,6", "2", "--check"],
    ["veronese", "1,1,4,6", "2", "--format", "latex"],
    ["veronese", "1,1,4,6", "2", "--cache", "D"],
    ["veronese", "1,1,4,6", "2", "--prime", "7"],
    ["veronese", "1,1,4,6", "2", "--prime2", "7"],
    ["veronese", "1,1,4,6", "2", "--max-genus", "15"],
    ["classify", "--cache", "D"],
    ["classify", "--prime", "7"],
    ["classify", "--prime2", "7"],
    ["classify", "--max-genus", "15"],
    ["betti", "--cache", "D"],
    ["betti", "--verify", "--all"],
    ["betti", "--max-genus", "15"],
    ["alpha", "--all"],
    ["alpha", "--max-genus", "15"],
    ["alpha", "--prime", "7"],
    ["alpha", "--prime2", "7"],
], ids=" ".join)
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_run_rejects_bad_weights(capsys):
    assert run(["veronese", "2,4,6,8", "2"]) == 2
    assert "coprime" in capsys.readouterr().err


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(primes=(7, 7))
    with pytest.raises(ValueError):
        RunConfig(primes=(9, 11))
    with pytest.raises(ValueError):
        RunConfig(output_format="html")


@pytest.fixture
def only_2334(monkeypatch):
    """The table commands see (2,3,3,4), the smallest space, whatever the
    bound."""
    import gwpskit.cli as cli

    monkeypatch.setattr(cli.wps, "enumerate_gorenstein", lambda bound: [weighted_space(2, 3, 3, 4)])


def test_alpha_small_run(only_2334):
    text, code = cmd_alpha(RunConfig(check=True))
    assert code == 0
    rows = [line.split("\t") for line in text.strip().split("\n")[1:]]
    assert rows == [["1", "(2,3,3,4)", "4", "2", "6", "5", "5"]]


def test_alpha_cold_and_cached_runs_identical(tmp_path, only_2334):
    cold, code0 = cmd_alpha(RunConfig(cache_dir=str(tmp_path)))
    warm, code1 = cmd_alpha(RunConfig(cache_dir=str(tmp_path)))
    assert code0 == code1 == 0
    assert cold == warm
    nocache, _ = cmd_alpha(RunConfig())
    assert nocache == cold


def test_cache_env_override(tmp_path, monkeypatch, capsys, only_2334):
    monkeypatch.setenv("GWPSKIT_CACHE", str(tmp_path))
    code = run(["alpha"])
    assert code == 0
    assert any(tmp_path.iterdir())


def test_betti_verify_failure_is_reported(monkeypatch, capsys, only_2334):
    import gwpskit.cli as cli

    witness = (17, 2, 0, 2)
    failed = cli.resolution.QuarticSyzygyReport(
        ok=False, witness=witness, blocks_checked=334, fallbacks=0
    )
    monkeypatch.setattr(cli.resolution, "check_no_quartic_syzygies", lambda *a, **kw: failed)
    code = run(["betti", "--verify", "--check"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[1].split("\t")[7:] == ["pass", "FAIL"]
    assert f"VERIFY FAIL: (2,3,3,4): quartic syzygy at {witness}" in err


def test_betti_disconnected_cubic_fiber_is_an_error(monkeypatch, capsys, only_2334):
    import gwpskit.cli as cli

    witness = (7, 2, 0, 4)
    disconnected = cli.toric.ConnectivityReport(
        connected=False, witness=witness, fibers_checked=174, components_at_witness=2
    )
    monkeypatch.setattr(cli.toric, "check_degree3_generation", lambda space: disconnected)
    assert run(["betti", "--verify", "--check"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: degree-3 generation check failed (witness {witness}); "
        "beta2 counting formula is not applicable\n"
    )


@pytest.mark.parametrize("command, column, computed", [
    ("betti", "beta_2", 320),
    ("alpha", "alpha_S", 6),
])
def test_check_reports_a_wrong_reference_value(command, column, computed, monkeypatch, capsys,
                                               only_2334):
    import gwpskit.cli as cli

    expected = load_expected()
    expected[(2, 3, 3, 4)] = dict(expected[(2, 3, 3, 4)], **{column: computed + 1})
    monkeypatch.setattr(cli, "load_expected", lambda: expected)
    assert run([command, "--check"]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("CHECK")] == [
        f"CHECK FAIL: (2,3,3,4) column {column}: computed {computed}, reference {computed + 1}"
    ]


def test_betti_verify_builds_each_ideal_once(monkeypatch, only_2334):
    import gwpskit.cli as cli

    calls = []
    build = cli.toric.quadric_generators

    def counted(space, *args, **kwargs):
        calls.append(space)
        return build(space, *args, **kwargs)

    monkeypatch.setattr(cli.toric, "quadric_generators", counted)
    _, code = cmd_betti(RunConfig(verify=True, check=True))
    assert code == 0
    assert calls == [weighted_space(2, 3, 3, 4)]


def test_leftover_partial_blocks_are_ignored_and_removed(tmp_path, pipeline_2334):
    """A .part table that an interrupted older run left, here with a wrong
    dimension, does not change the result, and the run removes it."""
    sp = pipeline_2334["space"]
    by_shift = pipeline_2334["hom"].by_shift
    cfg = RunConfig(cache_dir=str(tmp_path))
    cache = cfg.cache()
    first_shift, first_dim = min(by_shift.items())
    cache.append_partial_block(sp, first_shift, first_dim + 1)
    rep = compute_alpha(sp, cfg)
    assert rep.alpha_S == 6
    assert not cache.partial_blocks_path(sp).exists()
    stored = cache_mod.blocks_from_text(sp, cache.load(sp, "blocks"))
    assert stored == by_shift


def test_torn_partial_blocks_at_every_offset(tmp_path, pipeline_2334):
    """A .part file cut at any byte, as an interrupted append leaves it, still
    gives the reference alpha and the uncached block table."""
    sp = pipeline_2334["space"]
    by_shift = pipeline_2334["hom"].by_shift
    cfg = RunConfig(cache_dir=str(tmp_path))
    cache = cfg.cache()
    for shift in sorted(by_shift)[:2]:
        cache.append_partial_block(sp, shift, by_shift[shift])
    part = cache.partial_blocks_path(sp)
    data = part.read_bytes()
    for cut in range(len(data) + 1):
        part.write_bytes(data[:cut])
        known = cache.load_partial_blocks(sp)
        assert known.items() <= by_shift.items()
        assert compute_alpha(sp, cfg).alpha_S == 6
        assert not part.exists()
        final = cache.path_for(sp, "blocks")
        assert cache_mod.blocks_from_text(sp, final.read_text()) == by_shift
        final.unlink()


def test_append_after_torn_line_starts_a_new_line(tmp_path):
    cache = cache_mod.Cache(tmp_path)
    sp = weighted_space(2, 3, 3, 4)
    cache.append_partial_block(sp, (-8, 0, 0, 1), 0)
    part = cache.partial_blocks_path(sp)
    part.write_text(part.read_text() + "blk -8 0")
    assert cache.load_partial_blocks(sp) == {(-8, 0, 0, 1): 0}
    cache.append_partial_block(sp, (-8, 0, 4, -2), 1)
    assert cache.load_partial_blocks(sp) == {(-8, 0, 0, 1): 0, (-8, 0, 4, -2): 1}


def test_partial_table_deleted_by_another_run(tmp_path, monkeypatch):
    """Another run's finalize_blocks may delete the .part table between any
    two steps; a table seen as present and then gone reads as empty."""
    cache = cache_mod.Cache(tmp_path)
    sp = weighted_space(2, 3, 3, 4)
    part = cache.partial_blocks_path(sp)
    exists = Path.exists
    monkeypatch.setattr(Path, "exists", lambda self: self == part or exists(self))
    assert cache.load_partial_blocks(sp) == {}
    cache.finalize_blocks(sp, {(-8, 0, 0, 1): 0})
    assert cache_mod.blocks_from_text(sp, cache.load(sp, "blocks")) == {(-8, 0, 0, 1): 0}


def test_two_runs_share_one_cache(tmp_path):
    # Bound 1 selects (1,1,1,1) only.
    cmd = [sys.executable, "-m", "gwpskit", "alpha", "--bound", "1", "--check",
           "--cache", str(tmp_path)]
    procs = [
        subprocess.Popen(cmd, env=src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
        for _ in range(2)
    ]
    outs = [proc.communicate(timeout=300) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], [err for _, err in outs]
    assert outs[0][0] == outs[1][0]
    sp = weighted_space(1, 1, 1, 1)
    ideal = quadric_generators(sp)
    uncached = hom_dimension_minus1(ideal, linear_syzygies(ideal)).by_shift
    cache = cache_mod.Cache(tmp_path)
    assert list(tmp_path.iterdir()) == [cache.path_for(sp, "blocks")]
    assert cache_mod.blocks_from_text(sp, cache.load(sp, "blocks")) == uncached


def test_store_uses_unique_temp_files(tmp_path):
    cache = cache_mod.Cache(tmp_path)
    sp = weighted_space(2, 3, 3, 4)
    path = cache.path_for(sp, "blocks")
    stray = path.with_suffix(".tmp")
    stray.write_text("another writer's entry\n")
    assert cache.store(sp, "blocks", "first\n") == path
    cache.store(sp, "blocks", "second\n")
    assert path.read_text() == "second\n"
    assert stray.read_text() == "another writer's entry\n"
    assert sorted(tmp_path.iterdir()) == sorted([path, stray])


def _alpha_cli_with_cache(tmp_path) -> int:
    return run(["alpha", "--check", "--cache", str(tmp_path)])


@pytest.mark.parametrize("corrupt", ["stale", "unparsable"])
def test_corrupted_block_table_is_recomputed(tmp_path, pipeline_2334, corrupt, capsys, only_2334):
    sp = pipeline_2334["space"]
    cache = cache_mod.Cache(tmp_path)
    assert _alpha_cli_with_cache(tmp_path) == 0
    path = cache.path_for(sp, "blocks")
    good = path.read_text()
    header, first, rest = good.split("\n", 2)
    if corrupt == "stale":
        header = header.replace(" blocks ", " block ")
    else:
        first = "blk 1 2"
    path.write_text("\n".join([header, first, rest]))
    assert _alpha_cli_with_cache(tmp_path) == 0
    assert path.read_text() == good


def test_block_table_missing_a_shift_is_recomputed(tmp_path, pipeline_2334, only_2334):
    """A cached table that parses but lacks a shift is recomputed and
    rewritten, not summed short."""
    sp = pipeline_2334["space"]
    assert _alpha_cli_with_cache(tmp_path) == 0
    path = cache_mod.Cache(tmp_path).path_for(sp, "blocks")
    good = path.read_text()
    path.write_text("".join(line for line in good.splitlines(True) if " 0 -2 -2 0 " not in line))
    assert path.read_text() != good
    assert _alpha_cli_with_cache(tmp_path) == 0
    assert path.read_text() == good


def test_block_table_with_a_wrong_dimension_is_recomputed(tmp_path, only_2334, capsys):
    """A record edited to a wrong dimension no longer matches the table's sum
    line: the run recomputes, prints the reference alpha_S and rewrites the
    table."""
    assert _alpha_cli_with_cache(tmp_path) == 0
    path = cache_mod.Cache(tmp_path).path_for(weighted_space(2, 3, 3, 4), "blocks")
    good = path.read_text()
    assert good.splitlines()[-1].startswith("sum ")
    assert "\nblk -8 0 0 1 0\n" in good
    path.write_text(good.replace("\nblk -8 0 0 1 0\n", "\nblk -8 0 0 1 3\n"))
    capsys.readouterr()
    assert _alpha_cli_with_cache(tmp_path) == 0
    row = capsys.readouterr().out.strip().split("\n")[1].split("\t")
    assert row[1:5] == ["(2,3,3,4)", "4", "2", "6"]
    assert path.read_text() == good


def test_block_table_without_a_sum_is_recomputed(tmp_path, only_2334):
    """A table without the sum line, as versions before it wrote them, is
    recomputed and rewritten with it."""
    assert _alpha_cli_with_cache(tmp_path) == 0
    path = cache_mod.Cache(tmp_path).path_for(weighted_space(2, 3, 3, 4), "blocks")
    good = path.read_text()
    path.write_text(good[: good.rindex("sum ")])
    assert _alpha_cli_with_cache(tmp_path) == 0
    assert path.read_text() == good


def test_alpha_runs_no_elimination(monkeypatch, only_2334):
    """alpha reads T^1 off Altmann's formula: with every rank function of
    exactla, the syzygy basis and the shift blocks made to raise, `alpha
    --check` still passes."""
    import gwpskit.exactla as exactla
    import gwpskit.resolution as resolution
    import gwpskit.tangent as tangent

    def forbidden(*args, **kwargs):
        raise AssertionError("the elimination route was called")

    for name in ("_dense_rank", "_dense_rref", "_sparse_rank", "rank_mod_p", "rank_gf2",
                 "kernel_basis_mod_p", "solution_dim", "certified_solution_dim"):
        monkeypatch.setattr(exactla, name, forbidden)
    for owner, name in ((resolution, "linear_syzygies"), (tangent, "linear_syzygies"),
                        (tangent, "hom_dimension_minus1"), (tangent, "build_block")):
        monkeypatch.setattr(owner, name, forbidden)
    assert run(["alpha", "--check"]) == 0


def test_unparsable_partial_block_table_is_discarded(tmp_path):
    cache = cache_mod.Cache(tmp_path)
    sp = weighted_space(2, 3, 3, 4)
    cache.append_partial_block(sp, (-8, 0, 0, 1), 0)
    part = cache.partial_blocks_path(sp)
    part.write_text(part.read_text() + "blk -8 0 x 1 0\n")
    assert cache.load_partial_blocks(sp) == {}
    assert not part.exists()


def test_ideal_from_text_rejects_bad_generators():
    sp = weighted_space(2, 3, 3, 4)
    header = cache_mod.ideal_to_text(quadric_generators(sp)).split("\n", 1)[0]
    for record in ("gen 999 0 1 2", "gen -1 0 1 2", "gen 0 0 0 1", "gen 0 1"):
        with pytest.raises(cache_mod.CacheFormatError):
            cache_mod.ideal_from_text(sp, f"{header}\n{record}\n")


# -- cache round trips ---------------------------------------------------------


def test_ideal_round_trip():
    sp = weighted_space(2, 3, 3, 4)
    ideal = quadric_generators(sp)
    text = cache_mod.ideal_to_text(ideal)
    back = cache_mod.ideal_from_text(sp, text)
    assert back.generators == ideal.generators
    assert back.fibers == ideal.fibers
    assert cache_mod.ideal_to_text(back) == text


def test_syzygies_round_trip(pipeline_2334):
    sp = pipeline_2334["space"]
    syz = pipeline_2334["syzygies"]
    text = cache_mod.syzygies_to_text(sp, syz, "asc")
    back = cache_mod.syzygies_from_text(sp, text, "asc")
    assert back.total_count == syz.total_count
    assert back.by_multidegree == syz.by_multidegree
    assert cache_mod.syzygies_to_text(sp, back, "asc") == text


def test_blocks_round_trip(pipeline_2334):
    sp = pipeline_2334["space"]
    table = pipeline_2334["hom"].by_shift
    text = cache_mod.blocks_to_text(sp, table)
    back = cache_mod.blocks_from_text(sp, text)
    assert back == table
    assert cache_mod.blocks_to_text(sp, back) == text


def test_stale_header_rejected(pipeline_2334):
    sp = pipeline_2334["space"]
    other = weighted_space(1, 1, 4, 6)
    text = cache_mod.blocks_to_text(sp, pipeline_2334["hom"].by_shift)
    with pytest.raises(cache_mod.CacheFormatError):
        cache_mod.blocks_from_text(other, text)
