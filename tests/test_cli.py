import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env
from gwpskit import cache as cache_mod
from gwpskit.cli import RunConfig, cmd_alpha, cmd_classify, load_expected, run
from gwpskit.toric import quadric_generators
from gwpskit.wps import weighted_space
from test_golden import golden


def test_classify_check_detects_mismatch(monkeypatch):
    import gwpskit.cli as cli

    expected = load_expected()
    expected[(2, 3, 3, 4)] = dict(expected[(2, 3, 3, 4)], K3=999)
    monkeypatch.setattr(cli, "load_expected", lambda: expected)
    _, code = cmd_classify(RunConfig(check=True))
    assert code == 1


@pytest.fixture
def without_1_6_14_21(monkeypatch):
    """The table commands see every space but (1,6,14,21)."""
    import gwpskit.cli as cli

    enumerate_all = cli.wps.enumerate_gorenstein
    last = weighted_space(1, 6, 14, 21)
    monkeypatch.setattr(cli.wps, "enumerate_gorenstein",
                        lambda *bound: [sp for sp in enumerate_all(*bound) if sp != last])


def test_classify_check_counts_spaces(capsys, without_1_6_14_21):
    assert run(["classify", "--check"]) == 1
    assert capsys.readouterr().err == "CHECK FAIL: expected 14 spaces, found 13\n"


@pytest.mark.parametrize("command", ["betti", "alpha"])
def test_table_check_counts_spaces(command, capsys, without_1_6_14_21):
    """betti --check and alpha --check, like classify --check, need all 14
    rows of the reference table."""
    assert run([command, "--check"]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("CHECK")] == [
        "CHECK FAIL: expected 14 spaces, found 13"
    ]


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


def test_run_entrypoint(capsys):
    code = run(["classify"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 15


@pytest.mark.parametrize("module", ["gwpskit", "gwpskit.cli"])
def test_python_dash_m_runs_the_cli(module):
    done = subprocess.run(
        [sys.executable, "-m", module, "classify", "--check"],
        env=src_env(), capture_output=True, timeout=120,
    )
    assert (done.stdout, done.stderr, done.returncode) == golden("classify-tsv")


@pytest.mark.parametrize("argv", [
    ["veronese", "1,1,4,6", "2", "--check"],
    ["veronese", "1,1,4,6", "2", "--format", "latex"],
    ["veronese", "1,1,4,6", "2", "--cache", "D"],
    ["veronese", "1,1,4,6", "2", "--prime", "7"],
    ["veronese", "1,1,4,6", "2", "--prime2", "7"],
    ["veronese", "1,1,4,6", "2", "--max-genus", "15"],
    ["classify", "--bound", "50"],
    ["classify", "--cache", "D"],
    ["classify", "--prime", "7"],
    ["classify", "--prime2", "7"],
    ["classify", "--max-genus", "15"],
    ["betti", "--bound", "50"],
    ["betti", "--cache", "D"],
    ["betti", "--prime", "7"],
    ["betti", "--prime2", "7"],
    ["betti", "--verify", "--all"],
    ["betti", "--max-genus", "15"],
    ["alpha", "--all"],
    ["alpha", "--bound", "50"],
    ["alpha", "--cache", "D"],
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


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(primes=(7, 7))
    with pytest.raises(ValueError):
        RunConfig(primes=(9, 11))
    with pytest.raises(ValueError):
        RunConfig(output_format="html")


@pytest.fixture
def only_2334(monkeypatch):
    """The table commands see (2,3,3,4), the smallest space, and the
    reference table holds its row alone."""
    import gwpskit.cli as cli

    monkeypatch.setattr(cli.wps, "enumerate_gorenstein", lambda *bound: [weighted_space(2, 3, 3, 4)])
    row = load_expected()[(2, 3, 3, 4)]
    monkeypatch.setattr(cli, "load_expected", lambda: {(2, 3, 3, 4): row})


def test_alpha_small_run(only_2334):
    text, code = cmd_alpha(RunConfig(check=True))
    assert code == 0
    rows = [line.split("\t") for line in text.strip().split("\n")[1:]]
    assert rows == [["1", "(2,3,3,4)", "4", "2", "6", "5", "5"]]


def test_alpha_ignores_the_cache_variable(tmp_path, monkeypatch, capsys, only_2334):
    """alpha reads no environment variable and writes no file: with
    GWPSKIT_CACHE set to the working directory, it prints the same table and
    leaves that directory empty."""
    assert run(["alpha"]) == 0
    plain = capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GWPSKIT_CACHE", str(tmp_path))
    assert run(["alpha"]) == 0
    assert capsys.readouterr() == plain
    assert not any(tmp_path.iterdir())


def test_betti_verify_failure_is_reported(monkeypatch, capsys, only_2334):
    import gwpskit.cli as cli

    witness = (17, 2, 0, 2)
    failed = cli.resolution.QuarticSyzygyReport(
        ok=False, witness=witness, blocks_checked=369, fallbacks=0
    )
    monkeypatch.setattr(cli.resolution, "quartic_check", lambda space: failed)
    code = run(["betti", "--verify", "--check"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[1].split("\t")[7:] == ["pass", "FAIL"]
    assert f"VERIFY FAIL: (2,3,3,4): quartic syzygy at {witness}" in err


def test_betti_verify_checks_the_h_vector(monkeypatch, capsys, only_2334):
    """`betti --verify` checks the h-vector (1, g-2, g-2, 1), which confines
    Tor_2 to degrees 3s to 5s: another stops it with one error line that
    names the space and the vector, exit 2 and no table."""
    import gwpskit.resolution as resolution

    monkeypatch.setattr(resolution.lattice, "h_vector", lambda space: (1, 11, 11, 2))
    assert run(["betti", "--verify", "--check"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: h-vector (1, 11, 11, 2) of (2,3,3,4) is not (1, g-2, g-2, 1) = (1, 11, 11, 1); "
        "reg A = 3 is not shown\n"
    )


def test_betti_verify_reads_no_syzygy_and_no_prime(monkeypatch, only_2334):
    """The quartic check ranks boundary maps of complexes: with the syzygy
    basis and every prime-field rank made to raise, `betti --verify --check`
    still passes."""
    import gwpskit.exactla as exactla
    import gwpskit.resolution as resolution

    def forbidden(*args, **kwargs):
        raise AssertionError("a syzygy or a prime field was used")

    for name in ("_dense_rank", "_sparse_rank", "rank_mod_p", "kernel_basis_mod_p",
                 "solution_dim", "certified_solution_dim"):
        monkeypatch.setattr(exactla, name, forbidden)
    for name in ("linear_syzygies", "_check_cancels", "_fundamental_cycles"):
        monkeypatch.setattr(resolution, name, forbidden)
    assert run(["betti", "--verify", "--check"]) == 0


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


def test_betti_consistency_failure_is_an_error(monkeypatch, capsys, only_2334):
    """A failed Betti cross-check stops `betti` with one error line that
    names the space, exit 2 and no table, like a disconnected cubic fiber."""
    import gwpskit.lattice as lattice

    count = lattice.count_points
    monkeypatch.setattr(lattice, "count_points",
                        lambda space, d: count(space, d) + (d == 24))
    assert run(["betti"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: beta1 mismatch for (2,3,3,4): counting 54, closed form 55, "
        "divisor complexes 55\n"
    )


@pytest.mark.parametrize("command, column, computed", [
    ("betti", "beta_2", 320),
    ("alpha", "alpha_S", 6),
])
def test_check_reports_a_wrong_reference_value(command, column, computed, monkeypatch, capsys,
                                               only_2334):
    import gwpskit.cli as cli

    row = dict(load_expected()[(2, 3, 3, 4)], **{column: computed + 1})
    monkeypatch.setattr(cli, "load_expected", lambda: {(2, 3, 3, 4): row})
    assert run([command, "--check"]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("CHECK")] == [
        f"CHECK FAIL: (2,3,3,4) column {column}: computed {computed}, reference {computed + 1}"
    ]


_BETTI = ["#", "weights", "g_1", "i_S", "g", "beta_1", "beta_2"]


def _betti_columns(r):
    return [r["g_1"], r["i_S"], r["g"], r["beta_1"], r["beta_2"]]


@pytest.mark.parametrize("argv, header, columns", [
    pytest.param(["betti"], _BETTI, _betti_columns, id="betti"),
    pytest.param(["betti", "--verify"], _BETTI + ["deg3_generation", "quartic_syzygies"],
                 lambda r: _betti_columns(r) + ["pass", "pass"], id="betti --verify"),
    pytest.param(["alpha"], ["#", "weights", "g_1", "i_S", "alpha_S", "alpha_P", "extendability"],
                 lambda r: [r["g_1"], r["i_S"], r["alpha_S"], r["alpha_S"] - 1, r["alpha_S"] - 1],
                 id="alpha"),
])
def test_no_command_builds_the_quadric_ideal(argv, header, columns, monkeypatch, capsys):
    """`betti` reads beta_1, `betti --verify` its quartic check and `alpha`
    its shifts and its derivation check off the divisor complexes: with the
    quadric generators and the pair sums made to raise, each prints the
    reference rows and CHECK OK."""
    import gwpskit.cli as cli
    import gwpskit.lattice as lattice
    import gwpskit.toric as toric

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{' '.join(argv)} built the quadric generators")

    monkeypatch.setattr(toric, "quadric_generators", forbidden)
    monkeypatch.setattr(lattice, "pair_sums", forbidden)
    assert run([*argv, "--check"]) == 0
    out, err = capsys.readouterr()
    rows = sorted(load_expected().items(), key=lambda item: item[1]["row"])
    assert out == "".join("\t".join(map(str, line)) + "\n" for line in [header] + [
        [r["row"], f"({','.join(map(str, w))})", *columns(r)] for w, r in rows
    ])
    note = f"note: {cli.tangent.ASSUMPTION_NOTE}\n" if argv[0] == "alpha" else ""
    assert err == note + "CHECK OK (14 rows verified)\n"


def test_torn_partial_blocks_at_every_offset(tmp_path, pipeline_2334):
    """A .part file cut at any byte, as an interrupted append leaves it, reads
    as a part of the block table, and whole it reads as all its records."""
    sp = pipeline_2334["space"]
    by_shift = pipeline_2334["hom"].by_shift
    cache = cache_mod.Cache(tmp_path)
    appended = {shift: by_shift[shift] for shift in sorted(by_shift)[:2]}
    for shift, dim in appended.items():
        cache.append_partial_block(sp, shift, dim)
    part = cache.partial_blocks_path(sp)
    data = part.read_bytes()
    for cut in range(len(data) + 1):
        part.write_bytes(data[:cut])
        assert cache.load_partial_blocks(sp).items() <= appended.items()
    assert cache.load_partial_blocks(sp) == appended


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
    """Another run may delete the .part table between any two steps: a table
    that goes just before it is read, or just before its torn last line is
    cut off, reads as empty."""
    cache = cache_mod.Cache(tmp_path)
    sp = weighted_space(2, 3, 3, 4)
    part = cache.partial_blocks_path(sp)
    deleted = []

    def delete_first(call):
        def racing(path, *args, **kwargs):
            Path(path).unlink()
            deleted.append(call.__name__)
            return call(path, *args, **kwargs)
        return racing

    cache.append_partial_block(sp, (-8, 0, 0, 1), 0)
    with monkeypatch.context() as patch:
        patch.setattr(Path, "read_text", delete_first(Path.read_text))
        assert cache.load_partial_blocks(sp) == {}
    cache.append_partial_block(sp, (-8, 0, 0, 1), 0)
    part.write_text(part.read_text() + "blk -8 0")
    with monkeypatch.context() as patch:
        patch.setattr(cache_mod.os, "truncate", delete_first(cache_mod.os.truncate))
        assert cache.load_partial_blocks(sp) == {}
    assert deleted == ["read_text", "truncate"]
    assert not part.exists()


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


def test_block_record_with_a_wrong_dimension_fails_the_sum(pipeline_2334):
    sp = pipeline_2334["space"]
    good = cache_mod.blocks_to_text(sp, pipeline_2334["hom"].by_shift)
    assert "\nblk -8 0 0 1 0\n" in good
    edited = good.replace("\nblk -8 0 0 1 0\n", "\nblk -8 0 0 1 3\n")
    with pytest.raises(cache_mod.CacheFormatError, match="sum"):
        cache_mod.blocks_from_text(sp, edited)


def test_block_table_without_a_sum_is_rejected(pipeline_2334):
    sp = pipeline_2334["space"]
    good = cache_mod.blocks_to_text(sp, pipeline_2334["hom"].by_shift)
    with pytest.raises(cache_mod.CacheFormatError, match="sum"):
        cache_mod.blocks_from_text(sp, good[: good.rindex("sum ")])


def test_stale_header_rejected(pipeline_2334):
    sp = pipeline_2334["space"]
    other = weighted_space(1, 1, 4, 6)
    text = cache_mod.blocks_to_text(sp, pipeline_2334["hom"].by_shift)
    with pytest.raises(cache_mod.CacheFormatError):
        cache_mod.blocks_from_text(other, text)
