import pytest

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


def _small_alpha_config(**kw):
    # bound 4 and genus cap 15 restrict the heavy pipeline to (2,3,3,4)
    return RunConfig(bound=4, max_genus_for_heavy_checks=15, **kw)


def test_alpha_small_run():
    text, code = cmd_alpha(_small_alpha_config(check=True))
    assert code == 0
    rows = [line.split("\t") for line in text.strip().split("\n")[1:]]
    by_weights = {r[1]: r for r in rows}
    assert by_weights["(2,3,3,4)"][4:7] == ["6", "5", "5"]
    assert by_weights["(1,1,1,3)"][4] == "skipped: over budget"


def test_alpha_cold_and_cached_runs_identical(tmp_path):
    cold, code0 = cmd_alpha(_small_alpha_config(cache_dir=str(tmp_path)))
    warm, code1 = cmd_alpha(_small_alpha_config(cache_dir=str(tmp_path)))
    assert code0 == code1 == 0
    assert cold == warm
    nocache, _ = cmd_alpha(_small_alpha_config())
    assert nocache == cold


def test_cache_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GWPSKIT_CACHE", str(tmp_path))
    code = run(["alpha", "--bound", "4", "--max-genus", "15"])
    assert code == 0
    assert any(tmp_path.iterdir())


def test_partial_blocks_resume(tmp_path):
    cfg = _small_alpha_config(cache_dir=str(tmp_path))
    sp = weighted_space(2, 3, 3, 4)
    cache = cfg.cache()
    # seed a partial table with one solved shift, then complete the run
    from gwpskit.cli import compute_alpha
    from gwpskit.resolution import linear_syzygies
    from gwpskit.tangent import hom_dimension_minus1
    from gwpskit.toric import quadric_generators

    ideal = quadric_generators(sp)
    syz = linear_syzygies(ideal)
    hom = hom_dimension_minus1(ideal, syz)
    first_shift, first_dim = next(iter(sorted(hom.by_shift.items())))
    cache.append_partial_block(sp, first_shift, first_dim)
    rep = compute_alpha(sp, cfg)
    assert rep.alpha_S == 6
    assert not cache.partial_blocks_path(sp).exists()
    stored = cache_mod.blocks_from_text(sp, cache.load(sp, "blocks"))
    assert stored == hom.by_shift


def test_torn_partial_blocks_at_every_offset(tmp_path, pipeline_2334):
    """A .part file cut at any byte, as an interrupted append leaves it, still
    gives the reference alpha and the uncached block table."""
    sp = pipeline_2334["space"]
    by_shift = pipeline_2334["hom"].by_shift
    cfg = _small_alpha_config(cache_dir=str(tmp_path))
    cache = cfg.cache()
    compute_alpha(sp, cfg)  # caches the ideal and the syzygies
    cache.path_for(sp, "blocks").unlink()
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


@pytest.mark.parametrize("corrupt", ["flip", "unparsable", "stale"])
def test_corrupted_syzygy_cache_is_recomputed(tmp_path, pipeline_2334, corrupt):
    sp = pipeline_2334["space"]
    cfg = _small_alpha_config(cache_dir=str(tmp_path))
    cache = cfg.cache()
    compute_alpha(sp, cfg)
    cache.path_for(sp, "blocks").unlink()
    path = cache.path_for(sp, "syzygies", "asc")
    good = path.read_text()
    header, first, rest = good.split("\n", 2)
    if corrupt == "flip":
        i, k, c = first.split(" : ")[1].split()[0][1:-1].split(",")
        bad = first.replace(f"({i},{k},{c})", f"({i},{k},{-int(c)})", 1)
        text = "\n".join([header, bad, rest])
    elif corrupt == "unparsable":
        text = "\n".join([header, first.replace(" : ", " ; "), rest])
    else:
        text = "\n".join([header.replace("syzygies", "syzygy"), first, rest])
    path.write_text(text)
    assert compute_alpha(sp, cfg).alpha_S == 6
    assert cache_mod.blocks_from_text(sp, cache.load(sp, "blocks")) == pipeline_2334["hom"].by_shift
    assert path.read_text() == good


# -- cache round trips ---------------------------------------------------------


def test_slice_round_trip():
    from gwpskit.lattice import degree_slice

    sp = weighted_space(2, 3, 3, 4)
    sl = degree_slice(sp, 12)
    text = cache_mod.slice_to_text(sp, sl)
    back = cache_mod.slice_from_text(sp, 12, text)
    assert back == sl
    assert cache_mod.slice_to_text(sp, back) == text


def test_ideal_round_trip():
    from gwpskit.toric import quadric_generators

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


def test_stale_header_rejected():
    sp = weighted_space(2, 3, 3, 4)
    other = weighted_space(1, 1, 4, 6)
    from gwpskit.lattice import degree_slice

    text = cache_mod.slice_to_text(sp, degree_slice(sp, 12))
    with pytest.raises(cache_mod.CacheFormatError):
        cache_mod.slice_from_text(other, 12, text)
