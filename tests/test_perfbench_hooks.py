"""The traced benchmark (perfbench/) wraps gwpskit functions by name and binds
their parameters by name; this runs its setup, its two workloads' steps on
(2,3,3,4) under the tracer, and the elimination route that the census still
reads, so that an API change which breaks the benchmark fails here."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    run = importlib.import_module("run")
    spans = importlib.import_module("spans")
    gw = {name: importlib.import_module(f"gwpskit.{name}") for name in run.MODULES}
    return run, spans, gw


def test_traced_steps_on_smallest_space(bench, tmp_path):
    run, spans, gw = bench
    sp = gw["wps"].WeightedSpace((2, 3, 3, 4))
    expected = gw["cli"].load_expected()
    tracer = spans.Tracer()
    tracer.install(gw)
    try:
        betti_errors = run.betti_step(gw, expected)(sp)
        betti_counts = tracer.take_counts()
        betti_captured = tracer.take_captured()
        first = len(tracer.spans)
        alpha_errors = run.alpha_step(gw, expected, str(tmp_path))(sp)
        alpha_counts = tracer.take_counts()
        last = len(tracer.spans)
        # alpha no longer takes the elimination route; run it here, so that
        # the wrappers and the census's tangent branch stay exercised.
        ideal = gw["toric"].quadric_generators(sp)
        gw["tangent"].hom_dimension_minus1(ideal, gw["resolution"].linear_syzygies(ideal))
    finally:
        tracer.uninstall()
    assert betti_errors == [] and alpha_errors == []
    assert betti_counts["resolution.syzygies"] == 320
    # The quartic check ranks the boundary maps of the 369 degree-4s
    # complexes over GF(2) and solves nothing under two primes.
    assert betti_counts["resolution.quartic_blocks"] == 369
    assert spans.summarize(tracer.spans, 0, first)["exactla.solution_dim_calls"] == 0
    # alpha reads T^1 off Altmann's formula and the degree-2s complexes: no
    # quadric generators, no syzygies, no block solves.
    assert alpha_counts["toric.generators"] == 0
    assert alpha_counts["resolution.syzygies"] == 0
    # alpha reads and writes no cache.
    assert not any(span[0].startswith("cache.") for span in tracer.spans[first:last])
    assert alpha_counts["cache.hits"] == alpha_counts["cache.misses"] == 0
    alpha_layers = spans.summarize(tracer.spans, first, last)
    assert alpha_layers["exactla.solution_dim_calls"] == 0
    assert alpha_layers["exactla.sparse_calls"] == 0
    assert alpha_layers["exactla.dense_calls"] == 0
    assert "tangent.hom" not in {span[0] for span in tracer.spans[first:last]}
    # Every block solve of the elimination route goes through solution_dim;
    # nothing eliminates densely.
    hom_layers = spans.summarize(tracer.spans, last, len(tracer.spans))
    assert hom_layers["exactla.solution_dim_calls"] > 0
    assert hom_layers["exactla.sparse_calls"] > 0
    assert hom_layers["exactla.dense_calls"] == 0
    # The census of the betti step: 146 degree-3s and 334 degree-4s blocks
    # of (2,3,3,4), the latter with 6,600 (pair, generator) columns.
    betti_census = spans.census(gw, betti_captured)
    assert betti_census["resolution.cubic_blocks"] == 146
    assert betti_census["resolution.quartic_cols"] == 6600
    census = spans.census(gw, tracer.take_captured())
    assert census["tangent.blocks"] > 0
    # Blocks arrive deduplicated: no row left for the census to merge.
    assert census["tangent.block_rows"] == census["tangent.block_rows_distinct"]
    names = {span[0] for span in tracer.spans}
    assert {"resolution.linear_syzygies", "resolution.quartic_check",
            "tangent.hom", "cli.compute_alpha"} <= names
    assert not hasattr(gw["resolution"].linear_syzygies, "__wrapped__")


def test_setup_returns_the_benchmark_spaces(bench):
    """setup, the benchmark's one call into the classification, returns the
    eight spaces of run.SPACES with the reference table's rows."""
    run, _, gw = bench
    spaces, expected = run.setup(gw)
    assert [sp.weights for sp in spaces] == list(run.SPACES)
    assert expected == gw["cli"].load_expected()
    assert all(sp.weights in expected for sp in spaces)
