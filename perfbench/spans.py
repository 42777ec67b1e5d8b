"""Spans and counts for the traced benchmark mode, recorded from outside the
program.

`Tracer.install` replaces the public functions of each gwpskit module, and
the two elimination paths of `exactla`, by a timing wrapper at every module
attribute that a caller looks the function up through.  A wrapper records one span per call -- name, start, end, parent span
and the trace id of the space being processed -- and may add exact counts
taken from the call's arguments and result.  Spans stay in memory until the
run writes them out.  `census` adds the work counts (blocks, rows, columns,
rank) that need a second look at a layer's inputs, after the timed passes.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter
from math import gcd

TIME_METRICS = (
    "wps.enumerate",
    "lattice.degree_slice",
    "toric.quadric_generators",
    "toric.degree3_generation",
    "toric.beta1",
    "resolution.linear_syzygies",
    "resolution.quartic_check",
    "tangent.hom",
    "tangent.report",
    "tangent.derivations",
    "exactla.solution_dim",
    "exactla.dense",
    "exactla.sparse",
    "exactla.kernel",
    "cache.load",
    "cache.parse",
    "cache.store",
    "cache.append",
    "cli.compute_alpha",
)
# Self time = span minus its child spans: the work of the layer itself, such
# as block assembly inside tangent.hom or matrix building in the quartic check.
SELF_TIME_METRICS = ("resolution.linear_syzygies", "resolution.quartic_check", "tangent.hom")
CALL_METRICS = ("lattice.degree_slice", "exactla.solution_dim", "exactla.dense",
                "exactla.sparse", "exactla.kernel")
COUNT_METRICS = (
    "toric.generators",
    "toric.cubic_fibers",
    "resolution.syzygies",
    "resolution.cubic_blocks",
    "resolution.quartic_blocks",
    "resolution.quartic_cols",
    "resolution.quartic_sparse_blocks",
    "tangent.shifts",
    "tangent.blocks",
    "tangent.block_rows",
    "tangent.block_rows_distinct",
    "tangent.block_cols",
    "tangent.block_rank",
    "tangent.max_block_cols",
    "tangent.sparse_blocks",
    "exactla.entries",
    "cache.bytes_read",
    "cache.bytes_written",
    "cache.hits",
    "cache.misses",
    "cache.appends",
)


class Tracer:
    """In-memory span recorder; a span is [name, start, end, parent, trace]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trace_id = "setup"
        self.counts: Counter = Counter()
        self.captured: list[tuple] = []
        self._saved: list[tuple] = []
        self._part_sizes: dict = {}

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, after=None):
        """Replace owner.attr by a wrapper that records a span called `name`;
        `after(bound arguments, result)` records counts once the span ended."""
        orig = getattr(owner, attr)
        sig = inspect.signature(orig) if after is not None else None
        tracer = self

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.trace_id]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after(bound.arguments, result)
            return result

        wrapper.__wrapped__ = orig
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def install(self, gw) -> None:
        """Wrap the functions of every layer where their callers look them
        up.  `gw` maps module names to the imported gwpskit modules."""
        wps, lattice, toric = gw["wps"], gw["lattice"], gw["toric"]
        resolution, tangent, exactla = gw["resolution"], gw["tangent"], gw["exactla"]
        cache, cli = gw["cache"], gw["cli"]
        count = self.counts

        self._wrap(wps, "enumerate_gorenstein", "wps.enumerate")
        for owner in (lattice, cache):
            self._wrap(owner, "degree_slice", "lattice.degree_slice")

        def generators(a, ideal):
            count["toric.generators"] += len(ideal.generators)

        def fibers(a, report):
            count["toric.cubic_fibers"] += report.fibers_checked

        self._wrap(toric, "quadric_generators", "toric.quadric_generators", generators)
        # beta2 looks the connectivity check up in resolution's namespace.
        for owner in (toric, resolution):
            self._wrap(owner, "check_degree3_generation", "toric.degree3_generation", fibers)
        self._wrap(toric, "beta1", "toric.beta1")

        def syzygies(a, basis):
            count["resolution.syzygies"] += basis.total_count
            self.captured.append(("cubic", a["ideal"]))

        def quartic(a, report):
            count["resolution.quartic_blocks"] += report.blocks_checked
            self.captured.append(("quartic", a["ideal"]))

        self._wrap(resolution, "linear_syzygies", "resolution.linear_syzygies", syzygies)
        self._wrap(resolution, "check_no_quartic_syzygies", "resolution.quartic_check", quartic)

        def hom(a, table):
            count["tangent.shifts"] += len(table.by_shift)
            known = frozenset(a["known"] or ())
            self.captured.append(("hom", a["ideal"], a["syzygies"], known, table.by_shift))

        self._wrap(tangent, "hom_dimension_minus1", "tangent.hom", hom)
        self._wrap(tangent, "assemble_report", "tangent.report")
        self._wrap(tangent, "derivation_vectors", "tangent.derivations")

        def entries(a, result):
            count["exactla.entries"] += len(a["m"].entries)

        self._wrap(exactla, "solution_dim", "exactla.solution_dim", entries)
        self._wrap(exactla, "kernel_basis_mod_p", "exactla.kernel", entries)
        # The two elimination paths that rank_mod_p chooses between; the spans
        # hold the elimination alone, not the reduction and matrix build.
        self._wrap(exactla, "_dense_rank", "exactla.dense")
        self._wrap(exactla, "_sparse_rank", "exactla.sparse")

        def loaded(a, text):
            count["cache.hits" if text else "cache.misses"] += 1
            count["cache.bytes_read"] += len(text.encode()) if text else 0

        def partial_loaded(a, table):
            count["cache.hits" if table else "cache.misses"] += 1
            if table:
                path = a["self"].partial_blocks_path(a["space"], a["params"])
                count["cache.bytes_read"] += path.stat().st_size

        def stored(a, path):
            count["cache.bytes_written"] += len(a["text"].encode())

        def appended(a, result):
            path = a["self"].partial_blocks_path(a["space"], a["params"])
            size = path.stat().st_size
            count["cache.appends"] += 1
            count["cache.bytes_written"] += size - self._part_sizes.get(path, 0)
            self._part_sizes[path] = size

        self._wrap(cache.Cache, "load", "cache.load", loaded)
        self._wrap(cache.Cache, "load_partial_blocks", "cache.load", partial_loaded)
        self._wrap(cache.Cache, "store", "cache.store", stored)
        self._wrap(cache.Cache, "append_partial_block", "cache.append", appended)
        for parser in ("ideal_from_text", "syzygies_from_text", "blocks_from_text"):
            self._wrap(cli, parser, "cache.parse")
        for writer in ("ideal_to_text", "syzygies_to_text"):
            self._wrap(cli, writer, "cache.store")
        self._wrap(cache, "blocks_to_text", "cache.store")
        self._wrap(cli, "compute_alpha", "cli.compute_alpha")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- spans --------------------------------------------------------------

    def open_span(self, name: str, trace_id: str) -> list:
        """A root span for one space of one pass, closed by close_span."""
        self.trace_id = trace_id
        span = [name, time.perf_counter(), 0.0, -1, trace_id]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close_span(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    def take_counts(self) -> Counter:
        counts = Counter(self.counts)
        self.counts.clear()
        return counts

    def take_captured(self) -> list[tuple]:
        captured, self.captured = self.captured, []
        return captured


def summarize(spans: list[list], first: int, last: int) -> dict[str, float]:
    """Per-layer seconds and call counts over spans[first:last].

    Inclusive time sums the spans of a name that have no ancestor of the same
    name; self time subtracts the durations of the direct children.
    """
    total: Counter = Counter()
    calls: Counter = Counter()
    child_time: Counter = Counter()
    for idx in range(first, last):
        name, start, end, parent, _ = spans[idx]
        calls[name] += 1
        if parent >= first:
            child_time[parent] += end - start
        up = parent
        while up >= first and spans[up][0] != name:
            up = spans[up][3]
        if up < first:
            total[name] += end - start
    self_time: Counter = Counter()
    for idx in range(first, last):
        name, start, end, _, _ = spans[idx]
        if name in SELF_TIME_METRICS:
            self_time[name] += end - start - child_time[idx]
    out: dict[str, float] = {}
    for name in TIME_METRICS:
        out[f"{name}_s"] = float(total[name])
    for name in SELF_TIME_METRICS:
        out[f"{name}_self_s"] = float(self_time[name])
    for name in CALL_METRICS:
        out[f"{name}_calls"] = calls[name]
    out["trace.spans"] = last - first
    return out


def _distinct_rows(rows) -> int:
    """Rows that stay distinct after dividing out the gcd and fixing the sign
    of the first nonzero entry."""
    seen = set()
    for row in rows:
        g = 0
        lead = 0
        for v in row:
            if v:
                g = gcd(g, v)
                if not lead:
                    lead = v
        if g:
            sign = g if lead > 0 else -g
            seen.add(tuple(v // sign for v in row))
    return len(seen)


def census(gw, captured: list[tuple]) -> Counter:
    """Work counts of the cubic, quartic and tangent layers, recomputed from
    the inputs that the traced calls received (not timed)."""
    resolution, tangent, exactla = gw["resolution"], gw["tangent"], gw["exactla"]
    limit = exactla.DENSE_COLUMN_LIMIT
    out: Counter = Counter()
    for item in captured:
        kind, ideal = item[0], item[1]
        if kind == "cubic":
            out["resolution.cubic_blocks"] += len(resolution.incident_pairs_degree3(ideal))
        elif kind == "quartic":
            for cols in resolution.incident_pairs_degree4(ideal).values():
                out["resolution.quartic_cols"] += len(cols)
                out["resolution.quartic_sparse_blocks"] += len(cols) > limit
        else:
            syzygies, known, by_shift = item[2], item[3], item[4]
            index = getattr(tangent, "_syzygies_by_generator", None)
            syz_by_gen = index(syzygies) if index else None
            for shift in tangent.enumerate_shifts(ideal):
                if shift in known:
                    continue
                block = tangent.build_block(ideal, syzygies, shift, syz_by_gen)
                if block is None:
                    continue
                cols = len(block.unknowns)
                out["tangent.blocks"] += 1
                out["tangent.block_rows"] += len(block.constraints)
                out["tangent.block_rows_distinct"] += _distinct_rows(block.constraints)
                out["tangent.block_cols"] += cols
                out["tangent.block_rank"] += cols - by_shift[shift]
                out["tangent.max_block_cols"] = max(out["tangent.max_block_cols"], cols)
                out["tangent.sparse_blocks"] += cols > limit
    return out
