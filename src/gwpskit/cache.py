"""Line-oriented text format and on-disk store of per-shift block tables,
ideals and syzygy bases.  No command reads or writes it: it is kept as the
tests' serializers and for perfbench, which wraps these names.

Every file starts with the header

    GWPSKIT v1 <kind> <weights> <fingerprint>

followed by one record per line.  A block table ("blk d0 d1 d2 d3 dim", the
per-shift Hom table of alpha) ends in the line "sum <hex>", the first 16 hex
digits of the SHA-256 of its record lines, so that a table with an edited or
lost record does not parse.  The ideal ("gen a b g d", slice indices of the
two pairs) and syzygy ("syz d0 d1 d2 d3 : (i,k,c) ...") serializers are
round-trip oracles for the tests.
The format is plain text, diffable, and round-trip stable bit for bit.
Cache.store writes to a uniquely named temp file and renames it into place
atomically.  A ".part" sidecar of appended records (append_partial_block,
load_partial_blocks) has no sum line; a torn last line is cut off, and a
missing sidecar reads as empty.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from ._util import tadd
from .lattice import Point, degree_slice
from .resolution import SyzygyBasis, SyzygyElement
from .toric import BinomialGenerator, ToricIdeal
from .wps import WeightedSpace

FORMAT_TAG = "GWPSKIT v1"


def _weights_token(space: WeightedSpace) -> str:
    return ",".join(str(a) for a in space.weights)


def entry_fingerprint(space: WeightedSpace, kind: str, params: str = "") -> str:
    from . import __version__

    text = f"{_weights_token(space)}|{__version__}|{kind}|{params}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def header_line(space: WeightedSpace, kind: str, params: str = "") -> str:
    return f"{FORMAT_TAG} {kind} {_weights_token(space)} {entry_fingerprint(space, kind, params)}"


class CacheFormatError(ValueError):
    pass


def _check_header(text: str, space: WeightedSpace, kind: str, params: str) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != header_line(space, kind, params):
        raise CacheFormatError(f"bad or stale cache header for kind {kind!r}")
    return lines[1:]


# -- serializers -------------------------------------------------------------


def ideal_to_text(ideal: ToricIdeal, tree: str = "min") -> str:
    lines = [header_line(ideal.space, "ideal", tree)]
    for gen in ideal.generators:
        lines.append(f"gen {gen.lhs[0]} {gen.lhs[1]} {gen.rhs[0]} {gen.rhs[1]}")
    return "\n".join(lines) + "\n"


def ideal_from_text(space: WeightedSpace, text: str, tree: str = "min") -> ToricIdeal:
    from .lattice import pair_sums
    from .wps import invariants

    body = _check_header(text, space, "ideal", tree)
    sl = degree_slice(space, invariants(space).s)
    pts = sl.points
    gens = []
    for line in body:
        if not line:
            continue
        tok = line.split()
        if len(tok) != 5 or tok[0] != "gen":
            raise CacheFormatError(f"bad generator record: {line!r}")
        a, b, g, d = idx = tuple(int(t) for t in tok[1:])
        if not all(0 <= i < len(pts) for i in idx):
            raise CacheFormatError(f"generator index outside the slice: {line!r}")
        key = tadd(pts[a], pts[b])
        if tadd(pts[g], pts[d]) != key:
            raise CacheFormatError(f"generator pairs of different degrees: {line!r}")
        gens.append(BinomialGenerator(lhs=(a, b), rhs=(g, d), multidegree=key))
    fibers = {key: tuple(sorted(prs)) for key, prs in pair_sums(sl).items()}
    return ToricIdeal(space=space, slice_s=sl, generators=tuple(gens), fibers=fibers)


def syzygies_to_text(space: WeightedSpace, basis: SyzygyBasis, params: str = "") -> str:
    lines = [header_line(space, "syzygies", params)]
    for key in sorted(basis.by_multidegree, reverse=True):
        for syz in basis.by_multidegree[key]:
            terms = " ".join(f"({i},{k},{c})" for i, k, c in syz.terms)
            lines.append(f"syz {key[0]} {key[1]} {key[2]} {key[3]} : {terms}")
    return "\n".join(lines) + "\n"


def syzygies_from_text(space: WeightedSpace, text: str, params: str = "") -> SyzygyBasis:
    body = _check_header(text, space, "syzygies", params)
    by_md: dict[Point, list[SyzygyElement]] = {}
    for line in body:
        if not line:
            continue
        head, _, tail = line.partition(" : ")
        tok = head.split()
        if len(tok) != 5 or tok[0] != "syz":
            raise CacheFormatError(f"bad syzygy record: {line!r}")
        key = tuple(int(t) for t in tok[1:])
        terms = []
        for piece in tail.split():
            if not (piece.startswith("(") and piece.endswith(")")):
                raise CacheFormatError(f"bad syzygy term: {piece!r}")
            i, k, c = (int(x) for x in piece[1:-1].split(","))
            terms.append((i, k, c))
        by_md.setdefault(key, []).append(SyzygyElement(multidegree=key, terms=tuple(terms)))
    return SyzygyBasis.from_elements(by_md)


def _records_sum(records: list[str]) -> str:
    return hashlib.sha256("".join(f"{r}\n" for r in records).encode()).hexdigest()[:16]


def blocks_to_text(space: WeightedSpace, by_shift: dict[Point, int], params: str = "") -> str:
    records = [f"blk {d[0]} {d[1]} {d[2]} {d[3]} {by_shift[d]}" for d in sorted(by_shift)]
    lines = [header_line(space, "blocks", params), *records, f"sum {_records_sum(records)}"]
    return "\n".join(lines) + "\n"


def blocks_from_text(
    space: WeightedSpace, text: str, params: str = "", summed: bool = True
) -> dict[Point, int]:
    """The table of a block file; with `summed`, that of a stored table,
    whose missing or wrong sum line raises.  A .part sidecar has none."""
    lines = _check_header(text, space, "blocks", params)
    if summed:
        if not lines or lines[-1] != f"sum {_records_sum(lines[:-1])}":
            raise CacheFormatError("missing or wrong sum of a block table")
        lines = lines[:-1]
    out: dict[Point, int] = {}
    for line in lines:
        if not line:
            continue
        tok = line.split()
        if len(tok) != 6 or tok[0] != "blk":
            raise CacheFormatError(f"bad block record: {line!r}")
        out[tuple(int(t) for t in tok[1:5])] = int(tok[5])
    return out


# -- store -------------------------------------------------------------------


class Cache:
    """Content-addressed plain-text store; atomic writes, lock-free reads."""

    def __init__(self, directory: str | os.PathLike):
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)

    def path_for(self, space: WeightedSpace, kind: str, params: str = "") -> Path:
        token = "_".join(str(a) for a in space.weights)
        fp = entry_fingerprint(space, kind, params)
        return self.dir / f"{token}-{kind}-{fp}.txt"

    def load(self, space: WeightedSpace, kind: str, params: str = "") -> str | None:
        path = self.path_for(space, kind, params)
        if not path.exists():
            return None
        return path.read_text()

    def store(self, space: WeightedSpace, kind: str, text: str, params: str = "") -> Path:
        path = self.path_for(space, kind, params)
        tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
        try:
            tmp.write_text(text)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    # Partial block tables, record by record.

    def partial_blocks_path(self, space: WeightedSpace, params: str = "") -> Path:
        return self.path_for(space, "blocks", params).with_suffix(".part")

    def load_partial_blocks(self, space: WeightedSpace, params: str = "") -> dict[Point, int]:
        """The shifts solved so far.  A torn last line is cut off, so the next
        append starts a line of its own; a torn or stale header or a record
        that does not parse deletes the file."""
        path = self.partial_blocks_path(space, params)
        try:
            text = path.read_text()
            complete = text[: text.rfind("\n") + 1]
            if complete != text:
                os.truncate(path, len(complete.encode()))
        except FileNotFoundError:
            return {}
        try:
            return blocks_from_text(space, complete, params, summed=False)
        except ValueError:
            path.unlink(missing_ok=True)
            return {}

    def append_partial_block(
        self, space: WeightedSpace, shift: Point, dim: int, params: str = ""
    ) -> None:
        with self.partial_blocks_path(space, params).open("a") as fh:
            if fh.tell() == 0:
                fh.write(header_line(space, "blocks", params) + "\n")
            fh.write(f"blk {shift[0]} {shift[1]} {shift[2]} {shift[3]} {dim}\n")
