"""Line-oriented on-disk cache for expensive intermediates.

Every cache file starts with the header

    GWPSKIT v1 <kind> <weights> <fingerprint>

followed by one record per line: lattice points as space-separated exponents,
generators as "gen a b g d" (slice indices of the two pairs), syzygies as
"syz d0 d1 d2 d3 : (i,k,c) ...", and block tables as "blk d0 d1 d2 d3 dim".
Entries are keyed by params "min" (ideal), "asc" (syzygies) and "" (blocks).
The format is plain text, diffable, and round-trip stable bit for bit.
Writes go to a uniquely named temp file and are renamed into place
atomically.  Partially completed block tables append to a ".part" sidecar so
interrupted long runs can resume.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from .lattice import DegreeSlice, Point, degree_slice
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


def slice_to_text(space: WeightedSpace, sl: DegreeSlice) -> str:
    kind = f"slice-{sl.degree}"
    lines = [header_line(space, kind)]
    lines.extend(" ".join(str(x) for x in p) for p in sl.points)
    return "\n".join(lines) + "\n"


def slice_from_text(space: WeightedSpace, degree: int, text: str) -> DegreeSlice:
    body = _check_header(text, space, f"slice-{degree}", "")
    pts = tuple(tuple(int(x) for x in line.split()) for line in body if line)
    return DegreeSlice(degree, pts)


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
        if tok[0] != "gen" or len(tok) != 5:
            raise CacheFormatError(f"bad generator record: {line!r}")
        a, b, g, d = (int(t) for t in tok[1:])
        key = (
            pts[a][0] + pts[b][0],
            pts[a][1] + pts[b][1],
            pts[a][2] + pts[b][2],
            pts[a][3] + pts[b][3],
        )
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
    table = {key: tuple(v) for key, v in by_md.items()}
    return SyzygyBasis(by_multidegree=table, total_count=sum(len(v) for v in table.values()))


def blocks_to_text(space: WeightedSpace, by_shift: dict[Point, int], params: str = "") -> str:
    lines = [header_line(space, "blocks", params)]
    for shift in sorted(by_shift):
        d = by_shift[shift]
        lines.append(f"blk {shift[0]} {shift[1]} {shift[2]} {shift[3]} {d}")
    return "\n".join(lines) + "\n"


def blocks_from_text(space: WeightedSpace, text: str, params: str = "") -> dict[Point, int]:
    body = _check_header(text, space, "blocks", params)
    return _parse_block_lines(body)


def _parse_block_lines(lines) -> dict[Point, int]:
    out: dict[Point, int] = {}
    for line in lines:
        if not line:
            continue
        tok = line.split()
        if tok[0] != "blk" or len(tok) != 6:
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

    # Partial block tables: appended as they complete, finalized atomically.

    def partial_blocks_path(self, space: WeightedSpace, params: str = "") -> Path:
        return self.path_for(space, "blocks", params).with_suffix(".part")

    def load_partial_blocks(self, space: WeightedSpace, params: str = "") -> dict[Point, int]:
        """The shifts solved so far.  A torn last line is cut off, so the next
        append starts a line of its own; a torn or stale header deletes the file."""
        path = self.partial_blocks_path(space, params)
        if not path.exists():
            return {}
        text = path.read_text()
        complete = text[: text.rfind("\n") + 1]
        if complete != text:
            os.truncate(path, len(complete.encode()))
        lines = complete.splitlines()
        if not lines or lines[0] != header_line(space, "blocks", params):
            path.unlink()
            return {}
        return _parse_block_lines(lines[1:])

    def append_partial_block(
        self, space: WeightedSpace, shift: Point, dim: int, params: str = ""
    ) -> None:
        path = self.partial_blocks_path(space, params)
        if not path.exists():
            path.write_text(header_line(space, "blocks", params) + "\n")
        with path.open("a") as fh:
            fh.write(f"blk {shift[0]} {shift[1]} {shift[2]} {shift[3]} {dim}\n")

    def finalize_blocks(
        self, space: WeightedSpace, by_shift: dict[Point, int], params: str = ""
    ) -> None:
        self.store(space, "blocks", blocks_to_text(space, by_shift, params), params)
        part = self.partial_blocks_path(space, params)
        if part.exists():
            part.unlink()
