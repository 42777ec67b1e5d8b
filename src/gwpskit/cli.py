"""Command-line frontend: classification, Betti and extendability tables,
Veronese presentations, value checking against the shipped reference table,
and the persistent cache of expensive intermediates."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from importlib.resources import files
from math import comb

from . import __version__, exactla, lattice, resolution, tangent, toric, wps
from .cache import (
    Cache,
    blocks_from_text,
    blocks_to_text,
    ideal_from_text,
    ideal_to_text,
    syzygies_from_text,
    syzygies_to_text,
)
from .exactla import FieldSpec
from .wps import WeightedSpace, invariants

DEFAULT_BOUND = 50
DEFAULT_MAX_GENUS = 26
FORMATS = ("tsv", "markdown", "latex")


@dataclass
class RunConfig:
    bound: int = DEFAULT_BOUND
    verify: bool = False
    all_spaces: bool = False
    primes: tuple[int, int] = (exactla.MERSENNE_PRIME_31, exactla.SECOND_PRIME)
    max_genus_for_heavy_checks: int = DEFAULT_MAX_GENUS
    cache_dir: str | None = None
    output_format: str = "tsv"
    check: bool = False

    def __post_init__(self):
        if self.primes[0] == self.primes[1]:
            raise ValueError("the two working primes must be distinct")
        for p in self.primes:
            FieldSpec(p)
        if self.output_format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")

    def fields(self) -> tuple[FieldSpec, FieldSpec]:
        return FieldSpec(self.primes[0]), FieldSpec(self.primes[1])

    def cache(self) -> Cache | None:
        return Cache(self.cache_dir) if self.cache_dir else None


def table_order(spaces) -> list[WeightedSpace]:
    """Sort by primitive genus, then divisibility index descending, then weights."""
    def key(sp: WeightedSpace):
        inv = invariants(sp)
        return (inv.g1, -inv.i_S, sp.weights)

    return sorted(spaces, key=key)


def load_expected() -> dict[tuple, dict]:
    """The shipped reference table, keyed by weight tuple."""
    text = files("gwpskit").joinpath("data/expected_values.tsv").read_text()
    rows = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        tok = line.split("\t")
        weights = tuple(int(x) for x in tok[1].strip("()").split(","))
        rows[weights] = {
            "row": int(tok[0]),
            "K3": int(tok[2]),
            "m": int(tok[3]),
            "s": int(tok[4]),
            "i_S": int(tok[5]),
            "g_1": int(tok[6]),
            "g": int(tok[7]),
            "beta_1": int(tok[8]),
            "beta_2": int(tok[9]),
            "alpha_S": int(tok[10]),
        }
    return rows


_LATEX_HEADERS = {
    "#": r"\#",
    "-K^3": "$-K^3$",
    "i_S": "$i_S$",
    "g_1": "$g_1$",
    "g": "$g$",
    "m": "$m$",
    "s": "$s$",
    "beta_1": r"$\beta_1$",
    "beta_2": r"$\beta_2$",
    "alpha_S": r"$\alpha(S)$",
    "alpha_P": r"$\alpha(P)$",
}


def format_table(headers, rows, fmt: str) -> str:
    rows = [[str(c) for c in row] for row in rows]
    if fmt == "tsv":
        lines = ["\t".join(headers)]
        lines.extend("\t".join(row) for row in rows)
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        lines = ["| " + " | ".join(headers) + " |"]
        lines.append("|" + "|".join(" --- " for _ in headers) + "|")
        lines.extend("| " + " | ".join(row) + " |" for row in rows)
        return "\n".join(lines) + "\n"
    if fmt == "latex":
        cols = "|" + "l|" * len(headers)
        lines = [f"\\begin{{tabular}}{{{cols}}}", "\\hline"]
        heads = [_LATEX_HEADERS.get(h, h) for h in headers]
        lines.append(" & ".join(heads) + r" \\")
        lines.append("\\hline")
        for row in rows:
            lines.append(" & ".join(row) + r" \\")
        lines.append("\\hline")
        lines.append("\\end{tabular}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _check_mismatch(errors: list[str]) -> int:
    if errors:
        for e in errors:
            print(f"CHECK FAIL: {e}", file=sys.stderr)
        return 1
    return 0


# -- commands ----------------------------------------------------------------


def cmd_classify(config: RunConfig) -> tuple[str, int]:
    spaces = table_order(wps.enumerate_gorenstein(config.bound))
    headers = ["#", "weights", "-K^3", "m", "s", "i_S", "g_1"]
    rows = []
    for idx, sp in enumerate(spaces, start=1):
        inv = invariants(sp)
        rows.append([idx, str(sp), int(inv.antiK_cubed), inv.m, inv.s, inv.i_S, inv.g1])
    text = format_table(headers, rows, config.output_format)
    code = 0
    if config.check:
        expected = load_expected()
        errors = []
        if config.bound >= 21 and len(spaces) != len(expected):
            errors.append(f"expected {len(expected)} spaces, found {len(spaces)}")
        for idx, sp in enumerate(spaces, start=1):
            exp = expected.get(sp.weights)
            inv = invariants(sp)
            if exp is None:
                errors.append(f"unexpected space {sp}")
                continue
            got = {
                "row": idx,
                "K3": int(inv.antiK_cubed),
                "m": inv.m,
                "s": inv.s,
                "i_S": inv.i_S,
                "g_1": inv.g1,
            }
            for key, val in got.items():
                if exp[key] != val:
                    errors.append(f"{sp} column {key}: computed {val}, reference {exp[key]}")
        code = _check_mismatch(errors)
        if code == 0:
            print(f"CHECK OK ({len(spaces)} rows verified)", file=sys.stderr)
    return text, code


def _load_or_build_ideal(sp: WeightedSpace, cache: Cache | None) -> toric.ToricIdeal:
    if cache is not None:
        text = cache.load(sp, "ideal", "min")
        if text is not None:
            return ideal_from_text(sp, text, "min")
    ideal = toric.quadric_generators(sp)
    if cache is not None:
        cache.store(sp, "ideal", ideal_to_text(ideal, "min"), "min")
    return ideal


def _load_or_build_syzygies(sp, ideal, cache: Cache | None):
    """The cached syzygy basis when it parses and every element is a syzygy
    of the ideal; otherwise a fresh basis, which overwrites the entry."""
    if cache is not None:
        text = cache.load(sp, "syzygies", "asc")
        if text is not None:
            try:
                syz = syzygies_from_text(sp, text, "asc")
            except ValueError:  # a bad record or a stale header
                syz = None
            if syz is not None and resolution.syzygies_cancel(ideal, syz):
                return syz
    syz = resolution.linear_syzygies(ideal)
    if cache is not None:
        cache.store(sp, "syzygies", syzygies_to_text(sp, syz, "asc"), "asc")
    return syz


def cmd_betti(config: RunConfig) -> tuple[str, int]:
    spaces = table_order(wps.enumerate_gorenstein(config.bound))
    cache = config.cache()
    headers = ["#", "weights", "g_1", "i_S", "g", "beta_1", "beta_2"]
    if config.verify:
        headers += ["deg3_generation", "quartic_syzygies"]
    rows = []
    failures = []
    for idx, sp in enumerate(spaces, start=1):
        inv = invariants(sp)
        generation = toric.check_degree3_generation(sp)
        if not generation.connected:
            failures.append(f"{sp}: cubic fiber disconnected at {generation.witness}")
        b1 = toric.beta1(sp)
        b2 = resolution.beta2(sp, generation=generation)
        row = [idx, str(sp), inv.g1, inv.i_S, inv.g, b1, b2]
        if config.verify:
            row.append("pass" if generation.connected else "FAIL")
            if inv.g <= config.max_genus_for_heavy_checks or config.all_spaces:
                ideal = _load_or_build_ideal(sp, cache)
                syz = _load_or_build_syzygies(sp, ideal, cache)
                quartic = resolution.check_no_quartic_syzygies(
                    ideal, syz, fields=config.fields()
                )
                if not quartic.ok:
                    failures.append(f"{sp}: quartic syzygy at {quartic.witness}")
                row.append("pass" if quartic.ok else "FAIL")
            else:
                row.append("skipped")
        rows.append(row)
    text = format_table(headers, rows, config.output_format)
    code = 0
    if failures:
        for f in failures:
            print(f"VERIFY FAIL: {f}", file=sys.stderr)
        code = 1
    if config.check and code == 0:
        expected = load_expected()
        errors = []
        for idx, sp in enumerate(spaces, start=1):
            exp = expected.get(sp.weights)
            if exp is None:
                errors.append(f"unexpected space {sp}")
                continue
            inv = invariants(sp)
            for key, val in (
                ("g_1", inv.g1),
                ("i_S", inv.i_S),
                ("g", inv.g),
                ("beta_1", rows[idx - 1][5]),
                ("beta_2", rows[idx - 1][6]),
            ):
                if exp[key] != val:
                    errors.append(f"{sp} column {key}: computed {val}, reference {exp[key]}")
        code = _check_mismatch(errors)
        if code == 0:
            print(f"CHECK OK ({len(spaces)} rows verified)", file=sys.stderr)
    return text, code


def _budget_estimate(sp: WeightedSpace) -> str:
    inv = invariants(sp)
    g, s = inv.g, inv.s
    n3 = lattice.count_points(sp, 3 * s)
    n4 = lattice.count_points(sp, 4 * s)
    unknowns = comb(g - 2, 2) * (g + 2)
    return (
        f"g={g}: {n3} cubic blocks, {n4} quartic blocks, "
        f"{unknowns} incident pairs; rerun with --all to compute"
    )


def compute_alpha(sp: WeightedSpace, config: RunConfig) -> tangent.T1Report:
    """Cache-aware tangent pipeline producing the same report as
    tangent.alpha_report."""
    cache = config.cache()
    fields = config.fields()
    ideal = _load_or_build_ideal(sp, cache)
    syz = _load_or_build_syzygies(sp, ideal, cache)
    known = None
    progress = None
    if cache is not None:
        final = cache.load(sp, "blocks")
        if final is not None:
            known = blocks_from_text(sp, final)
        else:
            known = cache.load_partial_blocks(sp) or None

            def progress(shift, dim, done, total, _sp=sp):
                cache.append_partial_block(_sp, shift, dim)

    heavy = invariants(sp).g > config.max_genus_for_heavy_checks
    if heavy:
        inner = progress

        def progress(shift, dim, done, total, _inner=inner):
            if _inner is not None:
                _inner(shift, dim, done, total)
            if done % 500 == 0 or done == total:
                print(f"  {sp}: block {done}/{total}", file=sys.stderr)

    hom = tangent.hom_dimension_minus1(
        ideal,
        syz,
        fields=fields,
        known=known,
        progress=progress,
    )
    if cache is not None:
        cache.finalize_blocks(sp, hom.by_shift)
    return tangent.assemble_report(sp, ideal, syz, hom)


def cmd_alpha(config: RunConfig) -> tuple[str, int]:
    spaces = table_order(wps.enumerate_gorenstein(config.bound))
    headers = ["#", "weights", "g_1", "i_S", "alpha_S", "alpha_P", "extendability"]
    rows = []
    computed: dict[tuple, tangent.T1Report] = {}
    for idx, sp in enumerate(spaces, start=1):
        inv = invariants(sp)
        if inv.g <= config.max_genus_for_heavy_checks or config.all_spaces:
            rep = compute_alpha(sp, config)
            computed[sp.weights] = rep
            rows.append([idx, str(sp), inv.g1, inv.i_S, rep.alpha_S, rep.alpha_P, rep.extendability])
        else:
            print(f"skipping {sp}: {_budget_estimate(sp)}", file=sys.stderr)
            rows.append([idx, str(sp), inv.g1, inv.i_S, "skipped: over budget", "-", "-"])
    text = format_table(headers, rows, config.output_format)
    print(f"note: {tangent.ASSUMPTION_NOTE}", file=sys.stderr)
    code = 0
    if config.check:
        expected = load_expected()
        errors = []
        for weights, rep in computed.items():
            exp = expected.get(weights)
            if exp is None:
                errors.append(f"unexpected space {weights}")
                continue
            if rep.alpha_S != exp["alpha_S"]:
                errors.append(
                    f"{weights} alpha_S: computed {rep.alpha_S}, reference {exp['alpha_S']}"
                )
            if rep.extendability != exp["alpha_S"] - 1:
                errors.append(f"{weights} extendability != alpha_S - 1")
        code = _check_mismatch(errors)
        if code == 0:
            print(f"CHECK OK ({len(computed)} rows verified)", file=sys.stderr)
    return text, code


def cmd_veronese(sp: WeightedSpace, d: int, cutoff: int) -> tuple[str, int]:
    pres = wps.veronese_presentation(sp, d, cutoff)
    gens = "(" + ",".join(str(x) for x in pres.generator_degrees) + ")"
    rels = "[" + ",".join(str(x) for x in sorted(pres.relation_degrees)) + "]"
    line = f"{gens}; relations: {rels}"
    if not pres.complete:
        line += f" (generators above degree {cutoff * d} may be missing)"
    return line + "\n", 0


# -- argument parsing ---------------------------------------------------------


def _parse_weights(token: str) -> WeightedSpace:
    parts = token.replace("(", "").replace(")", "").replace(" ", "").split(",")
    return WeightedSpace(tuple(int(p) for p in parts))


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--prime", type=int, default=exactla.MERSENNE_PRIME_31,
                        help="first working prime")
    parser.add_argument("--prime2", type=int, default=exactla.SECOND_PRIME,
                        help="second working prime")
    parser.add_argument("--cache", default=None, help="cache directory")
    parser.add_argument("--max-genus", type=int, default=DEFAULT_MAX_GENUS,
                        help="heavy checks run by default only up to this genus")
    parser.add_argument("--format", default="tsv", choices=FORMATS)
    parser.add_argument("--check", action="store_true",
                        help="compare against the shipped reference table")


def _config_from_args(args) -> RunConfig:
    cache_dir = os.environ.get("GWPSKIT_CACHE") or args.cache
    return RunConfig(
        bound=getattr(args, "bound", DEFAULT_BOUND),
        verify=getattr(args, "verify", False),
        all_spaces=getattr(args, "all", False),
        primes=(args.prime, args.prime2),
        max_genus_for_heavy_checks=args.max_genus,
        cache_dir=cache_dir,
        output_format=args.format,
        check=args.check,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwpskit",
        description="Exact invariants of Gorenstein weighted projective 3-spaces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classification table")
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    _add_common(p)

    p = sub.add_parser("betti", help="quadric generator and linear syzygy counts")
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    p.add_argument("--verify", action="store_true",
                   help="run the generation and quartic-syzygy checks")
    p.add_argument("--all", action="store_true",
                   help="run heavy checks beyond the genus budget too")
    _add_common(p)

    p = sub.add_parser("alpha", help="tangent dimensions and extendability counts")
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    p.add_argument("--all", action="store_true",
                   help="also compute the over-budget spaces")
    _add_common(p)

    p = sub.add_parser("veronese", help="Veronese subring presentation")
    p.add_argument("weights", help="comma-separated weights, e.g. 1,1,4,6")
    p.add_argument("d", type=int, help="Veronese index")
    p.add_argument("--cutoff", type=int, default=8)
    _add_common(p)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "veronese":
            text, code = cmd_veronese(_parse_weights(args.weights), args.d, args.cutoff)
        else:
            config = _config_from_args(args)
            if args.command == "classify":
                text, code = cmd_classify(config)
            elif args.command == "betti":
                text, code = cmd_betti(config)
            elif args.command == "alpha":
                text, code = cmd_alpha(config)
            else:
                raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, wps.WeightValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run())
