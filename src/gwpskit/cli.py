"""Command-line frontend: classification, Betti and extendability tables,
Veronese presentations, and value checking against the shipped reference
table.  No command reads or writes a file other than that table."""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from importlib.resources import files

from . import __version__, exactla, resolution, tangent, toric, wps
# Unused here: perfbench/spans.py wraps these by name as cli attributes.
from .cache import (  # noqa: F401
    blocks_from_text, ideal_from_text, ideal_to_text, syzygies_from_text, syzygies_to_text,
)
from .exactla import FieldSpec
from .wps import WeightedSpace, invariants

DEFAULT_BOUND = 50
FORMATS = ("tsv", "markdown", "latex")


@dataclass
class RunConfig:
    bound: int = DEFAULT_BOUND
    verify: bool = False
    # No command reads primes or fields(); perfbench/run.py does.
    primes: tuple[int, int] = (exactla.MERSENNE_PRIME_31, exactla.SECOND_PRIME)
    # No command reads cache_dir; perfbench/run.py passes it (ROADMAP H removes it).
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


def check_reference(columns: dict[WeightedSpace, dict[str, int]],
                    count_spaces: bool = False) -> int:
    """Compare each space's computed columns with the shipped reference table.

    Prints one failure line per mismatch to stderr, or one line counting the
    verified rows when there is none, and returns the exit code.  With `count_spaces` the number
    of spaces must also match the table's.
    """
    expected = load_expected()
    errors = []
    if count_spaces and len(columns) != len(expected):
        errors.append(f"expected {len(expected)} spaces, found {len(columns)}")
    for sp, got in columns.items():
        exp = expected.get(sp.weights)
        if exp is None:
            errors.append(f"unexpected space {sp}")
            continue
        errors.extend(f"{sp} column {key}: computed {val}, reference {exp[key]}"
                      for key, val in got.items() if exp[key] != val)
    for e in errors:
        print(f"CHECK FAIL: {e}", file=sys.stderr)
    if errors:
        return 1
    print(f"CHECK OK ({len(columns)} rows verified)", file=sys.stderr)
    return 0


# -- commands ----------------------------------------------------------------


def cmd_classify(config: RunConfig) -> tuple[str, int]:
    spaces = table_order(wps.enumerate_gorenstein(config.bound))
    headers = ["#", "weights", "-K^3", "m", "s", "i_S", "g_1"]
    rows = []
    columns = {}
    for idx, sp in enumerate(spaces, start=1):
        inv = invariants(sp)
        row = [idx, str(sp), int(inv.antiK_cubed), inv.m, inv.s, inv.i_S, inv.g1]
        rows.append(row)
        columns[sp] = dict(zip(("row", "K3", "m", "s", "i_S", "g_1"), row[:1] + row[2:]))
    text = format_table(headers, rows, config.output_format)
    code = check_reference(columns, count_spaces=config.bound >= 21) if config.check else 0
    return text, code


def cmd_betti(config: RunConfig) -> tuple[str, int]:
    spaces = table_order(wps.enumerate_gorenstein(config.bound))
    headers = ["#", "weights", "g_1", "i_S", "g", "beta_1", "beta_2"]
    if config.verify:
        headers += ["deg3_generation", "quartic_syzygies"]
    rows = []
    columns = {}
    failures = []
    for idx, sp in enumerate(spaces, start=1):
        inv = invariants(sp)
        generation = toric.check_degree3_generation(sp)
        ideal = toric.quadric_generators(sp) if config.verify else None
        b1 = toric.beta1(sp, ideal=ideal)
        # beta2 raises on a disconnected cubic fiber, so a row means `pass`.
        b2 = resolution.beta2(sp, generation=generation)
        row = [idx, str(sp), inv.g1, inv.i_S, inv.g, b1, b2]
        columns[sp] = dict(zip(("g_1", "i_S", "g", "beta_1", "beta_2"), row[2:]))
        if config.verify:
            quartic = resolution.check_no_quartic_syzygies(ideal)
            if not quartic.ok:
                failures.append(f"{sp}: quartic syzygy at {quartic.witness}")
            row += ["pass", "pass" if quartic.ok else "FAIL"]
        rows.append(row)
    text = format_table(headers, rows, config.output_format)
    for f in failures:
        print(f"VERIFY FAIL: {f}", file=sys.stderr)
    if failures:
        return text, 1
    return text, check_reference(columns) if config.check else 0


def compute_alpha(sp: WeightedSpace, config: RunConfig) -> tangent.T1Report:
    """cmd_alpha's step for one space, which perfbench times by this name;
    `config` is unused."""
    return tangent.alpha_report(sp)


def cmd_alpha(config: RunConfig) -> tuple[str, int]:
    spaces = table_order(wps.enumerate_gorenstein(config.bound))
    headers = ["#", "weights", "g_1", "i_S", "alpha_S", "alpha_P", "extendability"]
    rows = []
    columns = {}
    for idx, sp in enumerate(spaces, start=1):
        inv = invariants(sp)
        rep = compute_alpha(sp, config)
        columns[sp] = {"alpha_S": rep.alpha_S}
        rows.append([idx, str(sp), inv.g1, inv.i_S, rep.alpha_S, rep.alpha_P, rep.extendability])
    text = format_table(headers, rows, config.output_format)
    print(f"note: {tangent.ASSUMPTION_NOTE}", file=sys.stderr)
    return text, check_reference(columns) if config.check else 0


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


def _add_table_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    parser.add_argument("--format", default="tsv", choices=FORMATS)
    parser.add_argument("--check", action="store_true",
                        help="compare against the shipped reference table")


def _config_from_args(args) -> RunConfig:
    """The run configuration; a flag that the subcommand does not register
    keeps its default."""
    return RunConfig(
        bound=args.bound,
        verify=getattr(args, "verify", False),
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
    _add_table_flags(p)

    p = sub.add_parser("betti", help="quadric generator and linear syzygy counts")
    _add_table_flags(p)
    p.add_argument("--verify", action="store_true",
                   help="run the generation and quartic-syzygy checks")

    p = sub.add_parser("alpha", help="tangent dimensions and extendability counts")
    _add_table_flags(p)

    p = sub.add_parser("veronese", help="Veronese subring presentation")
    p.add_argument("weights", help="comma-separated weights, e.g. 1,1,4,6")
    p.add_argument("d", type=int, help="Veronese index")
    p.add_argument("--cutoff", type=int, default=8)

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


if __name__ == "__main__":
    main()
