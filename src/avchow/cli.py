"""Command line interface.

Subcommands operate either on a catalog ring (by name) or on a ring
loaded from a JSON spec file (by path).  Exit status: 0 on success,
1 when a verification check fails, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .catalog import RING_NAMES, Catalog, Cell, default_catalog
from .errors import AvchowError
from .poly import Polynomial, format_rational, parse_rational
from .ringspec import LoadedRing, load_ring_spec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

MAP_NAMES = ("x2_tilde", "torelli")

# Zeros above the socle degree that ``hilbert`` writes at once.
HILBERT_ZERO_CHUNK = 4096

# The largest ``hilbert --max`` accepted.  Every degree up to it is written,
# two bytes each above the socle degree, so a 20-digit argument would stream
# zeros for practically ever; this one writes at most about 20 MB.
MAX_HILBERT_DEGREE = 10_000_000


class UsageError(AvchowError):
    """Bad command line input (unknown ring, malformed value, ...)."""


def _integer(text: str) -> int:
    """An integer option: a rational literal with no '/', so ASCII digits only."""
    try:
        if "/" not in text:
            return int(parse_rational(text))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avchow",
        description=(
            "Exact computations in finitely presented graded rings, with a "
            "built-in catalog of intersection rings of compactified moduli "
            "of abelian varieties."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def ring_option(p):
        p.add_argument(
            "--ring",
            required=True,
            metavar="RING",
            help="catalog ring name (%s) or path to a ring spec JSON file"
            % ", ".join(RING_NAMES),
        )

    p = sub.add_parser("nf", help="normal form of an expression in a ring")
    ring_option(p)
    p.add_argument("expr", metavar="EXPR", help="polynomial expression in the ring generators")

    p = sub.add_parser("degree", help="degree (integration value) of a top-degree class")
    ring_option(p)
    p.add_argument("expr", metavar="EXPR", help="homogeneous expression of top degree")

    p = sub.add_parser("hilbert", help="dimensions of the graded pieces")
    ring_option(p)
    p.add_argument("--max", type=_integer, default=None, metavar="D", help="largest degree to report")

    p = sub.add_parser("pairing", help="matrix of degrees of products")
    ring_option(p)
    p.add_argument("--deg", type=_integer, required=True, metavar="K", help="codimension of the rows")
    p.add_argument(
        "--rows",
        nargs="+",
        default=None,
        metavar="EXPR",
        help="row classes of codimension K (default: standard monomials)",
    )
    p.add_argument(
        "--cols",
        nargs="+",
        default=None,
        metavar="EXPR",
        help="column classes of complementary codimension (default: standard monomials)",
    )

    p = sub.add_parser("solve-class", help="reconstruct a class from its pairing numbers")
    ring_option(p)
    p.add_argument("--deg", type=_integer, required=True, metavar="K", help="codimension of the unknown class")
    p.add_argument(
        "--values",
        nargs="+",
        required=True,
        metavar="Q",
        help="pairing numbers, one per probe (rationals like 5/8; commas allowed)",
    )
    p.add_argument(
        "--probes",
        nargs="+",
        default=None,
        metavar="EXPR",
        help="probe classes of complementary codimension (default: standard monomials)",
    )

    p = sub.add_parser("push", help="pushforward of an expression along a catalog map")
    p.add_argument(
        "--map",
        required=True,
        choices=MAP_NAMES,
        help="x2_tilde: fiber integration to the genus-2 base; "
        "torelli: tabulated boundary pushforward into the genus-3 ring",
    )
    p.add_argument("expr", metavar="EXPR", help="expression in the source generators or symbols")

    p = sub.add_parser("tables", help="re-emit the catalog tables, recomputed from the rings")
    p.add_argument("--id", default=None, metavar="ID", help="emit a single table (for example 3g)")

    p = sub.add_parser("verify", help="run the stored checks and report")
    p.add_argument("--scope", default="all", metavar="S", help="all, or a ring, group or table (table:3g or 3g) that the checks name; an unknown scope lists them")
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _resolve_ring(spec: str, catalog: Catalog) -> LoadedRing:
    if spec in RING_NAMES:
        return catalog.ring(spec)
    if os.path.exists(spec):
        return load_ring_spec(spec)
    raise UsageError(
        f"unknown ring {spec!r}: not a catalog name and not an existing file"
    )


def _parse_values(tokens: list[str]) -> list[Fraction]:
    values = []
    for token in tokens:
        for piece in token.split(","):
            piece = piece.strip()
            if not piece:
                continue
            try:
                values.append(parse_rational(piece))
            except ValueError as err:
                raise UsageError(f"bad rational value {piece!r}") from err
    if not values:
        raise UsageError("no pairing values given")
    return values


def _require_functional(loaded: LoadedRing):
    if loaded.functional is None:
        raise UsageError(
            f"ring {loaded.name!r} has no degree normalization; "
            "degree, pairing, and solve-class need one"
        )
    return loaded.functional


def _complement(loaded: LoadedRing, functional, deg: int) -> int:
    """The codimension complementary to ``--deg``, which must lie in 0..top degree."""
    if not 0 <= deg <= functional.top_degree:
        raise UsageError(f"--deg {deg} is outside 0..{functional.top_degree}, the degrees of {loaded.name!r}")
    return functional.top_degree - deg


def _default_basis(loaded: LoadedRing, degree: int) -> list[Polynomial]:
    basis = loaded.ring.standard_basis_polynomials(degree)
    if not basis:
        raise UsageError(f"no standard monomials in degree {degree} of {loaded.name!r}")
    return basis


def _cmd_nf(args, catalog: Catalog) -> int:
    loaded = _resolve_ring(args.ring, catalog)
    print(loaded.ring.normal_form(loaded.parse_class(args.expr)))
    return EXIT_OK


def _cmd_degree(args, catalog: Catalog) -> int:
    loaded = _resolve_ring(args.ring, catalog)
    functional = _require_functional(loaded)
    print(format_rational(functional.degree(loaded.parse(args.expr))))
    return EXIT_OK


def _cmd_hilbert(args, catalog: Catalog) -> int:
    loaded = _resolve_ring(args.ring, catalog)
    ring = loaded.ring
    if args.max is not None:
        if args.max > MAX_HILBERT_DEGREE:
            raise UsageError(f"--max {args.max} is above MAX_HILBERT_DEGREE = {MAX_HILBERT_DEGREE}")
        top = args.max
    elif loaded.expected_hilbert is not None:
        top = len(loaded.expected_hilbert) - 1
    else:
        top = max(ring.socle_degree, 0)
    # Pieces above the socle degree are zero: write them in chunks, so a
    # large --max costs no memory.
    shown = min(top, max(ring.socle_degree, 0))
    sys.stdout.write(",".join(str(d) for d in ring.hilbert_function(shown)))
    for start in range(shown, top, HILBERT_ZERO_CHUNK):
        sys.stdout.write(",0" * min(HILBERT_ZERO_CHUNK, top - start))
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_pairing(args, catalog: Catalog) -> int:
    loaded = _resolve_ring(args.ring, catalog)
    functional = _require_functional(loaded)
    complement = _complement(loaded, functional, args.deg)
    if args.rows is None:
        rows = _default_basis(loaded, args.deg)
    else:
        rows = [loaded.parse(text) for text in args.rows]
    if args.cols is None:
        cols = _default_basis(loaded, complement)
    else:
        cols = [loaded.parse(text) for text in args.cols]
    matrix = functional.pairing_matrix(args.deg, rows, cols)
    print("rows:", "; ".join(str(r) for r in rows))
    print("cols:", "; ".join(str(c) for c in cols))
    for row in matrix:
        print(",".join(format_rational(value) for value in row))
    return EXIT_OK


def _cmd_solve_class(args, catalog: Catalog) -> int:
    loaded = _resolve_ring(args.ring, catalog)
    functional = _require_functional(loaded)
    complement = _complement(loaded, functional, args.deg)
    if args.probes is None:
        probes = _default_basis(loaded, complement)
    else:
        probes = [loaded.parse(text) for text in args.probes]
    values = _parse_values(args.values)
    if len(values) != len(probes):
        raise UsageError(
            f"got {len(values)} values for {len(probes)} probes"
            + ("" if args.probes is not None else " (the default probes are the standard monomials, listed by `pairing`)")
        )
    print(functional.solve_class(args.deg, probes, values))
    return EXIT_OK


def _cmd_push(args, catalog: Catalog) -> int:
    if args.map == "x2_tilde":
        surface = catalog.fibered_surface()
        element = surface.combined.parse_class(args.expr)
        image = surface.relative.pushforward(element, surface.rule)
        print(image)
        return EXIT_OK
    data = catalog.torelli()
    combo = data.parse_combination(args.expr)
    print(data.push.push_combination(combo))
    return EXIT_OK


def _grid_rows(cells: list[Cell], width: int) -> list[str]:
    """Recomputed values of row-major cells, one comma-joined string per row."""
    values = [str(cell.recompute()) for cell in cells]
    return [",".join(values[start : start + width]) for start in range(0, len(values), width)]


def _format_table(table, cells: list[Cell]) -> list[str]:
    lines = [f"table {table.id}"]
    if table.kind == "degrees":
        for cell in cells:
            if cell.recompute is None:
                lines.append(f"  {cell.key} = {cell.shown} (recorded; not recomputed)")
            else:
                lines.append(f"  {cell.key} = {cell.recompute()}")
    elif table.kind == "pairing_vector":
        lines.append("  basis: " + "; ".join(table.basis_labels))
        lines.append("  " + ",".join(str(cell.recompute() * table.divide_by) for cell in cells))
        if table.divide_by != 1:
            lines.append(f"  (entries are {table.divide_by} times the pairing numbers)")
    else:  # a pairing or relative pairing grid
        lines.append("  rows: " + "; ".join(table.row_labels))
        lines.append("  cols: " + "; ".join(table.col_labels))
        lines.extend("  " + row for row in _grid_rows(cells, len(table.col_labels)))
    return lines


def _format_table_4a(catalog: Catalog) -> list[str]:
    raw = catalog.torelli().raw["table_4a"]
    rows = _grid_rows(catalog.table_4a_cells(), len(raw["basis"]))
    lines = ["table 4a", "  basis: " + "; ".join(raw["basis"])]
    lines.extend(f"  {row['symbol']}: {values}" for row, values in zip(raw["rows"], rows))
    lines.append("  (rows list half the tabulated image)")
    return lines


def _cmd_tables(args, catalog: Catalog) -> int:
    known = sorted(scope.removeprefix("table:") for scope in catalog.scopes() if scope.startswith("table:"))
    if args.id is not None and args.id not in known:
        raise UsageError(f"unknown table {args.id!r}; known tables: {', '.join(known)}")
    owners = {
        table.id: (loaded, table)
        for loaded in map(catalog.ring, RING_NAMES)
        for table in loaded.tables
    }
    blocks = []
    for table_id in known:
        if args.id not in (None, table_id):
            continue
        if table_id == "4a":
            lines = _format_table_4a(catalog)
        else:
            loaded, table = owners[table_id]
            lines = _format_table(table, catalog.table_cells(loaded, table))
        blocks.append("\n".join(lines))
    print("\n\n".join(blocks))
    return EXIT_OK


def _cmd_verify(args, catalog: Catalog) -> int:
    report = catalog.run_verification(args.scope)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


_COMMANDS = {
    "nf": _cmd_nf,
    "degree": _cmd_degree,
    "hilbert": _cmd_hilbert,
    "pairing": _cmd_pairing,
    "solve-class": _cmd_solve_class,
    "push": _cmd_push,
    "tables": _cmd_tables,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    catalog = default_catalog()
    try:
        return _COMMANDS[args.command](args, catalog)
    except (AvchowError, OSError) as err:  # OSError: a closed stdout, say
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
