"""Command-line front end.

Subcommands: compose, normalize, ariadne, theseus, xi, tables, eval,
verify.  Files are the JSON shapes each module defines; output is
canonical JSON (or a pretty rendering with --format pretty) on stdout.

Exit codes: 0 ok, 1 verification failure, 2 parse error (including a
maze with a dead end or a name that is not a nonempty string, and a
negative degree), 3 shape or domain mismatch, 4 enumeration limit or a
number too long to read or print.
"""

import argparse
import json
import sys
import time

from . import bridge, verify
from .errors import (
    DomainMismatchError,
    EnumerationLimitError,
    ParseError,
    ShapeMismatchError,
)
from .labycat import (
    Maze,
    MazeHom,
    compose_in_laby_n,
    laby2_table,
    maze_hom_compose,
    normalize_homogeneous,
    normalize_numerical,
    quadratic_generators,
    validate_maze,
)
from .functor_lab import (
    MAX_MATRIX_SIDE,
    LabyModulePresentation,
    MSetModulePresentation,
    json_rows,
    phi_inverse_eval,
    psi_inverse_eval,
)
from .matrices import IntMat
from .msetcat import (MultHom, Multation, mset2_generators, mset2_table,
                      multhom_compose)
from .multisets import MultiSet, check_names
from .scalars import scalar_str


# What reading malformed JSON data into the package's types can raise; a
# label or coefficient "p/0" raises ZeroDivisionError.
_MALFORMED = (KeyError, ValueError, TypeError, ZeroDivisionError)


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _dump(obj):
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _check_maze(path, maze: Maze):
    try:
        check_names(maze.dom + maze.cod)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not validate_maze(maze):
        raise ParseError(f"{path}: a maze has a dead end or a passage "
                         "outside its endpoints")


def load_maze_hom(path) -> MazeHom:
    data = _load(path)
    try:
        if "passages" in data:
            hom = MazeHom.of(Maze.from_json(data))
        elif "terms" in data:
            hom = MazeHom.from_json(data)
        else:
            raise ParseError(
                f"{path}: neither a maze nor a maze combination")
    except _MALFORMED as exc:
        raise ParseError(f"{path}: malformed maze data ({exc})") from exc
    for maze, _ in hom.comb:
        _check_maze(path, maze)
    return hom


def load_mult_hom(path) -> MultHom:
    data = _load(path)
    try:
        if "pairs" in data:
            return MultHom.of(Multation.from_json(data))
        if "terms" in data:
            return MultHom.from_json(data)
    except _MALFORMED as exc:
        raise ParseError(f"{path}: malformed multation data ({exc})") from exc
    raise ParseError(f"{path}: neither a multation nor a combination")


def load_matrix(path) -> IntMat:
    data = _load(path)
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ParseError(f"{path}: expected a JSON array of rows")
    ncols = len(data[0]) if data else 0
    if max(len(data), ncols) > MAX_MATRIX_SIDE:
        raise ParseError(f"{path}: matrix side above the guard "
                         f"{MAX_MATRIX_SIDE}")
    try:
        return IntMat(len(data), ncols, json_rows(data, len(data), ncols))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def pretty_maze(maze: Maze) -> str:
    head = "{" + ",".join(maze.dom) + "} -> {" + ",".join(maze.cod) + "}"
    if not maze.passages:
        return f"maze {head} (no passages)"
    lines = [f"maze {head}"]
    for p, m in maze.passages:
        suffix = f"  x{m}" if m > 1 else ""
        lines.append(f"  {p.src} -({scalar_str(p.label)})-> {p.dst}{suffix}")
    return "\n".join(lines)


def _pretty_comb(hom, pretty_basis) -> str:
    if hom.is_zero():
        return "0"
    return "\n+ ".join(("" if c == 1 else f"{scalar_str(c)} * ")
                       + pretty_basis(x) for x, c in hom.comb)


def pretty_maze_hom(hom: MazeHom) -> str:
    return _pretty_comb(hom, pretty_maze)


def pretty_multation(mu: Multation) -> str:
    cols = mu.columns()
    widths = [max(len(a), len(b)) for a, b in cols]
    top = " ".join(a.ljust(w) for (a, _), w in zip(cols, widths))
    bot = " ".join(b.ljust(w) for (_, b), w in zip(cols, widths))
    return f"[{top}]\n[{bot}]"


def pretty_mult_hom(hom: MultHom) -> str:
    return _pretty_comb(hom, lambda mu: "\n" + pretty_multation(mu))


def cmd_compose(args) -> int:
    if args.category == "mset":
        f, g = map(load_mult_hom, args.files)
        _emit(multhom_compose(f, g), pretty_mult_hom, args.format)
        return 0
    f, g = map(load_maze_hom, args.files)
    if args.category == "laby":
        result = maze_hom_compose(f, g)
    else:
        if args.degree is None:
            raise ParseError("--degree is required for quotient composition")
        result = compose_in_laby_n(f, g, args.degree)
        if args.category == "laby_hom":
            result = normalize_homogeneous(result, args.degree)
    _emit(result, pretty_maze_hom, args.format)
    return 0


def cmd_normalize(args) -> int:
    hom = load_maze_hom(args.file)
    if args.kind == "numerical":
        result = normalize_numerical(hom, args.degree)
    else:
        result = normalize_homogeneous(hom, args.degree)
    _emit(result, pretty_maze_hom, args.format)
    return 0


def cmd_ariadne(args) -> int:
    hom = load_maze_hom(args.file)
    matrix = bridge.ariadne_hom(hom, args.degree)
    if args.format == "pretty":
        lines = [f"degree {args.degree} translation "
                 f"{{{','.join(matrix.dom)}}} -> {{{','.join(matrix.cod)}}}"]
        if matrix.is_zero():
            lines.append("  0")
        for b, a in matrix.nonzero_keys():
            lines.append(f"  ({b!r} <- {a!r}):")
            entry = pretty_mult_hom(matrix.entry(b, a))
            lines.extend("    " + ln for ln in entry.splitlines())
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _dump(matrix.to_json())
    return 0


def cmd_theseus(args) -> int:
    hom = load_mult_hom(args.file)
    result = bridge.theseus_hom(hom, args.degree)
    _emit(result, pretty_maze_hom, args.format)
    return 0


def cmd_xi(args) -> int:
    data = _load(args.file)
    if args.inverse:
        try:
            maze = Maze.from_json(data)
        except _MALFORMED as exc:
            raise ParseError(f"{args.file}: malformed maze ({exc})") from exc
        _check_maze(args.file, maze)
        if not maze.is_pure():
            raise ParseError(f"{args.file}: only pure mazes correspond to spans")
        corr = bridge.xi_inverse(maze)
        _dump(corr.to_json())
        return 0
    try:
        corr = bridge.Correspondence.from_json(data)
    except _MALFORMED as exc:
        raise ParseError(f"{args.file}: malformed span ({exc})") from exc
    maze = bridge.xi_correspondence(corr)
    if args.format == "pretty":
        sys.stdout.write(pretty_maze(maze) + "\n")
    else:
        _dump(maze.to_json())
    return 0


def _cell_name(hom, names) -> str:
    if hom is None:
        return "--"
    if hom.is_zero():
        return "0"
    parts = []
    for basis, c in hom.comb:
        name = names.get(basis)
        if name is None:
            return "?"
        prefix = "" if c == 1 else scalar_str(c)
        parts.append(prefix + name)
    return "+".join(parts)


def _render_table(title, table, order, names, label) -> str:
    lines = [title, "      " + "".join(f"{label(c):>6s}" for c in order)]
    for r in order:
        cells = [_cell_name(table[r, c], names) for c in order]
        lines.append(f"{label(r):>6s}" + "".join(f"{c:>6s}" for c in cells))
    return "\n".join(lines)


def render_tables() -> str:
    gens = quadratic_generators()
    maze_names = {gens[k]: k for k in ("A", "B", "C", "S")}
    for k in ("I0", "I1", "I2"):
        maze_names[gens[k]] = "I"
    mgens = mset2_generators()
    mult_names = {mgens[k]: k[0] for k in ("alpha", "beta", "sigma")}
    for a in (["1", "1"], ["1", "2"]):
        mult_names[Multation.identity(MultiSet(a))] = "i"
    return "\n\n".join((
        _render_table("degree-2 maze composition (row o column):",
                      laby2_table(), ["A", "B", "C", "S"], maze_names, str),
        _render_table("degree-2 multation composition (row o column):",
                      mset2_table(), ["alpha", "beta", "sigma"], mult_names,
                      lambda k: k[0])))


def cmd_tables(args) -> int:
    if args.degree != 2:
        raise ParseError("only the degree-2 tables are available")
    sys.stdout.write(render_tables() + "\n")
    return 0


def cmd_eval(args) -> int:
    matrix = load_matrix(args.matrix)
    data = _load(args.module)
    cls, evaluate, legend = {
        "laby": (LabyModulePresentation, phi_inverse_eval, list),
        "mset": (MSetModulePresentation, psi_inverse_eval, MultiSet.to_json),
    }[args.kind]
    try:
        pres = cls.from_json(data)
        hom = evaluate(pres, matrix)
    except _MALFORMED as exc:
        raise ParseError(f"{args.module}: {exc}") from exc
    plan = pres.plans[matrix.nrows, matrix.ncols]
    _dump({
        "dom_blocks": [legend(x) for x in plan.col_index[0]],
        "cod_blocks": [legend(y) for y in plan.row_index[0]],
        "dom_orders": list(hom.dom_orders),
        "cod_orders": list(hom.cod_orders),
        "matrix": hom.to_json(),
    })
    return 0


def cmd_verify(args) -> int:
    t0 = time.time()
    results = verify.run_suite(args.suite, seed=args.seed, trials=args.trials)
    failed = 0
    for name, ok, detail in results:
        if ok:
            sys.stdout.write(f"{name}: pass\n")
        else:
            failed += 1
            sys.stdout.write(f"{name}: FAIL ({detail})\n")
    dt = time.time() - t0
    sys.stdout.write(f"{len(results) - failed}/{len(results)} checks passed "
                     f"in {dt:.2f}s\n")
    return 1 if failed else 0


def _emit(result, pretty, fmt):
    if fmt == "pretty":
        sys.stdout.write(pretty(result) + "\n")
    else:
        _dump(result.to_json())


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mazelab",
        description="exact computations in the maze and multation categories")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["json", "pretty"], default="json")

    p = sub.add_parser("compose", help="compose two arrows")
    p.add_argument("--category", choices=["laby", "laby_n", "laby_hom", "mset"],
                   default="laby")
    p.add_argument("--degree", "-n", type=int)
    add_format(p)
    p.add_argument("files", nargs=2)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("normalize", help="normal form in a quotient")
    p.add_argument("--kind", choices=["numerical", "homogeneous"],
                   default="numerical")
    p.add_argument("--degree", "-n", type=int, required=True)
    add_format(p)
    p.add_argument("file")
    p.set_defaults(func=cmd_normalize)

    for name, what, func in (
            ("ariadne", "a maze to multations", cmd_ariadne),
            ("theseus", "a multation to a maze", cmd_theseus)):
        p = sub.add_parser(name, help=f"translate {what}")
        p.add_argument("--degree", "-n", type=int, required=True)
        add_format(p)
        p.add_argument("file")
        p.set_defaults(func=func)

    p = sub.add_parser("xi", help="translate a span of surjections")
    p.add_argument("--inverse", action="store_true",
                   help="read a pure maze and emit its canonical span")
    add_format(p)
    p.add_argument("file")
    p.set_defaults(func=cmd_xi)

    p = sub.add_parser("tables", help="print the degree-2 tables")
    p.add_argument("--degree", "-n", type=int, default=2)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("eval", help="evaluate a presentation on a matrix")
    p.add_argument("--kind", choices=["laby", "mset"], required=True)
    p.add_argument("module")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(verify.SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "degree", None) is not None and args.degree < 0:
            raise ParseError(f"--degree must be nonnegative, not {args.degree}")
        if getattr(args, "trials", None) is not None and args.trials < 0:
            raise ParseError(f"--trials must be nonnegative, not {args.trials}")
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except (DomainMismatchError, ShapeMismatchError) as exc:
        sys.stderr.write(f"shape error: {exc}\n")
        return 3
    except EnumerationLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return 4
    except ValueError as exc:
        # An int too long to read or print; any other one is a fault.
        if "integer string conversion" not in str(exc):
            raise
        sys.stderr.write(f"resource limit: {args.command}: a number passes "
                         "the interpreter's limit of "
                         f"{sys.get_int_max_str_digits()} digits\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
