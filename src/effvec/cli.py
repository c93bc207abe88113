"""Command-line front end.

Subcommands: check, decompose, reversals, perturbed, rank, generate,
self-check.  Matrices and vectors are read from files ("-" for stdin) in
the text or JSON formats of the formats module.  Exit codes: 0 success or
efficient, 1 inefficient or negative result, 2 parse or usage error, 3
work refused as too large (the cycle cap, or oversized roots for rank
--weights).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
from typing import Sequence

from .bruteforce import dominance_search, exhaustive_hamiltonian, probe
from .cones import cycle_product
from .decomposition import (
    DEFAULT_CYCLE_CAP,
    convexity_report,
    decompose,
    enumerate_cycles,
    membership,
)
from .digraph import HamiltonianCycle, build_digraph, improve, is_efficient, strongly_connected
from .errors import CapExceededError, ConvergenceError, EffvecError, ParseError
from .formats import (
    certificate_to_json,
    cycle_to_json,
    decomposition_to_json,
    format_matrix,
    format_rational,
    format_vector,
    matrix_to_json,
    parse_matrix,
    parse_vector,
)
from .generators import KINDS, generate, random_weight_vector
from .matrices import is_consistent
from .perturbed import (
    classify_perturbation,
    detect_column_perturbed,
    efficient_set_union,
)
from .ranking import (
    DEFAULT_TOLERANCE,
    columns_common_cone,
    column_vector,
    perron_vector,
    singular_vector,
    weighted_geometric,
)
from .rationals import parse_rational
from .reversals import count_reversals, min_reversal_vector

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAP = 3

# Exit code of each failure, first match wins: ParseError is also an
# EffvecError and a ValueError.
EXIT_CODES = {
    ParseError: EXIT_USAGE,
    CapExceededError: EXIT_CAP,
    EffvecError: EXIT_NEGATIVE,
    OSError: EXIT_USAGE,
    ValueError: EXIT_USAGE,
}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _parse_cycle_arg(text: str, n: int) -> HamiltonianCycle:
    try:
        vertices = tuple(int(tok) - 1 for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ParseError(f"cycle must be a comma-separated vertex list: {exc}") from exc
    if sorted(vertices) != list(range(n)):
        raise ParseError(f"cycle must visit each of 1..{n} exactly once")
    return HamiltonianCycle.from_vertices(vertices)


def _fmt_cycle(cycle: HamiltonianCycle) -> str:
    closed = [v + 1 for v in cycle.order] + [cycle.order[0] + 1]
    return " -> ".join(str(v) for v in closed)


def _emit_json(payload: object) -> None:
    print(json.dumps(payload, indent=2))


# --- check ---------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> int:
    a = parse_matrix(_read_text(args.matrix))
    w = parse_vector(_read_text(args.vector))
    cert = is_efficient(a, w)
    if args.json:
        _emit_json(certificate_to_json(cert))
    else:
        print(f"status: {'efficient' if cert.efficient else 'inefficient'}")
        if cert.cycle is not None:
            print(f"cycle: {_fmt_cycle(cert.cycle)}")
        if cert.cut is not None:
            print("cut:", " ".join(str(v + 1) for v in sorted(cert.cut)))
    return EXIT_OK if cert.efficient else EXIT_NEGATIVE


# --- decompose -----------------------------------------------------------


def _cmd_decompose(args: argparse.Namespace) -> int:
    a = parse_matrix(_read_text(args.matrix))
    report = None
    if args.summary and not args.convexity and not is_consistent(a):
        # Counts need no cone: below product 1 every cone has n extreme rays.
        d = None
        below, unit = enumerate_cycles(a, cap=args.cap)
        cones, unit_cycles, extremes = len(below), len(unit), [a.n] * len(below)
    else:
        d = decompose(a, cap=args.cap)
        cones, unit_cycles = len(d.cones), len(d.unit_cycles)
        extremes = [len(c.extremes) for c in d.cones]
        if args.convexity:
            report = convexity_report(d, samples=args.budget, seed=args.seed)
    if args.json:
        if args.summary:
            payload = {"cones": cones, "unit_cycles": unit_cycles, "extremes_per_cone": extremes}
        else:
            payload = decomposition_to_json(d)
        if report is not None:
            convexity = {"verdict": report.verdict, "reason": report.reason}
            if report.witness is not None:
                u, v, t = report.witness
                convexity["witness"] = {
                    "u": [format_rational(x) for x in u],
                    "v": [format_rational(x) for x in v],
                    "t": format_rational(t),
                }
            payload = {**payload, "convexity": convexity}
        _emit_json(payload)
        return EXIT_OK

    if d is not None and d.ray is not None:
        print("consistent matrix: efficient set is the single ray")
        print(f"ray: {format_vector(d.ray)}")
    print(f"cones (product < 1): {cones}")
    print(f"unit-product cycles: {unit_cycles}")
    if args.summary:
        print("extremes per cone:", " ".join(map(str, extremes)) or "-")
    else:
        for k, cone in enumerate(d.cones, start=1):
            print(
                f"cone {k}: cycle {_fmt_cycle(cone.cycle)}, "
                f"product {format_rational(cone.product)}"
            )
            for ext in cone.extremes:
                print(f"  extreme: {format_vector(ext)}")
        for cycle in d.unit_cycles:
            print(f"unit cycle: {_fmt_cycle(cycle)}")
    if report is not None:
        print(f"convexity: {report.verdict}" + (f" ({report.reason})" if report.reason else ""))
        if report.witness is not None:
            u, v, t = report.witness
            print(f"  witness: t={format_rational(t)}, u={format_vector(u)}, v={format_vector(v)}")
    return EXIT_OK


# --- reversals -----------------------------------------------------------


def _cmd_reversals(args: argparse.Namespace) -> int:
    a = parse_matrix(_read_text(args.matrix))
    cycle = _parse_cycle_arg(args.cycle, a.n) if args.cycle else None

    if args.minimize:
        if cycle is None:
            raise ParseError("--minimize needs --cycle")
        product = cycle_product(a, cycle)
        if product > 1:
            print("cycle product exceeds 1: no vector admits this cycle", file=sys.stderr)
            return EXIT_NEGATIVE
        vec, along = min_reversal_vector(a, cycle)
        cert = is_efficient(a, vec)
        if args.json:
            _emit_json(
                {
                    "vector": [format_rational(x) for x in vec],
                    "along_cycle": along,
                    "certificate": certificate_to_json(cert),
                }
            )
        else:
            print(f"vector: {format_vector(vec)}")
            print(f"along-cycle reversals: {along}")
            print(f"status: {'efficient' if cert.efficient else 'inefficient'}")
        return EXIT_OK

    if args.vector is None:
        raise ParseError("reversals needs a vector file (or --minimize with --cycle)")
    w = parse_vector(_read_text(args.vector))
    report = count_reversals(a, w, cycle=cycle)
    if args.json:
        payload = {
            "pairs": [
                {"i": i + 1, "j": j + 1, "kind": kind} for i, j, kind in report.pairs
            ],
            "count": report.count,
        }
        if report.along_cycle is not None:
            payload["along_cycle"] = report.along_cycle
        _emit_json(payload)
    else:
        for i, j, kind in report.pairs:
            print(f"({i + 1}, {j + 1}): {kind}")
        print(f"count: {report.count}")
        if report.along_cycle is not None:
            print(f"along-cycle count: {report.along_cycle}")
    return EXIT_OK


# --- perturbed -----------------------------------------------------------


def _transform_to_json(form) -> dict:
    return {
        "scale": [format_rational(s) for s in form.transform.scale],
        "permutation": [p + 1 for p in form.transform.perm],
        "perturbed_index": form.index + 1,
        "candidates": [k + 1 for k in form.candidates],
    }


def _cmd_perturbed(args: argparse.Namespace) -> int:
    a = parse_matrix(_read_text(args.matrix))

    if args.action == "classify":
        label = classify_perturbation(a)
        if args.json:
            _emit_json({"class": label})
        else:
            print(label)
        return EXIT_OK

    form = detect_column_perturbed(a)
    if form is None:
        print("not column-perturbed consistent", file=sys.stderr)
        return EXIT_NEGATIVE

    if args.action == "canonicalize":
        if args.json:
            _emit_json(
                {"canonical": matrix_to_json(form.canonical), "transform": _transform_to_json(form)}
            )
        else:
            print(format_matrix(form.canonical))
            print(f"perturbed index: {form.index + 1}")
            print(
                "scale:",
                " ".join(format_rational(s) for s in form.transform.scale),
            )
            print(
                "permutation:",
                " ".join(str(p + 1) for p in form.transform.perm),
            )
        return EXIT_OK

    # eff-set: constraint systems of the canonical matrix.
    bands = efficient_set_union(form)
    if args.json:
        _emit_json(
            {
                "canonical": matrix_to_json(form.canonical),
                "transform": _transform_to_json(form),
                "bands": [
                    {
                        "top": band.top + 1,
                        "bottom": band.bottom + 1,
                        "cap": format_rational(band.cap),
                        "floor": format_rational(band.floor),
                    }
                    for band in bands
                ],
            }
        )
    else:
        if not bands:
            print("no bands: canonical matrix is consistent, efficient set is one ray")
        for band in bands:
            i, j = band.top + 1, band.bottom + 1
            print(
                f"band ({i}, {j}): {format_rational(band.cap)}*w1 >= w{i} "
                f">= w_k >= w{j} >= {format_rational(band.floor)}*w1"
            )
    return EXIT_OK


# --- rank ----------------------------------------------------------------


def _cmd_rank(args: argparse.Namespace) -> int:
    a = parse_matrix(_read_text(args.matrix))
    weights = None
    if args.weights:
        parts = [tok for tok in args.weights.replace(",", " ").split() if tok]
        try:
            weights = tuple(parse_rational(tok) for tok in parts)
        except ValueError as exc:
            raise ParseError(str(exc), "--weights") from None
        if len(weights) != a.n:
            raise ParseError(f"expected {a.n} weights, got {len(weights)}")

    # First, so that a matrix past the cycle cap is refused before any
    # candidate is computed.
    common = columns_common_cone(a, cap=args.cap)
    candidates = [column_vector(a, k) for k in range(a.n)]
    candidates.append(weighted_geometric(a, weights=weights, tolerance=args.tolerance))
    try:
        candidates.append(perron_vector(a, tolerance=args.tolerance))
        candidates.append(singular_vector(a, tolerance=args.tolerance))
    except ConvergenceError as exc:
        print(f"power iteration did not converge: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE

    if args.json:
        _emit_json(
            {
                "candidates": [
                    {
                        "method": c.method,
                        "vector": [format_rational(x) for x in c.vector],
                        "efficient": c.certificate.efficient,
                        "cycle": cycle_to_json(c.certificate.cycle)
                        if c.certificate.cycle is not None
                        else None,
                        "exact": c.exact,
                        "residual": format_rational(c.residual)
                        if c.residual is not None
                        else None,
                    }
                    for c in candidates
                ],
                "columns_common_cone": cycle_to_json(common) if common is not None else None,
            }
        )
        return EXIT_OK

    rows = []
    for c in candidates:
        status = "efficient" if c.certificate.efficient else "inefficient"
        cycle = _fmt_cycle(c.certificate.cycle) if c.certificate.cycle is not None else "-"
        residual = format_rational(c.residual) if c.residual is not None else "-"
        rows.append((c.method, format_vector(c.vector), status, cycle, residual))
    headers = ("method", "vector", "status", "cycle", "residual")
    widths = [max(len(headers[k]), *(len(r[k]) for r in rows)) for k in range(5)]
    print("  ".join(headers[k].ljust(widths[k]) for k in range(5)))
    for r in rows:
        print("  ".join(r[k].ljust(widths[k]) for k in range(5)))
    if common is not None:
        print(f"columns share cone of cycle: {_fmt_cycle(common)}")
    else:
        print("columns share no single enumerated cone")
    return EXIT_OK


# --- generate ------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    a = generate(args.kind, args.n, seed=args.seed)
    text = (
        json.dumps(matrix_to_json(a), indent=2) + "\n"
        if args.json
        else format_matrix(a) + "\n"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# --- self-check ----------------------------------------------------------


def _cmd_self_check(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    trials = args.trials
    failures = []

    cycle_hits = 0
    for _ in range(trials):
        n = rng.randint(3, 6)
        a = generate("random", n, seed=rng.randrange(1 << 30))
        w = random_weight_vector(rng, n)
        g = build_digraph(a, w)
        strong, _ = strongly_connected(g)
        found = exhaustive_hamiltonian(g)
        if strong != (found is not None):
            failures.append(f"oracle disagreement on n={n}")
        if found is not None:
            cycle_hits += 1
            constructed = is_efficient(a, w).cycle
            if constructed is None or not all(
                g.has_edge(i, j) for i, j in constructed.edges()
            ):
                failures.append(f"constructed cycle invalid on n={n}")
    print(
        f"cycle oracle: {trials} trials, {cycle_hits} efficient, "
        f"{'ok' if not failures else 'FAIL'}"
    )

    before = len(failures)
    inefficient = dominated = 0
    for _ in range(trials):
        n = rng.randint(3, 5)
        a = generate("random", n, seed=rng.randrange(1 << 30))
        w = random_weight_vector(rng, n)
        efficient = is_efficient(a, w).efficient
        if efficient != (dominance_search(a, w) is None):
            failures.append(f"dominator oracle disagrees with certificate on n={n}")
        better = improve(a, w)
        if efficient:
            if better is not None:
                failures.append(f"improve moved an efficient vector on n={n}")
            continue
        inefficient += 1
        if better is None or not is_efficient(a, better).efficient or not probe(a, w, better).dominates:
            failures.append(f"improved vector is not an efficient dominator on n={n}")
        else:
            dominated += 1
    print(
        f"dominance: {trials} trials, {dominated}/{inefficient} inefficient "
        f"dominated, {'ok' if len(failures) == before else 'FAIL'}"
    )

    before = len(failures)
    for _ in range(max(1, trials // 10)):
        n = rng.randint(3, 5)
        a = generate("random", n, seed=rng.randrange(1 << 30))
        d = decompose(a, cap=args.cap)
        for _ in range(20):
            w = random_weight_vector(rng, n)
            in_cone = membership(d, w) is not None
            if in_cone != is_efficient(a, w).efficient:
                failures.append(f"decomposition membership mismatch on n={n}")
    print(f"decomposition: {'ok' if len(failures) == before else 'FAIL'}")

    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    return EXIT_OK if not failures else EXIT_NEGATIVE


# --- parser --------------------------------------------------------------


def _global_options(parser: argparse.ArgumentParser, sub: bool = False) -> None:
    # Subparsers copy their defaults over values the main parser already set,
    # so they must suppress defaults to let flags work in either position.
    def default(value):
        return argparse.SUPPRESS if sub else value

    parser.add_argument("--json", action="store_true", default=default(False), help="emit JSON")
    parser.add_argument(
        "--cap", type=int, default=default(DEFAULT_CYCLE_CAP), metavar="N", help="enumeration cap (default 10)"
    )
    parser.add_argument("--seed", type=int, default=default(0), metavar="S", help="seed for randomized steps")
    parser.add_argument(
        "--tolerance",
        type=str,
        default=default(format_rational(DEFAULT_TOLERANCE)),
        metavar="p/q",
        help="spectral convergence tolerance (default 1/1000000000000)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=default(1000),
        metavar="B",
        help="sample budget for the convexity search (default 1000)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effvec",
        description="Efficiency analysis of weight vectors for reciprocal matrices.",
    )
    _global_options(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="certify a vector efficient or inefficient")
    p.add_argument("matrix")
    p.add_argument("vector")
    _global_options(p, sub=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decompose", help="cone decomposition of the efficient set")
    p.add_argument("matrix")
    p.add_argument("--summary", action="store_true", help="print counts only")
    p.add_argument("--convexity", action="store_true", help="append a convexity report")
    _global_options(p, sub=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("reversals", help="order reversals of a vector against a matrix")
    p.add_argument("matrix")
    p.add_argument("vector", nargs="?", default=None)
    p.add_argument("--cycle", default=None, help="restrict to a cycle: comma-separated vertices")
    p.add_argument(
        "--minimize",
        action="store_true",
        help="construct a minimum-reversal vector for --cycle",
    )
    _global_options(p, sub=True)
    p.set_defaults(func=_cmd_reversals)

    p = sub.add_parser("perturbed", help="column-perturbed consistent analysis")
    p.add_argument("action", choices=("classify", "canonicalize", "eff-set"))
    p.add_argument("matrix")
    _global_options(p, sub=True)
    p.set_defaults(func=_cmd_perturbed)

    p = sub.add_parser("rank", help="candidate ranking vectors with certificates")
    p.add_argument("matrix")
    p.add_argument("--weights", default=None, help="geometric weights: comma-separated rationals")
    _global_options(p, sub=True)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("generate", help="deterministic reciprocal matrix fixtures")
    p.add_argument("kind", choices=KINDS)
    p.add_argument("n", type=int)
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    _global_options(p, sub=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("self-check", help="cross-validate fast paths against oracles")
    p.add_argument("--trials", type=int, default=100)
    _global_options(p, sub=True)
    p.set_defaults(func=_cmd_self_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The report is rendered in full before any of it is written, so a
    # command that fails part way leaves stdout empty.
    report = io.StringIO()
    try:
        # An empty --tolerance keeps the default.
        args.tolerance = parse_rational(args.tolerance) if args.tolerance else DEFAULT_TOLERANCE
        if args.cap < 3:
            raise ValueError("enumeration cap must be at least 3")
        if args.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if args.budget < 1:
            raise ValueError("sample budget must be positive")
        with contextlib.redirect_stdout(report):
            code = args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))
    sys.stdout.write(report.getvalue())
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
