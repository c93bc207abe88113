"""Command-line front end.

Subcommands: check, decompose, reversals, perturbed, rank, generate,
self-check.  Inputs are files ("-" for stdin) in the formats module's text
or JSON formats.  Each command returns its exit code and its report, and
``main`` renders the whole report through ``formats.render`` before writing
any of it.  Exit codes: 0 success or efficient, 1 inefficient or negative
result, 2 parse or usage error, 3 work refused as too large (the cycle cap,
oversized roots for rank --weights, generate beyond n = 1000) or a
convexity question that neither step of ``convexity_report`` settles.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from typing import Sequence

from .bruteforce import dominance_search, exhaustive_hamiltonian, probe
from .cones import cycle_product
from .decomposition import DEFAULT_CYCLE_CAP, convexity_report, decompose, membership
from .digraph import HamiltonianCycle, build_digraph, improve, is_efficient
from .errors import CapExceededError, ConvergenceError, EffvecError, ParseError
from .formats import (
    certificate_to_json,
    convexity_to_json,
    decomposition_to_json,
    matrix_to_json,
    min_reversal_to_json,
    parse_matrix,
    parse_vector,
    perturbed_to_json,
    ranking_to_json,
    render,
    reversals_to_json,
    summary_to_json,
)
from .generators import KINDS, generate, random_weight_vector
from .perturbed import classify_perturbation, detect_column_perturbed, efficient_set_union
from .ranking import (
    DEFAULT_TOLERANCE,
    columns_common_cone,
    column_vector,
    perron_vector,
    singular_vector,
    weighted_geometric,
)
from .rationals import format_rational, parse_rational
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


# --- commands ------------------------------------------------------------
# Each returns (exit code, report): the report dict, or for a negative
# result with no report its one stderr line.


def _cmd_check(args: argparse.Namespace) -> tuple[int, dict]:
    a = parse_matrix(_read_text(args.matrix))
    w = parse_vector(_read_text(args.vector))
    cert = is_efficient(a, w)
    return EXIT_OK if cert.efficient else EXIT_NEGATIVE, certificate_to_json(cert)


def _cmd_decompose(args: argparse.Namespace) -> tuple[int, dict]:
    a = parse_matrix(_read_text(args.matrix))
    d = decompose(a, cap=args.cap)
    report = summary_to_json(d) if args.summary else decomposition_to_json(d)
    if args.convexity:
        report["convexity"] = convexity_to_json(convexity_report(d))
    return EXIT_OK, report


def _cmd_reversals(args: argparse.Namespace) -> tuple[int, dict | str]:
    a = parse_matrix(_read_text(args.matrix))
    cycle = _parse_cycle_arg(args.cycle, a.n) if args.cycle else None
    if args.minimize:
        if cycle is None:
            raise ParseError("--minimize needs --cycle")
        if args.vector is not None:
            raise ParseError("--minimize takes no vector file")
        if cycle_product(a, cycle) > 1:
            return EXIT_NEGATIVE, "cycle product exceeds 1: no vector admits this cycle"
        vec, along = min_reversal_vector(a, cycle)
        return EXIT_OK, min_reversal_to_json(vec, along, is_efficient(a, vec))
    if args.vector is None:
        raise ParseError("reversals needs a vector file (or --minimize with --cycle)")
    w = parse_vector(_read_text(args.vector))
    return EXIT_OK, reversals_to_json(count_reversals(a, w, cycle=cycle))


def _cmd_perturbed(args: argparse.Namespace) -> tuple[int, dict | str]:
    a = parse_matrix(_read_text(args.matrix))
    if args.action == "classify":
        return EXIT_OK, {"class": classify_perturbation(a)}
    form = detect_column_perturbed(a)
    if form is None:
        return EXIT_NEGATIVE, "not column-perturbed consistent"
    if args.action == "canonicalize":
        return EXIT_OK, perturbed_to_json(form)
    # eff-set: constraint systems of the canonical matrix.
    return EXIT_OK, perturbed_to_json(form, efficient_set_union(form))


def _cmd_rank(args: argparse.Namespace) -> tuple[int, dict | str]:
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
        return EXIT_NEGATIVE, f"power iteration did not converge: {exc}"
    return EXIT_OK, ranking_to_json(candidates, common)


def _cmd_generate(args: argparse.Namespace) -> tuple[int, dict]:
    return EXIT_OK, matrix_to_json(generate(args.kind, args.n, seed=args.seed))


def _cmd_self_check(args: argparse.Namespace) -> tuple[int, dict]:
    if args.trials < 1:
        raise ValueError("trial count must be positive")
    rng = random.Random(args.seed)
    trials = args.trials
    checks, failures = [], []

    cycle_hits = 0
    for _ in range(trials):
        n = rng.randint(3, 6)
        a = generate("random", n, seed=rng.randrange(1 << 30))
        w = random_weight_vector(rng, n)
        g = build_digraph(a, w)
        certificate = is_efficient(a, w)
        found = exhaustive_hamiltonian(g)
        if certificate.efficient != (found is not None):
            failures.append(f"oracle disagreement on n={n}")
        if found is not None:
            cycle_hits += 1
            constructed = certificate.cycle
            if constructed is None or not g.has_cycle(constructed):
                failures.append(f"constructed cycle invalid on n={n}")
    checks.append(f"cycle oracle: {trials} trials, {cycle_hits} efficient, {'ok' if not failures else 'FAIL'}")

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
    checks.append(
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
    checks.append(f"decomposition: {'ok' if len(failures) == before else 'FAIL'}")
    return EXIT_OK if not failures else EXIT_NEGATIVE, {"checks": checks, "failures": failures}


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="effvec",
        description="Efficiency analysis of weight vectors for reciprocal matrices.",
    )
    _global_options(parser)
    parser.set_defaults(out=None)  # only generate takes --out
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="certify a vector efficient or inefficient")
    p.add_argument("matrix")
    p.add_argument("vector")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decompose", help="cone decomposition of the efficient set")
    p.add_argument("matrix")
    p.add_argument("--summary", action="store_true", help="print counts only")
    p.add_argument("--convexity", action="store_true", help="append a convexity report")
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
    p.set_defaults(func=_cmd_reversals)

    p = sub.add_parser("perturbed", help="column-perturbed consistent analysis")
    p.add_argument("action", choices=("classify", "canonicalize", "eff-set"))
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_perturbed)

    p = sub.add_parser("rank", help="candidate ranking vectors with certificates")
    p.add_argument("matrix")
    p.add_argument("--weights", default=None, help="geometric weights: comma-separated rationals")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("generate", help="deterministic reciprocal matrix fixtures")
    p.add_argument("kind", choices=KINDS)
    p.add_argument("n", type=int)
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("self-check", help="cross-validate fast paths against oracles")
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=_cmd_self_check)

    for p in sub.choices.values():
        _global_options(p, sub=True)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # An empty --tolerance keeps the default.
        args.tolerance = parse_rational(args.tolerance) if args.tolerance else DEFAULT_TOLERANCE
        if args.cap < 3:
            raise ValueError("enumeration cap must be at least 3")
        if args.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        code, report = args.func(args)
        # Rendered in full before any of it is written, so a command that
        # fails part way leaves stdout empty.
        out, err = render(args.command, report, args.json)
        if args.out is not None:  # generate --out
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(out)
            out = ""
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))
    sys.stdout.write(out)
    sys.stderr.write(err)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
