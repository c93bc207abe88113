"""Reading and writing matrices and vectors; writing analysis reports.

Text format for a matrix: the dimension on the first line, then one line
per row with whitespace-separated entries.  Entries are rational literals:
'p/q', integers, or decimal strings, all read exactly.  The JSON form is
{"n": ..., "rows": [[...], ...]} with entries as literal strings so output
stays exact and diff-friendly.  Vertices are numbered from 1 in every
serialized cycle or cut; in-memory indices are 0-based.  Certificates and
decompositions are only written: no command reads a report back.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Sequence

from .cones import EfficiencyCone
from .decomposition import Decomposition
from .digraph import EfficiencyCertificate, HamiltonianCycle
from .errors import ParseError
from .matrices import ReciprocalMatrix, Vec, as_weight_vector
from .rationals import format_rational, parse_rational, rationalize

__all__ = [
    "parse_matrix",
    "parse_vector",
    "format_matrix",
    "format_vector",
    "matrix_to_json",
    "certificate_to_json",
    "decomposition_to_json",
    "cycle_to_json",
]


def _rational_from_json(value: Any, where: str) -> Fraction:
    try:
        if isinstance(value, str):
            return parse_rational(value)
        if isinstance(value, (int, float, Fraction)):
            return rationalize(value)
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc), where) from None
    raise ParseError(f"expected a rational literal, got {value!r}", where)


def parse_matrix(text: str) -> ReciprocalMatrix:
    """Parse either the text or the JSON matrix format (sniffed)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text, parse_float=parse_rational)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"bad JSON: {exc}", "matrix") from None
        return _matrix_from_json(payload)
    return _parse_matrix_text(text)


def _parse_matrix_text(text: str) -> ReciprocalMatrix:
    lines = [(idx + 1, line.strip()) for idx, line in enumerate(text.splitlines())]
    lines = [(no, line) for no, line in lines if line and not line.startswith("#")]
    if not lines:
        raise ParseError("empty matrix input", "line 1")
    no, head = lines[0]
    try:
        n = int(head)
    except ValueError:
        raise ParseError(f"expected the dimension, got {head!r}", f"line {no}") from None
    if len(lines) - 1 < n:
        raise ParseError(f"expected {n} rows, found {len(lines) - 1}", f"line {no}")
    rows = []
    for r in range(n):
        no, line = lines[1 + r]
        tokens = line.split()
        if len(tokens) != n:
            raise ParseError(f"expected {n} entries, found {len(tokens)}", f"line {no}")
        row = []
        for c, token in enumerate(tokens):
            try:
                row.append(parse_rational(token))
            except ValueError as exc:
                raise ParseError(str(exc), f"line {no}, entry {c + 1}") from None
        rows.append(tuple(row))
    try:
        return ReciprocalMatrix(tuple(rows))
    except ValueError as exc:
        raise ParseError(str(exc), "matrix") from None


def _matrix_from_json(payload: Any) -> ReciprocalMatrix:
    if not isinstance(payload, dict) or "rows" not in payload:
        raise ParseError("matrix JSON needs a 'rows' field", "matrix")
    rows = payload["rows"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ParseError("matrix JSON 'rows' must be a list of lists", "matrix")
    n = payload.get("n", len(rows))
    if type(n) is not int:  # also refuses booleans
        raise ParseError("matrix JSON 'n' must be an integer", "matrix")
    if len(rows) != n:
        raise ParseError(f"expected {n} rows, found {len(rows)}", "matrix")
    parsed = []
    for r, row in enumerate(rows):
        if len(row) != n:
            raise ParseError(f"expected {n} entries, found {len(row)}", f"row {r + 1}")
        parsed.append(
            tuple(_rational_from_json(v, f"row {r + 1}, entry {c + 1}") for c, v in enumerate(row))
        )
    try:
        return ReciprocalMatrix(tuple(parsed))
    except ValueError as exc:
        raise ParseError(str(exc), "matrix") from None


def parse_vector(text: str) -> Vec:
    """Parse a weight vector: whitespace-separated literals or a JSON array."""
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            payload = json.loads(stripped, parse_float=parse_rational)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"bad JSON: {exc}", "vector") from None
        values = [_rational_from_json(v, f"component {i + 1}") for i, v in enumerate(payload)]
    else:
        tokens = stripped.split()
        values = []
        for i, token in enumerate(tokens):
            try:
                values.append(parse_rational(token))
            except ValueError as exc:
                raise ParseError(str(exc), f"component {i + 1}") from None
    try:
        return as_weight_vector(values)
    except ValueError as exc:
        raise ParseError(str(exc), "vector") from None


def format_matrix(a: ReciprocalMatrix) -> str:
    lines = [str(a.n)]
    widths = [max(len(format_rational(row[c])) for row in a.entries) for c in range(a.n)]
    for row in a.entries:
        lines.append(" ".join(format_rational(v).rjust(widths[c]) for c, v in enumerate(row)))
    return "\n".join(lines) + "\n"


def format_vector(w: Sequence[Fraction]) -> str:
    return " ".join(format_rational(v) for v in w)


def matrix_to_json(a: ReciprocalMatrix) -> dict:
    return {"n": a.n, "rows": [[format_rational(v) for v in row] for row in a.entries]}


def cycle_to_json(cycle: HamiltonianCycle) -> list[int]:
    """Vertex sequence, 1-based."""
    return [v + 1 for v in cycle.order]


def certificate_to_json(cert: EfficiencyCertificate) -> dict:
    out: dict[str, Any] = {"status": "efficient" if cert.efficient else "inefficient"}
    if cert.cycle is not None:
        out["cycle"] = cycle_to_json(cert.cycle)
    if cert.cut is not None:
        out["cut"] = [v + 1 for v in cert.cut]
    return out


def _cone_to_json(cone: EfficiencyCone) -> dict:
    return {
        "cycle": cycle_to_json(cone.cycle),
        "product": format_rational(cone.product),
        "singleton": cone.singleton,
        "extremes": [[format_rational(v) for v in ray] for ray in cone.extremes],
    }


def decomposition_to_json(d: Decomposition) -> dict:
    out: dict[str, Any] = {
        "matrix": matrix_to_json(d.matrix),
        "cones": [_cone_to_json(c) for c in d.cones],
        "unit_cycles": [cycle_to_json(c) for c in d.unit_cycles],
    }
    if d.ray is not None:
        out["ray"] = [format_rational(v) for v in d.ray]
    return out

