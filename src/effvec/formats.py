"""Reading and writing matrices and vectors; building and rendering reports.

Text format for a matrix: the dimension on the first line, then one line
per row with whitespace-separated entries.  Entries are rational literals:
'p/q', integers, or decimal strings, all read exactly.  The JSON form is
{"n": ..., "rows": [[...], ...]} with entries as literal strings so output
stays exact and diff-friendly.

A report is the dict a command's ``--json`` prints.  The ``*_to_json``
builders make it, formatting every rational once; vertices are numbered
from 1 in every cycle or cut, while in-memory indices are 0-based.
``render`` turns a report into its stdout text, as JSON or through one
text renderer per command, and each text renderer reads only the report.
Reports are only written: no command reads one back.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Any, Sequence

from .decomposition import ConvexityReport, Decomposition
from .digraph import EfficiencyCertificate, HamiltonianCycle
from .errors import ParseError
from .matrices import ReciprocalMatrix, Vec, as_weight_vector
from .perturbed import ColumnPerturbedForm, EfficiencyBand
from .ranking import RankingCandidate
from .reversals import ReversalReport
from .rationals import _echo, format_rational, parse_rational, rationalize

__all__ = [
    "parse_matrix",
    "parse_vector",
    "format_matrix",
    "format_vector",
    "matrix_to_json",
    "certificate_to_json",
    "decomposition_to_json",
    "summary_to_json",
    "convexity_to_json",
    "reversals_to_json",
    "min_reversal_to_json",
    "perturbed_to_json",
    "ranking_to_json",
    "cycle_to_json",
    "render",
]


def _rational_from_json(value: Any, where: str) -> Fraction:
    try:
        if isinstance(value, str):
            return parse_rational(value)
        if isinstance(value, (int, float, Fraction)):
            return rationalize(value)
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc), where) from None
    raise ParseError(f"expected a rational literal, got {_echo(value)}", where)


def _json_int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"integer literal exceeds the {sys.get_int_max_str_digits()}-digit limit") from None


def _load_json(text: str, where: str) -> Any:
    """``json.loads`` with exact numbers; a literal it cannot read is a ParseError at ``where`` too."""
    try:
        return json.loads(text, parse_float=parse_rational, parse_int=_json_int)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"bad JSON: {exc}", where) from None
    except ValueError as exc:
        raise ParseError(str(exc), where) from None


def parse_matrix(text: str) -> ReciprocalMatrix:
    """Parse either the text or the JSON matrix format (sniffed)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _matrix_from_json(_load_json(text, "matrix"))
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
        raise ParseError(f"expected the dimension, got {_echo(head)}", f"line {no}") from None
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
        a = ReciprocalMatrix(tuple(rows))
    except ValueError as exc:
        raise ParseError(str(exc), "matrix") from None
    if len(lines) > n + 1:
        raise ParseError(f"unexpected line after the {n} matrix rows", f"line {lines[n + 1][0]}")
    return a


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
        payload = _load_json(stripped, "vector")
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
    return "\n".join(_matrix_lines(matrix_to_json(a))) + "\n"


def format_vector(w: Sequence[Fraction]) -> str:
    return " ".join(format_rational(v) for v in w)


# --- reports: JSON builders ----------------------------------------------


def _vector_to_json(w: Sequence[Fraction]) -> list[str]:
    return [format_rational(v) for v in w]


def matrix_to_json(a: ReciprocalMatrix) -> dict:
    return {"n": a.n, "rows": [_vector_to_json(row) for row in a.entries]}


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


def decomposition_to_json(d: Decomposition) -> dict:
    out: dict[str, Any] = {
        "matrix": matrix_to_json(d.matrix),
        "cones": [
            {
                "cycle": cycle_to_json(cone.cycle),
                "product": format_rational(product := cone.product),
                "singleton": product == 1,
                "extremes": [_vector_to_json(ray) for ray in cone.extremes],
            }
            for cone in d.cones
        ],
        "unit_cycles": [cycle_to_json(c) for c in d.unit_cycles],
    }
    if d.ray is not None:
        out["ray"] = _vector_to_json(d.ray)
    return out


def summary_to_json(d: Decomposition) -> dict:
    """Counts of a decomposition, with a consistent matrix's ray.  It
    counts the cycle orders, so no record is built, and below product 1
    every cone has n extreme rays, so no ray is built either."""
    out: dict[str, Any] = {"cones": len(d.cone_orders), "unit_cycles": len(d.unit_orders)}
    out["extremes_per_cone"] = [d.matrix.n] * len(d.cone_orders)
    if d.ray is not None:
        out["ray"] = _vector_to_json(d.ray)
    return out


def convexity_to_json(report: ConvexityReport) -> dict:
    out: dict[str, Any] = {"verdict": report.verdict, "reason": report.reason}
    if report.witness is not None:
        u, v, t = report.witness
        out["witness"] = {"u": _vector_to_json(u), "v": _vector_to_json(v), "t": format_rational(t)}
    if report.shared_edges is not None:
        out["shared_edges"] = [[i + 1, j + 1] for i, j in report.shared_edges]
    return out


def reversals_to_json(report: ReversalReport) -> dict:
    out: dict[str, Any] = {
        "pairs": [{"i": i + 1, "j": j + 1, "kind": kind} for i, j, kind in report.pairs],
        "count": report.count,
    }
    if report.along_cycle is not None:
        out["along_cycle"] = report.along_cycle
    return out


def min_reversal_to_json(vector: Vec, along: int, cert: EfficiencyCertificate) -> dict:
    return {"vector": _vector_to_json(vector), "along_cycle": along, "certificate": certificate_to_json(cert)}


def perturbed_to_json(form: ColumnPerturbedForm, bands: Sequence[EfficiencyBand] | None = None) -> dict:
    """The canonical form and its transform, with the bands when given."""
    out: dict[str, Any] = {
        "canonical": matrix_to_json(form.canonical),
        "transform": {
            "scale": _vector_to_json(form.transform.scale),
            "permutation": [p + 1 for p in form.transform.perm],
            "perturbed_index": form.index + 1,
            "candidates": [k + 1 for k in form.candidates],
        },
    }
    if bands is not None:
        out["bands"] = [
            {
                "top": band.top + 1,
                "bottom": band.bottom + 1,
                "cap": format_rational(band.cap),
                "floor": format_rational(band.floor),
            }
            for band in bands
        ]
    return out


def ranking_to_json(candidates: Sequence[RankingCandidate], common: HamiltonianCycle | None) -> dict:
    return {
        "candidates": [
            {
                "method": c.method,
                "vector": _vector_to_json(c.vector),
                "efficient": c.certificate.efficient,
                "cycle": None if c.certificate.cycle is None else cycle_to_json(c.certificate.cycle),
                "exact": c.exact,
                "residual": None if c.residual is None else format_rational(c.residual),
            }
            for c in candidates
        ],
        "columns_common_cone": None if common is None else cycle_to_json(common),
    }


# --- reports: text renderers ---------------------------------------------
# Each takes a report and returns its stdout lines.


def _cycle_text(cycle: list[int]) -> str:
    return " -> ".join(map(str, cycle + cycle[:1]))


def _matrix_lines(m: dict) -> list[str]:
    rows = m["rows"]
    widths = [max(len(row[c]) for row in rows) for c in range(m["n"])]
    return [str(m["n"])] + [" ".join(v.rjust(w) for v, w in zip(row, widths)) for row in rows]


def _check_text(r: dict) -> list[str]:
    lines = [f"status: {r['status']}"]
    if "cycle" in r:
        lines.append(f"cycle: {_cycle_text(r['cycle'])}")
    if "cut" in r:
        lines.append("cut: " + " ".join(map(str, sorted(r["cut"]))))
    return lines


def _decompose_text(r: dict) -> list[str]:
    lines = []
    ray = r.get("ray")
    if ray is not None:
        lines += ["consistent matrix: efficient set is the single ray", "ray: " + " ".join(ray)]
    summary = "extremes_per_cone" in r
    cones, unit = (r["cones"], r["unit_cycles"]) if summary else (len(r["cones"]), len(r["unit_cycles"]))
    lines += [f"cones (product < 1): {cones}", f"unit-product cycles: {unit}"]
    if summary:
        lines.append("extremes per cone: " + (" ".join(map(str, r["extremes_per_cone"])) or "-"))
    else:
        for k, cone in enumerate(r["cones"], start=1):
            lines.append(f"cone {k}: cycle {_cycle_text(cone['cycle'])}, product {cone['product']}")
            lines += ["  extreme: " + " ".join(ext) for ext in cone["extremes"]]
        lines += [f"unit cycle: {_cycle_text(c)}" for c in r["unit_cycles"]]
    if "convexity" in r:
        c = r["convexity"]
        lines.append(f"convexity: {c['verdict']} ({c['reason']})")
        if "witness" in c:
            u, v, t = c["witness"]["u"], c["witness"]["v"], c["witness"]["t"]
            lines.append(f"  witness: t={t}, u={' '.join(u)}, v={' '.join(v)}")
        if "shared_edges" in c:
            lines.append("  shared edges: " + " ".join(f"{i}->{j}" for i, j in c["shared_edges"]))
    return lines


def _reversals_text(r: dict) -> list[str]:
    if "vector" in r:  # --minimize
        return [
            "vector: " + " ".join(r["vector"]),
            f"along-cycle reversals: {r['along_cycle']}",
            f"status: {r['certificate']['status']}",
        ]
    lines = [f"({p['i']}, {p['j']}): {p['kind']}" for p in r["pairs"]]
    lines.append(f"count: {r['count']}")
    if "along_cycle" in r:
        lines.append(f"along-cycle count: {r['along_cycle']}")
    return lines


def _perturbed_text(r: dict) -> list[str]:
    if "class" in r:
        return [r["class"]]
    if "bands" not in r:  # canonicalize
        t = r["transform"]
        return [
            *_matrix_lines(r["canonical"]),
            "",
            f"perturbed index: {t['perturbed_index']}",
            "scale: " + " ".join(t["scale"]),
            "permutation: " + " ".join(map(str, t["permutation"])),
        ]
    lines = [] if r["bands"] else ["no bands: canonical matrix is consistent, efficient set is one ray"]
    for band in r["bands"]:
        i, j = band["top"], band["bottom"]
        lines.append(f"band ({i}, {j}): {band['cap']}*w1 >= w{i} >= w_k >= w{j} >= {band['floor']}*w1")
    return lines


def _rank_text(r: dict) -> list[str]:
    headers = ("method", "vector", "status", "cycle", "residual")
    rows = [headers] + [
        (
            c["method"],
            " ".join(c["vector"]),
            "efficient" if c["efficient"] else "inefficient",
            "-" if c["cycle"] is None else _cycle_text(c["cycle"]),
            "-" if c["residual"] is None else c["residual"],
        )
        for c in r["candidates"]
    ]
    widths = [max(len(row[k]) for row in rows) for k in range(5)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows]
    common = r["columns_common_cone"]
    if common is None:
        return lines + ["columns share no single enumerated cone"]
    return lines + [f"columns share cone of cycle: {_cycle_text(common)}"]


_TEXT = {
    "check": _check_text,
    "decompose": _decompose_text,
    "reversals": _reversals_text,
    "perturbed": _perturbed_text,
    "rank": _rank_text,
    "generate": lambda m: _matrix_lines(m) + [""],
}


def render(command: str, report: dict | str, as_json: bool) -> tuple[str, str]:
    """The stdout and stderr text of a command's report.  A str report is a
    negative result's stderr line; self-check reports in text also under --json."""
    if isinstance(report, str):
        return "", report + "\n"
    if command == "self-check":
        failures = "".join(f"FAIL: {line}\n" for line in report["failures"])
        return "\n".join(report["checks"]) + "\n", failures
    if as_json:
        return json.dumps(report, indent=2) + "\n", ""
    return "\n".join(_TEXT[command](report)) + "\n", ""
