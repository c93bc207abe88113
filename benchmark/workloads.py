"""The four workloads: their inputs, one operation each, and its checks.

A workload builds a pool of operations from the seed and the benchmark
runs the pool round after round in a fixed order, so every input kind sees
the host's slow spells alike.  ``run`` calls the program; ``check`` tests
what came back with the independent checks and raises ``CheckFailed``.
Calls into effvec go through module attributes (``effvec.is_efficient``),
never through names bound at import, so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import checks
import inputs
from checks import require

ROOT = Path(__file__).resolve().parent.parent


def _matrix(rows: inputs.Rows):
    import effvec

    return effvec.ReciprocalMatrix(tuple(tuple(row) for row in rows))


# --- certify ---------------------------------------------------------------

CERTIFY_N = 150
CERTIFY_MATRICES = ("random", "column", "random", "column")


@dataclass
class Certification:
    kind: str
    matrix: Any
    ints: checks.IntMatrix
    vector: inputs.Vector
    expect: bool | None = None
    closed: frozenset[int] | None = None


class Certify:
    """One is_efficient at n = 150 per operation, four vector kinds."""

    def build(self, seed: int, workdir: Path) -> list[Certification]:
        rng = inputs.rng_for("certify", seed)
        pool = []
        for kind in CERTIFY_MATRICES:
            rows = inputs.MATRIX_KINDS[kind](rng, CERTIFY_N)
            a, m = _matrix(rows), checks.int_matrix(rows)
            for _ in range(2):
                col = inputs.column(rows, rng.randrange(CERTIFY_N))
                pool.append(Certification("column", a, m, col, expect=True))
                pool.append(Certification("palette", a, m, inputs.palette_vector(rng, CERTIFY_N)))
                pool.append(Certification("float", a, m, inputs.float_vector(rng, rows)))
                w, closed = inputs.subset_scaled(rng, rows)
                pool.append(Certification("scaled", a, m, w, expect=False, closed=closed))
        return pool

    def run(self, op: Certification):
        import effvec

        return effvec.is_efficient(op.matrix, op.vector)

    def check(self, op: Certification, cert) -> None:
        verdict = checks.check_certificate(
            op.ints,
            op.vector,
            cert.efficient,
            cert.cycle.order if cert.cycle is not None else None,
            cert.cut,
        )
        if op.expect is not None:
            require(verdict == op.expect, f"{op.kind} vector certified {verdict}")
        if op.closed is not None:
            require(set(cert.cut) <= op.closed, "cut leaves the closed subset")


# --- rank ------------------------------------------------------------------

RANK_N = 24
RANK_MATRICES = ("random", "column", "random", "double", "random", "consistent") * 2


@dataclass
class Ranking:
    kind: str
    rows: inputs.Rows
    matrix: Any
    ints: checks.IntMatrix


class Rank:
    """Every candidate of `effvec rank` for one n = 24 matrix, each certified."""

    def build(self, seed: int, workdir: Path) -> list[Ranking]:
        rng = inputs.rng_for("rank", seed)
        pool = []
        for kind in RANK_MATRICES:
            rows = inputs.MATRIX_KINDS[kind](rng, RANK_N)
            pool.append(Ranking(kind, rows, _matrix(rows), checks.int_matrix(rows)))
        return pool

    def run(self, op: Ranking):
        import effvec

        a = op.matrix
        out = [effvec.column_vector(a, k) for k in range(a.n)]
        out.append(effvec.weighted_geometric(a))
        out.append(effvec.perron_vector(a))
        out.append(effvec.singular_vector(a))
        return out

    def check(self, op: Ranking, candidates) -> None:
        n = len(op.rows)
        methods = [f"column-{k + 1}" for k in range(n)] + ["weighted-geometric", "perron", "singular"]
        require([c.method for c in candidates] == methods, "unexpected candidate list")
        for c in candidates:
            cert = c.certificate
            verdict = checks.check_certificate(
                op.ints,
                c.vector,
                cert.efficient,
                cert.cycle.order if cert.cycle is not None else None,
                cert.cut,
            )
            if c.method.startswith("column-"):
                k = int(c.method.split("-")[1]) - 1
                require(checks.proportional(c.vector, inputs.column(op.rows, k)), f"{c.method} is not column")
                require(verdict, f"{c.method} certified inefficient")
            if c.method == "weighted-geometric" and c.exact:
                checks.check_geometric(op.ints, c.vector)
                require(verdict, "exact geometric mean certified inefficient")
            if c.residual is not None:
                require(c.residual >= 0, "negative residual")
            if op.kind == "consistent":
                require(verdict, f"{c.method} inefficient for a consistent matrix")


# --- decompose -------------------------------------------------------------

DECOMPOSE_N = 7
# One double-in-column matrix (216 cones at n = 7) per six with 360 cones,
# so the median operation falls inside the larger block, not at its edge;
# fourteen matrices, so the median is not one matrix's cost.
DECOMPOSE_MATRICES = ("random", "column", "double", "random", "column", "random", "column") * 2
MEMBERSHIP_SAMPLES = 8


@dataclass
class Analysis:
    matrix: Any
    ints: checks.IntMatrix
    samples: list[inputs.Vector]
    perturbed: bool


@dataclass
class AnalysisResult:
    decomposition: Any
    convexity: Any
    members: list
    reversals: list
    form: Any = None
    bands: tuple = ()


class Decompose:
    """Full efficient-set analysis of one n = 7 matrix."""

    def build(self, seed: int, workdir: Path) -> list[Analysis]:
        rng = inputs.rng_for("decompose", seed)
        pool = []
        for kind in DECOMPOSE_MATRICES:
            rows = inputs.MATRIX_KINDS[kind](rng, DECOMPOSE_N)
            samples = [inputs.column(rows, k) for k in rng.sample(range(DECOMPOSE_N), 2)]
            while len(samples) < MEMBERSHIP_SAMPLES:
                samples.append(inputs.palette_vector(rng, DECOMPOSE_N))
            pool.append(
                Analysis(_matrix(rows), checks.int_matrix(rows), samples, perturbed=kind != "random")
            )
        return pool

    def run(self, op: Analysis) -> AnalysisResult:
        import effvec

        a = op.matrix
        d = effvec.decompose(a)
        result = AnalysisResult(
            decomposition=d,
            convexity=effvec.convexity_report(d),
            members=[effvec.membership(d, w) for w in op.samples],
            reversals=[effvec.min_reversal_vector(a, cone.cycle) for cone in d.cones],
        )
        if op.perturbed:
            result.form = effvec.detect_column_perturbed(a)
            result.bands = effvec.efficient_set_union(result.form)
        return result

    def check(self, op: Analysis, out: AnalysisResult) -> None:
        m = op.ints
        d = out.decomposition
        require(d.ray is None, "inconsistent matrix decomposed as a single ray")
        orders = [cone.cycle.order for cone in d.cones]
        checks.check_decomposition(m, orders, [c.order for c in d.unit_cycles])
        for cone in d.cones:
            checks.check_cone(m, cone.cycle.order, cone.product, cone.extremes)

        report = out.convexity
        if report.verdict == "non_convex":
            u, v, t = report.witness
            checks.check_witness(m, u, v, t)
        elif report.verdict == "convex":
            require(len(orders) <= 1, "convex verdict with several cones")

        below = set(orders)
        for w, found in zip(op.samples, out.members):
            if found is None:
                require(not checks.efficient(m, w), "efficient vector found in no cone")
            else:
                require(found.order in below, "membership names a cycle that is no cone")
                checks.check_cycle(m, checks.to_ints(w), found.order)

        require(len(out.reversals) == len(d.cones), "a cone has no minimum-reversal vector")
        for cone, (vec, count) in zip(d.cones, out.reversals):
            checks.check_min_reversal(m, cone.cycle.order, vec, count)

        if op.perturbed:
            form = out.form
            require(form is not None, "column-perturbed matrix not detected")
            canonical = form.canonical.entries
            scale, perm = form.transform.scale, form.transform.perm
            checks.check_canonical_form(m, canonical, scale, perm, form.index)
            bands = [(b.top, b.bottom, b.cap, b.floor) for b in out.bands]
            checks.check_bands(canonical, bands)
            checks.check_band_union(m, bands, scale, perm, op.samples)


# --- cli -------------------------------------------------------------------


@dataclass
class Invocation:
    argv: list[str]
    verify: Callable[[int, str], None]


def _cycle_from_text(text: str) -> list[int]:
    vertices = [int(v) - 1 for v in text.split("->")]
    return vertices[:-1]


def _line(out: str, prefix: str) -> str:
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix) :].strip()
    raise checks.CheckFailed(f"no line starting with {prefix!r}")


def _check_verify(rows, w, expect: bool | None, as_json: bool) -> Callable[[int, str], None]:
    m = checks.int_matrix(rows)

    def verify(code: int, out: str) -> None:
        own = checks.efficient(m, w)
        require(code == (0 if own else 1), f"exit code {code}, own verdict {own}")
        if expect is not None:
            require(own == expect, "input vector lost its expected verdict")
        if as_json:
            payload = json.loads(out)
            status = payload["status"]
            cycle = [v - 1 for v in payload["cycle"]] if "cycle" in payload else None
            cut = [v - 1 for v in payload["cut"]] if "cut" in payload else None
        else:
            status = _line(out, "status:")
            cycle = _cycle_from_text(_line(out, "cycle:")) if status == "efficient" else None
            cut = [int(v) - 1 for v in _line(out, "cut:").split()] if status != "efficient" else None
        require(status in ("efficient", "inefficient"), f"unknown status {status!r}")
        checks.check_certificate(m, w, status == "efficient", cycle, cut)

    return verify


def _own_band_count(m: checks.IntMatrix) -> int:
    n = len(m[0])
    drop = next(d for d in range(n) if checks.consistent_without(m, d))
    keep = [t for t in range(n) if t != drop]
    p, q = m
    first = keep[0]
    # canonical first row entry for k: a_dk * a_kf
    row = [Fraction(1)] + [Fraction(p[drop][k] * p[k][first], q[drop][k] * q[k][first]) for k in keep]
    return checks.band_count(row)


def _effset_verify(rows, samples, as_json: bool) -> Callable[[int, str], None]:
    m = checks.int_matrix(rows)

    def verify(code: int, out: str) -> None:
        require(code == 0, f"eff-set exit code {code}")
        if not as_json:
            bands = [line for line in out.splitlines() if line.startswith("band (")]
            require(len(bands) == _own_band_count(m), f"{len(bands)} bands printed")
            return
        payload = json.loads(out)
        canonical = [[Fraction(v) for v in row] for row in payload["canonical"]["rows"]]
        t = payload["transform"]
        scale = [Fraction(s) for s in t["scale"]]
        perm = [p - 1 for p in t["permutation"]]
        checks.check_canonical_form(m, canonical, scale, perm, t["perturbed_index"] - 1)
        bands = [
            (b["top"] - 1, b["bottom"] - 1, Fraction(b["cap"]), Fraction(b["floor"]))
            for b in payload["bands"]
        ]
        checks.check_bands(canonical, bands)
        checks.check_band_union(m, bands, scale, perm, samples)

    return verify


def _summary_verify(rows, as_json: bool) -> Callable[[int, str], None]:
    m = checks.int_matrix(rows)
    n = len(rows)

    def verify(code: int, out: str) -> None:
        require(code == 0, f"decompose exit code {code}")
        below, unit, _ = checks.cycle_classes(m)
        if as_json:
            payload = json.loads(out)
            cones, units, extremes = payload["cones"], payload["unit_cycles"], payload["extremes_per_cone"]
        else:
            cones = int(_line(out, "cones (product < 1):"))
            units = int(_line(out, "unit-product cycles:"))
            extremes = [int(x) for x in _line(out, "extremes per cone:").split()]
        require(cones == len(below), f"{cones} cones, own count {len(below)}")
        require(units == len(unit), f"{units} unit cycles, own count {len(unit)}")
        require(extremes == [n] * len(below), "a cone lacks extremes")

    return verify


def _rank_verify(rows) -> Callable[[int, str], None]:
    m = checks.int_matrix(rows)
    n = len(rows)

    def verify(code: int, out: str) -> None:
        require(code == 0, f"rank exit code {code}")
        payload = json.loads(out)
        candidates = payload["candidates"]
        require(len(candidates) == n + 3, f"{len(candidates)} candidates")
        for k, c in enumerate(candidates):
            vec = [Fraction(x) for x in c["vector"]]
            if c["efficient"]:
                checks.check_cycle(m, checks.to_ints(vec), [v - 1 for v in c["cycle"]])
            else:
                require(not checks.efficient(m, vec), f"{c['method']} wrongly inefficient")
            if k < n:
                require(c["efficient"], f"{c['method']} certified inefficient")
                require(checks.proportional(vec, inputs.column(rows, k)), f"{c['method']} is not column")
        columns = [checks.to_ints(inputs.column(rows, k)) for k in range(n)]
        below, unit, _ = checks.cycle_classes(m)
        common = [
            order for order in sorted(below | unit)
            if all(all(checks.edge(m, w, order[t], order[(t + 1) % n]) for t in range(n)) for w in columns)
        ]
        shared = payload["columns_common_cone"]
        require(
            shared == ([v + 1 for v in common[0]] if common else None),
            f"columns_common_cone {shared}, own first {common[:1]}",
        )

    return verify


def _generate_verify(n: int, seen: dict) -> Callable[[int, str], None]:
    def verify(code: int, out: str) -> None:
        require(code == 0, f"generate exit code {code}")
        rows = checks.parse_matrix_text(out)
        require(len(rows) == n, "generated matrix has the wrong size")
        first = seen.setdefault("out", out)
        require(out == first, "generate is not deterministic")

    return verify


def _startup_ms(code: str) -> float:
    """Milliseconds a fresh interpreter reports for running ``code``."""
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=_env(), capture_output=True, text=True, check=True
    )
    return float(out.stdout)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return env


_TIMED_IMPORT = "import time; t = time.perf_counter(); import {0}; print((time.perf_counter() - t) * 1e3)"


class Cli:
    """One `python -m effvec.cli ...` subprocess per operation."""

    def __init__(self) -> None:
        self.peak_child_kb = 0
        self.startup: dict[str, list[float]] = {"interpreter": [], "import": [], "import_numpy": []}

    def build(self, seed: int, workdir: Path) -> list[Invocation]:
        rng = inputs.rng_for("cli", seed)
        workdir.mkdir(parents=True, exist_ok=True)
        counter = iter(range(1000))

        def save(text: str) -> str:
            path = workdir / f"in{next(counter)}.txt"
            path.write_text(text, encoding="utf-8")
            return str(path)

        def check_case(n: int, kind: str, vector: str, as_json: bool) -> Invocation:
            rows = inputs.MATRIX_KINDS[kind](rng, n)
            if vector == "column":
                w, expect = inputs.column(rows, rng.randrange(n)), True
            elif vector == "scaled":
                w, expect = inputs.subset_scaled(rng, rows)[0], False
            else:
                w, expect = inputs.palette_vector(rng, n), None
            argv = ["check", save(inputs.format_rows(rows)), save(inputs.format_vector(w))]
            return Invocation(argv + (["--json"] if as_json else []), _check_verify(rows, w, expect, as_json))

        def effset_case(kind: str, as_json: bool) -> Invocation:
            rows = inputs.MATRIX_KINDS[kind](rng, 6)
            samples = [inputs.column(rows, k) for k in range(2)] + [inputs.palette_vector(rng, 6) for _ in range(4)]
            argv = ["perturbed", "eff-set", save(inputs.format_rows(rows))]
            return Invocation(argv + (["--json"] if as_json else []), _effset_verify(rows, samples, as_json))

        def summary_case(kind: str, as_json: bool) -> Invocation:
            rows = inputs.MATRIX_KINDS[kind](rng, 5)
            argv = ["decompose", "--summary", save(inputs.format_rows(rows))]
            return Invocation(argv + (["--json"] if as_json else []), _summary_verify(rows, as_json))

        rank_rows = inputs.random_rows(rng, 5)
        seen: dict = {}
        generated = Invocation(
            ["generate", "random", "6", "--seed", str(rng.randrange(1 << 30))], _generate_verify(6, seen)
        )
        return [
            check_case(4, "random", "column", False),
            check_case(12, "column", "scaled", True),
            effset_case("column", True),
            check_case(30, "random", "palette", False),
            summary_case("random", False),
            check_case(20, "column", "palette", True),
            Invocation(["rank", save(inputs.format_rows(rank_rows)), "--json"], _rank_verify(rank_rows)),
            check_case(8, "random", "scaled", False),
            effset_case("double", False),
            generated,
            summary_case("double", True),
        ]

    def run(self, op: Invocation) -> tuple[int, str]:
        """The command as a user runs it; records the child's peak resident set."""
        child = subprocess.Popen(
            [sys.executable, "-m", "effvec.cli", *op.argv],
            cwd=ROOT,
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        with child.stdout:
            out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        return child.returncode, out

    def run_in_process(self, op: Invocation) -> tuple[int, str]:
        """The same command through effvec.cli.main, for the traced run."""
        import effvec.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = effvec.cli.main(op.argv)
        return code, out.getvalue()

    def check(self, op: Invocation, out: tuple[int, str]) -> None:
        op.verify(*out)

    def measure_startup(self) -> None:
        """Start-up floors of a fresh interpreter: bare, numpy, effvec."""
        self.startup["interpreter"].append(_bare_interpreter_ms())
        self.startup["import_numpy"].append(_startup_ms(_TIMED_IMPORT.format("numpy")))
        self.startup["import"].append(_startup_ms(_TIMED_IMPORT.format("effvec")))


def _bare_interpreter_ms() -> float:
    from time import perf_counter

    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True)
    return (perf_counter() - t0) * 1e3


WORKLOADS: dict[str, Callable[[], Any]] = {
    "certify": Certify,
    "rank": Rank,
    "decompose": Decompose,
    "cli": Cli,
}
