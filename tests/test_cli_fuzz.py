"""Fuzz the command line in-process: no traceback, a known exit code.

Random argv flags (``--json``, ``--cap``, ``--seed``, ``--tolerance``,
and ``--weights``, ``--cycle``, ``--minimize``, ``--summary``,
``--convexity`` where they apply) meet random matrix and vector file
bytes: valid text and JSON matrices with n <= 6, valid matrices with
entries 10**k for |k| <= 320 (beyond the float range, so ``rank`` meets
the overflow and underflow of its power iteration), mangled text, odd JSON
shapes and invalid UTF-8.  ``effvec.cli.main`` runs in this process and
starts no subprocess.  Every run must end with exit code 0, 1, 2 or 3,
with nothing on stdout for 2 and 3, and a convexity verdict is never
"unknown".  A usage error found by argparse itself exits through
``SystemExit(2)``, as it does from the shell.  A second test runs only
``rank`` on the 10**k matrices, so that those paths are reached on every
run of the suite.

``generate N`` and ``self-check --trials T`` do work of order N**2 and T
because the user asks for that much, so they are drawn only with values
that are refused before any work: N outside 2..1000 (exit 2 below, 3
above) and T below 1 (exit 2).
"""

import contextlib
import io
import json

from hypothesis import event, given, settings
from hypothesis import strategies as st

from effvec import format_matrix, format_vector, generate, matrix_to_json
from effvec.cli import main
from effvec.generators import KINDS

rationals = st.sampled_from(
    ["1", "2", "1/2", "3/7", "0", "-1", "0.25", "1e3", "1e-400", "1/0", "x", "1e99999", "9" * 50]
)
small_text = st.text(alphabet="0123456789/.-e x\n#{}[]\":,", max_size=60)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(["1", "1/2", "a"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["n", "rows"]), inner),
    max_leaves=12,
)


@st.composite
def matrix_bytes(draw):
    """File bytes and, for a valid matrix, its dimension (else None)."""
    choice = draw(st.integers(0, 8))
    if choice <= 4:
        kind = draw(st.sampled_from(KINDS))
        n = draw(st.integers(2 if kind in ("consistent", "random") else 3, 6))
        a = generate(kind, n, seed=draw(st.integers(0, 5)))
        text = json.dumps(matrix_to_json(a)) if choice == 0 else format_matrix(a)
        if choice == 4:  # mangle one character
            at = draw(st.integers(0, len(text) - 1))
            text = text[:at] + draw(st.sampled_from(["", "0", "x", "\n", "-", "{", "e9"])) + text[at + 1 :]
            n = None
        return text.encode(), n
    if choice == 5:
        return draw(small_text).encode(), None
    if choice == 6:
        return json.dumps({"rows": draw(json_values), "n": draw(json_values)}).encode(), None
    if choice == 7:
        return draw(st.binary(max_size=40)), None
    return draw(power_of_ten_matrix_bytes())


@st.composite
def power_of_ten_matrix_bytes(draw):
    """A valid text matrix with entries 10**k, |k| <= 320, and its dimension."""
    n = draw(st.integers(2, 6))
    exponents = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            exponents[i][j] = draw(st.integers(-320, 320))
            exponents[j][i] = -exponents[i][j]
    return "\n".join([str(n)] + [" ".join(f"1e{k}" for k in row) for row in exponents]).encode(), n


@st.composite
def vector_bytes(draw, n):
    choice = draw(st.integers(0, 5))
    if choice <= 2:
        size = n if n is not None and choice < 2 else draw(st.integers(1, 7))
        values = draw(st.lists(st.fractions(min_value=1, max_value=9, max_denominator=9), min_size=size, max_size=size))
        return format_vector(values).encode()
    if choice == 3:
        return json.dumps(draw(st.lists(rationals, max_size=7))).encode()
    if choice == 4:
        return draw(small_text).encode()
    return draw(st.binary(max_size=20))


@st.composite
def weights(draw, n):
    """Weights summing to 1 over lcm q (large q must be refused), or odd lists."""
    if n is not None and draw(st.booleans()):
        q = draw(st.sampled_from([n, 12, 60, 10**6, 971230541]))
        return ",".join([f"1/{q}"] * (n - 1) + [f"{q - n + 1}/{q}"])
    tokens = st.sampled_from(["0", "1", "1/2", "1/3", "2/3", "1/4", "1/997", "999/1000", "1/0", "x"])
    return ",".join(draw(st.lists(tokens, min_size=1, max_size=7)))


@st.composite
def argvs(draw, matrix, vector, n):
    command = draw(st.sampled_from(["check", "decompose", "reversals", "perturbed", "rank", "generate", "self-check"]))
    if command == "generate":
        args = [command, draw(st.sampled_from(KINDS)), draw(st.sampled_from(["-3", "0", "1", "1001", "1000000000"]))]
    elif command == "self-check":
        args = [command, "--trials", draw(st.sampled_from(["0", "-5", "x"]))]
    elif command == "check":
        args = [command, matrix, vector]
    elif command == "decompose":
        args = [command, matrix]
        args += [flag for flag in ("--summary", "--convexity") if draw(st.booleans())]
    elif command == "reversals":
        args = [command, matrix] + ([vector] if draw(st.booleans()) else [])
        if draw(st.booleans()):
            cycles = ["1,2,3", "1,3,2", "1,2,3,4", "1 4 3 2", "1,2,3,4,5", "1,3,5,2,4,6", "2,1", "a", "1,1,2"]
            args += ["--cycle", draw(st.sampled_from(cycles))]
        if draw(st.booleans()):
            args.append("--minimize")
    elif command == "perturbed":
        args = [command, draw(st.sampled_from(["classify", "canonicalize", "eff-set"])), matrix]
    else:
        args = [command, matrix]
        if draw(st.booleans()):
            args += ["--weights", draw(weights(n))]
    flags = []
    valid = draw(st.booleans())  # half the runs draw only valid flag values
    if draw(st.booleans()):
        flags.append("--json")
    if draw(st.booleans()):
        flags += ["--cap", str(draw(st.sampled_from([10, 3, 5, 12] + ([] if valid else [2]))))]
    if draw(st.booleans()):
        flags += ["--seed", str(draw(st.integers(-5, 5)))]
    if draw(st.booleans()):
        tolerances = ["1/10", "1e-6", "1/1000000000", "1e400", ""]
        if not valid:
            tolerances += ["0", "-1", "abc", "1e-20", "1e-400", "1e-9999", "1e99999"]
        flags += ["--tolerance", draw(st.sampled_from(tolerances))]
    return flags + args if draw(st.booleans()) else args + flags


def run_main(argv):
    """Run ``main(argv)``, check its exit code and its stdout, and return the
    exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    event(f"exit {code}")
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    if code in (2, 3):
        assert out.getvalue() == "", argv
    if "--convexity" in argv:  # the verdict is decided or refused, never "unknown"
        assert "unknown" not in out.getvalue(), argv
    return code, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_never_raises(tmp_path_factory, data):
    root = tmp_path_factory.getbasetemp()
    matrix, vector = root / "fuzz-matrix", root / "fuzz-vector"
    content, n = data.draw(matrix_bytes())
    matrix.write_bytes(content)
    vector.write_bytes(data.draw(vector_bytes(n)))
    run_main(data.draw(argvs(str(matrix), str(vector), n)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_rank_beyond_float_range(tmp_path_factory, data):
    """``rank`` on entries up to 10**±320: an entry or a gram entry beyond
    the float range is refused (exit 2), and an iterate that leaves it ends
    the power iteration (exit 1), never a traceback."""
    matrix = tmp_path_factory.getbasetemp() / "fuzz-power-of-ten-matrix"
    content, _ = data.draw(power_of_ten_matrix_bytes())
    matrix.write_bytes(content)
    flags = data.draw(st.sampled_from([[], ["--json"], ["--tolerance", "1/1000"]]))
    code, err = run_main(["rank", str(matrix)] + flags)
    if code == 1:
        assert "no convergence after" in err
    elif code == 2:
        assert "float range" in err


def test_refusals_before_any_work():
    for argv, expected in (
        (["self-check", "--trials", "0"], 2),
        (["self-check", "--trials", "-5", "--json"], 2),
        (["generate", "random", "1001"], 3),
        (["generate", "random", "1000000000", "--json"], 3),
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, out.getvalue()) == (expected, ""), argv
        assert err.getvalue().startswith("error: "), argv
