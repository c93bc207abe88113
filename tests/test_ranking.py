"""Ranking candidates: columns, geometric means, spectral vectors."""

import contextlib
import hashlib
import io
import random
from fractions import Fraction

import pytest

from effvec import (
    CapExceededError,
    ConvergenceError,
    HamiltonianCycle,
    column_vector,
    columns_common_cone,
    consistent_matrix,
    efficiency_cone,
    generate,
    is_efficient,
    normalize,
    perron_vector,
    proportional,
    singular_vector,
    weighted_geometric,
)
from effvec.cli import main
from effvec.formats import format_matrix, format_vector
from effvec.generators import KINDS
from effvec.rationals import format_rational
import effvec.ranking
from effvec.ranking import MAX_ITERATIONS, _gram, _integer_rows, _radicand, _residual
from helpers import (
    fractions,
    gram_reference,
    in_cone,
    matrix_of,
    radicand_reference,
    spectral_residual_reference,
)


class TestColumnVector:
    def test_every_column_efficient(self, circulant4, perturbed5, double4):
        for a in (circulant4, perturbed5, double4):
            for k in range(a.n):
                c = column_vector(a, k)
                assert c.certificate.efficient and c.exact
                assert c.vector == normalize(a.column(k))

    def test_one_based_label(self, circulant4):
        assert column_vector(circulant4, 0).method == "column-1"
        assert column_vector(circulant4, 3).method == "column-4"

    @pytest.mark.parametrize("k", [-1, 4])
    def test_index_out_of_range(self, circulant4, k):
        with pytest.raises(IndexError, match=f"column index {k} out of range for n=4"):
            column_vector(circulant4, k)


class TestWeightedGeometric:
    def test_circulant_equal_weights_exact(self, circulant4):
        c = weighted_geometric(circulant4)
        assert c.vector == fractions(1, 1, 1, 1)
        assert c.exact and c.certificate.efficient

    def test_consistent_recovers_ray(self, consistent3):
        c = weighted_geometric(consistent3)
        assert c.exact
        assert proportional(c.vector, consistent3.column(0))

    def test_indicator_weights_give_column(self, perturbed5):
        weights = fractions(0, 0, 1, 0, 0)
        c = weighted_geometric(perturbed5, weights)
        assert c.exact
        assert proportional(c.vector, perturbed5.column(2))

    def test_weight_validation(self, consistent3):
        with pytest.raises(ValueError):
            weighted_geometric(consistent3, fractions(1, 1, 1))
        with pytest.raises(ValueError):
            weighted_geometric(consistent3, (Fraction(3, 2), Fraction(-1, 2), Fraction(0)))
        with pytest.raises(ValueError):
            weighted_geometric(consistent3, fractions("1/2", "1/2"))

    def test_exact_on_squared_entries(self):
        # Entrywise squares make every half-half radicand a perfect square.
        rng = random.Random(41)
        half = (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0))
        for seed in range(25):
            a = generate("random", 4, seed=seed)
            b = matrix_of([[x * x for x in row] for row in a.entries])
            c = weighted_geometric(b, half)
            assert c.exact
            assert c.certificate.efficient

    def test_efficient_at_two_tolerances(self):
        # Rationalized means certify efficient; failures must not increase
        # as the tolerance shrinks.
        failures = {}
        for exponent in (4, 12):
            tolerance = Fraction(1, 10**exponent)
            count = 0
            for seed in range(60):
                a = generate("random", 5, seed=seed)
                c = weighted_geometric(a, tolerance=tolerance)
                count += 0 if c.certificate.efficient else 1
            failures[exponent] = count
        assert failures[12] <= failures[4]
        assert failures[12] == 0

    def test_tolerance_below_float_range(self, circulant4):
        # 10**-400 turns into 0.0 as a float; the digit count comes from
        # its integer denominator instead.
        tolerance = Fraction(1, 10**400)
        for a in (circulant4, generate("random", 5, seed=1)):
            c = weighted_geometric(a, tolerance=tolerance)
            assert c.method == "weighted-geometric"
            assert c.certificate == is_efficient(a, c.vector)
        # The inexact components sit on the grid of 402 decimals.
        assert not c.exact
        assert max(v.denominator for v in c.vector) == 10**402

    def test_weight_denominators_bounded(self):
        # A lcm of q = 1000 still gives a candidate; near 10**9 the q-th
        # roots are refused before any power is taken.
        a = generate("random", 4, seed=0)
        c = weighted_geometric(a, weights=fractions("1/1000", "1/1000", "1/1000", "997/1000"))
        assert c.certificate == is_efficient(a, c.vector)
        with pytest.raises(CapExceededError, match="weighted geometric mean refused"):
            weighted_geometric(a, weights=fractions("1/997", "1/991", "1/983", "968288310/971230541"))


def _large_ratio_matrix(exponent: int):
    big = Fraction(10**exponent)
    return matrix_of([[1, big, 2], [1 / big, 1, 3], [Fraction(1, 2), Fraction(1, 3), 1]])


class TestLargeRatios:
    @pytest.mark.parametrize("exponent", [25, 400])
    def test_geometric_components_stay_positive(self, exponent):
        # The middle component is about 10**(-2 * exponent / 3), far below the
        # default 10**-14 grid of the approximate root.
        a = _large_ratio_matrix(exponent)
        c = weighted_geometric(a)
        assert all(v > 0 for v in c.vector)
        assert not c.exact
        assert c.certificate == is_efficient(a, c.vector)

    def test_spectral_beyond_float_range_is_a_value_error(self):
        a = _large_ratio_matrix(400)
        for method in (perron_vector, singular_vector):
            with pytest.raises(ValueError, match="float range"):
                method(a)


class TestSpectral:
    def test_circulant_exact_fixed_point(self, circulant4):
        for candidate in (perron_vector(circulant4), singular_vector(circulant4)):
            assert candidate.vector == fractions(1, 1, 1, 1)
            assert candidate.residual == 0
            assert candidate.certificate.efficient

    def test_consistent_shortcut_is_exact(self, consistent3):
        for candidate in (perron_vector(consistent3), singular_vector(consistent3)):
            assert candidate.exact
            assert candidate.residual == 0
            assert proportional(candidate.vector, consistent3.column(0))
            assert candidate.certificate.efficient

    def test_consistent_path_builds_no_spectral_matrix(self, monkeypatch):
        # The shortcut never reads the gram or the integer rows, so a
        # consistent matrix must not pay n**3 / 2 products for them.
        def refuse(a):
            raise AssertionError("spectral matrix built for a consistent matrix")

        monkeypatch.setattr(effvec.ranking, "_gram", refuse)
        monkeypatch.setattr(effvec.ranking, "_integer_rows", refuse)
        a = generate("consistent", 30, seed=1)
        for candidate in (perron_vector(a), singular_vector(a)):
            assert candidate.exact and candidate.certificate.efficient

    def test_inconsistent_path_decides_consistency_once(self, monkeypatch):
        calls = []
        original = effvec.ranking.is_consistent
        monkeypatch.setattr(effvec.ranking, "is_consistent", lambda a: calls.append(a) or original(a))
        singular_vector(generate("random", 5, seed=2))
        assert len(calls) == 1

    def test_residual_reported_and_small(self):
        for seed in range(10):
            a = generate("random", 4, seed=seed)
            for candidate in (perron_vector(a), singular_vector(a)):
                assert candidate.residual is not None
                assert candidate.residual < Fraction(1, 10**6)
                assert not candidate.exact or candidate.residual == 0

    def test_convergence_cap(self):
        # |lambda_2| / lambda_1 = 1 - 6e-9: MAX_ITERATIONS steps cannot reach 1e-12.
        with pytest.raises(ConvergenceError):
            perron_vector(_large_ratio_matrix(25), tolerance=Fraction(1, 10**12))

    def test_status_recorded_on_random_sweep(self):
        # No general efficiency guarantee; the call must still certify.
        for seed in range(15):
            a = generate("random", 4, seed=seed)
            candidate = perron_vector(a)
            assert candidate.certificate.efficient in (True, False)


class TestSpectralGolden:
    """The exact spectral outputs, pinned.

    ``math.fsum`` rounds each row product correctly, and every other float
    operation of the power iteration is one correctly rounded IEEE step, so
    these outputs are the same on every platform, BLAS build and Python
    version.  A change here changes what ``effvec rank`` prints.
    """

    def test_random_six(self):
        a = generate("random", 6, seed=0)
        perron, singular = perron_vector(a), singular_vector(a)
        assert format_vector(perron.vector) == (
            "1 1924721835569681/4318076007586280 2768772348268651/2159038003793140 "
            "942707853585707/2590845604551768 933141824729059/1619278502844855 "
            "2251799813685248/1619278502844855"
        )
        assert perron.residual == Fraction(
            64752475003949315283787, 20948662754773202096486696123105280
        )
        assert format_vector(singular.vector) == (
            "1 8862798568238869/36028797018963968 4385895930468859/4503599627370496 "
            "7618775581977295/36028797018963968 8475856557662381/36028797018963968 "
            "8704269220319395/18014398509481984"
        )
        assert singular.residual == Fraction(
            434382759845262181833087793, 12880141394702956786023462456671600640
        )

    def test_random_twenty_four(self):
        # sha256 of the vector string, "|", and the residual string.
        a = generate("random", 24, seed=0)
        digests = [
            hashlib.sha256(
                (format_vector(c.vector) + "|" + format_rational(c.residual)).encode()
            ).hexdigest()
            for c in (perron_vector(a), singular_vector(a))
        ]
        assert digests == [
            "d18c9da5ba5778648f03adb0ca51fc1e077c0929b94bf303bc5a3f16b731b3be",
            "410c8388052776eaf4cce7dbd1b0fd0c2d092c1227969c2f6b56daec12fb1b92",
        ]


def _coprime_matrix():
    # 2**p - 1 for distinct primes p are pairwise coprime, so no lcm of
    # the row denominators cancels.
    mersenne = iter(2**p - 1 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71))
    n = 5
    rows = [[Fraction(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = Fraction(next(mersenne), next(mersenne))
            rows[j][i] = 1 / rows[i][j]
    return matrix_of(rows)


def _small_matrices():
    for kind in KINDS:
        for n in range(2 if kind in ("consistent", "random") else 3, 9):
            for seed in range(3):
                yield (kind, n, seed), generate(kind, n, seed=seed)
    yield "coprime", _coprime_matrix()


def _perron_rows(a):
    rows, lcms = _integer_rows(a)
    return rows, lcms, [1] * a.n


def _as_fractions(m):
    rows, row_den, col_den = m
    return [[Fraction(k, r * s) for k, s in zip(row, col_den)] for row, r in zip(rows, row_den)]


class TestIntegerGram:
    def test_matches_fraction_gram_every_kind(self):
        for kind in KINDS:
            for n in range(2 if kind in ("consistent", "random") else 3, 8):
                for seed in range(3):
                    a = generate(kind, n, seed=seed)
                    assert _as_fractions(_gram(a)) == gram_reference(a), (kind, n, seed)

    def test_matches_fraction_gram_on_coprime_entries(self):
        a = _coprime_matrix()
        assert _as_fractions(_gram(a)) == gram_reference(a)


class TestIntegerRows:
    """The integer spectral matrices and the exact side work built on them,
    against the Fraction computations they replaced."""

    def test_perron_rows_match_entries(self):
        for label, a in _small_matrices():
            assert _as_fractions(_perron_rows(a)) == [list(row) for row in a.entries], label

    def test_floats_bit_identical(self):
        for label, a in _small_matrices():
            for m, exact in ((_perron_rows(a), [list(row) for row in a.entries]), (_gram(a), gram_reference(a))):
                rows, row_den, col_den = m
                floats = [[k / (r * s) for k, s in zip(row, col_den)] for row, r in zip(rows, row_den)]
                assert floats == [[float(x) for x in row] for row in exact], label

    def test_residual_matches_reference(self):
        for label, a in _small_matrices():
            vectors = [perron_vector(a, Fraction(1, 1000)).vector]
            vectors += [a.column(k) for k in range(a.n)]
            vectors.append(tuple(Fraction(k + 2, 2 * k + 3) for k in range(a.n)))
            for vec in vectors:
                assert _residual(_perron_rows(a), vec) == spectral_residual_reference(
                    [list(row) for row in a.entries], vec
                ), label
                assert _residual(_gram(a), vec) == spectral_residual_reference(gram_reference(a), vec), label

    def test_radicand_matches_reference(self):
        for label, a in _small_matrices():
            n = a.n
            for powers in ([1] * n, [k % 3 for k in range(n)], [0] * (n - 1) + [5]):
                for i in range(n):
                    assert _radicand(a._numerators, powers, i) == radicand_reference(a, powers, i), label


# Outcomes at the parent of the pure-Python iteration, on the 3x3 matrix with
# a01 = a02 = 10**e1 and a12 = 10**e2: the certificate's verdict, or the
# exception class.  The gram of e1 >= 155 has entries beyond the float range.
EXTREME_OUTCOMES = {
    (e1, e2): (
        True if e2 == 1 else ConvergenceError,
        {1: True, 100: False}.get(e2, ValueError) if e1 == 150 else ValueError,
    )
    for e1 in (150, 200, 250, 300, 307)
    for e2 in (1, 100, 200, 300)
}
# Here every iterate stays inside the float range, but the three eigenvalues
# 1 + c**(1/3) w + c**(-1/3) / w (w a cube root of 1, c = 10**-e2) have
# moduli equal to within 10**-30, so the iteration circles until the cap.
AT_THE_CAP = {(150, 100), (200, 100)}


class TestFloatRange:
    @pytest.mark.parametrize("e1, e2", sorted(EXTREME_OUTCOMES))
    def test_extreme_entries(self, e1, e2):
        big, mid = Fraction(10**e1), Fraction(10**e2)
        a = matrix_of([[1, big, big], [1 / big, 1, mid], [1 / big, 1 / mid, 1]])
        for method, expected in zip((perron_vector, singular_vector), EXTREME_OUTCOMES[e1, e2]):
            if isinstance(expected, bool):
                assert method(a).certificate.efficient is expected
                continue
            with pytest.raises(expected) as caught:
                method(a)
            if expected is ValueError:
                assert "float range" in str(caught.value)
            elif (e1, e2) in AT_THE_CAP:
                assert caught.value.iterations == MAX_ITERATIONS
            else:
                # An iterate underflowed to 0: the loop stops there.
                assert caught.value.iterations < 10
                assert f"after {caught.value.iterations} iterations" in str(caught.value)


class TestColumnsCommonCone:
    def test_circulant_subunit_cycle(self, circulant4):
        cycle = columns_common_cone(circulant4)
        assert cycle == HamiltonianCycle.from_vertices((0, 3, 2, 1))

    def test_consistent_any_cycle(self, consistent3):
        cycle = columns_common_cone(consistent3)
        assert cycle is not None
        cone = efficiency_cone(consistent3, cycle)
        for k in range(3):
            assert in_cone(consistent3, cone.cycle, consistent3.column(k))

    def test_double4_first_cycle(self, double4):
        cycle = columns_common_cone(double4)
        assert cycle == HamiltonianCycle.from_vertices((0, 1, 2, 3))

    def test_combinations_efficient_when_cone_found(self, circulant4, double4):
        rng = random.Random(43)
        for a in (circulant4, double4):
            cycle = columns_common_cone(a)
            assert cycle is not None
            for _ in range(100):
                coeffs = [Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(a.n)]
                if not any(coeffs):
                    coeffs[0] = Fraction(1)
                combo = tuple(
                    sum(c * a.column(k)[i] for k, c in enumerate(coeffs))
                    for i in range(a.n)
                )
                assert is_efficient(a, combo).efficient


class TestRankGolden:
    """``effvec rank`` on inconsistent matrices, pinned by one digest per format.

    Every kind at n = 3..8 and seeds 0-2, each run with the defaults, with
    equal ``--weights`` and with ``--tolerance 1/1000``: 270 runs, most of
    them through the spectral path the CLI hash skips.  The JSON digest
    pins the report; the text digest pins its table (residuals, inefficient
    rows, ``-`` cycles).  A result is the exit code, stdout and stderr, with
    the temporary directory replaced by a fixed token.
    """

    @staticmethod
    def _digest(tmp_path, flags):
        digest = hashlib.sha256()
        runs = 0
        for kind in KINDS:
            for n in range(3, 9):
                for seed in range(3):
                    path = tmp_path / f"{kind}-{n}-{seed}.txt"
                    path.write_text(format_matrix(generate(kind, n, seed=seed)))
                    equal = ",".join([f"1/{n}"] * n)
                    for extra in ([], ["--weights", equal], ["--tolerance", "1/1000"]):
                        out, err = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            code = main(["rank", str(path), *flags, *extra])
                        text = f"{code}\n{out.getvalue()}\n{err.getvalue()}\n"
                        digest.update(text.replace(str(tmp_path), "<tmp>").encode())
                        runs += 1
        assert runs == 270
        return digest.hexdigest()

    def test_digest(self, tmp_path):
        assert self._digest(tmp_path, ["--json"]) == (
            "d87eeb1eb7e8d82de0035b6b32b996a06689134c66a6b14a432db4ac944116e7"
        )

    def test_text_digest(self, tmp_path):
        assert self._digest(tmp_path, []) == (
            "d6bbd1455915aa60d35370d8fee4948c1d2de7e1d5d654ba7dc7ab62768e9346"
        )
