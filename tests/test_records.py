"""The result records: construction, validation, equality, hashing, repr,
immutability and copying.

Every record behaves as a frozen value: built positionally or by keyword
with the defaults below, equal only to an instance of its own class with
equal compared fields, hashed as the tuple of those fields (so set and dict
order follow the fields), and printed as ``Name(field=value, ...)``.  The
repr literals below are fixed; a change to one is a change of the API.
"""

import copy
import inspect
import pickle
from fractions import Fraction as F

import pytest

from effvec import (
    ConvexityReport,
    Decomposition,
    DominanceDigraph,
    DominanceProbe,
    EfficiencyCertificate,
    EfficiencyCone,
    HamiltonianCycle,
    MonomialTransform,
    RankingCandidate,
    ReciprocalMatrix,
)
from effvec.perturbed import ColumnPerturbedForm, EfficiencyBand
from effvec.reversals import ReversalReport

A = ReciprocalMatrix.from_rows([[1, 2, "1/3"], ["1/2", 1, 4], [3, "1/4", 1]])
A_REPR = (
    "ReciprocalMatrix(entries=((Fraction(1, 1), Fraction(2, 1), Fraction(1, 3)), "
    "(Fraction(1, 2), Fraction(1, 1), Fraction(4, 1)), (Fraction(3, 1), Fraction(1, 4), Fraction(1, 1))))"
)
C = HamiltonianCycle((0, 2, 1))
C_REPR = "HamiltonianCycle(order=(0, 2, 1))"
T = MonomialTransform((F(1), F(2), F(1)), (0, 1, 2))
T_REPR = "MonomialTransform(scale=(Fraction(1, 1), Fraction(2, 1), Fraction(1, 1)), perm=(0, 1, 2))"
YES = EfficiencyCertificate(True, C)
YES_REPR = f"EfficiencyCertificate(efficient=True, cycle={C_REPR}, cut=None)"
NO = EfficiencyCertificate(False, cut=(0,))
NO_REPR = "EfficiencyCertificate(efficient=False, cycle=None, cut=(0,))"
CONE = EfficiencyCone(A, C)
CONE_REPR = f"EfficiencyCone(cycle={C_REPR})"
V = (F(1), F(2))
V_REPR = "(Fraction(1, 1), Fraction(2, 1))"

# (class, fields in order, the fields that have a default, one instance's
# field values, that instance's repr)
RECORDS = [
    (ReciprocalMatrix, ("entries",), {}, (A.entries,), A_REPR),
    (MonomialTransform, ("scale", "perm"), {}, (T.scale, T.perm), T_REPR),
    (HamiltonianCycle, ("order",), {}, ((0, 2, 1),), C_REPR),
    (
        DominanceDigraph,
        ("adjacency",),
        {},
        (((True, False), (True, True)),),
        "DominanceDigraph(adjacency=((True, False), (True, True)))",
    ),
    (EfficiencyCertificate, ("efficient", "cycle", "cut"), {"cycle": None, "cut": None}, (True, C, None), YES_REPR),
    (EfficiencyCone, ("matrix", "cycle"), {}, (A, C), CONE_REPR),
    (
        Decomposition,
        ("matrix", "cones", "unit_cycles", "ray"),
        {"ray": None},
        (A, (CONE,), (HamiltonianCycle((0, 1, 2)),), None),
        f"Decomposition(matrix={A_REPR}, cones=({CONE_REPR},), "
        "unit_cycles=(HamiltonianCycle(order=(0, 1, 2)),), ray=None)",
    ),
    (
        ConvexityReport,
        ("verdict", "reason", "witness", "shared_edges"),
        {"witness": None, "shared_edges": None},
        ("non_convex", "witness", (V, (F(1), F(1, 2)), F(1, 4)), None),
        "ConvexityReport(verdict='non_convex', reason='witness', witness=((Fraction(1, 1), Fraction(2, 1)), "
        "(Fraction(1, 1), Fraction(1, 2)), Fraction(1, 4)), shared_edges=None)",
    ),
    (
        ColumnPerturbedForm,
        ("canonical", "transform", "index", "candidates", "pairs"),
        {},
        (A, T, 0, (0, 2), ((1, 2),)),
        f"ColumnPerturbedForm(canonical={A_REPR}, transform={T_REPR}, index=0, candidates=(0, 2), pairs=((1, 2),))",
    ),
    (
        EfficiencyBand,
        ("matrix", "top", "bottom"),
        {},
        (A, 2, 1),
        f"EfficiencyBand(matrix={A_REPR}, top=2, bottom=1)",
    ),
    (
        RankingCandidate,
        ("method", "vector", "certificate", "exact", "residual"),
        {"residual": None},
        ("perron", V, NO, False, F(1, 10**12)),
        f"RankingCandidate(method='perron', vector={V_REPR}, certificate={NO_REPR}, exact=False, "
        "residual=Fraction(1, 1000000000000))",
    ),
    (
        ReversalReport,
        ("pairs", "along_cycle"),
        {"along_cycle": None},
        (((0, 1, "strict-flip"),), 2),
        "ReversalReport(pairs=((0, 1, 'strict-flip'),), along_cycle=2)",
    ),
    (
        DominanceProbe,
        ("weak", "strict_positions", "proportional"),
        {},
        (True, ((0, 1),), False),
        "DominanceProbe(weak=True, strict_positions=((0, 1),), proportional=False)",
    ),
]
IDS = [record[0].__name__ for record in RECORDS]


@pytest.fixture(params=RECORDS, ids=IDS)
def record(request):
    return request.param


class TestConstruction:
    def test_positional_equals_keyword(self, record):
        cls, names, _, values, _ = record
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(names, values)))
        assert by_position == by_keyword
        assert tuple(getattr(by_position, name) for name in names) == values

    @pytest.mark.parametrize(
        "cls,values",
        [
            (ReciprocalMatrix, (A.entries,)),
            (MonomialTransform, (T.scale, T.perm)),
            (HamiltonianCycle, ((0, 2, 1),)),
            (DominanceDigraph, (((True, False), (True, True)),)),
        ],
        ids=["ReciprocalMatrix", "MonomialTransform", "HamiltonianCycle", "DominanceDigraph"],
    )
    def test_lists_stored_as_tuples(self, cls, values):
        # The checked constructors store tuples, so a record built from
        # lists equals, and hashes as, the one built from tuples.
        def listed(x):
            return [listed(y) for y in x] if isinstance(x, tuple) else x

        from_lists, from_tuples = cls(*map(listed, values)), cls(*values)
        assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
        assert from_lists._values() == values

    def test_signature_and_defaults(self, record):
        cls, names, defaults, _, _ = record
        params = list(inspect.signature(cls).parameters.values())
        assert [p.name for p in params] == list(names)
        assert {p.name: p.default for p in params if p.default is not inspect.Parameter.empty} == defaults

    def test_defaults_fill_in(self, record):
        cls, names, defaults, values, _ = record
        required = dict(zip(names, values))
        for name in defaults:
            del required[name]
        built = cls(**required)
        assert {name: getattr(built, name) for name in defaults} == defaults


class TestValue:
    def test_repr(self, record):
        cls, _, _, values, text = record
        assert repr(cls(*values)) == text

    def test_hash_is_hash_of_fields(self, record):
        cls, _, _, values, _ = record
        assert hash(cls(*values)) == hash(values)

    def test_equal_only_within_class(self, record):
        cls, _, _, values, _ = record
        x = cls(*values)
        sub = type("Sub", (cls,), {})(*values)
        assert x == cls(*values)
        assert x != sub and sub != x
        assert x != values
        assert x.__eq__(values) is NotImplemented

    def test_fields_cannot_change(self, record):
        cls, names, _, values, _ = record
        x = cls(*values)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
        with pytest.raises(AttributeError):
            x.unlisted = 1

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
    def test_copies_are_equal(self, record, clone):
        cls, _, _, values, text = record
        x = cls(*values)
        y = clone(x)
        assert type(y) is cls and y == x and hash(y) == hash(x) and repr(y) == text


class TestComparedFields:
    def test_matrix_ignores_numerator_table(self):
        b = ReciprocalMatrix(A.entries)
        object.__setattr__(b, "_numerators", ())
        assert b == A and hash(b) == hash((A.entries,))

    def test_matrix_copies_keep_numerator_table(self):
        for y in (copy.copy(A), copy.deepcopy(A), pickle.loads(pickle.dumps(A))):
            assert y._numerators == A._numerators

    def test_cone_compares_matrix_left_out_of_repr(self):
        other = EfficiencyCone(ReciprocalMatrix.from_rows([[1, 3, "1/3"], ["1/3", 1, 4], [3, "1/4", 1]]), C)
        assert repr(other) == repr(CONE)
        assert other != CONE

    def test_cone_copies_read_rays(self):
        cone = EfficiencyCone(A, C)
        rays = cone.extremes
        for y in (copy.copy(cone), copy.deepcopy(cone), pickle.loads(pickle.dumps(cone))):
            assert y == cone and y.extremes == rays


class TestValidation:
    @pytest.mark.parametrize(
        "order, message",
        [
            ((0,), "cycles need at least two vertices"),
            ((0, 0, 1), "cycle must visit each vertex exactly once"),
            ((1, 0, 2), "canonical cycles start at vertex 0; use from_vertices"),
        ],
    )
    def test_cycle(self, order, message):
        with pytest.raises(ValueError) as err:
            HamiltonianCycle(order)
        assert str(err.value) == message

    @pytest.mark.parametrize("adjacency", [((True, False), (False, True)), ((True, True), (True,))])
    def test_digraph_semi_complete(self, adjacency):
        with pytest.raises(ValueError) as err:
            DominanceDigraph(adjacency)
        assert str(err.value) == "adjacency must be square and semi-complete: an edge between every two vertices"

    @pytest.mark.parametrize(
        "entries, error, message",
        [
            (((F(1),),), ValueError, "comparison matrices need dimension at least 2"),
            (((F(1), F(2)), (F(1, 2),)), ValueError, "row 1 has length 1, expected 2"),
            (((1, 2), (F(1, 2), F(1))), TypeError, "matrix entries must be Fractions"),
            (((F(1), F(-2)), (F(-1, 2), F(1))), ValueError, "entry (0,1) is not positive"),
            (((F(2), F(2)), (F(1, 2), F(1))), ValueError, "diagonal entry (0,0) must equal 1"),
            (((F(1), F(2)), (F(1, 3), F(1))), ValueError, "entries (0,1) and (1,0) are not reciprocal"),
        ],
    )
    def test_matrix(self, entries, error, message):
        with pytest.raises(error) as err:
            ReciprocalMatrix(entries)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "scale, perm, message",
        [
            ((F(1), F(2)), (0,), "scale and permutation must have equal length"),
            ((F(1), F(2)), (0, 0), "perm must be a permutation of 0..n-1"),
            ((F(1), 2), (0, 1), "scale factors must be positive Fractions"),
            ((F(1), F(0)), (0, 1), "scale factors must be positive Fractions"),
        ],
    )
    def test_transform(self, scale, perm, message):
        with pytest.raises(ValueError) as err:
            MonomialTransform(scale, perm)
        assert str(err.value) == message
