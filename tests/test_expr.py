"""Expression language: parsing, printing, evaluation, error spans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracurv.errors import DomainError, ParseError, UnknownCoordinate
from paracurv.exprlang import (
    Bin,
    Call,
    Coord,
    JetProgram,
    Neg,
    Num,
    Pow,
    ScalarField,
    eval_jet,
    parse,
)

from conftest import CORPUS_COORDS, CORPUS_POINT, EXPRESSION_CORPUS

COORDS = ("u1", "v1", "t")
POINT = np.array([1.0, 2.0, 3.0])
POINTS = POINT[None]  # a batch of one


def value(text, point=POINT, coords=COORDS):
    return eval_jet(parse(text, coords), [point], order=0)[0][0]


def test_precedence_and_associativity():
    assert value("1+2*3^2") == 19.0
    assert value("u1*v1-2*t") == -4.0
    assert value("6/3/2") == 1.0  # left associative
    with pytest.raises(ParseError):
        parse("2^3^2", COORDS)  # powers do not chain
    assert value("-2^2") == -4.0  # unary minus applies after the power
    assert value("(1+2)*3") == 9.0
    assert value("2*-3") == -6.0


def test_functions_and_integer_powers():
    assert value("sqrt(u1+t)") == pytest.approx(2.0)
    assert value("exp(0)") == 1.0
    assert value("ln(exp(1))") == pytest.approx(1.0)
    assert value("cosh(0)+sinh(0)") == 1.0
    assert value("v1^-1") == pytest.approx(0.5)
    with pytest.raises(ParseError):
        parse("u1^1.5", COORDS)
    with pytest.raises(ParseError):
        parse("u1^v1", COORDS)


def test_parse_error_offsets():
    with pytest.raises(ParseError) as exc:
        parse("1 + * 2", COORDS)
    assert exc.value.offset == 4
    with pytest.raises(ParseError) as exc:
        parse("(u1 + v1", COORDS)
    assert exc.value.offset == 8
    with pytest.raises(ParseError) as exc:
        parse("tan(u1)", COORDS)
    assert exc.value.offset == 0
    with pytest.raises(ParseError) as exc:
        parse("1 + 2 @ 3", COORDS)
    assert exc.value.offset == 6
    with pytest.raises(ParseError):
        parse("", COORDS)
    with pytest.raises(ParseError):
        parse("   ", COORDS)


def test_unknown_coordinate_carries_name_and_offset():
    with pytest.raises(UnknownCoordinate) as exc:
        parse("u1 + q7", COORDS)
    assert exc.value.name == "q7"
    assert exc.value.offset == 5


def test_domain_error_carries_source_span():
    ast = parse("1 + sqrt(u1 - 10)", COORDS)
    with pytest.raises(DomainError) as exc:
        eval_jet(ast, POINTS, order=1)
    lo, hi = exc.value.span
    assert "sqrt(u1 - 10)" == "1 + sqrt(u1 - 10)"[lo:hi]
    ast = parse("v1 / (u1 - 1)", COORDS)
    with pytest.raises(DomainError) as exc:
        eval_jet(ast, POINTS, order=1)
    assert exc.value.span is not None
    ast = parse("2 + v1^-1", COORDS)
    with pytest.raises(DomainError) as exc:
        eval_jet(ast, [[1.0, 0.0, 3.0]], order=1)
    lo, hi = exc.value.span
    assert "2 + v1^-1"[lo:hi] == "v1^-1"


def test_domain_error_names_the_first_failing_point_of_a_batch():
    text = "u1 + sqrt(t - 1)"
    points = np.array([[0.0, 0.0, 2.0], [1.0, 1.0, 3.0], [0.5, 0.5, -1.0],
                       [0.0, 0.0, 4.0]])
    with pytest.raises(DomainError) as exc:
        eval_jet(parse(text, COORDS), points, order=2)
    assert exc.value.index == 2
    assert exc.value.value == -2.0
    lo, hi = exc.value.span
    assert text[lo:hi] == "sqrt(t - 1)"


def test_spans_cover_the_source_text():
    text = "sinh(u1)*cosh(v1) - t^2"
    ast = parse(text, COORDS)
    assert ast.span == (0, len(text))
    assert isinstance(ast, Bin) and ast.op == "-"
    assert text[ast.right.span[0] : ast.right.span[1]] == "t^2"


def test_deterministic_reparse():
    text = "exp(u1*v1)/(1 + t^2) - sqrt(4 + u1)"
    a = parse(text, COORDS)
    b = parse(text, COORDS)
    assert a == b
    assert eval_jet(a, POINTS, 2)[0] == eval_jet(b, POINTS, 2)[0]


# -- round trip -----------------------------------------------------------


def unparse(ast):
    """Render an AST back to text; re-parsing yields a structurally equal AST."""
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, Coord):
        return ast.name
    if isinstance(ast, Neg):
        return f"-({unparse(ast.arg)})"
    if isinstance(ast, Bin):
        return f"({unparse(ast.left)}){ast.op}({unparse(ast.right)})"
    if isinstance(ast, Pow):
        return f"({unparse(ast.base)})^{ast.exponent}"
    if isinstance(ast, Call):
        return f"{ast.func}({unparse(ast.arg)})"
    raise TypeError(f"not an AST node: {ast!r}")


def _leaves():
    nums = st.floats(
        min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
    ).map(Num)
    coords = st.sampled_from(
        [Coord(name, i) for i, name in enumerate(COORDS)]
    )
    return nums | coords


def _extend(children):
    ops = st.sampled_from("+-*/")
    return st.one_of(
        children.map(Neg),
        st.builds(lambda op, a, b: Bin(op, a, b), ops, children, children),
        st.builds(
            lambda b, e: Pow(b, e), children, st.integers(-3, 3)
        ),
        st.builds(
            lambda f, a: Call(f, a),
            st.sampled_from(("sqrt", "exp", "ln", "sinh", "cosh")),
            children,
        ),
    )


asts = st.recursive(_leaves(), _extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(asts)
def test_unparse_parse_round_trip(ast):
    assert parse(unparse(ast), COORDS) == ast


def test_round_trip_preserves_evaluation():
    texts = [
        "u1^2 - v1^2 + 2*t",
        "sqrt(1 + u1^2)*exp(-(v1^2))",
        "sinh(u1*v1)/(3 + cosh(t))",
    ]
    for text in texts:
        a = parse(text, COORDS)
        b = parse(unparse(a), COORDS)
        ja = eval_jet(a, POINTS, 2)
        jb = eval_jet(b, POINTS, 2)
        assert all(np.array_equal(x, y) for x, y in zip(ja, jb))


def test_scalar_field_wrappers():
    f = ScalarField(parse("u1 + 2*t", COORDS))
    jet = f(POINTS, 1)
    assert jet[0][0] == 7.0
    assert np.array_equal(jet[1][0], [1.0, 0.0, 2.0])
    assert f.ast == parse("u1 + 2*t", COORDS)


# -- programs -------------------------------------------------------------


def program_table():
    """Corpus entries, and sums, differences, products and negations of
    them, so that a program shares nodes across its roots; and negative
    powers, constant operations and signed zeros."""
    pairs = list(zip(EXPRESSION_CORPUS, EXPRESSION_CORPUS[1:]))
    texts = [*EXPRESSION_CORPUS,
             *(f"({a})*({b})" for a, b in pairs),
             *(f"-({a}) + ({b})" for a, b in pairs),
             *(f"({a}) - ({b})*w" for a, b in pairs[::3]),
             "(2 + u)^-2", "(1 + u^2)^-3*v", "1/(3 + w) - u*v", "-(u*v) + u*v",
             "2*3 - u", "-(2*3) + 4", "u^0*v", "-0.0*u", "0*u", "-(0.0) + v", "0.0",
             "-0.0", "u*v*w*u", "(u*v)*(w*u) + (u*v)*(u*v)"]
    return [parse(t, CORPUS_COORDS) for t in texts]


PROGRAM_POINTS = np.random.default_rng(17).uniform(-0.5, 0.5, (7, 3))


@pytest.mark.parametrize("count", [1, 7])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_program_jets_are_bitwise_those_of_each_ast_alone(count, order):
    asts = program_table()
    points = PROGRAM_POINTS[:count]
    parts = JetProgram(asts)(points, order)
    assert len(parts) == order + 1
    for i, ast in enumerate(asts):
        for k, alone in enumerate(eval_jet(ast, points, order)):
            got = np.ascontiguousarray(parts[k][..., i])
            assert got.shape == alone.shape and got.tobytes() == alone.tobytes()


# text -> the degree of its root: None for a constant, else the highest
# order of its jet parts that the rules leave an array rather than None
DEGREES = {"u": 1, "2": None, "u*v": 2, "u^3": 3, "u^-1": 4, "exp(u)": 4,
           "exp(2)": None, "v/3": 1, "u^0*v": 1, "u*v*w*u": 4, "1/u": 4, "2*3 - 1": None}


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_program_degrees_are_the_none_parts_of_each_node(order):
    texts = list(DEGREES)
    program = JetProgram([parse(t, CORPUS_COORDS) for t in texts])
    assert [program.degrees[r] for r in program.roots] == list(DEGREES.values())
    # the parts above a root's degree are its zeros, a constant's above 0
    parts = program(PROGRAM_POINTS, order)
    for i, degree in enumerate(DEGREES.values()):
        for k in range(1 if degree is None else degree + 1, order + 1):
            assert not parts[k][..., i].any()


def test_program_rows_are_structural_classes_and_keep_signed_zeros_apart():
    # separately parsed equal texts are one row, at every node
    texts = ["exp(u*v) + sinh(u*v)*w", "sinh(u*v)*w + exp(u*v)"]
    program = JetProgram([parse(t, CORPUS_COORDS) for t in texts * 2])
    assert program.roots.tolist() == [7, 8, 7, 8] and len(program.nodes) == 9
    program = JetProgram([Num(0.0), Num(-0.0), Num(0.0), Bin("*", Num(-0.0), Coord("u", 0))])
    assert program.roots.tolist() == [0, 1, 0, 3] and len(program.nodes) == 4
    value = program(PROGRAM_POINTS[:1], 1)[0][0]
    assert [np.signbit(v) for v in value[:3]] == [False, True, False]


def refusal(texts, points):
    with pytest.raises(DomainError) as exc:
        JetProgram([parse(t, CORPUS_COORDS) for t in texts])(points, 2)
    return exc.value


def test_the_refusal_is_the_first_that_the_roots_one_by_one_meet():
    # the ln refuses at a lower height than the sqrt, which is visited first
    texts = ["1 + sqrt(exp(u) - 100)", "ln(v - 5)"]
    e = refusal(texts, PROGRAM_POINTS)
    assert str(e) == "sqrt of non-positive value" and e.index == 0
    assert texts[0][slice(*e.span)] == "sqrt(exp(u) - 100)"
    # both ln run as one stacked group, where ln(v - 5) refuses too
    texts = ["ln(u*1e-170) + w", "ln(v - 5)"]
    e = refusal(texts, [CORPUS_POINT, [0.2, 0.1, 0.3]])
    assert str(e).startswith("derivatives of ln overflow") and e.index == 0
    assert texts[0][slice(*e.span)] == "ln(u*1e-170)"
