"""Expression parsing, evaluation, and Fourier projection against quadrature oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import iv

from torusquant import funcexpr
from torusquant.funcexpr import (
    ArityError,
    Binary,
    EvaluationError,
    ExpressionError,
    ExprSyntaxError,
    Number,
    PiConstant,
    ProjectionSpec,
    Unary,
    UnknownIdentifierError,
    Variable,
    default_grid,
    evaluate,
    lattice_mean,
    parse,
    project,
    sample_lattice,
)

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_source(ast, parent_prec: int = 0) -> str:
    """Render an AST back to grammar text, parenthesizing by precedence: the
    oracle of the parse round trip, parse(to_source(a)) == a."""
    if isinstance(ast, Number):
        v = ast.value
        return repr(int(v)) if v == int(v) and abs(v) < 1e15 else repr(v)
    if isinstance(ast, PiConstant):
        return "pi"
    if isinstance(ast, Variable):
        return f"{ast.axis}{ast.index}"
    if isinstance(ast, Unary):
        if ast.op == "neg":
            text = f"-{to_source(ast.operand, _PRECEDENCE['neg'])}"
            return f"({text})" if parent_prec > _PRECEDENCE["neg"] else text
        return f"{ast.op}({to_source(ast.operand)})"
    if isinstance(ast, Binary):
        prec = _PRECEDENCE[ast.op]
        if ast.op == "^":
            return f"{to_source(ast.left, prec + 1)}^{to_source(ast.right)}"
        # - and / do not associate on the right
        right = to_source(ast.right, prec + (1 if ast.op in "-/" else 0))
        text = f"{to_source(ast.left, prec)} {ast.op} {right}"
        return f"({text})" if parent_prec > prec else text
    raise TypeError(f"not an expression node: {ast!r}")


def test_parse_precedence():
    # 2 + 3 * 4 ^ 2 = 50: ^ binds tighter than *, * tighter than +
    ast = parse("2 + 3 * 4 ^ 2")
    assert evaluate(ast, (), ()) == 50.0


def test_parse_unary_minus_binds_below_power():
    # -x^2 means -(x^2); exponent follows the usual convention
    assert evaluate(parse("-2^2"), (), ()) == -4.0
    assert evaluate(parse("(-2)^2"), (), ()) == 4.0


def test_parse_round_trip():
    sources = [
        "sin(2*pi*x1) * cos(2*pi*y1)",
        "exp(cos(2*pi*x1)) - 1/2",
        "x1^3 - -y2",
        "2*pi*(x1 + y1)",
    ]
    for src in sources:
        ast = parse(src)
        again = parse(to_source(ast))
        xs = (0.3, 0.7)
        ys = (0.11, 0.57)
        assert abs(evaluate(ast, xs, ys) - evaluate(again, xs, ys)) < 1e-14


def test_parse_error_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + * 2")
    assert err.value.position == 5
    with pytest.raises(UnknownIdentifierError) as err:
        parse("1 + foo(2)")
    assert err.value.position == 5
    with pytest.raises(ExprSyntaxError):
        parse("sin(2*pi*x1")
    with pytest.raises(ExprSyntaxError):
        parse("")


def test_parse_arity_error():
    with pytest.raises(ArityError):
        parse("sin(1, 2)")
    with pytest.raises(ArityError):
        parse("sin()")


def test_unknown_identifier_is_expression_error():
    # callers can catch the whole family via the base class
    with pytest.raises(ExpressionError):
        parse("bogus + 1")


def test_variable_indices():
    ast = parse("x2 + y3")
    assert funcexpr.max_variable_index(ast) == 3
    assert evaluate(ast, (0.0, 2.0, 0.0), (0.0, 0.0, 5.0)) == 7.0


def test_noninteger_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("x1 ^ 0.5")
    with pytest.raises(ExprSyntaxError):
        parse("x1 ^ y1")


def test_evaluate_division_by_zero():
    with pytest.raises(EvaluationError):
        evaluate(parse("1 / (x1 - x1)"), (0.3,), (0.0,))
    with pytest.raises(EvaluationError):
        evaluate(parse("(x1 - x1) ^ -1"), (0.3,), (0.0,))


@pytest.mark.parametrize(
    "source", ["exp(1000)", "10^400", "exp(700)*exp(700)", "sin(exp(700)*exp(700))", "0.5^-2000"]
)
def test_overflow_is_an_evaluation_error_on_both_routes(source):
    # math.exp and float ** int raise OverflowError, math.sin(inf) a domain
    # ValueError and a product overflows to inf silently; numpy gives inf or
    # nan in each case, so both routes refuse them the same way
    ast = parse(source)
    with pytest.raises(EvaluationError):
        evaluate(ast, (0.3,), (0.0,))
    with pytest.raises(EvaluationError):
        sample_lattice(ast, 1, 4)


def test_an_overflow_that_vanishes_again_is_finite_on_both_routes():
    ast = parse("1 / (exp(700) * exp(700))")
    assert evaluate(ast, (0.3,), (0.0,)) == 0.0
    assert not sample_lattice(ast, 1, 4).any()


def test_evaluate_known_values():
    assert abs(evaluate(parse("sin(pi/2)"), (), ()) - 1.0) < 1e-15
    assert abs(evaluate(parse("exp(1) * exp(-1)"), (), ()) - 1.0) < 1e-15
    assert abs(evaluate(parse("cos(2*pi*x1)"), (0.25,), (0.0,))) < 1e-15


def test_broadcast_sample_lattice_matches_scalar_evaluate():
    ast = parse("exp(cos(2*pi*x1)) * sin(2*pi*y1)")
    m = 8
    grid = np.broadcast_to(sample_lattice(ast, 1, m), (m, m))
    assert grid.shape == (m, m)
    for i in (0, 3, 5):
        for j in (1, 4, 7):
            want = evaluate(ast, (i / m,), (j / m,))
            assert abs(grid[i, j] - want) < 1e-13


def test_sample_lattice_keeps_unread_axes_unspread():
    m = 8
    ast = parse("exp(sin(2*pi*y2)) + y2")
    sparse = sample_lattice(ast, 2, m)
    assert sparse.shape == (1, 1, 1, m)
    for l in range(m):
        assert sparse[0, 0, 0, l] == pytest.approx(evaluate(ast, (0.5, 0.25), (0.0, l / m)), rel=1e-14)
    assert sample_lattice(parse("2^3"), 1, m).shape == ()
    # the scalar route raises OverflowError here; the lattice names it
    with pytest.raises(EvaluationError, match="non-finite value produced by exp"):
        sample_lattice(parse("exp(1/((3*y1 - 1)^2*1000000 + 0.0000000001))"), 1, 3)


def test_default_grid_rule():
    assert default_grid(0) == 16
    assert default_grid(3) == 16
    assert default_grid(12) == 52


def test_projection_spec_validation():
    with pytest.raises(ValueError):
        ProjectionSpec(-1)
    with pytest.raises(ValueError):
        ProjectionSpec(4, 9)  # odd grid
    with pytest.raises(ValueError):
        ProjectionSpec(8, 16)  # grid must exceed 2*bandwidth+1
    spec = ProjectionSpec(2)
    assert spec.grid == default_grid(2)


def test_project_sine_exact_coefficients():
    # sin(2 pi x) = (e^{2 pi i x} - e^{-2 pi i x}) / 2i
    poly = project(parse("sin(2*pi*x1)"), ProjectionSpec(1), 1)
    assert abs(poly.coeff((1,), (0,)) - (-0.5j)) < 1e-14
    assert abs(poly.coeff((-1,), (0,)) - 0.5j) < 1e-14
    assert len(poly.terms()) == 2


def test_project_band_limited_is_exact():
    # polynomial input comes back bit-accurate once the grid resolves it
    src = "cos(2*pi*x1) * cos(2*pi*y1) + 1/4"
    poly = project(parse(src), ProjectionSpec(2), 1)
    assert abs(poly.coeff((0,), (0,)) - 0.25) < 1e-14
    assert abs(poly.coeff((1,), (1,)) - 0.25) < 1e-14
    assert abs(poly.coeff((1,), (-1,)) - 0.25) < 1e-14
    x, y = (0.37,), (0.93,)
    want = evaluate(parse(src), x, y)
    assert abs(poly.evaluate(x, y) - want) < 1e-13


def test_project_exp_cos_against_quad_oracle():
    # c_p of exp(cos 2 pi x) is the modified Bessel value I_p(1)
    poly = project(parse("exp(cos(2*pi*x1))"), ProjectionSpec(6), 1)
    for p in range(0, 4):
        oracle = quad(lambda t, p=p: math.exp(math.cos(2 * math.pi * t)) * math.cos(2 * math.pi * p * t), 0.0, 1.0)[0]
        assert abs(oracle - iv(p, 1.0)) < 1e-12  # quadrature agrees with Bessel
        got = poly.coeff((p,), (0,))
        assert abs(got - oracle) < 1e-10


def test_project_coefficient_decay():
    # smooth input: |c_p| * p^6 still decreasing over moderate p
    poly = project(parse("exp(cos(2*pi*x1))"), ProjectionSpec(10, 64), 1)
    scaled = [abs(poly.coeff((p,), (0,))) * p**6 for p in range(4, 9)]
    assert all(a > b for a, b in zip(scaled, scaled[1:]))


def test_project_aliasing_shrinks_with_grid():
    ast = parse("exp(sin(2*pi*x1) + cos(2*pi*y1))")
    coarse = project(ast, ProjectionSpec(4, 12), 1)
    fine = project(ast, ProjectionSpec(4, 64), 1)
    drift = coarse.l1_distance(fine)
    assert drift < 1e-4
    finer = project(ast, ProjectionSpec(4, 128), 1)
    assert fine.l1_distance(finer) < 1e-12


def test_project_n2():
    poly = project(parse("cos(2*pi*x2) * cos(2*pi*y1)"), ProjectionSpec(1), 2)
    assert abs(poly.coeff((0, 1), (1, 0)) - 0.25) < 1e-13
    assert poly.n == 2


def test_project_infers_n_from_variables():
    poly = project(parse("sin(2*pi*y2)"), ProjectionSpec(1))
    assert poly.n == 2


def test_nonfinite_rejected():
    with pytest.raises(EvaluationError):
        project(parse("exp(x1 * 10000)"), ProjectionSpec(1, 16), 1)


# -- lattice means summed in slabs ----------------------------------------------

# the smooth symbol of criterion 4 and the trace_smooth config: two axes at n = 1
SMOOTH = "exp(cos(2*pi*x1)) * (cos(2*pi*y1) / (1.1 - cos(2*pi*y1)))"
FOUR_AXES = "exp(cos(2*pi*x1) + sin(2*pi*y2)) * cos(2*pi*(x2 - y1))"


@pytest.mark.parametrize(
    "source, n, grid, slab_points",
    [
        ("exp(2*pi)", 2, 8, None),  # reads no axis: one slab of one point
        ("exp(cos(2*pi*y1))", 1, 4096, None),  # one slab: the whole lattice
        ("exp(cos(2*pi*y1))", 1, 2**18, None),  # one axis, two slabs
        (SMOOTH, 1, 256, None),
        (SMOOTH, 1, 1024, None),  # eight slabs of 128 rows
        (SMOOTH, 1, 1024, 2**7),  # slabs of numpy's leaf-block size
        ("cos(2*pi*x2) * exp(sin(2*pi*(y1 + y2)))", 2, 64, None),  # outermost axis read is x2
        (FOUR_AXES, 2, 32, None),
        (FOUR_AXES, 2, 16, 2**8),  # one row of 4096 points is more than a slab
    ],
)
def test_lattice_mean_is_the_one_pass_mean_bit_for_bit(monkeypatch, source, n, grid, slab_points):
    if slab_points is not None:
        monkeypatch.setattr(funcexpr, "SLAB_POINTS", slab_points)
    ast = parse(source)
    assert lattice_mean(ast, n, grid) == sample_lattice(ast, n, grid).mean()
    im = parse(f"cos({source})")  # reads the same axes
    want = complex(sample_lattice(ast, n, grid).mean(), sample_lattice(im, n, grid).mean())
    assert lattice_mean((ast, im), n, grid) == want
    assert lattice_mean((None, ast), n, grid) == complex(0.0, sample_lattice(ast, n, grid).mean())


def test_lattice_mean_builds_only_the_axes_it_reads():
    # 2n = 80 lattice axes are past numpy's array rank (32 axes on numpy 1.x,
    # 64 on 2.x); the axes read, x40 then y1, are x1 then y1 at n = 1
    big, small = parse("exp(cos(2*pi*y1)) * (1 + x40)"), parse("exp(cos(2*pi*y1)) * (1 + x1)")
    assert lattice_mean(big, 40, 64) == lattice_mean(small, 1, 64) == sample_lattice(small, 1, 64).mean()
    assert lattice_mean(parse("2^3"), 40, 64) == 8.0


@pytest.mark.parametrize(
    "source, n, grid",
    [(SMOOTH, 1, 1000), (SMOOTH, 1, 1536), ("exp(cos(2*pi*x1) + sin(2*pi*y2) + cos(2*pi*(x2 - y1)))", 2, 24)],
)
def test_lattice_mean_on_other_grids_agrees_to_rounding(source, n, grid):
    ast = parse(source)
    assert grid ** len(funcexpr.variables(ast)) > funcexpr.SLAB_POINTS
    one_pass = sample_lattice(ast, n, grid).mean()
    assert abs(lattice_mean(ast, n, grid).real - one_pass) <= 1e-15 * abs(one_pass)


@pytest.mark.parametrize(
    "source, message",
    [
        # zero only at x1 = 1023/1024, the last row of the last slab
        ("y1 / (1024*x1 - 1023)", "division by zero"),
        # overflows only from x1 = 1010/1024 on
        ("exp(720*x1) * cos(2*pi*y1)", "non-finite value produced by exp"),
    ],
)
def test_a_fault_in_the_last_slab_is_an_evaluation_error_naming_its_part(source, message):
    bad = parse(source)
    assert 1024**2 // funcexpr.SLAB_POINTS > 1
    with pytest.raises(EvaluationError, match=message) as info:
        lattice_mean(bad, 1, 1024)
    assert info.value.part == "expr"
    with pytest.raises(EvaluationError, match=message) as info:
        lattice_mean((parse(SMOOTH), bad), 1, 1024)
    assert info.value.part == "expr_im"
    # the first seven slabs, rows 0 to 895, are fine
    assert math.isfinite(evaluate(bad, (895 / 1024,), (0.25,)))


@pytest.mark.parametrize("source, n, grid, budget", [(SMOOTH, 1, 2048, 2 * 2**20), (FOUR_AXES, 2, 64, 8 * 2**20)])
def test_lattice_mean_memory_is_one_slab(source, n, grid, budget):
    # one pass held 36 MiB and 144 MiB here
    ast = parse(source)
    tracemalloc.start()
    try:
        lattice_mean(ast, n, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget


def test_a_subexpression_off_the_slab_axis_is_evaluated_once_per_mean(monkeypatch):
    # the y1 factor of SMOOTH does not read x1, the slab axis: it is
    # evaluated once, not once per slab, and the mean does not move
    ast = parse(SMOOTH)
    factor = ast.right
    assert funcexpr.variables(factor) == {funcexpr.Variable("y", 1)}
    calls = []
    original = funcexpr._eval

    def counted(node, xs, ys, scalar):
        calls.append(node)
        return original(node, xs, ys, scalar)

    monkeypatch.setattr(funcexpr, "_eval", counted)
    assert 1024**2 // funcexpr.SLAB_POINTS == 8
    mean = lattice_mean(ast, 1, 1024)
    assert sum(node == factor for node in calls) == 1
    assert sum(node == ast.left for node in calls) == 8
    monkeypatch.setattr(funcexpr, "_eval", original)
    assert mean == sample_lattice(ast, 1, 1024).mean()
