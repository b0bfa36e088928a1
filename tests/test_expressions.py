"""Compiled expressions: parse trees, the whitelist, and common-subexpression
rendering that changes no bit."""

import configparser
import re

import numpy as np
import pytest

import hybridfdm.expressions as ex
from hybridfdm.errors import ConfigError
from hybridfdm.expressions import compile_expression
from hybridfdm.problems import BUILTIN_CONFIGS


def reference_to_python(node) -> str:
    """The one-line renderer before common subexpressions were bound."""
    op = node[0]
    if op == "num":
        return repr(node[1])
    if op == "var":
        return node[1]
    if op == "neg":
        return f"(-{reference_to_python(node[1])})"
    if op == "call":
        args = ", ".join(reference_to_python(a) for a in node[2])
        return f"_f_{node[1]}({args})"
    a, b = reference_to_python(node[1]), reference_to_python(node[2])
    sym = {"+": "+", "-": "-", "*": "*", "/": "/", "^": "**"}[op]
    return f"({a} {sym} {b})"


def reference_compile(src, variables):
    body = reference_to_python(ex.parse_expression(src, variables))
    namespace = {f"_f_{name}": fn for name, fn in ex._FUNCTIONS.items()}
    arglist = ", ".join(variables) if variables else ""
    raw = eval(f"lambda {arglist}: {body}", namespace)

    def fn(*args):
        out = raw(*args)
        if np.isscalar(out) or np.ndim(out) == 0:
            shape = np.broadcast_shapes(*(np.shape(a) for a in args)) if args else ()
            if shape:
                return np.full(shape, float(out))
        return out

    return fn


def builtin_expressions():
    """(name, source, variables) of every expression in ex31..ex34."""
    out = []
    for name, text in sorted(BUILTIN_CONFIGS.items()):
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(text)
        parametric = cp.get("interface", "kind") == "parametric"
        for section in cp.sections():
            if section == "problem":
                continue
            for key, src in cp.items(section):
                if key == "kind":
                    continue
                if section == "domain" or key == "period":
                    variables = ()
                elif parametric and section == "interface" and key != "psi":
                    variables = ("theta",)
                else:
                    variables = ("x", "y")
                out.append((f"{name}:{section}:{key}", src, variables))
    return out


EXPRESSIONS = builtin_expressions()


def bits(a):
    a = np.ascontiguousarray(a, dtype=float)
    return a.shape, a.view(np.int64).tolist()


def argument_layouts(nvars):
    """Contiguous, strided and broadcast (n, 1) x (1, m) arguments."""
    rng = np.random.default_rng(7)
    if nvars == 0:
        return [()]
    pool = rng.uniform(-2.5, 2.5, (2, 3 * 41))
    contiguous = tuple(pool[k, :41].copy() for k in range(nvars))
    strided = tuple(pool[k, ::3] for k in range(nvars))
    pairs = rng.uniform(-2.5, 2.5, (37, 2))
    columns = tuple(pairs[:, k] for k in range(nvars))
    if nvars == 1:
        broadcast = (pool[0, :13].reshape(13, 1),)
    else:
        broadcast = (pool[0, :13].reshape(13, 1), pool[1, :11].reshape(1, 11))
    scalars = tuple(float(v) for v in pool[:nvars, 0])
    return [contiguous, strided, columns, broadcast, scalars]


def test_builtin_configs_cover_every_kind_of_expression():
    kinds = {variables for _, _, variables in EXPRESSIONS}
    assert kinds == {(), ("theta",), ("x", "y")}
    assert len(EXPRESSIONS) > 60


@pytest.mark.parametrize("name,src,variables", EXPRESSIONS,
                         ids=[e[0] for e in EXPRESSIONS])
def test_matches_one_line_renderer_bit_for_bit(name, src, variables):
    got_fn = compile_expression(src, variables)
    want_fn = reference_compile(src, variables)
    for args in argument_layouts(len(variables)):
        with np.errstate(all="ignore"):
            got, want = got_fn(*args), want_fn(*args)
        assert type(got) is type(want)
        assert bits(got) == bits(want)


def test_repeated_subtree_is_computed_once(monkeypatch):
    calls = []

    def counting_sin(v):
        calls.append(np.array(v, copy=True))
        return np.sin(v)

    monkeypatch.setitem(ex._FUNCTIONS, "sin", counting_sin)
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(BUILTIN_CONFIGS["ex31"])
    src = cp.get("fields", "f_plus")
    assert src.count("sin(2*x)") == 7
    fn = compile_expression(src, ("x", "y"))
    x = np.linspace(-2.0, 2.0, 9)[:, None]
    y = np.linspace(-1.0, 1.0, 5)[None, :]
    fn(x, y)
    two_x = [c for c in calls if c.shape == x.shape and np.array_equal(c, 2.0 * x)]
    assert len(two_x) == 1
    # sin(x), sin(y), sin(2x), sin(2y): one call per distinct argument
    assert len(calls) == 4


def test_statements_bind_only_shared_subtrees():
    tree = ex.parse_expression("sin(2*x)*cos(2*x) + sin(2*x) + y", ("x", "y"))
    statements, result = ex._render(tree)
    assert statements == ["_t0 = (2.0 * x)", "_t1 = _f_sin(_t0)"]
    assert result == "(((_t1 * _f_cos(_t0)) + _t1) + y)"


def test_signed_zero_literals_stay_distinct():
    fn = compile_expression("atan2(-0.0, x) + 2*atan2(0.0, x)", ("x",))
    assert fn(-1.0) == pytest.approx(np.pi)


def test_parser_returns_hashable_trees():
    tree = ex.parse_expression("atan2(y, x) + max(x, 1)", ("x", "y"))
    assert tree[1] == ("call", "atan2", (("var", "y"), ("var", "x")))
    hash(tree)


def test_constant_and_zero_argument_paths():
    assert compile_expression("2^3^2", ())() == 512.0
    assert compile_expression("-2.5", ())() == -2.5
    c = compile_expression("pi", ("x", "y"))
    out = c(np.zeros((3, 1)), np.zeros((1, 4)))
    assert out.shape == (3, 4) and np.all(out == np.pi)
    assert compile_expression("pi", ("x", "y"))(0.5, 0.5) == np.pi


def test_source_and_error_messages():
    fn = compile_expression("x^2 + y", ("x", "y"))
    assert fn.source == "x^2 + y"
    with pytest.raises(TypeError, match="expression takes 2 arguments"):
        fn(1.0)
    with pytest.raises(ConfigError, match="unknown function 'foo'"):
        compile_expression("foo(x)", ("x",))
    with pytest.raises(ConfigError,
                       match=r"unknown variable 'z' \(expected one of \['x'\]\)"):
        compile_expression("x + z", ("x",))
    with pytest.raises(ConfigError,
                       match=r"cannot parse expression 'x \+': invalid syntax"):
        compile_expression("x +", ("x",))
    with pytest.raises(ConfigError,
                       match="cannot parse expression 'x y': invalid syntax"):
        compile_expression("x y", ("x", "y"))
    with pytest.raises(ConfigError, match=re.escape(
            "cannot parse expression 'sin(x + y': '(' was never closed")):
        compile_expression("sin(x + y", ("x", "y"))
    with pytest.raises(ConfigError, match=re.escape(
            "unsupported syntax 'x // y' in '1 + x // y'")):
        compile_expression("1 + x // y", ("x", "y"))


@pytest.mark.parametrize("src, message", [
    ("sin(x, y)", "function 'sin' takes 1 argument, got 2"),
    ("atan2(x)", "function 'atan2' takes 2 arguments, got 1"),
    ("max(x, y, x)", "function 'max' takes 2 arguments, got 3"),
])
def test_argument_count_is_checked_at_compile_time(src, message):
    """A unary ufunc given two arguments would take the second as its
    ``out`` array and overwrite the caller's y."""
    with pytest.raises(ConfigError, match=re.escape(message)):
        compile_expression(src, ("x", "y"))


X, A, B, C = ("var", "x"), ("var", "a"), ("var", "b"), ("var", "c")
TWO = ("num", 2.0)


@pytest.mark.parametrize("src, tree", [
    ("-x^2", ("neg", ("^", X, TWO))),
    ("2^-x^2", ("^", TWO, ("neg", ("^", X, TWO)))),
    ("a^b^c", ("^", A, ("^", B, C))),
    ("a-b-c", ("-", ("-", A, B), C)),
    ("a/b/c", ("/", ("/", A, B), C)),
    ("-a*b", ("*", ("neg", A), B)),
    ("x**2", ("^", X, TWO)),
    ("+x", X),
    ("3", ("num", 3.0)),
    ("-0.0", ("neg", ("num", 0.0))),
    ("1_0", ("num", 10.0)),
])
def test_precedence_and_associativity(src, tree):
    # repr tells 3 from 3.0 and -0.0 from 0.0, which == does not
    assert repr(ex.parse_expression(src, ("a", "b", "c", "x"))) == repr(tree)


@pytest.mark.parametrize("src", [
    "x if y else 1", "x < y", "x.real", "[x]", "x @ y", "x // y", "x % y",
    "lambda: 1", "sin(x=1)", "sin(*x)", "1j", "True", "'a'", "(x := 1)",
    "x[0]", "__import__('os')", "", "01", "x # the rest", "x\0",
])
def test_whitelist_rejects_everything_else(src, monkeypatch):
    def no_exec(*args):
        raise AssertionError("rejected input reached exec")

    monkeypatch.setattr(ex, "exec", no_exec, raising=False)
    with pytest.raises(ConfigError):
        compile_expression(src, ("x", "y"))
