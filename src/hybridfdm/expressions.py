"""A small arithmetic-expression evaluator for problem configuration files.

Supports numbers, named variables, the constants pi and e, the operators
+ - * / ^ (power, right associative) with unary minus, parentheses, and a
fixed set of functions over numpy, so compiled expressions evaluate pointwise
on arrays.  No attribute access, no names beyond the whitelist: just enough
to describe coefficients, sources and boundary data.  A function called
with the wrong number of arguments is a ``ConfigError`` at compile time.

A compiled expression computes each repeated subexpression once.  The
renderer keys every compound subtree by its rendered Python text (not by
the values of its literals, since 0.0 == -0.0 in Python), binds a subtree
that occurs more than once to a temporary at its first use, and reads the
temporary afterwards.  This leaves every bit unchanged: equal text is the
same ufunc calls on the same operand bits, so each output element is
computed exactly as in the one-line rendering, only fewer elements are
computed.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ConfigError

_FUNCTIONS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "asin": np.arcsin, "acos": np.arccos, "atan": np.arctan,
    "atan2": np.arctan2, "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "exp": np.exp, "log": np.log, "log10": np.log10,
    "sqrt": np.sqrt, "abs": np.abs, "sign": np.sign,
    "min": np.minimum, "max": np.maximum,
}
_BINARY = {"atan2", "min", "max"}      # every other function takes one
_CONSTANTS = {"pi": np.pi, "e": np.e}

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^(),]))"
)


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            if src[pos:].strip():
                raise ConfigError(f"cannot tokenize expression at: {src[pos:]!r}")
            break
        pos = m.end()
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num"))))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            op = m.group("op")
            tokens.append(("op", "^" if op == "**" else op))
    tokens.append(("end", None))
    return tokens


class _Parser:
    """Pratt parser producing nested tuples."""

    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ConfigError(f"expected {op!r}, found {val!r}")

    def parse(self):
        node = self.expression(0)
        if self.peek()[0] != "end":
            raise ConfigError(f"trailing input near {self.peek()[1]!r}")
        return node

    def expression(self, min_bp):
        node = self.prefix()
        while True:
            kind, val = self.peek()
            if kind != "op" or val not in ("+", "-", "*", "/", "^"):
                break
            lbp, rbp = {"+": (10, 11), "-": (10, 11), "*": (20, 21),
                        "/": (20, 21), "^": (31, 30)}[val]
            if lbp < min_bp:
                break
            self.next()
            rhs = self.expression(rbp)
            node = (val, node, rhs)
        return node

    def prefix(self):
        kind, val = self.next()
        if kind == "num":
            return ("num", val)
        if kind == "op" and val == "-":
            return ("neg", self.expression(25))
        if kind == "op" and val == "+":
            return self.expression(25)
        if kind == "op" and val == "(":
            node = self.expression(0)
            self.expect(")")
            return node
        if kind == "name":
            if self.peek() == ("op", "("):
                self.next()
                args = [self.expression(0)]
                while self.peek() == ("op", ","):
                    self.next()
                    args.append(self.expression(0))
                self.expect(")")
                if val not in _FUNCTIONS:
                    raise ConfigError(f"unknown function {val!r}")
                arity = 2 if val in _BINARY else 1
                if len(args) != arity:
                    raise ConfigError(
                        f"function {val!r} takes {arity} argument"
                        f"{'s' if arity > 1 else ''}, got {len(args)}")
                return ("call", val, tuple(args))
            if val in _CONSTANTS:
                return ("num", _CONSTANTS[val])
            if val not in self.variables:
                raise ConfigError(f"unknown variable {val!r} "
                                  f"(expected one of {sorted(self.variables)})")
            return ("var", val)
        raise ConfigError(f"unexpected token {val!r}")


_SYMBOLS = {"+": "+", "-": "-", "*": "*", "/": "/", "^": "**"}


def _format(node, args) -> str:
    """Python text of one compound node over the given operand texts."""
    op = node[0]
    if op == "neg":
        return f"(-{args[0]})"
    if op == "call":
        return f"_f_{node[1]}({', '.join(args)})"
    return f"({args[0]} {_SYMBOLS[op]} {args[1]})"


def _render(ast):
    """(statements, result) of the parsed tree as Python over numpy functions.

    Every compound subtree is keyed by its plain rendered text, so the tree
    folds into a graph in which identical subtrees are one node; a node that
    this graph references more than once is bound to a temporary just
    before its first use.
    """
    kids = {}                    # compound text -> (node, child texts)
    uses = {}                    # compound text -> references in the graph

    def fold(node) -> str:
        if node[0] == "num":
            return repr(node[1])
        if node[0] == "var":
            return node[1]
        children = node[2] if node[0] == "call" else node[1:]
        args = [fold(child) for child in children]
        text = _format(node, args)
        if text not in kids:
            kids[text] = (node, args)
            for arg in args:
                if arg in uses:
                    uses[arg] += 1
            uses[text] = 0
        return text

    root = fold(ast)
    statements, temps = [], {}

    def emit(text) -> str:
        if text not in kids:
            return text
        if text in temps:
            return temps[text]
        node, args = kids[text]
        code = _format(node, [emit(arg) for arg in args])
        if uses[text] < 2:
            return code
        temps[text] = f"_t{len(temps)}"
        statements.append(f"{temps[text]} = {code}")
        return temps[text]

    return statements, emit(root)


def compile_expression(src: str, variables: tuple):
    """Compile a source string into fn(*arrays) over the named variables.

    The parsed tree is rendered back to a plain Python function over numpy
    ufuncs, so evaluation runs at native numpy speed; repeated subtrees are
    computed once (see the module docstring).
    """
    ast = _Parser(_tokenize(src), set(variables)).parse()
    statements, result = _render(ast)
    namespace = {f"_f_{name}": fn for name, fn in _FUNCTIONS.items()}
    body = "".join(f"    {line}\n" for line in statements)
    source = f"def _raw({', '.join(variables)}):\n{body}    return {result}\n"
    exec(source, namespace)  # noqa: S102 (rendered from our own AST)
    raw = namespace["_raw"]

    def fn(*args):
        if len(args) != len(variables):
            raise TypeError(f"expression takes {len(variables)} arguments")
        out = raw(*args)
        if np.isscalar(out) or np.ndim(out) == 0:
            shape = np.broadcast_shapes(*(np.shape(a) for a in args)) if args else ()
            if shape:
                return np.full(shape, float(out))
        return out

    fn.source = src
    return fn
