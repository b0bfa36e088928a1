"""Problem-configuration expressions, compiled to functions over numpy.

An expression is Python expression syntax cut down to a whitelist: int and
float literals, the caller's variables, the constants pi and e, + - * /,
^ for power (as is **), unary minus and plus, parentheses, and calls of a
fixed set of numpy functions by plain name with positional arguments.  The
text, its whitespace collapsed (a config value may span lines) and ^ mapped
to **, is parsed by ``ast``; one walk keeps the whitelisted nodes and
raises ``ConfigError`` quoting the text of any other, as it does for an
unknown name or a wrong argument count.  The grammar being Python's, ``01``
is rejected and ``1_0`` reads as 10.  ``#`` is rejected, as Python would
read the rest as a comment; in a config file ``;`` starts an inline
comment, which the loader strips.

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

import ast

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

_OPERATORS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
              ast.Pow: "^"}


def parse_expression(src: str, variables: tuple) -> tuple:
    """The tree of one expression: ``("num", float)``, ``("var", name)``,
    ``("neg", t)``, ``(op, a, b)`` with op in ``+ - * / ^`` and
    ``("call", name, args)``; unary plus is dropped, pi and e are numbers."""
    line = " ".join(src.split())
    text = line.replace("^", "**")
    if "#" in text:
        raise ConfigError(f"cannot parse expression {line!r}: '#' is not "
                          f"allowed (';' starts a comment)")

    def walk(node):
        if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            return (_OPERATORS[type(node.op)], walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return ("neg", walk(node.operand))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
            return walk(node.operand)
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            # through the literal's text, so a huge integer reads as inf
            return ("num", float(str(node.value)))
        if isinstance(node, ast.Name):
            if node.id in _CONSTANTS:
                return ("num", _CONSTANTS[node.id])
            if node.id not in variables:
                raise ConfigError(f"unknown variable {node.id!r} "
                                  f"(expected one of {sorted(variables)})")
            return ("var", node.id)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and not node.keywords):
            name, args = node.func.id, tuple(walk(arg) for arg in node.args)
            if name not in _FUNCTIONS:
                raise ConfigError(f"unknown function {name!r}")
            arity = 2 if name in _BINARY else 1
            if len(args) != arity:
                raise ConfigError(
                    f"function {name!r} takes {arity} argument"
                    f"{'s' if arity > 1 else ''}, got {len(args)}")
            return ("call", name, args)
        raise ConfigError(f"unsupported syntax "
                          f"{ast.get_source_segment(text, node)!r} in {line!r}")

    try:
        return walk(ast.parse(text, mode="eval").body)
    except (SyntaxError, ValueError) as exc:
        reason = exc.msg if isinstance(exc, SyntaxError) else exc
        raise ConfigError(f"cannot parse expression {line!r}: {reason}") from exc


_SYMBOLS = {"+": "+", "-": "-", "*": "*", "/": "/", "^": "**"}


def _format(node, args) -> str:
    """Python text of one compound node over the given operand texts."""
    op = node[0]
    if op == "neg":
        return f"(-{args[0]})"
    if op == "call":
        return f"_f_{node[1]}({', '.join(args)})"
    return f"({args[0]} {_SYMBOLS[op]} {args[1]})"


def _render(tree):
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

    root = fold(tree)
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
    statements, result = _render(parse_expression(src, variables))
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
