"""Recursive-descent parser for the expression grammar.

Grammar (UTF-8 text)::

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := '-' factor | power
    power    := atom ('^' exponent)?          # integer exponents only
    atom     := NUMBER | '(' expr ')' | 'ln' '(' expr ')' | 'abs' '(' expr ')'
              | 'sqrt' '(' expr ')' | 'x' | 'alt' | PARAM | FIELD
    FIELD    := ('d' J)? NAME '[' [J ';'] K (',' K)* ']'

``u[k1,k2]`` is the field value shifted by the multi-index (k1,k2);
``u[j;k]`` carries j x-derivatives; ``dJ u[...]`` applies J further
x-derivatives.  ``ln`` always means ln|.|; ``abs(e)`` is encoded as
sqrt(e^2); ``alt`` is the lattice coefficient (-1)^(n^1+...+n^m).  Numbers
and indices are written in the ASCII digits 0-9: any other character that is
not a name, an operator or whitespace is an error.
"""

from __future__ import annotations

import math
import re

from .expr import (
    Alt,
    Const,
    ExprError,
    FieldVar,
    Param,
    Var,
    XVar,
    add,
    children,
    ln_abs,
    mul,
    neg,
    power,
    quot,
    sqrt,
)

__all__ = ["ParseError", "parse"]


class ParseError(ExprError):
    def __init__(self, message, pos, text):
        super().__init__(f"{message} at position {pos}: {text[:pos]}>>>{text[pos:pos + 12]}")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+\.[0-9]*(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?"
    r"|[0-9]+(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*/^()\[\],;])"
    r"|(?P<bad>\S))"
)

_DPREFIX_RE = re.compile(r"^d(\d+)$")
_FUNCTIONS = {"ln": ln_abs, "abs": lambda e: sqrt(power(e, 2)), "sqrt": sqrt}
# the binary operators by precedence level, the loosest first
_BINARY = ({"+": add, "-": lambda a, b: add(a, neg(b))}, {"*": mul, "/": quot})


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.toks = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise ParseError(f"unexpected character {m[kind]!r}", m.start(), text)
            self.toks.append((kind, m[kind], m.start()))
        self.i = 0

    def peek(self, offset=0):
        j = self.i + offset
        return self.toks[j] if j < len(self.toks) else ("eof", "", len(self.text))

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", pos, self.text)

    def error(self, message):
        raise ParseError(message, self.peek()[2], self.text)


def _finite(value, toks, pos):
    """``value`` if it is a finite double; an integer keeps its type, which interning keys on."""
    try:
        if math.isfinite(value):   # converts an int, raising OverflowError past the doubles
            return value
    except OverflowError:
        pass
    raise ParseError("number is not a finite double", pos, toks.text)


def _folded(e, toks, pos):
    """``e``, unless folding constants into it gave a number that is not a finite double.

    A folded constant is ``e`` itself or, in a sum or product, one of its terms.
    """
    for c in (e, *children(e)):
        if isinstance(c, Const):
            _finite(c.value, toks, pos)
    return e


def _number(toks, tok_value, pos):
    value = int(tok_value) if re.fullmatch(r"\d+", tok_value) else float(tok_value)
    return Const(_finite(value, toks, pos))


def _parse_int(toks):
    sign = 1
    if toks.peek()[1] == "-":
        toks.next()
        sign = -1
    kind, val, pos = toks.next()
    if kind != "num" or not re.fullmatch(r"\d+", val):
        raise ParseError("expected an integer index", pos, toks.text)
    return sign * int(val)


def _parse_field(toks, sig, name, extra_deriv):
    toks.expect("[")
    deriv = 0
    shift = []
    if toks.peek()[1] == ";":
        toks.next()
    else:
        first = _parse_int(toks)
        if toks.peek()[1] == ";":
            toks.next()
            deriv = first
        else:
            shift.append(first)
    while toks.peek()[1] != "]":
        if shift:
            toks.expect(",")
        shift.append(_parse_int(toks))
    toks.expect("]")
    fv = FieldVar(name, deriv + extra_deriv, tuple(shift))
    if len(fv.shift) != sig.lattice_dim:
        toks.error(f"field {name!r} takes {sig.lattice_dim} shift indices, got {len(fv.shift)}")
    try:
        sig.check_var(fv)
    except ExprError as err:
        toks.error(str(err))
    return Var(fv)


def _atom(toks, sig):
    kind, val, pos = toks.peek()
    if kind == "num":
        toks.next()
        return _number(toks, val, pos)
    if val == "(":
        toks.next()
        e = _expr(toks, sig)
        toks.expect(")")
        return e
    if kind == "name":
        toks.next()
        if val in _FUNCTIONS:
            toks.expect("(")
            inner = _expr(toks, sig)
            toks.expect(")")
            return _FUNCTIONS[val](inner)
        m = _DPREFIX_RE.match(val)
        if m and toks.peek()[0] == "name" and toks.peek()[1] in sig.fields:
            _, fname, _ = toks.next()
            return _parse_field(toks, sig, fname, int(m.group(1)))
        if val in sig.fields:
            if toks.peek()[1] != "[":
                raise ParseError(f"field {val!r} needs a [shift] index", pos, toks.text)
            return _parse_field(toks, sig, val, 0)
        if val == "x":
            if not sig.has_x:
                raise ParseError("this problem has no continuous variable x", pos, toks.text)
            return XVar()
        if val == "alt":
            return Alt()
        if val in sig.params:
            return Param(val)
        raise ParseError(f"unknown name {val!r}", pos, toks.text)
    toks.error(f"unexpected token {val or 'end of input'!r}")


def _power(toks, sig):
    base = _atom(toks, sig)
    if toks.peek()[1] == "^":
        toks.next()
        paren = toks.peek()[1] == "("
        if paren:
            toks.next()
        n = _finite(_parse_int(toks), toks, toks.peek(-1)[2])
        if paren:
            toks.expect(")")
        return power(base, n)
    return base


def _factor(toks, sig):
    if toks.peek()[1] == "-":
        toks.next()
        return neg(_factor(toks, sig))
    return _power(toks, sig)


def _expr(toks, sig, level=0):
    """The operands of ``_BINARY[level]`` and up, folded left to right."""
    if level == len(_BINARY):
        return _factor(toks, sig)
    ops = _BINARY[level]
    e = _expr(toks, sig, level + 1)
    while toks.peek()[1] in ops:
        _, op, pos = toks.next()
        e = _folded(ops[op](e, _expr(toks, sig, level + 1)), toks, pos)
    return e


def parse(text, sig):
    """Parse ``text`` into an expression over the variables declared by ``sig``."""
    toks = _Tokens(text)
    e = _expr(toks, sig)
    kind, val, pos = toks.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {val!r}", pos, toks.text)
    return e
