"""Immutable expression trees over lattice field variables.

An expression lives on the prolongation space over a fixed lattice base
point: its leaves are constants, named parameters, the continuous variable
``x``, the alternating lattice coefficient ``alt`` = (-1)^(n^1+...+n^m),
and field variables ``u^alpha`` carrying a derivative order ``j`` and an
integer shift multi-index ``K``.

There is no general simplification: smart constructors only fold constants
and flatten nested sums/products.  Equality of expressions is decided
numerically elsewhere (see :mod:`lattice_frames.sampling`).

Nodes are hash-consed: constructing a node whose class and fields equal
those of a live node returns that node, so structurally equal subtrees are
one object and every memo keyed on ``id`` shares them.  Fields match when
child nodes are the same objects and leaf values have the same type and bit
pattern (``0.0`` and ``-0.0``, or ``2`` and ``2.0``, stay apart).  So nodes
compare by identity, but for ``Const``: ``Const(-0.0) == ZERO``.  The table
holds weak references only: a node lives exactly as long as without it.

Every builder -- :func:`shift`, :func:`substitute`, :func:`partial`,
:func:`total_derivative`, :func:`t_derivative`, ``_substitute_fields``, and
outside this module ``actions.transform`` -- is one walker, ``_rebuild``,
with a leaf rule that names only the leaves it maps; any other node follows
its row of ``_RULES``.  The invariant derivative ``frames.Frame.dcal`` is
:func:`total_derivative` times the frame's ``dcal_inv``.  Every map of field
coordinates (``actions.transform``, ``InvariantSet.expand``, the adjoint
symbols of ``noether``) takes the image of u_{j;K} from
``calculus.prolong``: S_K d^j of the image of u.  The walker rebuilds a
tree one node at a time through a table from ``id(node)`` to the node and
its image, which every builder takes from ``_table``.  It skips what it
cannot change and still gives the node a full walk would: a node whose
children are their own images is not rebuilt, :func:`partial` and
:func:`substitute` do not walk a subtree without a field they act on, and a
substitution of each leaf by itself returns its input (see ``_rebuild``).
A leaf rule that can raise maps every ``Var``, so none is skipped.  Outside
:func:`run_memo` that table is new on every call.  Inside it there is one
table per builder and argument for the whole run, so a repeated call is one
lookup and a subtree that two expressions share is rebuilt once; the tables
hold their nodes alive until the outermost :func:`run_memo` exits, and no
longer.  The sampler keeps its point sets and lowered guards in tables of
the same run, and :func:`evaluate` keeps the node values at each point set
the run holds in a table from ``id(node)`` to the node and its value; at
any other assignment it keeps a per-call table, as :func:`nodes` and
:class:`Lowering` do.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import math
import operator
import struct
import weakref
from dataclasses import FrozenInstanceError, dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "ExprError",
    "CapExceededError",
    "MissingVariableError",
    "SingularEvaluationError",
    "FieldVar",
    "ProblemSignature",
    "Expr",
    "Const",
    "Param",
    "XVar",
    "Alt",
    "Var",
    "Sum",
    "Prod",
    "Pow",
    "Quot",
    "Neg",
    "LnAbs",
    "Sqrt",
    "Assignment",
    "add",
    "mul",
    "neg",
    "quot",
    "power",
    "sqrt",
    "ln_abs",
    "as_expr",
    "children",
    "nodes",
    "fieldvars",
    "evaluate",
    "compile_exprs",
    "Lowering",
    "run_memo",
    "partial",
    "shift",
    "total_derivative",
    "t_derivative",
    "substitute",
    "to_string",
]


class ExprError(Exception):
    """Base class for expression-engine errors."""


class CapExceededError(ExprError):
    """Derivative order or shift radius exceeded the signature caps."""


class MissingVariableError(ExprError):
    """Evaluation hit a variable the assignment does not cover."""


class SingularEvaluationError(ExprError):
    """Division by zero, sqrt of a negative, or ln of zero."""

    def __init__(self, message, subexpr=None):
        super().__init__(message)
        self.subexpr = subexpr


class FieldVar(NamedTuple):
    """Reference to u^alpha with derivative order ``deriv`` and shift ``shift``.

    A FieldVar is the tuple ``(name, deriv, shift)``: it compares, hashes
    and sorts as that tuple, so FieldVars sort by (name, deriv, shift), the
    one order of sampled coordinates, lattice reads and by-parts sums.
    """

    name: str
    deriv: int
    shift: tuple[int, ...]

    def shifted(self, offset):
        return FieldVar(self.name, self.deriv, tuple(k + o for k, o in zip(self.shift, offset)))

    def __str__(self):
        idx = ",".join(str(k) for k in self.shift)
        if self.deriv:
            return f"{self.name}[{self.deriv};{idx}]"
        return f"{self.name}[{idx}]"


@dataclass(frozen=True, eq=False, repr=False)
class ProblemSignature:
    """Declares the variables of one problem.

    ``fields`` are the dependent variable names and ``params`` the parameter
    names, none of them ``x``, ``alt``, ``ln``, ``abs`` or ``sqrt``, which
    the grammar reserves; ``variations`` maps a field name to the name of its
    variation slot (the field standing for d(field)/dt), used by
    :func:`t_derivative`; both names must be among ``fields``.
    ``differential`` enables the derivative index ``j`` (differential-difference
    flavor); ``has_x`` adds the continuous independent variable ``x``.
    """

    fields: tuple[str, ...]
    lattice_dim: int
    differential: bool = False
    has_x: bool = False
    params: tuple[str, ...] = ()
    variations: dict = field(default_factory=dict)
    deriv_cap: int = 4
    shift_radius: int = 8

    def __post_init__(self):
        if self.lattice_dim < 1:
            raise ValueError("lattice dimension must be >= 1")
        names = self.fields + self.params
        dup = {n for n in names if names.count(n) > 1}
        if dup:
            raise ValueError(f"names declared more than once: {sorted(dup)}")
        reserved = sorted(set(names) & {"x", "alt", "ln", "abs", "sqrt"})
        if reserved:
            raise ValueError(f"names reserved by the expression grammar: {reserved}")
        undeclared = {n for pair in self.variations.items() for n in pair} - set(self.fields)
        if undeclared:
            raise ValueError(f"variation names not among the fields: {sorted(undeclared)}")

    def check_var(self, fv):
        if fv.deriv and not self.differential:
            raise CapExceededError(f"{fv}: derivative index in a pure-difference problem")
        if fv.deriv < 0 or fv.deriv > self.deriv_cap:
            raise CapExceededError(f"{fv}: derivative order outside [0, {self.deriv_cap}]")
        if len(fv.shift) != self.lattice_dim:
            raise ExprError(f"{fv}: shift length != lattice dimension {self.lattice_dim}")
        if any(abs(k) > self.shift_radius for k in fv.shift):
            raise CapExceededError(f"{fv}: shift outside radius {self.shift_radius}")

    @property
    def base_fields(self):
        vnames = set(self.variations.values())
        return tuple(f for f in self.fields if f not in vnames)


# The intern table: key -> weak reference to the one node of that structure.
# Entries go when their node does (see _forget), so the table keeps no node alive.
_INTERNED = {}
_DOUBLE = struct.Struct("<d")


class _InternRef(weakref.ref):
    """A weak reference to an interned node that knows its table key."""

    __slots__ = ("key",)


def _forget(ref, table=_INTERNED):
    # a new node may already hold the key if this one died before the callback ran
    if table.get(ref.key) is ref:
        del table[ref.key]


class Expr:
    """Base class; all nodes are immutable, hashable and interned.

    ``Cls(*fields)`` returns the live node of that class and structure when
    there is one.  The table key is the class and the ids of the fields,
    which must then all be nodes, unless the class sets ``_key`` to a
    function of its fields: a class with other fields keys each of them on
    its value and type.

    Each node class is a dataclass for its field list alone
    (``dataclasses.fields`` gives its children's fields in order) and
    declares its fields in ``__slots__``; this class gives every node its
    one ``__repr__``, and the ``__setattr__`` and ``__delattr__`` that raise
    ``FrozenInstanceError``.
    """

    __slots__ = ("_fvs", "__weakref__")

    _key = None

    def __new__(cls, *fields):
        key_of = cls._key
        key = (cls, *map(id, fields)) if key_of is None else key_of(*fields)
        ref = _INTERNED.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = object.__new__(cls)
        for name, value in zip(cls.__match_args__, fields, strict=True):
            object.__setattr__(node, name, value)
        object.__setattr__(node, "_fvs", None)
        ref = _INTERNED[key] = _InternRef(node, _forget)
        ref.key = key
        return node

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return add(self, neg(as_expr(other)))

    def __rsub__(self, other):
        return add(as_expr(other), neg(self))

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return quot(self, as_expr(other))

    def __rtruediv__(self, other):
        return quot(as_expr(other), self)

    def __pow__(self, n):
        return power(self, n)

    def __neg__(self):
        return neg(self)

    def __str__(self):
        return to_string(self)


def _items_key(cls, items):
    return (cls, *map(id, items))


# The node classes: dataclasses for their field lists, with no generated
# method (see Expr)
_node = dataclass(init=False, eq=False, repr=False)


@_node
class Const(Expr):
    """A number; constants alone compare and hash by value."""
    __slots__ = ("value",)
    value: float

    # the bit pattern keeps 0.0 and -0.0 apart, the type 2 and 2.0
    _key = staticmethod(lambda value: (Const, type(value), _DOUBLE.pack(value)
                                       if isinstance(value, float) else value))

    def __eq__(self, other):
        # as 1-tuples, so that a NaN constant equals itself
        if other.__class__ is self.__class__:
            return (self.value,) == (other.value,)
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))


@_node
class Param(Expr):
    """A named parameter of the problem or of the group."""
    __slots__ = ("name",)
    name: str

    _key = staticmethod(lambda name: (Param, name))


@_node
class XVar(Expr):
    """The continuous independent variable x."""
    __slots__ = ()


@_node
class Alt(Expr):
    """(-1)^(n^1+...+n^m); shifting by I multiplies by (-1)^(I^1+...+I^m)."""
    __slots__ = ()


@_node
class Var(Expr):
    """The field coordinate ``fv``."""
    __slots__ = ("fv",)
    fv: FieldVar

    _key = staticmethod(lambda fv: (Var, fv.name, fv.deriv, fv.shift))


@_node
class Sum(Expr):
    """terms[0] + terms[1] + ..."""
    __slots__ = ("terms",)
    terms: tuple

    _key = classmethod(_items_key)


@_node
class Prod(Expr):
    """factors[0] * factors[1] * ..."""
    __slots__ = ("factors",)
    factors: tuple

    _key = classmethod(_items_key)


@_node
class Pow(Expr):
    """base^exponent, for an integer exponent."""
    __slots__ = ("base", "exponent")
    base: Expr
    exponent: int

    _key = staticmethod(lambda base, exponent: (Pow, id(base), type(exponent), exponent))


@_node
class Quot(Expr):
    """num / den"""
    __slots__ = ("num", "den")
    num: Expr
    den: Expr


@_node
class Neg(Expr):
    """-arg"""
    __slots__ = ("arg",)
    arg: Expr


@_node
class LnAbs(Expr):
    """ln|arg|"""
    __slots__ = ("arg",)
    arg: Expr


@_node
class Sqrt(Expr):
    """sqrt(arg)"""
    __slots__ = ("arg",)
    arg: Expr


ZERO = Const(0)
ONE = Const(1)


def as_expr(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(v)
    raise TypeError(f"cannot coerce {v!r} to Expr")


def add(*terms):
    flat = []
    const = 0
    for t in terms:
        t = as_expr(t)
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    out = []
    for t in flat:
        if isinstance(t, Const):
            const += t.value
        else:
            out.append(t)
    if const != 0 or not out:
        out.append(Const(const))
    if len(out) == 1:
        return out[0]
    return Sum(tuple(out))


def mul(*factors):
    flat = []
    const = 1
    for f in factors:
        f = as_expr(f)
        if isinstance(f, Prod):
            flat.extend(f.factors)
        else:
            flat.append(f)
    out = []
    for f in flat:
        if isinstance(f, Const):
            const *= f.value
        else:
            out.append(f)
    if const == 0:
        return ZERO
    if not out:
        return Const(const)
    if const == -1:
        return neg(out[0] if len(out) == 1 else Prod(tuple(out)))
    if const != 1:
        out.insert(0, Const(const))
    if len(out) == 1:
        return out[0]
    return Prod(tuple(out))


def neg(e):
    e = as_expr(e)
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.arg
    return Neg(e)


def quot(num, den):
    num, den = as_expr(num), as_expr(den)
    if den == ZERO:
        raise SingularEvaluationError("constant division by zero", den)
    if num == ZERO:
        return ZERO
    if den == ONE:
        return num
    if isinstance(num, Const) and isinstance(den, Const):
        return Const(num.value / den.value)
    return Quot(num, den)


def power(base, n):
    base = as_expr(base)
    if not isinstance(n, int):
        raise ExprError("exponent must be an integer (use sqrt for half-integer powers)")
    if n == 0:
        return ONE
    if n == 1:
        return base
    if isinstance(base, Const):
        # fold by the rule of evaluate(), which also reports overflow and 0^(-n)
        return Const(float(evaluate(Pow(base, n), Assignment({}))))
    return Pow(base, n)


def sqrt(e):
    e = as_expr(e)
    if isinstance(e, Const) and e.value >= 0:
        return Const(math.sqrt(e.value))
    return Sqrt(e)


def ln_abs(e):
    return LnAbs(as_expr(e))


# --- node rules -----------------------------------------------------------

def _array(value):
    """``value`` as a read-only 0-d float64 array: a ufunc operand it need not convert per call."""
    out = np.array(value, dtype=np.float64)
    out.flags.writeable = False
    return out


def _any(mask):
    """The truth of ``np.any(mask)``: for an array, one ufunc reduction, not numpy's wrapper."""
    if isinstance(mask, np.ndarray):
        return bool(np.logical_or.reduce(mask, axis=None))
    return bool(mask)


# Names the sources of the node rules read as globals, in evaluate() and in
# the code compile_exprs() generates; _zero is the 0 of the body's mask tests.
# evaluate() takes _add, _subtract, _multiply and _negative from operator.
_LOWERED_GLOBALS = {"_any": _any, "_power": np.power, "_divide": np.divide, "_log": np.log,
                    "_abs": np.abs, "_sqrt": np.sqrt, "_isfinite": np.isfinite,
                    "_add": np.add, "_subtract": np.subtract, "_multiply": np.multiply,
                    "_negative": np.negative, "_equal": np.equal, "_less": np.less,
                    "_logical_or": np.logical_or,
                    "_asarray": functools.partial(np.asarray, dtype=np.float64),
                    "_zero": _array(0.0)}


def _functions(defs, **names):
    """Functions built once from source, in one ``exec``, with the lowered globals and ``names``.

    ``defs`` maps each function's name to its parameters and body lines.
    """
    namespace = {**_LOWERED_GLOBALS, **names}
    exec("".join(f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in lines)
                 for name, (params, lines) in defs.items()), namespace)
    return [namespace[name] for name in defs]


def _printed(rule, kids, minus=None, out="", **inputs):
    """The source of a node's value under ``rule``, from its children's sources ``kids``.

    ``out`` fills the templates' ``{out}`` slots: ``""`` to return a new value,
    ``", name"`` to write it into the buffer ``name``.  A fold prints ``minus``
    in place of ``value`` for a child that ``minus`` flags.
    """
    if not rule.fold:
        return rule.value.format(*kids, out=out, **inputs)
    printed = kids[0]
    for i in range(1, len(kids)):
        template = rule.minus if minus and minus[i] else rule.value
        printed = template.format(printed, kids[i], out=out)
    return printed


class _Rule:
    """How the nodes of one class are walked, rebuilt, computed and found singular.

    ``fields`` names the children's fields in order (with ``fold``, one tuple);
    ``build(node, *children)`` rebuilds through the smart constructor.  The
    sources ``datum``, ``when``, ``value``, ``test`` and ``overflow`` are
    printed inline by :func:`compile_exprs` and run by :func:`evaluate` in a
    function built here.  In ``value``, ``{0}``, ``{1}``, ... are the
    children's values (with ``fold``, the value so far and the next child's),
    ``{k}`` the datum, and ``{P}``, ``{V}``, ``{x}``, ``{alt}`` the inputs; a
    value reading the last three varies per point.  A value that computes is
    ufunc calls with an ``{out}`` slot, filled by :func:`_printed`, the one
    printer; in :func:`evaluate`, ``_add``, ``_subtract``, ``_multiply``,
    ``_negative``, ``_equal`` and ``_less`` are ``operator``'s, which ``+``,
    ``-``, ``*``, unary ``-``, ``==`` and ``<`` call, so that Python ints
    stay exact.  ``test``, a ufunc call with an ``{out}`` slot too, is true
    where a node for which ``when`` holds is singular, its ``{0}`` being
    child ``tested``, computed first and named by the error, and ``{zero}``
    the number 0.  ``overflow`` is true where the value ``{v}`` is non-finite
    from a finite ``{0}``: there a power overflowed, and :func:`evaluate`
    raises.  ``missing`` is the error when an input has no value.
    ``derive(node, d)`` is the node's derivative under a derivation, ``d``
    giving a child's: 0 for a constant, a parameter, ``x`` and ``alt``, and
    none for a field variable, whose derivative is the derivation's own.
    ``minus``, with ``fold``, is printed by :class:`Lowering` in place of
    ``value`` for a child after the first that is a ``Neg``, ``{1}`` being
    the value of that ``Neg``'s argument: in IEEE arithmetic ``a - b`` is
    ``a + (-b)``.
    """

    def __init__(self, fields=(), build=lambda node: node, value="", *, fold=False,
                 datum="None", missing=None, test=None, message=None, tested=0,
                 when="True", overflow=None, derive=None, minus=None):
        self.build, self.value, self.fold, self.derive = build, value, fold, derive
        self.test, self.tested, self.overflow, self.minus = test, tested, overflow, minus
        self.varying = any(f"{{{name}}}" in value for name in ("V", "x", "alt"))
        kids = [f"node.{f}" for f in fields]
        # step(rec, a, node): the node's value at the assignment a, or the
        # error of evaluate(); rec gives a child's value
        if fold:
            lines = [f"v = rec({kids[0]}[0])", f"for w in {kids[0]}[1:]:",
                     f"    v = {_printed(self, ['v', 'rec(w)'])}"]
        else:
            lines = []
            for i in sorted(range(len(kids)), key=lambda i: i != tested):
                lines.append(f"c{i} = rec({kids[i]})")
                if test is not None and i == tested:
                    lines.append(f"if {when} and _any({test.format(f'c{i}', zero='0', out='')}): "
                                 f"raise _Singular({message!r}, {kids[i]})")
            v = "v = " + _printed(self, [f"c{i}" for i in range(len(kids))], k=datum,
                                  P="a.params", V="a.values", x="a.x", alt="a.alt")
            lines += ([f"try: {v}", f"except KeyError: raise _missing({missing!r}, {datum})"]
                      if missing else [v])
        if overflow is not None:
            lines.append(f"if _any({overflow.format('c0', v='v')}): "
                         "raise _Singular('non-finite value of ' + _to_string(node), node)")
        self.datum, self.when, self.children, self.step = _functions(
            {"datum": ("node", [f"return {datum}"]), "when": ("node", [f"return {when}"]),
             "children": ("node", [f"return ({''.join('*' * fold + k + ', ' for k in kids)})"]),
             "step": ("rec, a, node", [*lines, "return v"])},
            _Singular=SingularEvaluationError, _to_string=lambda n: to_string(n),
            _add=operator.add, _subtract=operator.sub, _multiply=operator.mul,
            _negative=operator.neg, _equal=operator.eq, _less=operator.lt,
            _missing=lambda message, k: MissingVariableError(message.format(k)))


def _derive_zero(node, d):
    return ZERO


def _derive_prod(node, d):
    # Leibniz: one term per factor whose derivative is not zero
    parts = []
    for i, f in enumerate(node.factors):
        df = d(f)
        if df != ZERO:
            parts.append(mul(df, *node.factors[:i], *node.factors[i + 1:]))
    return add(*parts) if parts else ZERO


def _derive_quot(node, d):
    dn, dd = d(node.num), d(node.den)
    if dd == ZERO:
        return quot(dn, node.den)
    return quot(add(mul(dn, node.den), neg(mul(node.num, dd))), power(node.den, 2))


_RULES = {
    Const: _Rule(value="{k}", datum="node.value", derive=_derive_zero),
    Param: _Rule(value="{P}[{k}]", datum="node.name", missing="parameter {!r} has no value",
                 derive=_derive_zero),
    XVar: _Rule(value="{x}", derive=_derive_zero),
    Alt: _Rule(value="{alt}", derive=_derive_zero),
    Var: _Rule(value="{V}[{k}]", datum="node.fv", missing="variable {} has no value"),
    Sum: _Rule(("terms",), lambda node, *terms: add(*terms), "_add({0}, {1}{out})",
               fold=True, minus="_subtract({0}, {1}{out})",
               derive=lambda node, d: add(*[d(t) for t in node.terms])),
    Prod: _Rule(("factors",), lambda node, *factors: mul(*factors), "_multiply({0}, {1}{out})",
                fold=True, derive=_derive_prod),
    # np.power for scalars too: Python's float ** n rounds differently in the
    # last bit and raises OverflowError where arrays give inf
    Pow: _Rule(("base",), lambda node, base: power(base, node.exponent), "_power({0}, {k}{out})",
               datum="float(node.exponent)",
               test="_equal({0}, {zero}{out})", message="zero base with negative exponent",
               when="node.exponent < 0",
               overflow="_isfinite({0}) & ~_isfinite({v})",
               derive=lambda node, d: ZERO if (db := d(node.base)) == ZERO else mul(
                   node.exponent, power(node.base, node.exponent - 1), db)),
    # np.divide, the ufunc of / on arrays, since Python floats raise at a zero
    # denominator, and lowered code computes the singular points it masks
    Quot: _Rule(("num", "den"), lambda node, num, den: quot(num, den), "_divide({0}, {1}{out})",
                test="_equal({0}, {zero}{out})", message="division by zero", tested=1,
                derive=_derive_quot),
    Neg: _Rule(("arg",), lambda node, arg: neg(arg), "_negative({0}{out})",
               derive=lambda node, d: neg(d(node.arg))),
    LnAbs: _Rule(("arg",), lambda node, arg: ln_abs(arg), "_log(_abs({0}{out}){out})",
                 test="_equal({0}, {zero}{out})", message="ln of zero",
                 derive=lambda node, d: ZERO if (da := d(node.arg)) == ZERO else quot(
                     da, node.arg)),
    Sqrt: _Rule(("arg",), lambda node, arg: sqrt(arg), "_sqrt({0}{out})",
                test="_less({0}, {zero}{out})", message="sqrt of a negative value",
                derive=lambda node, d: ZERO if (da := d(node.arg)) == ZERO else quot(
                    da, mul(2, node))),
}


def children(node):
    """The direct sub-expressions of ``node``, in field order."""
    return _RULES[type(node)].children(node)


def nodes(e):
    """Every node reachable from ``e``, each structurally equal, hence one, node once."""
    seen = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(children(node))


def fieldvars(e):
    """The set of FieldVars reachable in ``e``: a new set, which the caller may change."""
    return set(_varset(e))


def _varset(node):
    """The frozenset of FieldVars of ``node``, built from its children's once per node."""
    out = node._fvs
    if out is not None:
        return out
    if isinstance(node, Var):
        out = frozenset((node.fv,))
    else:
        # a node whose children's sets all lie in one of them shares that set
        sets = [_varset(c) for c in children(node)]
        out = max(sets, key=len, default=frozenset())
        if not all([s <= out for s in sets]):
            out = out.union(*sets)
    object.__setattr__(node, "_fvs", out)
    return out


@dataclass(eq=False, repr=False)
class Assignment:
    """A point of the prolongation space: values for every variable in play.

    ``alt`` is the value of (-1)^(n^1+...+n^m) at the lattice base point; it
    defaults to the parity of ``base``.  Every value may also be an array
    with one entry per point (see :class:`lattice_frames.sampling.PointSet`).
    """

    values: dict
    x: float = 0.0
    params: dict = field(default_factory=dict)
    base: tuple = (0,)
    alt: object = None

    # not a field, so that a copy made by dataclasses.replace is not held: True
    # only on a point set the run memo holds, whose node values evaluate()
    # keeps for the run (see sampling.SamplePlan.assignments)
    held = False

    def __post_init__(self):
        if self.alt is None:
            self.alt = -1.0 if sum(self.base) % 2 else 1.0


def evaluate(e, a):
    """Evaluate ``e`` at the assignment ``a`` (IEEE double arithmetic).

    Values in ``a`` may be scalars or numpy arrays (all of one shape), so the
    same walker serves pointwise checks and whole-lattice evaluation.
    Structurally equal subtrees are one object, hence evaluated once.  Each
    node follows its rule in ``_RULES``, in one pass with overflow quiet.
    The first singular node raises :class:`SingularEvaluationError`, as does
    a power that overflows from a finite base; any other overflow gives inf
    quietly.  This is the only code that raises for a singular node; the
    functions of :func:`compile_exprs` and :class:`Lowering` return a mask
    instead, set exactly where this raises.

    The values of the nodes go to a table from ``id(node)`` to the node and
    its value.  For a point set the run memo holds (``a.held``) that is the
    run's table for ``a`` (see :func:`run_memo`), so every node is computed
    once per run at those points, and its array is made read-only; for any
    other assignment, or outside a run, it is new on every call.  A node
    that raised is never stored, so a shared table gives the values and the
    errors of a new one.
    """
    held = a.held
    memo = _table(("evaluate", id(a)), a) if held else {}
    hit = memo.get(id(e))
    if hit is not None:
        return hit[1]

    def rec(node):
        hit = memo.get(id(node))
        if hit is not None:
            return hit[1]
        v = _RULES[type(node)].step(rec, a, node)
        if held and type(v) is np.ndarray:
            v.flags.writeable = False
        memo[id(node)] = node, v
        return v

    return _quiet_overflow(rec, e)


def compile_exprs(exprs):
    """Lower a list of expressions once into straight-line numpy functions.

    Returns ``(bind, variables)``.  ``bind(params)`` runs the prelude, the
    nodes of constants and parameters alone, and returns ``fn(values, x,
    alt)``, which computes the other nodes and returns ``(results, bad)``:
    the value of each expression and the mask of the points where a node is
    singular.  ``values`` holds one value per FieldVar of ``variables``, in
    that order.  Bind once per parameter binding, then call as often as the
    fields change.

    Every node follows its rule in ``_RULES``, as in :func:`evaluate`, so the
    values are the same bit for bit and the mask is set exactly where
    :func:`evaluate` raises.  ``bad`` is ``False`` when nothing is singular in
    the prelude and no other node has a test, a power's overflow test among
    them: such a call does no mask arithmetic.  Binding and calls run with
    overflow quiet, as :func:`evaluate` does.  ``bind`` raises
    :class:`MissingVariableError` when a parameter has no value.  Nothing
    here raises where a node is singular: a caller that must raise calls
    :func:`evaluate`.  Structurally equal subtrees are one object, computed
    once for the whole list.  No call passes a ufunc a Python or numpy
    scalar: numbers are 0-d arrays (see :class:`Lowering`).
    """
    lowering = Lowering(exprs)
    bind_call = lowering.compile({"_lowered": ("V, x, alt", [
        "m = bad", *lowering.lines(checked=True), f"return [{', '.join(lowering.results)}], m"])})

    def bind(params):
        try:
            fn, = bind_call(params)
        except KeyError as err:
            raise MissingVariableError(f"parameter {err.args[0]!r} has no value") from None
        return functools.partial(_quiet_overflow, fn)

    return bind, lowering.variables


class InPlace(NamedTuple):
    """The body lines of a :class:`Lowering` in place, and the buffers they compute into."""

    lines: dict     # body position -> its line in place; None at a pack's later member
    buffers: dict   # name -> body position, of each node computed into a buffer of its own
    packs: dict     # pack name -> its members' names, the rows of its (P, N) buffer
    views: dict     # name -> (pack name, first row, end row), some rows of a pack
    windows: dict   # name -> the slots of V whose values are its rows, in order


class Lowering:
    """The straight-line numpy lines of a list of expressions, one per node.

    Every node follows its rule in ``_RULES``, its value printed by
    :func:`_printed`.  ``prelude`` holds the lines of the nodes of constants
    and parameters alone, ``body`` those of the other nodes, which read the
    inputs ``V``, ``x`` and ``alt``: each a ``(line, overflow)`` pair,
    ``overflow`` marking a power's overflow test, which :meth:`lines` leaves
    out of the flow's fast step, where overflow raises.  A test ORs the
    points where a node is singular into the mask ``m``; nodes that test one
    child alike share one line.  ``results`` names each expression's value.
    The body lines of the first ``n_first`` expressions are
    ``body[:first_end]``, and those of the others, ``body[first_end:]``,
    compute every value they read but the prelude's, so that each part runs
    alone.  ``variables`` are the FieldVars read from ``V``, in slot order;
    ``bound`` maps a closure name to its datum.

    A body node whose value is an array over the sites (it reads ``V`` or
    ``alt``) and computes also has a line that computes it into a buffer of
    its own, the array its name holds when the line runs: the ``lines`` of
    :attr:`in_place` map the body position of the node's line to it, its
    ``buffers`` map these nodes' names to their positions, in order, and
    :meth:`lines` prints them when asked.  That line is the node's value
    with the buffer in its ``{out}`` slots: the same calls, so the same
    bits, and no call allocates its result.  In place, a body mask test
    also writes its test into the boolean buffer ``mt`` and ORs it into
    ``mm``, which ``m`` then names, so that it never writes the mask it
    starts from; the caller binds both.

    In place, the right-hand sides' nodes (``body[:first_end]``, but their
    results) are also packed: two or more nodes of one rule, datum value
    and minus flags, whose operands match position by position, are
    computed by one line, the rule's template with a ``(P, N)`` buffer as
    its output, a row per member in body order.  At each position the
    members read one name, which broadcasts; or each a read of ``V``, the
    rows of a *window*, which the caller gathers; or consecutive rows, in
    member order, of a pack computed before, the whole pack or a *view*.
    The ``packs``, ``views`` and ``windows`` of :attr:`in_place` name them
    for the caller, which allocates and binds them.  A class of such nodes
    packs whole or not at all.  The line is printed at the first member's
    position, where every operand is computed, and the other members' lines
    are dropped; every reader of a member comes after that member's own
    position, so the members' names, bound to their rows, serve the mask
    tests and readers as they are.  Every element goes through the same
    ufunc loop with the same operands: the same bits.

    A number bound as a datum, a constant or an exponent, is a read-only 0-d
    float64 array; a parameter and a prelude value that a body line reads
    are each converted to a float64 array once per binding, by one prelude
    line, so that no ufunc takes a Python int, which int64 would wrap; and a body
    line's mask test compares with the 0-d array ``_zero``.  A ufunc
    converts a Python or numpy scalar operand on every call, which on
    16-element arrays (numpy 2.4) takes 200-350 ns of a call of about 400
    ns, and takes a 0-d array as it is, running the same float64 loop: the
    values are the same bit for bit.
    """

    def __init__(self, exprs, n_first=0):
        names = {}          # id(node) -> (name holding its value, whether it varies per point)
        slots = {}          # FieldVar -> its index in the values sequence
        tests = set()       # the mask tests emitted
        arrays = set()      # the prelude names converted to float64 arrays
        data = {}           # id(node) -> the closure name of its datum
        count = itertools.count()
        self.prelude, self.body, self.bound = [], [], {}
        # (body position, name, rule, children, minus flags, datum's closure name, datum)
        self._computed = []
        self._tests = {}     # body position -> its mask test, the {out} slot kept

        def as_array(name):
            # a prelude value a body line reads: converted once per binding
            if name not in arrays:
                arrays.add(name)
                self.prelude.append((f"{name} = _asarray({name})", False))
            return name

        def rec(node):
            key = id(node)
            if key in names:
                return names[key]
            rule = _RULES[type(node)]
            subs = rule.children(node)
            # a later term -b of a sum is b subtracted: -b gets no line unless another node reads it
            minus = [bool(i) and rule.minus is not None and type(c) is Neg
                     for i, c in enumerate(subs)]
            args = [rec(c.arg if m else c) for c, m in zip(subs, minus)]
            varying = rule.varying or any([v for _, v in args])
            if varying:
                args = [(arg if v else as_array(arg), v) for arg, v in args]
            if rule.test is not None and rule.when(node):
                arg, arg_varying = args[rule.tested]
                test = rule.test.format(arg, zero="_zero" if arg_varying else "0", out="{out}")
                if test not in tests:
                    tests.add(test)
                    lines = self.body if arg_varying else self.prelude
                    if arg_varying:
                        self._tests[len(lines)] = test
                    lines.append((f"m = _logical_or(m, {test.format(out='')})", False))
            k = datum = rule.datum(node)
            param = type(k) is str
            if type(k) is FieldVar:   # a field is read from its slot of the values
                k = slots.setdefault(k, len(slots))
            elif k is not None:     # a parameter's name, or a number: bound once per node
                if key not in data:
                    data[key] = f"c{len(self.bound)}"
                    self.bound[data[key]] = k if param else _array(k)
                k = data[key]
            kids = [arg for arg, _ in args]
            value = _printed(rule, kids, minus, k=k, P="P", V="V", x="x", alt="alt")
            name = f"t{next(count)}"
            lines = self.body if varying else self.prelude
            if varying:
                self._computed.append((len(lines), name, rule, kids, minus, k, datum))
            lines.append((f"{name} = {value}", False))
            if param:
                as_array(name)
            if rule.overflow is not None:
                lines.append((f"m = m | ({rule.overflow.format(args[0][0], v=name)})", True))
            out = names[key] = name, varying
            return out

        exprs = list(exprs)
        self.results = [rec(e)[0] for e in exprs[:n_first]]
        self.first_end, self._first_results = len(self.body), set(self.results)
        # the later expressions compute every body value again, and test it again
        for key in [key for key, (_, varying) in names.items() if varying]:
            del names[key]
        tests.difference_update(self._tests.values())
        self.results += [rec(e)[0] for e in exprs[n_first:]]
        self.variables = tuple(slots)

    @functools.cached_property
    def in_place(self):
        """The body lines in place, and what they compute into: an :class:`InPlace`.

        Printed on first use, for the flow alone.
        """
        sited, lines = set(), {}    # sited: the names of the values that are arrays over the sites
        for j, name, rule, kids, minus, k, _ in self._computed:
            if "{V}" in rule.value or "{alt}" in rule.value or sited.intersection(kids):
                sited.add(name)
                if "{out}" in rule.value and (not rule.fold or len(kids) > 1):
                    lines[j] = _printed(rule, kids, minus, out=", " + name, k=k)
        for j, test in self._tests.items():
            lines[j] = f"m = _logical_or(m, {test.format(out=', mt')}, mm)"
        # the right-hand sides' nodes in place, but their results, by class: the rule, the
        # datum's value, the minus flags, and per operand a read of V, the class of an
        # operand that is in one, or else the operand's name
        reads = {name: k for _, name, rule, _, _, k, _ in self._computed if rule is _RULES[Var]}
        classes, class_of = {}, {}
        for entry in self._computed:
            j, name, rule, kids, minus, _, datum = entry
            if j < self.first_end and j in lines and name not in self._first_results:
                shape = tuple("V" if kid in reads else class_of.get(kid, kid) for kid in kids)
                members = classes.setdefault((rule, datum, tuple(minus), shape), [])
                class_of[name] = id(members)
                members.append(entry)
        # a class packs whole, where each operand is one name, a window, or consecutive
        # rows of a pack, in member order
        packs, row_of, named = {}, {}, {}
        for members in [members for members in classes.values() if len(members) > 1]:
            operands = []
            for kids in zip(*[kids for _, _, _, kids, *_ in members]):
                rows = [row_of.get(kid) for kid in kids]
                if len(set(kids)) == 1:
                    operands.append(kids[0])
                elif kids[0] in reads:
                    operands.append(("V", tuple(reads[kid] for kid in kids)))
                elif rows[0] and rows == [(rows[0][0], rows[0][1] + i) for i in range(len(kids))]:
                    pack, first = rows[0]
                    whole = first == 0 and len(kids) == len(packs[pack])
                    operands.append(pack if whole else (pack, first, first + len(kids)))
                else:
                    break
            else:
                pack = f"p{len(packs)}"
                packs[pack] = [name for _, name, *_ in members]
                row_of.update((name, (pack, i)) for i, name in enumerate(packs[pack]))
                operands = [o if type(o) is str else named.setdefault(o, f"w{len(named)}")
                            for o in operands]
                j, _, rule, _, minus, k, _ = members[0]
                lines[j] = _printed(rule, operands, minus, out=", " + pack, k=k)
                lines.update((j, None) for j, *_ in members[1:])
        return InPlace(lines, {name: j for j, name, *_ in self._computed
                               if j in lines and name not in row_of}, packs,
                       {name: key for key, name in named.items() if key[0] != "V"},
                       {name: key[1] for key, name in named.items() if key[0] == "V"})

    def lines(self, start=0, end=None, checked=False, in_place=False):
        """The body lines from ``start`` up to ``end``, with the overflow tests when ``checked``.

        With ``in_place``, the lines of :attr:`in_place`: each node of its
        ``buffers`` is computed into its buffer, each pack into its buffer
        at its first member, and each mask test into ``mt`` and ``mm``.
        """
        put = self.in_place.lines if in_place else {}
        printed = [put.get(j, line) for j, (line, overflow) in enumerate(self.body[:end])
                   if j >= start and (checked or not overflow)]
        return [line for line in printed if line is not None]

    def source(self, functions):
        """The source of ``_make(*bound)``, which returns the prelude of :meth:`compile`."""
        # a clear prelude mask is False, so that a call without tests of its
        # own returns False and its caller need not reduce it
        return "".join([
            f"def _make({', '.join(self.bound)}):\n",
            "    def _prelude(P):\n",
            "        m = False\n",
            *(f"        {line}\n" for line, _ in self.prelude),
            "        bad = m if _any(m) else False\n",
            *(f"        def {name}({params}):\n"
              + "".join(f"            {line}\n" for line in lines)
              for name, (params, lines) in functions.items()),
            f"        return {''.join(name + ', ' for name in functions)}\n",
            "    return _prelude\n",
        ])

    def compile(self, functions, **names):
        """``bind(params)``: runs the prelude and returns the tuple of ``functions``.

        ``functions`` maps a name to the parameters and body lines of a
        function defined inside the prelude, in that order; the lines read
        the prelude's values, its mask ``bad``, and ``names`` as globals.  The
        prelude runs with overflow quiet and its overflow tests on.  ``bind``
        raises ``KeyError`` when a parameter has no value.
        """
        namespace = {**_LOWERED_GLOBALS, **names}
        exec(self.source(functions), namespace)
        prelude = namespace["_make"](**self.bound)
        return functools.partial(_quiet_overflow, prelude)


# A decorator, so that the error state is built once rather than per call.  It
# lets inf and NaN through, as Python float arithmetic does: evaluate() and the
# lowered code test where a power overflowed from a finite base, lowered code
# masks the singular points it computes, and callers fail on inf and NaN.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _quiet_overflow(fn, *args):
    return fn(*args)


# The tables of the run in progress: (builder, argument) -> (node table, the
# objects whose ids the key holds); None when no run is in progress.
_RUN = contextvars.ContextVar("lattice_frames_run_memo", default=None)


@contextlib.contextmanager
def run_memo():
    """Share the node tables of the builders across every call in the block.

    Within the block, :func:`shift`, :func:`partial`, :func:`total_derivative`,
    :func:`t_derivative`, :func:`substitute`, ``actions.transform`` and the
    callers of ``_substitute_fields``
    (``InvariantSet.expand``, ``noether._expand_adj`` and the rewrite of
    ``noether.equivariant_form``) hand back what they built before for the
    same node and argument; ``sampling.SamplePlan.assignments`` hands back
    the point set it gave before for the same request, answers a request
    for fewer points with the first points of a set of the same candidate
    stream, and lowers each guard tuple once; :func:`evaluate` at such a
    point set hands back the value it computed before for the same node.  A nested entry shares the outer
    tables; the outermost exit drops them, and with them every node, point
    set and value they held.
    """
    if _RUN.get() is not None:
        yield
        return
    token = _RUN.set({})
    try:
        yield
    finally:
        _RUN.reset(token)


def _table(key, *held):
    """The table of one builder or sampler call: the run's for ``key``, else a new one.

    ``held`` are the objects whose ids ``key`` holds, kept alive with the table.
    """
    tables = _RUN.get()
    if tables is None:
        return {}
    entry = tables.get(key)
    if entry is None:
        entry = tables[key] = ({}, held)
    return entry[0]


def _rebuild(e, leaf, memo, derive=False):
    """Rebuild ``e`` bottom-up, with DAG-preserving memoization: the walker of every builder.

    ``leaf(node)`` returns the image of a node it maps, or None.  Any other
    node goes to its row of ``_RULES``: to ``derive`` when ``derive`` is
    set, else to ``build`` with its children's images.  ``memo`` maps
    ``id(node)`` to ``(node, image)``, the node held so that its id stays
    its own: every caller passes ``_table(...)``, the run's table or a new
    one (see :func:`run_memo`).

    A node whose children are all their own images is its own image: it is
    not rebuilt.  That is exact because every node the package builds comes
    from a smart constructor (:func:`add`, :func:`mul`, :func:`neg`,
    :func:`quot`, :func:`power`, :func:`sqrt`, :func:`ln_abs`), and each
    returns its own output when given that output's children; a node made
    by calling its class, such as ``Prod((a, b))``, is kept as it is where
    its constructor would fold it.  A leaf rule may also answer for a whole
    subtree, which is then not walked: the image it gives must be the one
    the walk below would build (see :func:`partial` and :func:`substitute`).
    """

    def rec(node):
        hit = memo.get(id(node))
        if hit is not None:
            return hit[1]
        out = leaf(node)
        if out is None:
            rule = _RULES[type(node)]
            if derive:
                out = rule.derive(node, rec)
            else:
                kids = rule.children(node)
                images = [rec(c) for c in kids]
                out = node if all(map(operator.is_, images, kids)) else rule.build(node, *images)
        memo[id(node)] = node, out
        return out

    return rec(e)


def partial(e, fv):
    """Exact partial derivative of ``e`` with respect to the coordinate ``fv``.

    A subtree whose field variables lack ``fv`` is ``ZERO`` without a walk:
    every leaf of it derives to ``ZERO``, and so does every row of ``_RULES``
    whose children all do.
    """

    def leaf(node):
        if fv not in _varset(node):
            return ZERO
        return ONE if isinstance(node, Var) else None

    return _rebuild(e, leaf, _table(("partial", fv)), derive=True)


def shift(e, offset, sig):
    """Apply the shift operator S_I: K -> K + I on every field variable.

    ``x`` is unchanged; ``alt`` picks up (-1)^(I^1+...+I^m).
    """
    offset = tuple(offset)
    if len(offset) != sig.lattice_dim:
        raise ExprError(f"shift offset length {len(offset)} != lattice dimension {sig.lattice_dim}")
    if all(o == 0 for o in offset):
        return e
    flip = sum(offset) % 2

    def leaf(node):
        if isinstance(node, Var):
            fv = node.fv.shifted(offset)
            sig.check_var(fv)
            return Var(fv)
        if isinstance(node, Alt):
            return neg(node) if flip else node
        return None

    return _rebuild(e, leaf, _table(("shift", offset, id(sig)), sig))


def total_derivative(e, sig):
    """Total derivative D: x -> 1, u^alpha_{j;K} -> u^alpha_{j+1;K}."""
    if not sig.differential:
        raise ExprError("total derivative on a pure-difference problem")

    def leaf(node):
        if isinstance(node, Var):
            fv = FieldVar(node.fv.name, node.fv.deriv + 1, node.fv.shift)
            sig.check_var(fv)
            return Var(fv)
        return ONE if isinstance(node, XVar) else None

    return _rebuild(e, leaf, _table(("total", id(sig)), sig), derive=True)


def t_derivative(e, sig):
    """Derivative along the auxiliary parameter t: u^alpha_{j;K} -> slot_{j;K}.

    Each field must have a registered variation slot in the signature; the
    slot fields themselves are never differentiated with respect to t.
    """

    def leaf(node):
        if isinstance(node, Var):
            name = node.fv.name
            if name not in sig.variations:
                raise ExprError(f"field {name!r} has no variation slot (t-derivative undefined)")
            return Var(FieldVar(sig.variations[name], node.fv.deriv, node.fv.shift))
        return None

    return _rebuild(e, leaf, _table(("t", id(sig)), sig), derive=True)


def substitute(e, rules, x_repl=None, param_rules=None):
    """Simultaneous substitution of field variables (and optionally x, params).

    A rule that maps a leaf to itself is dropped, and with no rule left ``e``
    is its own image.  With field rules alone, a subtree none of whose field
    variables has a rule is its own image, without a walk.
    """
    rules = {fv: v for fv, v in rules.items() if not (type(v) is Var and v.fv == fv)}
    param_rules = {name: v for name, v in (param_rules or {}).items()
                   if not (type(v) is Param and v.name == name)}
    if type(x_repl) is XVar:
        x_repl = None
    if not rules and x_repl is None and not param_rules:
        return e
    fields_only = x_repl is None and not param_rules

    def leaf(node):
        if fields_only and _varset(node).isdisjoint(rules):
            return node
        if isinstance(node, Var):
            return rules.get(node.fv)
        if x_repl is not None and isinstance(node, XVar):
            return x_repl
        if param_rules and isinstance(node, Param):
            return param_rules.get(node.name)
        return None

    # keyed on the images' ids, which the table holds alive; not on the dicts, which may change
    key = ("substitute", frozenset([(fv, id(v)) for fv, v in rules.items()]), id(x_repl),
           frozenset([(name, id(v)) for name, v in param_rules.items()]))
    return _rebuild(e, leaf, _table(key, tuple(rules.values()), x_repl,
                                    tuple(param_rules.values())))


def _substitute_fields(e, image, key, *held):
    """``e`` with each ``Var(fv)`` replaced by ``image(fv)``, or kept where that is None.

    ``image`` must depend on ``key`` alone, which names the table (see
    :func:`_table`) that ``held`` keeps alive.
    """
    return _rebuild(e, lambda node: image(node.fv) if isinstance(node, Var) else None,
                    _table(key, *held))


# --- printing -------------------------------------------------------------

_PREC_SUM = 1
_PREC_PROD = 2
_PREC_NEG = 2
_PREC_POW = 3
_PREC_ATOM = 4


def _fmt_number(v):
    if isinstance(v, int) or (isinstance(v, float) and v.is_integer() and abs(v) < 1e15):
        return str(int(v))
    return repr(float(v))


def to_string(e):
    """Render an expression in the input grammar (parse . to_string is identity-preserving)."""

    def rec(node, ctx):
        if isinstance(node, Const):
            s = _fmt_number(node.value)
            return f"({s})" if node.value < 0 and ctx > _PREC_SUM else s
        if isinstance(node, Param):
            return node.name
        if isinstance(node, XVar):
            return "x"
        if isinstance(node, Alt):
            return "alt"
        if isinstance(node, Var):
            return str(node.fv)
        if isinstance(node, Sum):
            parts = [rec(node.terms[0], _PREC_SUM)]
            for t in node.terms[1:]:
                if isinstance(t, Neg):
                    parts.append(" - " + rec(t.arg, _PREC_PROD))
                elif isinstance(t, Const) and t.value < 0:
                    parts.append(" - " + _fmt_number(-t.value))
                else:
                    parts.append(" + " + rec(t, _PREC_SUM))
            s = "".join(parts)
            return f"({s})" if ctx > _PREC_SUM else s
        if isinstance(node, Prod):
            s = "*".join(rec(f, _PREC_PROD + 1) for f in node.factors)
            return f"({s})" if ctx > _PREC_PROD else s
        if isinstance(node, Quot):
            s = rec(node.num, _PREC_PROD + 1) + "/" + rec(node.den, _PREC_PROD + 1)
            return f"({s})" if ctx > _PREC_PROD else s
        if isinstance(node, Neg):
            s = "-" + rec(node.arg, _PREC_POW)
            return f"({s})" if ctx > _PREC_NEG else s
        if isinstance(node, Pow):
            b = rec(node.base, _PREC_ATOM)
            n = node.exponent if node.exponent >= 0 else f"({node.exponent})"
            return f"({b}^{n})" if ctx > _PREC_POW else f"{b}^{n}"
        if isinstance(node, LnAbs):
            return f"ln({rec(node.arg, _PREC_SUM)})"
        return f"sqrt({rec(node.arg, _PREC_SUM)})"  # Sqrt, the one class left

    return rec(e, _PREC_SUM)
