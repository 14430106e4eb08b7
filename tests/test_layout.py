"""Static checks on the package source: import placement and ``__all__``;
that every function, class and method is named somewhere it is not
defined; that every rebuild, and ``evaluate``, takes its node table from
``expr._table``; that no function takes ``dcal_inv`` and only ``expr.py``
and ``actions.py`` call ``_rebuild``; that ``run_suite`` alone catches a
suite's errors and records one report per check; that only the suites and
the CLI build and name reports; that no function takes the signature, H,
the frame or the action next to an argument that holds it; that no
dataclass keeps a field its constructor cannot set; that the layer tracer
of the benchmark still finds what it wraps; that every expression node
class is interned, frozen and a dataclass with no generated method; that
a FieldVar is the tuple of its fields; that every stored formula of the
catalog is read; that the flow calls ``evaluate`` only in
``_on_lattice``; that only the node rules and the flow generate code;
and that only the parser imports ``re``."""

import ast
import dataclasses
import importlib
import importlib.util
import io
import re
import sys
import tokenize
from pathlib import Path

import pytest

import lattice_frames
from lattice_frames import expr
from lattice_frames.calculus import deriv_op
from lattice_frames.catalog import EXAMPLES

PACKAGE_DIR = Path(lattice_frames.__file__).resolve().parent
MODULES = sorted(PACKAGE_DIR.rglob("*.py"))
FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _top_level_names(tree):
    """Names bound by the module's own top-level statements."""
    names = set()
    todo = list(tree.body)
    while todo:
        stmt = todo.pop()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in stmt.names)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for t in targets:
                names.update(n.id for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(stmt, (ast.If, ast.Try, ast.With)):
            for block in ("body", "orelse", "finalbody"):
                todo.extend(getattr(stmt, block, []))
            for handler in getattr(stmt, "handlers", []):
                todo.extend(handler.body)
    return names


def _declared_all(tree):
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
            return ast.literal_eval(stmt.value)
    return []


def test_no_intra_package_import_inside_a_function():
    offenders = []
    for path in MODULES:
        for fn in ast.walk(_parse(path)):
            if not isinstance(fn, FUNCTION_NODES):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and (
                        node.level or (node.module or "").startswith("lattice_frames")):
                    offenders.append(f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}")
    assert offenders == []


def test_every_exported_name_is_defined():
    missing = []
    for path in MODULES:
        tree = _parse(path)
        defined = _top_level_names(tree)
        missing += [f"{path.relative_to(PACKAGE_DIR)}: {name}"
                    for name in _declared_all(tree) if name not in defined]
    assert missing == []


BENCHMARK_DIR = Path(__file__).resolve().parents[1] / "perfbench"
UNREAD_ALLOWED = set()


def _definitions_and_names(path):
    """(names after ``def`` or ``class``, every other name read in the file).

    A name is read where it stands in the code or inside a string, since
    the benchmark tracer and the suite registry name functions in strings;
    the strings of ``__all__`` and the comments do not count.
    """
    text = path.read_text()
    exported = [(s.lineno, s.end_lineno) for s in _parse(path).body
                if isinstance(s, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in s.targets)]
    defined, read, previous = [], [], None
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            (defined if previous in ("def", "class") else read).append(tok.string)
        elif tok.type == tokenize.STRING and not any(
                lo <= tok.start[0] <= hi for lo, hi in exported):
            read += re.findall(r"[A-Za-z_]\w*", tok.string)
        if tok.type not in (tokenize.NL, tokenize.COMMENT):
            previous = tok.string
    return defined, read


def test_every_definition_is_named_where_it_is_not_defined():
    # a function only tests call belongs in the tests; a dunder is called by Python
    defined, read = set(), set()
    for path in MODULES + sorted(BENCHMARK_DIR.rglob("*.py")):
        d, r = _definitions_and_names(path)
        read.update(r)
        if path in MODULES:
            defined.update(d)
    unread = {n for n in defined - read if not (n.startswith("__") and n.endswith("__"))}
    assert unread == UNREAD_ALLOWED


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_every_rebuild_takes_its_table_from_the_run_memo():
    calls, offenders = [], []
    for path in MODULES:
        for node in ast.walk(_parse(path)):
            if not (isinstance(node, ast.Call) and _name(node.func) == "_rebuild"):
                continue
            memo = node.args[2] if len(node.args) > 2 else next(
                (k.value for k in node.keywords if k.arg == "memo"), None)
            calls.append(node)
            if not (isinstance(memo, ast.Call) and _name(memo.func) == "_table"):
                offenders.append(f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}")
    assert calls and offenders == []


def test_one_invariant_derivative_and_no_walker_outside_expr_and_transform():
    # Frame.dcal is the one Dcal, so no function takes dcal_inv to build another,
    # and a second derivation walker would call _rebuild from a third module
    takes, callers = [], set()
    for path in MODULES:
        for node in ast.walk(_parse(path)):
            if isinstance(node, FUNCTION_NODES):
                a = node.args
                if "dcal_inv" in {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}:
                    takes.append(f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}")
            elif isinstance(node, ast.Call) and _name(node.func) == "_rebuild":
                callers.add(str(path.relative_to(PACKAGE_DIR)))
    assert takes == [] and callers <= {"expr.py", "actions.py"}


def test_evaluate_takes_its_table_from_the_run_memo():
    # one table for evaluate(): the run's for a held point set, else a new dict
    tree = _parse(PACKAGE_DIR / "expr.py")
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "evaluate")
    memos = [n.value for n in ast.walk(fn) if isinstance(n, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "memo" for t in n.targets)]
    assert len(memos) == 1
    tables = [c for c in ast.walk(memos[0])
              if isinstance(c, ast.Call) and _name(c.func) == "_table"]
    assert len(tables) == 1
    key = tables[0].args[0]
    assert isinstance(key, ast.Tuple) and ast.literal_eval(key.elts[0]) == "evaluate"


def test_run_suite_is_the_one_error_boundary_of_the_suites():
    tree = _parse(PACKAGE_DIR / "suites.py")
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    tries = (ast.Try, getattr(ast, "TryStar", ast.Try))
    suites = [f for name, f in functions.items() if name.startswith("suite_")]
    assert suites and [f.name for f in suites
                       if any(isinstance(n, tries) for n in ast.walk(f))] == []
    # a handler that names no type, or a base of ExprError, catches it too
    catching = [h for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler) and (
        h.type is None or {_name(t) for t in ast.walk(h.type)}
        & {"ExprError", "Exception", "BaseException"})]
    inside = {id(n) for n in ast.walk(functions["run_suite"])}
    assert catching and [h.lineno for h in catching if id(h) not in inside] == []


def test_run_suite_records_at_most_one_report_per_check():
    tree = _parse(PACKAGE_DIR / "suites.py")
    run_suite = next(n for n in tree.body if isinstance(n, ast.FunctionDef)
                     and n.name == "run_suite")
    check = next(n for n in ast.walk(run_suite) if isinstance(n, ast.FunctionDef)
                 and n.name == "check")
    calls = [_name(n.func) for n in ast.walk(check) if isinstance(n, ast.Call)]
    assert calls.count("append") == 1 and "extend" not in calls


# the modules that build and name a check's report; the others only build
# the expressions, sides and residuals these check
REPORTING_MODULES = {"sampling.py", "suites.py", "cli.py"}


def test_only_the_suites_and_the_cli_name_reports():
    offenders = []
    for path in MODULES:
        if str(path.relative_to(PACKAGE_DIR)) in REPORTING_MODULES:
            continue
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NAME and tok.string in ("CheckReport", "identity_check"):
                offenders.append(f"{path.relative_to(PACKAGE_DIR)}:{tok.start[0]}")
    assert offenders == []


# what a parameter of these names holds: the action holds the signature, a
# frame its action, and the invset of a bundle passed as IL the frame and H
HELD_BY = {"action": {"sig"}, "frame": {"sig"}, "IL": {"H", "action", "frame"}}


def test_no_function_takes_what_another_argument_holds():
    offenders = []
    for name in ("actions.py", "frames.py", "noether.py"):
        for fn in ast.walk(_parse(PACKAGE_DIR / name)):
            if not isinstance(fn, FUNCTION_NODES):
                continue
            params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
            for owner, held in HELD_BY.items():
                if owner in params and params & held:
                    offenders.append(f"{name}:{getattr(fn, 'name', 'lambda')}:{fn.lineno}")
    assert offenders == []


def test_no_dataclass_field_is_left_out_of_init():
    # a field(init=False) is state an object keeps beside its value, such as a
    # cache with a lifetime of its own: the run memo holds what a run reuses
    offenders = []
    for path in MODULES:
        for cls in ast.walk(_parse(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                value = getattr(stmt, "value", None)
                if (isinstance(stmt, ast.AnnAssign) and isinstance(value, ast.Call)
                        and _name(value.func) == "field"
                        and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                                and k.value.value is False for k in value.keywords)):
                    offenders.append(f"{path.relative_to(PACKAGE_DIR)}:{stmt.lineno}")
    assert offenders == []


def _bindings(package):
    """Every module attribute, dict entry and class attribute of the package."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != package:
            continue
        for attr, value in vars(mod).items():
            out[f"{name}.{attr}"] = value
            if isinstance(value, dict):
                out.update({f"{name}.{attr}[{k!r}]": v for k, v in value.items()})
            elif isinstance(value, type) and value.__module__ == name:
                out.update({f"{name}.{attr}.{k}": v for k, v in vars(value).items()})
    return out


def test_benchmark_tracer_installs_and_uninstalls():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for mod, attr_path, _ in layers.TARGETS:
        obj = importlib.import_module(f"{layers.PACKAGE}.{mod}")
        for part in attr_path.split("."):
            obj = getattr(obj, part)  # a renamed target fails here
    before = _bindings(layers.PACKAGE)
    tracer = layers.LayerTracer()
    tracer.install()  # raises when a binding to a wrapped function is missed
    tracer.uninstall()
    after = _bindings(layers.PACKAGE)
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def _node_classes(cls=expr.Expr):
    """Every concrete node class, however deep below ``cls``."""
    for sub in cls.__subclasses__():
        if dataclasses.is_dataclass(sub):
            yield sub
        yield from _node_classes(sub)


# A new value of each field type on every call: equal, but a distinct object
# wherever Python allows one.  A node class with a field type not listed here
# fails below until its type is added.
FRESH_FIELDS = {
    "Expr": lambda: expr.Var(expr.FieldVar("u", 0, (0,))),
    "tuple": lambda: (expr.Var(expr.FieldVar("u", 0, (0,))), expr.Const(float("1.5"))),
    "float": lambda: float("2.5"),
    "int": lambda: int("1000003"),
    "str": lambda: "".join(["h", "x"]),
    "FieldVar": lambda: expr.FieldVar("".join(["u", "v"]), 0, (0,)),
}


@pytest.mark.parametrize("cls", sorted(_node_classes(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_node_class_is_interned(cls):
    def build():
        return cls(*[FRESH_FIELDS[f.type]() for f in dataclasses.fields(cls)])

    first = build()
    assert build() is first


@pytest.mark.parametrize("cls", sorted(_node_classes(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_node_classes_carry_no_generated_methods(cls):
    # a node class is a dataclass for its field list alone: Expr.__new__ sets
    # the fields, and Expr gives every node one repr and the frozen setattr
    names = [f.name for f in dataclasses.fields(cls)]
    assert names == list(cls.__slots__) == list(cls.__match_args__)
    params = cls.__dataclass_params__
    assert not (params.init or params.eq or params.repr or params.order or params.frozen)
    own = vars(cls)
    assert "__init__" not in own and "__repr__" not in own
    # constants alone compare by value, written by hand
    assert ("__eq__" in own) == ("__hash__" in own) == (cls is expr.Const)
    generated = [name for name, v in own.items() if getattr(getattr(
        getattr(v, "__func__", v), "__code__", None), "co_filename", None) == "<string>"]
    assert generated == []
    node = cls(*[FRESH_FIELDS[f.type]() for f in dataclasses.fields(cls)])
    for name in [*names, "_fvs", "other"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, name)
    assert repr(node) == f"{cls.__name__}({', '.join(f'{n}={getattr(node, n)!r}' for n in names)})"


def test_fieldvar_is_the_tuple_of_its_fields():
    # a dict key and a sort key on every sampler request: tuple order and hashing
    fvs = [expr.FieldVar(n, d, k) for n in ("v", "u") for d in (1, 0)
           for k in ((1, -1), (0, 2), (-1, 0), (0, -2))]
    assert sorted(fvs) == sorted(fvs, key=lambda fv: (fv.name, fv.deriv, fv.shift))
    twin = expr.FieldVar("".join(["u", "v"]), int("2"), tuple([0, int("1000003")]))
    again = expr.FieldVar("uv", 2, (0, 1000003))
    assert twin is not again and twin == again and hash(twin) == hash(again)
    assert hash(twin) == hash(("uv", 2, (0, 1000003)))
    assert (twin.name, twin.deriv, twin.shift) == tuple(twin)
    assert str(twin) == "uv[2;0,1000003]" and str(twin.shifted((1, -3))) == "uv[2;1,1000000]"


def _expr_fields(node):
    """The Expr-valued fields of ``node`` in field order, as the benchmark tracer reads them."""
    for f in dataclasses.fields(node):
        v = getattr(node, f.name)
        if isinstance(v, expr.Expr):
            yield v
        elif isinstance(v, tuple):
            yield from (t for t in v if isinstance(t, expr.Expr))


# A value of each leaf field type at which every node class is regular, for
# the node whose i-th field it fills.
REGULAR_FIELDS = {
    "tuple": lambda i: (expr.Var(expr.FieldVar("u", 0, (i,))),
                        expr.Var(expr.FieldVar("u", 0, (i + 1,)))),
    "float": lambda i: 2.5,
    "int": lambda i: -3,
    "str": lambda i: "a",
    "FieldVar": lambda i: expr.FieldVar("u", 0, (0,)),
}


# The image of each leaf the builders' leaf rules do not name, under
# partial, total D and the t-derivative: its row's derive, 0 but for D x = 1.
LEAF_IMAGES = {"Const": (0, 0, 0), "Param": (0, 0, 0), "XVar": (0, 1, 0), "Alt": (0, 0, 0)}
LEAF_SIG = expr.ProblemSignature(("u", "w"), 1, differential=True, has_x=True, params=("a",),
                                 variations={"u": "w"})


@pytest.mark.parametrize("cls", sorted(_node_classes(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_node_class_has_a_rule(cls):
    # every walker reads the table: a class without a row would fall through them all
    assert cls in expr._RULES
    # a distinct child u[i] per field, so that the order is checked too
    node = cls(*[expr.Var(expr.FieldVar("u", 0, (i,))) if f.type == "Expr"
                 else REGULAR_FIELDS[f.type](i) for i, f in enumerate(dataclasses.fields(cls))])
    assert expr.children(node) == tuple(_expr_fields(node))
    # a second way to compute derivatives: the partial derivative in each of
    # u[0] and u[1], by the class's rule, against a central difference
    point = [0.7, 1.3, 0.9]

    def at(k, v):
        values = {expr.FieldVar("u", 0, (i,)): v if i == k else w for i, w in enumerate(point)}
        return expr.Assignment(values, x=0.4, params={"a": 0.8})

    eps = 1e-6
    for k in range(2):
        fv = expr.FieldVar("u", 0, (k,))
        want = (expr.evaluate(node, at(k, point[k] + eps))
                - expr.evaluate(node, at(k, point[k] - eps))) / (2 * eps)
        got = expr.evaluate(expr.partial(node, fv), at(k, point[k]))
        assert got == pytest.approx(want, rel=1e-7, abs=1e-7), fv
    if cls.__name__ in LEAF_IMAGES:
        images = (expr.partial(node, expr.FieldVar("u", 0, (0,))),
                  expr.total_derivative(node, LEAF_SIG), expr.t_derivative(node, LEAF_SIG))
        assert images == tuple(map(expr.Const, LEAF_IMAGES[cls.__name__]))
    assert deriv_op(node, LEAF_SIG, times=0) is node


def _strings(path):
    return {n.value for n in ast.walk(_parse(path))
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def test_every_stored_formula_is_read():
    # a key of a bundle's expected formulas that no suite or test names is checked by nothing
    readers = [PACKAGE_DIR / "suites.py", *sorted(Path(__file__).resolve().parent.glob("*.py"))]
    named = set().union(*map(_strings, readers))
    unread = [f"{b.name}: {key}" for b in EXAMPLES.values() for key in b.expected
              if key not in named]
    assert unread == []


def test_the_flow_evaluates_only_through_on_lattice():
    # _on_lattice is the one call that raises evaluate's errors in the flow: a
    # second stage-by-stage loop would name evaluate somewhere else
    tree = _parse(PACKAGE_DIR / "flows.py")
    on_lattice = next(n for n in tree.body if isinstance(n, ast.FunctionDef)
                      and n.name == "_on_lattice")
    inside = {id(n) for n in ast.walk(on_lattice)}
    uses = [n for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and _name(n) == "evaluate"]
    renamed = [a for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
               for a in n.names if a.name == "evaluate" and a.asname]
    assert uses and [n.lineno for n in uses if id(n) not in inside] == [] and renamed == []


def _scoped_calls(tree, name):
    """The dotted name of the definition around each call of ``name``; "" at the top level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Call) and _name(child.func) == name:
                found.append(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return found


def test_only_the_node_rules_and_the_flow_generate_code():
    # exec builds the functions of the node rules once, and the lowered RK4
    # step once per integration; the sampler tests its guards by evaluate's
    # walk, so a per-run lowering would build a Lowering outside flows.py
    executed, lowered = set(), set()
    for path in MODULES:
        tree, module = _parse(path), path.relative_to(PACKAGE_DIR).with_suffix("")
        executed.update(f"{module}.{scope}" for scope in _scoped_calls(tree, "exec"))
        lowered.update(str(path.relative_to(PACKAGE_DIR))
                       for _ in _scoped_calls(tree, "Lowering"))
    assert executed == {"expr._functions", "expr.Lowering.compile"}
    assert lowered == {"flows.py"}


def test_only_the_parser_imports_re():
    # the parser reads text; the flow's code generator reads its own records, never
    # the lines it printed
    importing = set()
    for path in MODULES:
        for node in ast.walk(_parse(path)):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "re" in names:
                importing.add(str(path.relative_to(PACKAGE_DIR)))
    assert importing == {"parser.py"}
