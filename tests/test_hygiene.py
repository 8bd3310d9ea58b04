"""Static checks on the library sources."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qwitt"


def unused_imports(source: str):
    """(line, name) for each name a module imports but never reads; a name
    listed in `__all__` counts as read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_unused_imports_detected():
    src = "from a import b, c\nimport d.e\nb = 1\n__all__ = ['c']\n"
    assert unused_imports(src) == [(1, "b"), (2, "d")]


def test_no_unused_imports_in_library():
    found = {
        path.name: unused
        for path in sorted(SRC.glob("*.py"))
        if (unused := unused_imports(path.read_text()))
    }
    assert not found, found


def undefined_exports(source: str):
    """Names listed in a module's `__all__` that the module neither defines
    nor imports at its top level."""
    tree = ast.parse(source)
    exported, defined = [], set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update(
                a.asname or a.name.split(".")[0] for a in node.names
            )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
            defined.update(names)
    return [name for name in exported if name not in defined]


def test_undefined_exports_detected():
    src = (
        "from a import b\nimport c.d\nx: int = 1\ny = 2\n"
        "def f():\n    g = 3\nclass K:\n    pass\n"
        "__all__ = ['b', 'c', 'x', 'y', 'f', 'K', 'g', 'gone']\n"
    )
    assert undefined_exports(src) == ["g", "gone"]


def test_every_export_is_defined():
    found = {
        path.name: missing
        for path in sorted(SRC.glob("*.py"))
        if (missing := undefined_exports(path.read_text()))
    }
    assert not found, found


def element_enumerations(source: str):
    """Lines that call `.elements()`, which walks a whole group."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "elements"
    )


def test_element_enumerations_detected():
    src = "x = g.elements()\nfor y in h.elements():\n    pass\nz = g.elements\n"
    assert element_enumerations(src) == [1, 2]


def test_library_never_enumerates_a_group():
    # the tests may enumerate small groups as references; the library may not
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := element_enumerations(path.read_text()))
    }
    assert not found, found


def kernel_references(source: str):
    """(line, outermost enclosing function) of each reference to
    `search_vectors` outside its own definition; "" for module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name != "search_vectors":
                    visit(child, scope or child.name)
                continue
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if isinstance(child, (ast.Name, ast.Attribute)) and name == "search_vectors":
                found.append((child.lineno, scope))
            elif isinstance(child, ast.alias) and child.name == "search_vectors":
                found.append((node.lineno, scope))
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_kernel_references_detected():
    src = (
        "from .search import search_vectors\n"
        "def search_vectors():\n    return 1\n"
        "def _column_search():\n    def rec():\n        search.search_vectors()\n"
        "def _other():\n    x = search_vectors\n"
    )
    assert kernel_references(src) == [(1, ""), (6, "_column_search"), (8, "_other")]


def test_one_caller_of_the_kernel():
    # every bounded search goes through qform._column_search, the one driver
    # that keeps the node budget and the deepening; search.py defines the
    # kernel and lists it as its one backend
    found = {
        path.name: refs
        for path in sorted(SRC.glob("*.py"))
        if (refs := [
            r for r in kernel_references(path.read_text())
            if (path.name, r[1]) not in {("qform.py", "_column_search"), ("search.py", "available_backends")}
        ])
    }
    assert not found, found


def accumulating_loops(source: str):
    """Lines, inside a `for` loop, that re-bind a name set from `.zero()` to
    itself plus something (`acc = acc + ...` or `acc += ...`): a sum built
    one element at a time, which `FinAbGroup.combination` builds once."""
    tree = ast.parse(source)
    found = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef)):
            continue
        zeros = {
            t.id
            for node in ast.walk(scope)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "zero"
            and not node.value.args
            for t in node.targets
            if isinstance(t, ast.Name)
        }
        for loop in ast.walk(scope):
            if not isinstance(loop, ast.For):
                continue
            for node in ast.walk(loop):
                if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
                    target = first = node.target
                elif isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp):
                    target, first = node.targets[0], node.value
                    # the first term of a chain of additions
                    while isinstance(first, ast.BinOp) and isinstance(first.op, ast.Add):
                        first = first.left
                else:
                    continue
                if (
                    isinstance(target, ast.Name)
                    and target.id in zeros
                    and getattr(first, "id", None) == target.id
                ):
                    found.add(node.lineno)
    return sorted(found)


def test_accumulating_loops_detected():
    src = (
        "def f(g, xs):\n"
        "    acc = g.zero()\n"
        "    for x in xs:\n"
        "        acc = acc + 2 * x + g.gen(0)\n"
        "    tot = g.zero()\n"
        "    for x in xs:\n"
        "        tot += x\n"
        "    once = g.zero()\n"
        "    once = once + xs[0]\n"
        "    n = 0\n"
        "    for x in xs:\n"
        "        n = n + 1\n"
        "        other = acc + x\n"
        "        acc = acc * 2\n"
        "    return g.combination([1] * len(xs), xs)\n"
    )
    assert accumulating_loops(src) == [4, 7]


def test_library_sums_with_combination():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := accumulating_loops(path.read_text()))
    }
    assert not found, found


def solver_calls(source: str):
    """Lines that read a `.solve` or `.solver` attribute: a preimage found by
    a fresh SNF."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ("solve", "solver")
    )


def test_solver_calls_detected():
    src = "x = f.solve(y)\ns = f.solver()\nt = solve(y)\nu = f.solved\n"
    assert solver_calls(src) == [1, 2]


def test_formparam_reads_lifts_off_the_section():
    # every preimage of an element of SQ comes from linearisation's lifts
    assert solver_calls((SRC / "formparam.py").read_text()) == []


def constructions(source: str, cls: str):
    """{top-level function: number of `cls(...)` calls in it}."""
    return {
        node.name: sum(
            isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == cls
            for call in ast.walk(node)
        )
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
    }


def test_splitting_constructions_detected():
    src = (
        "def a(p):\n    if p:\n        return MaximalSplitting(1)\n"
        "    return MaximalSplitting(2)\n"
        "def b(p):\n    return MaximalSplitting(p)\n"
        "def c():\n    return MaximalSplitting\n"
    )
    assert constructions(src, "MaximalSplitting") == {"a": 2, "b": 1, "c": 0}
    assert constructions(src, "QForm") == {"a": 0, "b": 0, "c": 0}


def test_each_splitting_case_shares_one_tail():
    # every case picks its kind, head generator and complement, then builds
    # the splitting in one place
    found = constructions((SRC / "formparam.py").read_text(), "MaximalSplitting")
    assert found["_split_symmetric"] == found["_split_antisymmetric"] == 1


def test_search_driver_builds_no_form():
    # a block's plan is the target's column constraints restricted to the
    # block's coordinates, not a form of its own
    assert constructions((SRC / "qform.py").read_text(), "QForm")["_column_search"] == 0


STANDARD_KINDS = {"Q+", "Q^+", "ZP", "ZP_k", "Q-", "Q^-", "ZL_k"}


def kind_comparisons(source: str):
    """(line, enclosing top-level definition) of each `==`, `!=`, `in` or
    `not in` against a standard kind name, or a tuple, list or set holding
    one; "" for module level."""

    def literals(node):
        elts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return {e.value for e in elts if isinstance(e, ast.Constant)}

    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Compare)
                and any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops)
                and any(literals(x) & STANDARD_KINDS for x in [node.left, *node.comparators])
            ):
                found.append((node.lineno, getattr(top, "name", "")))
    return found


def test_kind_comparisons_detected():
    src = (
        'def f(kind):\n    if kind == "Q+":\n        pass\n'
        '    return kind in ("ZP", "ZP_k")\n'
        'class K:\n'
        '    def g(self, kind):\n'
        '        return "ZL_k" != kind or kind not in ["Q-"] or kind == "Q+x" or kind < "ZP"\n'
        'x = {"Q^-": 0}\ny = x == {"Q^+"}\n'
    )
    assert kind_comparisons(src) == [(2, "f"), (4, "f"), (7, "K"), (7, "K"), (9, "")]


def test_witt_reads_the_kind_only_in_its_table():
    # the per-kind Witt data live in witt._indecomposables; _omega_data
    # checks that its form lies over the ZP family
    found = [
        r
        for r in kind_comparisons((SRC / "witt.py").read_text())
        if r[1] not in ("_indecomposables", "_omega_data")
    ]
    assert not found, found


def test_formparam_reads_the_kind_only_in_its_table():
    # the per-kind data live in formparam._kind_data and the tables it
    # reads; standard_morphism picks the family map between two kinds
    found = [
        r
        for r in kind_comparisons((SRC / "formparam.py").read_text())
        if r[1] not in ("_kind_data", "standard_morphism")
    ]
    assert not found, found


PERFBENCH = SRC.parent.parent / "perfbench"


def qwitt_names(source: str):
    """(line, dotted name) of each name a script takes from the qwitt
    package: every `import qwitt...` and `from qwitt... import name`, and
    every attribute read through a name bound to a qwitt object by such an
    import or by an assignment like `m, n = qwitt.x, qwitt.y`."""
    tree = ast.parse(source)
    bound = {}

    def dotted(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute) and (base := dotted(node.value)):
            return f"{base}.{node.attr}"
        return None

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "qwitt":
                    found.append((node.lineno, a.name))
                    bound[a.asname or "qwitt"] = a.name if a.asname else "qwitt"
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "qwitt":
                for a in node.names:
                    found.append((node.lineno, f"{node.module}.{a.name}"))
                    bound[a.asname or a.name] = f"{node.module}.{a.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                for t, v in pairs:
                    if isinstance(t, ast.Name) and (name := dotted(v)):
                        bound[t.id] = name
    found += [
        (node.lineno, name)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and (name := dotted(node))
    ]
    return sorted(set(found))


def test_qwitt_names_detected():
    src = (
        "import qwitt.cli\n"
        "from qwitt.qform import QForm, _helper as h\n"
        "def f():\n"
        "    from qwitt import search\n"
        "    import qwitt.witt as w\n"
        "    a, b = qwitt.qform, 3\n"
        "    return search.BACKEND, w.x.y, a.pullback, b.real, qwitt.cli.main\n"
        "from os import path\n"
    )
    assert qwitt_names(src) == [
        (1, "qwitt.cli"),
        (2, "qwitt.qform.QForm"),
        (2, "qwitt.qform._helper"),
        (4, "qwitt.search"),
        (5, "qwitt.witt"),
        (6, "qwitt.qform"),
        (7, "qwitt.cli"),
        (7, "qwitt.cli.main"),
        (7, "qwitt.qform.pullback"),
        (7, "qwitt.search.BACKEND"),
        (7, "qwitt.witt.x"),
        (7, "qwitt.witt.x.y"),
    ]


def resolves(name: str) -> bool:
    """Whether a dotted name is an importable module or an attribute of one."""
    parts = name.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part):
            try:
                # a submodule binds itself on its package when imported
                importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return False
        obj = getattr(obj, part)
    return True


def test_benchmark_names_resolve():
    # the benchmark under perfbench/ imports private helpers (_battery,
    # _block_pool, _lambda_square_constraint), wraps the functions its tracer
    # lists in TARGETS, and reads search.BACKEND and available_backends()
    # from a code string in run.py's environment()
    names = [
        (path.name, line, name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for line, name in qwitt_names(path.read_text())
    ]
    tracer = ast.parse((PERFBENCH / "tracer.py").read_text())
    (targets,) = [
        node.value
        for node in tracer.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "TARGETS"
    ]
    names += [("tracer.py", "TARGETS", f"{m}.{a}") for _, m, a in ast.literal_eval(targets)]
    names += [("run.py", "environment", f"qwitt.search.{a}") for a in ("BACKEND", "available_backends")]
    assert len(names) > 50
    missing = [n for n in names if not resolves(n[2])]
    assert not missing, missing
