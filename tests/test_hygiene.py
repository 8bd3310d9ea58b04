"""Static checks on the library sources."""

import ast
import graphlib
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


def names(source: str):
    """Every identifier a module reads, binds, imports or takes as an
    attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def test_names_detected():
    src = "from .abelian import _reduced as r\nx = abelian._reduced\ndef f():\n    pass\n"
    assert {"_reduced", "r", "x", "abelian", "f"} <= names(src)


def test_reduced_elements_stay_inside_abelian():
    # abelian._reduced trusts its coordinates; every other module builds
    # elements through the validating GroupElement(...) or group.element
    found = sorted(
        path.name
        for path in SRC.glob("*.py")
        if path.name != "abelian.py" and "_reduced" in names(path.read_text())
    )
    assert not found, found
    assert "_reduced" in names((SRC / "abelian.py").read_text())


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


def eager_kernel_uses(source: str, function: str):
    """(line, what) for each eager use of the kernel inside `function`: a
    call to `search_vectors` without `on_result`, and a loop (`for` or a
    comprehension) over a call's result list, over the call itself, its
    first item, or a name bound to that list."""
    top = next(n for n in ast.parse(source).body if getattr(n, "name", None) == function)

    def is_kernel_call(node):
        func = getattr(node, "func", None)
        return isinstance(node, ast.Call) and "search_vectors" in (
            getattr(func, "id", None), getattr(func, "attr", None)
        )

    found, lists = [], set()
    for node in ast.walk(top):
        if is_kernel_call(node) and "on_result" not in {k.arg for k in node.keywords}:
            found.append((node.lineno, "call without on_result"))
        if isinstance(node, ast.Assign) and is_kernel_call(node.value):
            for target in node.targets:
                first = target.elts[0] if isinstance(target, ast.Tuple) else target
                if isinstance(first, ast.Name):
                    lists.add(first.id)
    for node in ast.walk(top):
        if isinstance(node, (ast.For, ast.comprehension)):
            it = node.iter.value if isinstance(node.iter, ast.Subscript) else node.iter
            if is_kernel_call(it) or getattr(it, "id", None) in lists:
                found.append((it.lineno, "loop over a result list"))
    return sorted(found)


def test_eager_kernel_uses_detected():
    src = (
        "def drive():\n"
        "    results, nodes, done = search.search_vectors(1, p, 1, 9, 9)\n"
        "    for vec in results:\n        pass\n"
        "    out = search_vectors(1, p, 1, 9, 9, on_result=f)\n"
        "    total = [v for v in out[0]]\n"
        "    _, own, _ = search.search_vectors(1, p, 1, 9, 9, on_result=f)\n"
        "    return [v for v in search_vectors(1, p, 1, 9, 9, on_result=f)[0]]\n"
        "def other():\n    return search_vectors(1, p, 1, 9, 9)\n"
    )
    assert eager_kernel_uses(src, "drive") == [
        (2, "call without on_result"), (3, "loop over a result list"),
        (6, "loop over a result list"), (8, "loop over a result list"),
    ]


def test_driver_descends_as_the_kernel_finds():
    # the driver searches below each column as the kernel hands it over:
    # every kernel call takes on_result, and no result list is walked after
    # its call returned
    assert eager_kernel_uses((SRC / "qform.py").read_text(), "_column_search") == []


def names_in(source: str, function: str):
    """Every identifier that the definitions named `function`, nested ones
    included, read, bind, import or take as an attribute."""
    return {
        name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == function
        for name in names(ast.unparse(node))
    }


def test_names_in_detected():
    src = (
        "def search_vectors():\n    results = []\n"
        "    def rec():\n        yield results.pop()\n"
        "    def replay():\n        def inner():\n            exhausted = False\n"
        "def rec():\n    return self.max_results\n"
    )
    assert {"results", "pop", "max_results"} <= names_in(src, "rec")
    assert "exhausted" in names_in(src, "replay") and "results" not in names_in(src, "replay")


def test_kernel_walkers_only_walk():
    # the walkers yield each result and stop past the limit; the one loop
    # in search_vectors keeps the results, applies max_results and says
    # whether the call ran to the end, and the driver reads a stop on the
    # budget off the node count
    kernel = (SRC / "search.py").read_text()
    for walker in ("rec", "replay"):
        assert not names_in(kernel, walker) & {"results", "found_at", "exhausted", "max_results"}, walker
    assert "exhausted" not in names_in((SRC / "qform.py").read_text(), "_column_search")


def calls_to(source: str, name: str):
    """(line, enclosing top-level definition) of each call to `name`, bare
    or as an attribute (`search.name(...)`); "" for module level."""
    return [
        (node.lineno, getattr(top, "name", ""))
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_calls_detected():
    src = (
        "x = Plan(1, [])\n"
        "def f():\n    def g():\n        return search.Plan(2, [])\n    return Plan\n"
        "class K:\n    def h(self):\n        return self.Plan(0, ())\n"
    )
    assert calls_to(src, "Plan") == [(1, ""), (4, "f"), (8, "K")]


def library_calls(name: str):
    """{(module file, enclosing top-level definition)} of the library's
    calls to `name`."""
    return {
        (path.name, scope)
        for path in sorted(SRC.glob("*.py"))
        for _, scope in calls_to(path.read_text(), name)
    }


def test_kernel_plans_come_from_the_driver():
    # the driver builds one plan of coefficients for the whole target and
    # one per distinct block, and passes it, with the call's pair rows and
    # its depth's constants, to every call on that block or target; the
    # kernel wraps a plain list in a plan
    assert library_calls("Plan") == {("qform.py", "_column_constraints"), ("search.py", "search_vectors")}


def test_driver_builds_no_lambda_square_row():
    # a column's mu rows in the splitting's coordinates imply lambda(x, x) =
    # h(mu), so no plan holds that row; the benchmark still reads the helper
    # (test_benchmark_names_resolve)
    assert library_calls("_lambda_square_constraint") == set()


def test_kernel_set_up_lives_in_one_function():
    # a Plan symmetrises its rows once and runs one recurrence per row for
    # its steps at bound 1, its root data and its splits; the linear
    # recurrence, _add_linear, also sets up a call's pair rows, and
    # unsolvable reads the symmetrised rows for the gcd rule only;
    # search._add_steps only scales the plan's steps to a bound; the root
    # rules of a plan's rows and of pair rows are one function, whose gcd
    # rule Plan.solvable and unsolvable share
    assert library_calls("_quadratic_entries") == {("search.py", "Plan"), ("search.py", "unsolvable")}
    assert library_calls("_add_steps") == {("search.py", "Plan")}
    assert library_calls("_add_linear") == {("search.py", "Plan"), ("search.py", "search_vectors")}
    assert library_calls("_root_rejects") == {("search.py", "Plan"), ("search.py", "search_vectors")}
    assert library_calls("_gcd_rejects") == {
        ("search.py", "_root_rejects"), ("search.py", "Plan"), ("search.py", "unsolvable")
    }
    source = (SRC / "search.py").read_text()
    for name in ("gcd", "sum", "abs", "_add_linear", "_quadratic_entries"):
        assert "_add_steps" not in {scope for _, scope in calls_to(source, name)}, name


def test_pre_checks_take_one_elimination_per_form():
    # the searches' pre-checks read a form's determinant and inertia off
    # one elimination, `_det_and_inertia_of`, for either symmetry; the
    # metabolic obstruction takes no determinant before witt_class, whose
    # inversion of the matrix is the nonsingularity check
    assert library_calls("_det_and_inertia") == {("qform.py", "inertia"), ("qform.py", "_det_and_inertia_of")}
    source = (SRC / "qform.py").read_text()
    pre_checks = {"_metabolic_obstruction", "isometry_search", "_embedding_obstruction", "is_absorbing"}
    for name in ("is_nonsingular", "determinant", "det", "inertia", "_det_and_inertia"):
        scopes = {scope for _, scope in calls_to(source, name)}
        # isometry_search's leaf takes the determinant of a witness matrix
        assert not scopes & (pre_checks - {"isometry_search"} if name == "determinant" else pre_checks), name
    witt_source = (SRC / "witt.py").read_text()
    assert "signature" not in {scope for _, scope in calls_to(witt_source, "is_nonsingular")}


def test_one_saturation_routine():
    # Embedding.is_primitive, lagrangian_verify and _saturate_if_needed
    # read the rank, primitivity and saturated basis of their columns off
    # one Smith form, built by `_saturation` alone
    source = (SRC / "qform.py").read_text()
    assert {scope for _, scope in calls_to(source, "SNF")} == {"_saturation"}
    users = {scope for _, scope in calls_to(source, "_saturation")}
    assert users == {"Embedding", "lagrangian_verify", "_saturate_if_needed"}


def test_span_test_is_incremental():
    # the driver tests each column against the rows of the annihilator of
    # the columns chosen before it, updated once per chosen column, and
    # reads the block rules in _column_constraints, before the first pass:
    # no rank or determinant is taken per vector
    source = (SRC / "qform.py").read_text()
    for name in ("rank", "determinant", "det"):
        assert "_column_search" not in {scope for _, scope in calls_to(source, name)}, name


def test_column_constraints_push_no_form_forward():
    # the target's mu rows are read through the splitting, one coordinate
    # row per basis vector, and no pushed-forward QForm is built
    source = (SRC / "qform.py").read_text()
    assert "_column_constraints" not in {scope for _, scope in calls_to(source, "pushforward")}
    assert constructions(source, "QForm")["_column_constraints"] == 0


def test_one_quotient_routine():
    # every quotient is read off free_quotient's Smith form; only
    # AbHom.is_surjective takes a cokernel of its own, for its group alone
    assert library_calls("_cokernel") == {("abelian.py", "AbHom"), ("abelian.py", "free_quotient")}
    tree = ast.parse((SRC / "abelian.py").read_text())
    cls = next(n for n in tree.body if getattr(n, "name", None) == "AbHom")
    methods = ast.unparse(ast.Module(body=cls.body, type_ignores=[]))
    assert {scope for _, scope in calls_to(methods, "_cokernel")} == {"is_surjective"}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for name in ("_presentation_from_relations", "hom_from_images"):
            assert name not in text, (path.name, name)


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


def method_calls(source: str, attr: str, owner: str = ""):
    """{top-level function: number of `x.attr(...)` calls in it, x being
    the name `owner` when one is given}."""
    return {
        node.name: sum(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == attr
            and (not owner or getattr(call.func.value, "id", None) == owner)
            for call in ast.walk(node)
        )
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
    }


def test_method_calls_detected():
    src = (
        "def a(g):\n    def col():\n        return g.element([0])\n"
        "    return [g.element(c) for c in col()], AbHom.identity(g)\n"
        "def b(g):\n    return g.elements(), element(g), _intmat.identity(2)\n"
    )
    assert method_calls(src, "element") == {"a": 2, "b": 0}
    assert method_calls(src, "identity", "AbHom") == {"a": 1, "b": 0}
    assert method_calls(src, "identity") == {"a": 1, "b": 1}


def test_first_touch_builds_no_throwaway_values():
    # present hands integer relation columns to abelian, and the maximal
    # splitting inverts its case's map with no identity to compare with
    assert method_calls((SRC / "qtensor.py").read_text(), "element")["present"] == 0
    found = method_calls((SRC / "formparam.py").read_text(), "identity", "AbHom")
    assert found["maximal_splitting"] == 0


def test_the_witt_layer_builds_one_form_per_tensor():
    # witt_class, es_witt and eql_witt read a form as its matrix and mu rows
    # and build none; form_from_tensor builds one, from one matrix and one mu
    # list, and witt_group one per representative, over the parameter
    found = constructions((SRC / "witt.py").read_text(), "QForm")
    assert found["form_from_tensor"] == found["witt_group"] == 1
    assert found["witt_class"] == found["es_witt"] == found["eql_witt"] == 0


def test_the_natural_route_is_a_second_computation():
    # the benchmark checks each induced map against
    # induced_witt_map_via_forms, which pushes representatives forward and
    # takes their witt_class: no function of the natural route reaches those
    tree = ast.parse((SRC / "witt.py").read_text())
    calls = {
        node.name: {
            call.func.id
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        }
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    reached, todo = set(), ["induced_witt_map"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += calls.get(name, ())
    assert {"_natural", "eql_witt", "es_witt"} <= reached
    assert not reached & {"induced_witt_map_via_forms", "pushforward", "witt_class"}


def test_the_natural_model_is_built_in_one_place():
    # witt._model builds the tensor presentation and the ambient group of
    # Sigma(v) and Lambda(v'); the functions of the natural description read
    # them there and build neither
    source = (SRC / "witt.py").read_text()
    readers = (
        "sigma_subgroup", "lambda_quotient", "es_witt", "es_witt_hom",
        "eql_witt", "eql_witt_hom", "induced_witt_map",
    )
    for cls in ("present", "FinAbGroup"):
        found = constructions(source, cls)
        assert found["_model"] == 1
        assert not any(found[name] for name in readers), (cls, found)


def test_each_splitting_case_shares_one_tail():
    # every case returns its kind, level, complement and the map onto its
    # basis; maximal_splitting alone inverts that map and builds the splitting
    found = constructions((SRC / "formparam.py").read_text(), "MaximalSplitting")
    assert found["maximal_splitting"] == 1
    assert found["_split_symmetric"] == found["_split_antisymmetric"] == 0


def test_search_driver_builds_no_form():
    # a block's plan is the target's column constraints restricted to the
    # block's coordinates, not a form of its own
    assert constructions((SRC / "qform.py").read_text(), "QForm")["_column_search"] == 0


def nested_functions(source: str, function: str):
    """The nested `def`s and `lambda`s of the top-level function `function`,
    as (line, name); a lambda is named "<lambda>"."""
    top = next(n for n in ast.parse(source).body if getattr(n, "name", None) == function)
    return [
        (node.lineno, getattr(node, "name", "<lambda>"))
        for node in ast.walk(top)
        if node is not top and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    ]


def test_nested_functions_detected():
    src = (
        "def f(v):\n    def qbar(x):\n        return x\n"
        "    c_of = lambda x: 0\n    return [qbar(y) for y in v], c_of\n"
        "def g(v):\n    return [y for y in v]\n"
    )
    assert nested_functions(src, "f") == [(2, "qbar"), (4, "<lambda>")]
    assert nested_functions(src, "g") == []


def test_structure_diagrams_are_checked_in_straight_lines():
    # each verifier states its diagram once: its one case split sets the
    # groups and columns directly, with no closure standing for a map
    for module, function in (
        ("witt.py", "sigma_diagram"),
        ("witt.py", "lambda_diagram"),
        ("qtensor.py", "check_sequences"),
    ):
        assert nested_functions((SRC / module).read_text(), function) == [], function


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


def private_names(source: str):
    """The underscore names a module takes from the package's other
    modules, as "module.name": by a relative import (`from .m import _x`,
    or `from . import _m`), or as an attribute read through a module bound
    by `from . import m [as n]`."""
    tree = ast.parse(source)
    modules, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module:
                    if a.name.startswith("_"):
                        found.add(f"{node.module}.{a.name}")
                elif a.name.startswith("_"):
                    found.add(a.name)
                else:
                    modules[a.asname or a.name] = a.name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            found.add(f"{modules[node.value.id]}.{node.attr}")
    return sorted(found)


def test_private_names_detected():
    src = (
        "from . import qform as qf, witt\nfrom . import _intmat\n"
        "from .formparam import _recognise_standard, standard\n"
        "def f(x, other):\n"
        "    return qf._det_and_inertia(x), witt.witt_group(x), other._y, x.__class__\n"
        "y = witt._omega_data\n"
    )
    assert private_names(src) == [
        "_intmat", "formparam._recognise_standard", "qform._det_and_inertia", "witt._omega_data",
    ]


# the private names the acceptance suite takes from the library, each with
# its reason
ACCEPTANCE_PRIVATE = {
    # criterion 11 compares sigma with omega-hat^2 mod 8, and no public
    # function returns the two
    "witt._omega_data",
}


def test_acceptance_takes_no_private_name():
    # the suite checks the library through its public functions, so a
    # check cannot lean on a helper the library is free to change
    found = private_names((SRC / "acceptance.py").read_text())
    assert set(found) == ACCEPTANCE_PRIVATE, found


def unslotted_dataclasses(source: str):
    """The classes a module declares with @dataclass but without
    slots=True."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            func = call.func if call else dec
            if getattr(func, "id", getattr(func, "attr", None)) != "dataclass":
                continue
            if not any(
                k.arg == "slots" and getattr(k.value, "value", None) is True
                for k in (call.keywords if call else [])
            ):
                found.append(node.name)
    return found


def test_unslotted_dataclasses_detected():
    src = (
        "@dataclass\nclass A:\n    x: int\n"
        "@dataclass(frozen=True)\nclass B:\n    x: int\n"
        "@dataclasses.dataclass(frozen=True, slots=False)\nclass C:\n    x: int\n"
        "@dataclass(frozen=True, slots=True)\nclass D:\n    x: int\n"
        "@dataclasses.dataclass(slots=True)\nclass E:\n    x: int\n"
        "@total_ordering\nclass F:\n    pass\n"
    )
    assert unslotted_dataclasses(src) == ["A", "B", "C"]


# the dataclasses that keep a per-instance dict, each with its reason
UNSLOTTED = set()


def test_value_dataclasses_keep_their_slots():
    # a value object keeps no per-instance dict: a workload builds tens of
    # thousands of them
    found = {
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in unslotted_dataclasses(path.read_text())
    }
    assert found == UNSLOTTED, found


def interning_faults(source: str, names):
    """(class, fault) for each interned value class of `names` that a module
    defines without a `__new__`, a `__reduce__` or an `__init__` whose body
    is only a docstring, and ("object.__new__", line) for each
    `object.__new__` call on one of `names`, or in the body of such a class,
    outside that class's own `__new__`."""
    tree = ast.parse(source)
    faults, inside, allowed = [], set(), set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and node.name in names):
            continue
        methods = {f.name: f for f in node.body if isinstance(f, ast.FunctionDef)}
        faults += [
            (node.name, f"no {m}")
            for m in ("__new__", "__reduce__", "__init__")
            if m not in methods
        ]
        init = methods.get("__init__")
        if init is not None and not all(
            isinstance(st, ast.Pass)
            or isinstance(st, ast.Expr) and isinstance(st.value, ast.Constant)
            for st in init.body
        ):
            faults.append((node.name, "__init__ does work"))
        inside.update(map(id, ast.walk(node)))
        if "__new__" in methods:
            allowed.update(map(id, ast.walk(methods["__new__"])))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__new__"
            and getattr(node.func.value, "id", None) == "object"
            and id(node) not in allowed
            and (id(node) in inside or any(getattr(a, "id", None) in names for a in node.args))
        ):
            faults.append(("object.__new__", node.lineno))
    return faults


def test_interning_faults_detected():
    src = (
        "class A:\n"
        "    def __new__(cls, x):\n        return object.__new__(cls)\n"
        "    def __init__(self, x):\n        'Nothing to do.'\n"
        "    def __reduce__(self):\n        return A, ()\n"
        "class B:\n"
        "    def __new__(cls, x):\n        return object.__new__(cls)\n"
        "    def __init__(self, x):\n        self.x = x\n"
        "    def copy(self):\n        return object.__new__(type(self))\n"
        "class C:\n    pass\n"
        "def f():\n    return object.__new__(A), object.__new__(C)\n"
    )
    assert interning_faults(src, {"A", "B"}) == [
        ("B", "no __reduce__"), ("B", "__init__ does work"),
        ("object.__new__", 14), ("object.__new__", 18),
    ]


# the interned value classes: one object per value, built in __new__
INTERNED = {"FinAbGroup", "FormParameter"}


def test_interned_values_are_built_only_in_their_new():
    # a value built past its class's __new__ would be a second object for
    # one value, or one never validated; copy, deepcopy and pickle rebuild
    # through __new__ (__reduce__), and __init__, which runs on the object
    # __new__ returns, must leave the interned value as it is
    faults, defined = [], set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        faults += [(path.name, *f) for f in interning_faults(source, INTERNED)]
        defined |= {
            node.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and node.name in INTERNED
        }
    assert defined == INTERNED
    assert faults == []


def package_imports(source: str):
    """(module, at top level) for each package module a relative import
    names: `from . import a, b` names a and b, `from .a import x` names a."""
    tree = ast.parse(source)
    top = set(map(id, tree.body))
    return sorted(
        (mod, id(node) in top)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for mod in ([node.module] if node.module else [a.name for a in node.names])
    )


def test_package_imports_detected():
    src = (
        "from __future__ import annotations\nimport os\n"
        "from . import _intmat, search\nfrom .abelian import AbHom\n"
        "def f():\n    from . import witt\n    from .formparam import standard\n"
    )
    assert package_imports(src) == [
        ("_intmat", True), ("abelian", True), ("formparam", False), ("search", True), ("witt", False),
    ]


def test_package_import_graph_has_no_cycle():
    # a module imports another inside a function only where a top-level
    # import would close a cycle (qform needs witt, which imports qform) or
    # where a verb should not pay for it (the CLI loads the acceptance
    # suite for verify-suite only)
    graph, local = {}, set()
    for path in sorted(SRC.glob("*.py")):
        graph[path.stem] = set()
        for mod, at_top in package_imports(path.read_text()):
            if at_top:
                graph[path.stem].add(mod)
            else:
                local.add((path.stem, mod))
    assert graph["qtensor"] and graph["witt"]
    assert local <= {("qform", "witt"), ("cli", "acceptance")}, local
    tuple(graphlib.TopologicalSorter(graph).static_order())  # CycleError on a cycle


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


def definitions(source: str):
    """The top-level functions of a module, and `Class.method` for each
    method of its top-level classes, dunder methods left out."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            found.append(node.name)
        elif isinstance(node, ast.ClassDef):
            found += [
                f"{node.name}.{m.name}"
                for m in node.body
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
            ]
    return found


def references(source: str):
    """What a module can reach a definition through: every name it reads
    or imports, ".attr" for every attribute it takes, and the parts of
    every dotted string of identifiers (the benchmark's tracer names its
    targets so; a name listed in `__all__` is no caller).  A function is reached by name or as an attribute, a
    method only as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Attribute):
            found |= {node.attr, "." + node.attr}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if len(parts) > 1 and all(part.isidentifier() for part in parts):
                found |= {*parts, *("." + part for part in parts)}
    return found


def uncalled(library, callers):
    """The definitions of the library sources ({file: source}) that no
    source of `callers` references."""
    refs = set().union(*map(references, callers))
    return sorted(
        (name, definition)
        for name, source in library.items()
        for definition in definitions(source)
        if ("." if "." in definition else "") + definition.split(".")[-1] not in refs
    )


def test_uncalled_definitions_detected():
    library = {
        "a.py": (
            "def used():\n    return 1\n"
            "def only_tested():\n    pad = 2\n    return pad\n"
            "def traced():\n    pass\n"
            "class K:\n    def __init__(self):\n        self.x = used()\n"
            "    def pad(self):\n        pass\n"
            "    def called(self):\n        pass\n"
        ),
    }
    bench = "from a import K\nK().called()\nTARGETS = [('x.traced', 'a', 'traced')]\n"
    assert uncalled(library, [*library.values(), bench]) == [
        ("a.py", "K.pad"), ("a.py", "only_tested"),
    ]


# the verification API and the test-facing reads of a value: each has tests
# as its callers, and the library has no use for it
TEST_FACING = {
    # brute-force checks of a form's characteristic element and of the exact
    # sequences and squares of G (x) Q
    ("qform.py", "characteristic_check"),
    ("qtensor.py", "check_sequences"),
    # lambda(x, y) of a form at two vectors, which the tests check searches
    # and pullbacks against, and the Arf invariant of a form over Q-, which
    # they check the c* coordinate against; the library reads matrices and
    # mu rows (witt._arf)
    ("qform.py", "QForm.lam"),
    ("witt.py", "arf"),
    # every element of a finite group, for the tests' brute-force
    # references; the library never enumerates a group
    ("abelian.py", "FinAbGroup.elements"),
    # the gcd rule on one constraint, which the tests check brute force and
    # a plan's per-row root certificate (`Plan.solvable`) against; the
    # driver reads each row's gcd off its plan, computed once
    ("search.py", "unsolvable"),
}


def test_every_library_definition_has_a_caller():
    # a function or method whose only callers are tests is a second entry
    # point to nothing; the library and the benchmark under perfbench/ are
    # the callers that count
    library = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    callers = [*library.values(), *(p.read_text() for p in sorted(PERFBENCH.rglob("*.py")))]
    found = uncalled(library, callers)
    assert set(found) - TEST_FACING == set(), found
    assert TEST_FACING <= set(found), TEST_FACING - set(found)
