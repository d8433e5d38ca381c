"""Structural rules of the package that no single behaviour test shows."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import convfourier

MODULES = sorted(info.name for info in pkgutil.iter_modules(convfourier.__path__))
SOURCES = sorted(
    p for p in pathlib.Path(convfourier.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
# the modules that read numbers and build exponentials through `signals`
OUTSIDE_SIGNALS = [p for p in SOURCES if p.name != "signals.py"]


@pytest.mark.parametrize("name", MODULES)
def test_no_public_alias(name):
    # two exported names for one object split every caller, patch and trace
    # between them
    module = importlib.import_module(f"convfourier.{name}")
    exported = getattr(module, "__all__", ())
    objects = {}
    for export in exported:
        first = objects.setdefault(id(getattr(module, export)), export)
        assert first == export, f"{name}.{export} is {name}.{first}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_convolution_is_called_through_its_module(path):
    # a by-name import binds the function at import time, so a patch at the
    # definition would not reach this caller
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            assert module not in (".convolution", "convfourier.convolution"), (
                f"{path.name}:{node.lineno} imports names from {module}"
            )


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


# The batched kernels: each takes every exponent or base of a job in one call.
_KERNELS = ("_riemann_sum", "_power_sum", "exp_factor_analog", "exp_factor_discrete")


def _calls_kernel(node) -> bool:
    return isinstance(node, ast.Call) and (
        getattr(node.func, "attr", None) in _KERNELS or getattr(node.func, "id", None) in _KERNELS
    )


def _is_trial_loop(node) -> bool:
    """`for _ in range(<int literal>):` whose body never reads `_`: it repeats a
    random trial a fixed number of times, so it cannot index a grid."""
    literal_range = (
        isinstance(node, ast.For)
        and isinstance(node.target, ast.Name) and node.target.id == "_"
        and isinstance(node.iter, ast.Call) and getattr(node.iter.func, "id", None) == "range"
        and len(node.iter.args) == 1 and not node.iter.keywords
        and isinstance(node.iter.args[0], ast.Constant) and type(node.iter.args[0].value) is int
    )
    return literal_range and not any(
        isinstance(n, ast.Name) and n.id == "_" and isinstance(n.ctx, ast.Load)
        for statement in node.body + node.orelse for n in ast.walk(statement)
    )


def _kernel_calls_in_loops(tree) -> list:
    """Lines of kernel calls inside any loop or comprehension but a trial loop;
    a per-point loop nested in a trial loop is a loop of its own."""
    loops = [n for n in ast.walk(tree) if isinstance(n, _LOOPS) and not _is_trial_loop(n)]
    return sorted({c.lineno for loop in loops for c in ast.walk(loop) if _calls_kernel(c)})


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_riemann_sum_is_never_called_per_point(path):
    # no batched kernel, _riemann_sum or otherwise, runs in a loop: a loop
    # around one is a per-point Python loop over the output grid.  A harness
    # trial loop repeats a whole random trial and is exempt.
    calls = _kernel_calls_in_loops(ast.parse(path.read_text(encoding="utf-8")))
    assert not calls, f"{path.name} calls a factor kernel in a loop at lines {calls}"


@pytest.mark.parametrize("source, per_point", [
    ("for w in ws:\n    conv.exp_factor_analog(f, 1j * w)", True),
    ("[conv.exp_factor_analog(f, 1j * w) for w in omegas]", True),
    ("for _ in range(n):\n    conv.exp_factor_analog(f, a)", True),
    ("for _ in range(10):\n    conv.exp_factor_discrete(f, bases[_])", True),
    ("for _ in range(10):\n    for w in ws:\n        conv.exp_factor_analog(f, 1j * w)", True),
    ("while more:\n    conv._power_sum(samples, ks, bases)", True),
    ("for i in range(10):\n    conv.exp_factor_analog(f, a)", True),
    ("for _ in range(10.0):\n    conv.exp_factor_analog(f, a)", True),
    ("for _ in range(0, 10):\n    conv.exp_factor_analog(f, a)", True),
    ("for _ in range(10):\n    conv.exp_factor_analog(f, rng.uniform())", False),
    ("for _ in range(10):\n    legs.append(conv._power_sum(s, k, a))", False),
    ("conv._riemann_sum(s, t, ts, a)", False),
])
def test_kernel_loop_guard_sees_each_form(source, per_point):
    assert bool(_kernel_calls_in_loops(ast.parse(source))) is per_point


def _subscripts_riemann_sum(node) -> bool:
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Call)
        and (getattr(node.value.func, "attr", None) or getattr(node.value.func, "id", None)) == "_riemann_sum"
    )


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "convolution.py"], ids=lambda p: p.name)
def test_single_eigenfactor_goes_through_exp_factor_analog(path):
    # a one-exponent _riemann_sum(...)[0] skips exp_factor_analog's checks of
    # the parameter and of the factor; batched calls that keep the whole
    # array stay allowed
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if _subscripts_riemann_sum(node)]
    assert not lines, f"{path.name} subscripts a _riemann_sum result at lines {lines}"


@pytest.mark.parametrize("source, subscripts", [
    ("conv._riemann_sum(s, t, ts, a)[0]", True), ("_riemann_sum(s, t, ts, a)[i]", True),
    ("conv._riemann_sum(s, t, ts, a)[:1]", True), ("conv._riemann_sum(s, t, ts, a)", False),
    ("x = conv._riemann_sum(s, t, ts, a); x[0]", False), ("conv._power_sum(s, k, a)[0]", False),
])
def test_riemann_sum_guard_sees_each_form(source, subscripts):
    assert any(_subscripts_riemann_sum(node) for node in ast.walk(ast.parse(source))) is subscripts


# every (module, name) that the package __init__ imports from one of its modules
_REEXPORTS = [
    (node.module, alias.name)
    for node in ast.parse(pathlib.Path(convfourier.__file__).read_text(encoding="utf-8")).body
    if isinstance(node, ast.ImportFrom) and node.level == 1
    for alias in node.names
]


def test_readme_names_a_caller_for_every_export():
    # README's quick tour has one row per group of exports, with the library
    # code that calls them or the reason they are public without a caller
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("| module | exports | called by |"):].split("\n\n")[0]
    listed = [name for row in table.splitlines()[2:] for name in re.findall(r"`(\w+)`", row.split("|")[2])]
    assert sorted(listed) == sorted(name for _, name in _REEXPORTS)


@pytest.mark.parametrize("module, name", _REEXPORTS, ids=[f"{m}.{n}" for m, n in _REEXPORTS])
def test_package_reexports_only_public_names(module, name):
    # a name deleted from a module's __all__ must not live on as a stale
    # re-export of the package
    exported = importlib.import_module(f"convfourier.{module}").__all__
    assert name in exported, f"convfourier re-exports {module}.{name}, which is not in its __all__"


# Calls that reach BLAS.  After one complex BLAS call (an 8x8 complex `@`, or
# einsum with optimize=...) every later complex np.exp in the process runs
# 12-19x slower with NumPy 2.4's OpenBLAS (2000 entries: about 60 us before,
# 930 us after); float `@`, np.convolve and a plain einsum leave it alone.
_BLAS_CALLS = ("matmul", "dot", "vdot", "inner", "tensordot")


def _reaches_blas(node) -> bool:
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return True
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
    if name in _BLAS_CALLS:
        return True
    return name == "einsum" and any(k.arg == "optimize" for k in node.keywords)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_call_reaches_blas(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if _reaches_blas(node)]
    assert not lines, f"{path.name} calls BLAS (`@`, dot, einsum optimize=...) at lines {lines}"


@pytest.mark.parametrize("source, reaches", [
    ("a @ b", True), ("a @= b", True), ("np.matmul(a, b)", True), ("a.dot(b)", True),
    ("np.vdot(a, b)", True), ("inner(a, b)", True), ("np.tensordot(a, b)", True),
    ("np.einsum('ij,jk', a, b, optimize=True)", True),
    ("np.einsum('ij,jk', a, b)", False), ("np.convolve(a, b)", False), ("a * b", False),
])
def test_blas_guard_sees_each_form(source, reaches):
    assert any(_reaches_blas(node) for node in ast.walk(ast.parse(source))) is reaches


# A lower bound is stated once, by the `signals` reader of the value
# (`_index(value, name, minimum)`, `_finite_number(..., positive=True)`).  The
# CLI reads every numeric flag through one when it parses it, so its one
# `must be >= ` raise is the check that compares two flags, which no reader of
# a single value can state.
_CROSS_FLAG_BOUNDS = {"cli.py": ["raise SignalFormatError('--omega-max must be >= --omega-min')"]}


def _states_a_bound(node) -> bool:
    return isinstance(node, ast.Raise) and any(
        isinstance(part, ast.Constant) and "must be >= " in str(part.value)
        for part in ast.walk(node)
    )


@pytest.mark.parametrize("path", OUTSIDE_SIGNALS, ids=lambda p: p.name)
def test_no_hand_written_lower_bound(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    raises = [node for node in ast.walk(tree) if _states_a_bound(node)]
    assert [ast.unparse(node) for node in raises] == _CROSS_FLAG_BOUNDS.get(path.name, []), (
        f"{path.name} raises 'must be >= ' at lines {[node.lineno for node in raises]}: "
        "use _index(..., minimum=)"
    )


@pytest.mark.parametrize("source, states", [
    ('raise ValueError(f"n must be >= 1, got {n}")', True),
    ('raise ValueError("count must be >= 0")', True),
    ('raise ValueError(f"{name} must be >= {minimum}, got {value}")', True),
    ('raise ValueError("replicas must be " ">= 1")', True),
    ('raise ValueError(f"n must be an integer, got {n!r}")', False),
    ('message = "n must be >= 1"', False),
    ("raise", False),
])
def test_bound_guard_sees_each_form(source, states):
    assert any(_states_a_bound(node) for node in ast.walk(ast.parse(source))) is states


# A length on a grid is a whole number of steps and a lag or scale factor an
# integer, decided once by `signals._grid_steps` and `signals._integral`:
# outside signals.py no code tests `x.is_integer()` or `isclose(steps * step,
# length)`.


def _tests_integrality(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "is_integer"


def _tests_grid_product(node) -> bool:
    if not (isinstance(node, ast.Call) and node.args):
        return False
    name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
    first = node.args[0]
    return name == "isclose" and isinstance(first, ast.BinOp) and isinstance(first.op, ast.Mult)


@pytest.mark.parametrize("path", OUTSIDE_SIGNALS, ids=lambda p: p.name)
def test_no_hand_written_grid_check(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [n.lineno for n in ast.walk(tree) if _tests_integrality(n) or _tests_grid_product(n)]
    assert not lines, f"{path.name} checks a grid or an integer at lines {lines}: use _grid_steps or _integral"


@pytest.mark.parametrize("source, tests", [
    ("a.is_integer()", True), ("float(a).is_integer()", True), ("check = a.is_integer", True),
    ("is_integer(a)", False), ("_integral(a, 'lag')", False), ("a.is_integral()", False),
])
def test_integrality_guard_sees_each_form(source, tests):
    assert any(_tests_integrality(node) for node in ast.walk(ast.parse(source))) is tests


@pytest.mark.parametrize("source, tests", [
    ("np.isclose(steps * ts, width, rtol=1e-9, atol=0)", True),
    ("math.isclose(lag * ts, t0, rel_tol=1e-12)", True), ("isclose(n * dw, omega_s)", True),
    ("np.isclose(self.omegas[i], omega)", False), ("np.isclose(a, b * c)", False),
    ("np.allclose(steps * ts, width)", False), ("np.isclose(a + b, c)", False),
])
def test_grid_product_guard_sees_each_form(source, tests):
    assert any(_tests_grid_product(node) for node in ast.walk(ast.parse(source))) is tests


# A max-norm residual is one `fourier._compare`, and the legs of a check fold
# by `harness._worst_of`: outside the body of `_compare` no code takes the max
# of an absolute difference, so a fault in the comparison reaches every check.
def _abs_of_difference(node) -> bool:
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        node = node.elt
    if not (isinstance(node, ast.Call) and node.args):
        return False
    name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
    first = node.args[0]
    return name in ("abs", "absolute") and isinstance(first, ast.BinOp) and isinstance(first.op, ast.Sub)


def _takes_max_norm(node) -> bool:
    if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("max", "amax")):
        return False
    receiver = node.func.value
    if isinstance(receiver, ast.Name) and receiver.id in ("np", "numpy"):
        return bool(node.args) and _abs_of_difference(node.args[0])
    return _abs_of_difference(receiver)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_hand_written_max_norm(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exempt = set()
    if path.name == "fourier.py":
        compare = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_compare")
        exempt = {id(n) for n in ast.walk(compare)}
    lines = [n.lineno for n in ast.walk(tree) if _takes_max_norm(n) and id(n) not in exempt]
    assert not lines, f"{path.name} takes a max of an absolute difference at lines {lines}: use fourier._compare"


@pytest.mark.parametrize("source, takes", [
    ("np.abs(a - b).max()", True), ("float(np.abs(lhs - rhs).max())", True),
    ("np.abs(a - b)[mask].max()", True), ("abs(a - b).max(axis=0)", True),
    ("np.max(np.abs(a - b))", True), ("np.max(np.abs(a - b)[1:])", True),
    ("np.max([abs(q - 4.0) for q in ratios])", True), ("numpy.amax(numpy.absolute(a - b))", True),
    ("np.abs(a).max()", False), ("np.abs(a + b).max()", False), ("np.abs(a - b).min()", False),
    ("np.abs(np.abs(w_prime) - 0.5) > 0.2", False), ("np.argmin(np.abs(omegas - omega))", False),
    ("np.max([periodic, replicas, reversal])", False), ("np.max(residuals)", False),
])
def test_max_norm_guard_sees_each_form(source, takes):
    assert any(_takes_max_norm(node) for node in ast.walk(ast.parse(source))) is takes


# A number text with a '_' or a non-ASCII character is rejected by one
# predicate, `io._is_plain`, for file cells and CLI flags alike.
def test_plain_number_rule_is_stated_once():
    # each top-level definition that tests isascii
    sites = [
        (path.name, getattr(statement, "name", statement.lineno)) for path in SOURCES
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
        if any(isinstance(n, ast.Attribute) and n.attr == "isascii" for n in ast.walk(statement))
    ]
    assert sites == [("io.py", "_is_plain")]


# A runner takes (grid, rng, legs) and appends one (residual, scale) pair per
# leg per trial to legs; `harness._check` folds them, in the one `_worst_of`
# call of the harness, so every leg of every check reaches the verdict the
# same way.
HARNESS_TREE = ast.parse(pathlib.Path(convfourier.harness.__file__).read_text(encoding="utf-8"))


def test_harness_folds_legs_once():
    calls = [
        node.lineno for node in ast.walk(HARNESS_TREE)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == "_worst_of"
    ]
    assert len(calls) == 1, f"harness.py calls _worst_of at lines {calls}"


def _calls_outside(tree, callee: str, owner: str) -> list:
    """Lines of each call of `callee` (a name or an attribute) outside the
    top-level function `owner`."""
    owners = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == owner]
    inside = {id(n) for f in owners for n in ast.walk(f)}
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _attr_or_name(node.func) == callee and id(node) not in inside
    ]


# A check is judged at one place, the one return of `harness._check`, beside
# the legs it folds: no other function builds an IdentityCheck, so no verdict
# skips the pass rule or the non-finite rule.
def _verdicts_outside_check(tree) -> list:
    """Lines of each IdentityCheck call outside `_check`, and of each return
    of `_check` past its first."""
    returns = [
        n.lineno for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_check"
        for n in ast.walk(f) if isinstance(n, ast.Return)
    ]
    return returns[1:] + _calls_outside(tree, "IdentityCheck", "_check")


def test_harness_judges_a_check_at_one_return():
    lines = _verdicts_outside_check(HARNESS_TREE)
    assert not lines, f"harness.py judges a check outside _check's one return, at lines {lines}"


@pytest.mark.parametrize("source, faults", [
    ("def _check(spec):\n    return IdentityCheck(id=spec.id)", 0),
    ("def _finish(spec):\n    return IdentityCheck(id=spec.id)", 1),
    ("def _check(spec):\n    return _finish(spec)\ndef _finish(spec):\n    return IdentityCheck(id=spec.id)", 1),
    ("def _check(spec):\n    if spec:\n        return IdentityCheck(id=1)\n    return IdentityCheck(id=2)", 1),
    ("check = harness.IdentityCheck('a', 'b', 0.0, 1.0, 1e-9, True)", 1),
    ("def run_all(checks):\n    return [IdentityCheck(**c) for c in checks]", 1),
    ("class Report:\n    checks: IdentityCheck", 0), ("isinstance(c, IdentityCheck)", 0),
])
def test_verdict_guard_sees_each_form(source, faults):
    assert len(_verdicts_outside_check(ast.parse(source))) == faults


# `cli.main` runs every command under one np.errstate and maps the ValueError
# of a computation to exit 4, beside `_EXIT_CODES`: no command silences NumPy
# or maps an error of its own.
def test_cli_sets_errstate_only_in_main():
    tree = ast.parse((pathlib.Path(convfourier.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    lines = _calls_outside(tree, "errstate", "main")
    assert not lines, f"cli.py calls np.errstate outside main at lines {lines}"


@pytest.mark.parametrize("source, calls", [
    ("def main(argv):\n    with np.errstate(over='ignore'):\n        return run(argv)", 0),
    ("def main(argv):\n    def run():\n        with np.errstate(all='ignore'):\n            pass", 0),
    ("def _finite(what, compute):\n    with np.errstate(over='ignore', invalid='ignore'):\n"
     "        return compute()", 1),
    ("def _cmd_dft(args):\n    with errstate(over='ignore'):\n        return 0", 1),
    ("with numpy.errstate(all='ignore'):\n    pass", 1), ("silence = np.errstate(over='ignore')", 1),
    ("class Main:\n    def main(self):\n        np.errstate(over='ignore')", 1),
    ("def main(argv):\n    return 0\nnp.errstate(over='ignore')", 1), ("state = np.errstate", 0),
])
def test_errstate_guard_sees_each_form(source, calls):
    assert len(_calls_outside(ast.parse(source), "errstate", "main")) == calls


# The harness raises nothing of its own: a check fails by its residual
# against its tolerance, or by an error the library raised.  Only
# `GridParams` may reject a grid, and only it checks the alias window, which
# `fourier_coefficients` and `fs_eigencheck` also check for themselves.
def _own_errors(tree) -> list:
    """Lines of each raise and each _check_alias_window call outside GridParams."""
    grid = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "GridParams"]
    exempt = {id(n) for c in grid for n in ast.walk(c)}
    return [
        node.lineno for node in ast.walk(tree)
        if id(node) not in exempt
        and (isinstance(node, ast.Raise) or (
            isinstance(node, ast.Call)
            and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == "_check_alias_window"
        ))
    ]


def test_harness_raises_nothing_of_its_own():
    lines = _own_errors(HARNESS_TREE)
    assert not lines, f"harness.py raises or re-checks the alias window at lines {lines}"


@pytest.mark.parametrize("source, errors", [
    ("raise sig.AliasingError('window too small')", 1), ("raise ValueError", 1),
    ("try:\n    f()\nexcept ValueError:\n    raise", 1),
    ("four._check_alias_window(n_max, period)", 1), ("_check_alias_window(abs(n), period)", 1),
    ("def _helper(f):\n    if f:\n        raise ValueError(f)", 1),
    ("class Other:\n    def check(self):\n        four._check_alias_window(1, 4)", 1),
    ("class GridParams:\n    def __post_init__(self):\n        four._check_alias_window(self.n_max, self.n)", 0),
    ("class GridParams:\n    def __post_init__(self):\n        raise ValueError('n')", 0),
    ("four.fourier_coefficients(f, n_max)", 0), ("spec.coefficient(n)", 0),
    ("window = four._check_alias_window", 0),
])
def test_own_error_guard_sees_each_form(source, errors):
    assert len(_own_errors(ast.parse(source))) == errors


def test_runners_define_no_nested_function():
    runners = [n for n in HARNESS_TREE.body if isinstance(n, ast.FunctionDef) and n.name.startswith("_run_")]
    nested = [
        f"{runner.name}.{node.name}" for runner in runners for node in ast.walk(runner)
        if node is not runner and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    assert runners and not nested, nested


def test_registry_runners_take_grid_rng_legs():
    for spec in convfourier.harness.REGISTRY:
        assert list(inspect.signature(spec.runner).parameters) == ["grid", "rng", "legs"], spec.id


# Each identity is stated once: its id, tolerance and justification sit in the
# one `_spec(...)` decorator of its runner, and no other statement names the
# runner, so a second table of checks cannot drift from the runners.
def _is_runner(name) -> bool:
    return isinstance(name, str) and name.startswith("_run_")


def _undeclared_runners(tree) -> list:
    """A `_run_` function without exactly one decorator, a `_spec(...)` call,
    and each other place that names a `_run_` function."""
    faults = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_runner(node.name):
            decorators = node.decorator_list
            declared = len(decorators) == 1 and isinstance(decorators[0], ast.Call) and (
                getattr(decorators[0].func, "id", None) == "_spec"
            )
            if not declared:
                faults.append(f"{node.name} at line {node.lineno} is not declared by one _spec")
        elif _is_runner(getattr(node, "id", None) or getattr(node, "attr", None)):
            faults.append(f"line {node.lineno} names a runner")
    return faults


def test_each_runner_is_declared_once_by_spec():
    faults = _undeclared_runners(HARNESS_TREE)
    assert not faults, faults


def test_registry_is_in_runner_definition_order():
    defined = [
        node.name for node in HARNESS_TREE.body
        if isinstance(node, ast.FunctionDef) and _is_runner(node.name)
    ]
    assert [spec.runner.__name__ for spec in convfourier.harness.REGISTRY] == defined


@pytest.mark.parametrize("source, faults", [
    ("@_spec('a', 'b', 0.0, 'c')\ndef _run_a(grid, rng, legs):\n    pass", 0),
    ("def _run_a(grid, rng, legs):\n    pass", 1),
    ("@_spec\ndef _run_a(grid, rng, legs):\n    pass", 1),
    ("@_spec('a', 'b', 0.0, 'c')\n@_spec('d', 'b', 0.0, 'c')\ndef _run_a(grid, rng, legs):\n    pass", 1),
    ("@_spec('a', 'b', 0.0, 'c')\n@wrap\ndef _run_a(grid, rng, legs):\n    pass", 1),
    ("@check('a', 'b', 0.0, 'c')\ndef _run_a(grid, rng, legs):\n    pass", 1),
    ("REGISTRY = (CheckSpec('a', 'b', 0.0, 'c', _run_a),)", 1),
    ("RUNNERS = {'a': harness._run_a}", 1), ("_spec('a', 'b', 0.0, 'c')(_run_a)", 1),
    ("@_spec('a', 'b', 0.0, 'c')\ndef _run_a(grid, rng, legs):\n    return _run_b(grid, rng, legs)", 1),
    ("def _helper(ts):\n    return _spec", 0), ("runner = spec.runner", 0),
])
def test_runner_declaration_guard_sees_each_form(source, faults):
    assert len(_undeclared_runners(ast.parse(source))) == faults


def test_fourier_keeps_one_residual_helper():
    # Every other residual of the catalog is computed in its harness runner.
    # This one stays in fourier while perfbench/spans.py maps it to its
    # `fourier.eigencheck` span group, which a traced verify run needs above
    # 0; it moves to the harness with the benchmark rework in ROADMAP.md.
    fourier = convfourier.fourier
    helpers = {
        name for name in fourier.__all__
        if getattr(getattr(fourier, name), "__annotations__", {}).get("return") == "ResidualReport"
    }
    assert helpers == {"fs_eigencheck"}


# Every exponential signal is one of the three index functions of `signals`
# (`_analog_exp`, `_discrete_exp`, `_unit_roots`), reached through the module:
# outside signals.py no lambda calls an exp or a power, no module defines a
# family of its own, and none imports a family by name, which a patch of the
# family at its definition would not reach.
_FAMILIES = ("_analog_exp", "_discrete_exp", "_unit_roots")


def _builds_an_exponential(node) -> bool:
    if isinstance(node, ast.Lambda):
        return any(
            isinstance(call, ast.Call)
            and (getattr(call.func, "attr", None) or getattr(call.func, "id", None)) in ("exp", "power")
            for call in ast.walk(node.body)
        )
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.name in ("_dexp",) + _FAMILIES
    return isinstance(node, ast.ImportFrom) and any(alias.name in _FAMILIES for alias in node.names)


@pytest.mark.parametrize("path", OUTSIDE_SIGNALS, ids=lambda p: p.name)
def test_exponentials_come_from_the_signals_families(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [n.lineno for n in ast.walk(tree) if _builds_an_exponential(n)]
    assert not lines, f"{path.name} builds an exponential signal at lines {lines}: use a signals family"


@pytest.mark.parametrize("source, builds", [
    ("lambda k: np.exp(1j * w * k * ts)", True), ("lambda k: np.exp(-1j * (k * dw) * t0)", True),
    ("lambda ks: np.power(a, ks)", True), ("lambda k: 2 * np.exp(a * k)", True),
    ("def _dexp(a):\n    return a", True), ("def _unit_roots(n, period):\n    return n", True),
    ("from .signals import _unit_roots", True), ("from .signals import _index, _discrete_exp", True),
    ("lambda i: np.conj(xk(i))", False), ("sig._analog_exp(1j * w, ts)", False),
    ("np.exp(-1j * omegas * lag)", False), ("from . import signals as sig", False),
    ("lambda value: _index(value, 'n')", False), ("def _exp_param(a):\n    return a", False),
])
def test_exponential_guard_sees_each_form(source, builds):
    assert any(_builds_an_exponential(node) for node in ast.walk(ast.parse(source))) is builds


# 2 pi is stated once, as `signals._TWO_PI`, and every fundamental
# omega0 = 2 pi / T is read from the periodic signal that has the period
# (`PeriodicSampledSignal.omega0`) or from a spectrum that carries its own
# (`SeriesSpectrum.omega0`).
def _attr_or_name(node):
    return getattr(node, "attr", None) or getattr(node, "id", None)


def _states_two_pi(node) -> bool:
    return (
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
        and any(isinstance(side, ast.Constant) and side.value in (2, 2j) for side in (node.left, node.right))
        and any(_attr_or_name(side) == "pi" for side in (node.left, node.right))
    )


def _states_a_fundamental(node) -> bool:
    return (
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
        and _attr_or_name(node.left) == "_TWO_PI"
        and any(_attr_or_name(n) in ("period_t", "t", "period") for n in ast.walk(node.right))
    )


def _sites(predicate):
    """(module, top-level name) of each top-level statement holding a match."""
    return sorted(
        (path.name, getattr(statement, "name", None) or ast.unparse(statement.targets[0]))
        for path in SOURCES
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
        if any(predicate(n) for n in ast.walk(statement))
    )


def test_two_pi_and_omega0_are_stated_once():
    assert _sites(_states_two_pi) == [("signals.py", "_TWO_PI")]
    assert _sites(_states_a_fundamental) == [
        ("fourier.py", "SeriesSpectrum"), ("signals.py", "PeriodicSampledSignal"),
    ]


@pytest.mark.parametrize("source, two_pi, fundamental", [
    ("2.0 * math.pi", True, False), ("2j * np.pi", True, False), ("np.pi * 2", True, False),
    ("math.pi / 8", False, False), ("1j * sig._TWO_PI * k", False, False),
    ("_TWO_PI / f.period_t", False, True), ("sig._TWO_PI / self.t", False, True),
    ("sig._TWO_PI / (n * period)", False, True), ("sig._TWO_PI / ts", False, False),
    ("dw / sig._TWO_PI", False, False),
])
def test_two_pi_guard_sees_each_form(source, two_pi, fundamental):
    nodes = list(ast.walk(ast.parse(source)))
    assert any(map(_states_two_pi, nodes)) is two_pi
    assert any(map(_states_a_fundamental, nodes)) is fundamental


# An index becomes a float in one place, `signals._float_indices`, which
# bounds it at 2^53: sample times, synthesis times and the indices of the
# discrete power sum come from it.  Outside it no code makes an `arange`
# float, scales one by a sample spacing `ts`, or casts an array to float.
_FLOAT_TYPES = ("float", "float64", "double")


def _names_a_float_type(node) -> bool:
    return _attr_or_name(node) in _FLOAT_TYPES


def _makes_an_index_float(node) -> bool:
    if isinstance(node, ast.Call):
        name = _attr_or_name(node.func)
        if name == "astype":
            return any(map(_names_a_float_type, node.args + [k.value for k in node.keywords]))
        return name == "arange" and any(
            k.arg == "dtype" and _names_a_float_type(k.value) for k in node.keywords
        )
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    sides = (node.left, node.right)
    return any(
        any(isinstance(n, ast.Call) and _attr_or_name(n.func) == "arange" for n in ast.walk(side))
        and any(_attr_or_name(n) == "ts" for n in ast.walk(other))
        for side, other in (sides, sides[::-1])
    )


def test_an_index_becomes_a_float_in_one_place():
    assert _sites(_makes_an_index_float) == [("signals.py", "_float_indices")]


@pytest.mark.parametrize("source, makes", [
    ("start + np.arange(count, dtype=np.float64)", True), ("np.arange(n, dtype=float)", True),
    ("np.arange(self.samples.size) * self.ts", True), ("np.arange(-k_max, k_max + 1) * ts", True),
    ("ts * (start + np.arange(n))", True), ("np.arange(n) * (2 * f.ts)", True),
    ("-indices.astype(np.float64)", True), ("k.astype(float)", True), ("k.astype(dtype=np.double)", True),
    ("np.arange(n)", False), ("np.arange(n, dtype=np.int64)", False), ("np.arange(-4, 5) * dw", False),
    ("sig._float_indices(start, n) * ts", False), ("t_index * f.ts", False),
    ("times.astype(np.complex128)", False), ("np.exp(-1j * omegas * ts)", False),
])
def test_float_index_guard_sees_each_form(source, makes):
    assert any(map(_makes_an_index_float, ast.walk(ast.parse(source)))) is makes


# The operands' kind picks the convolution in one place,
# `convolution._convolve`, which `cli conv`, `fourier._eigenrelation` and
# `mixed_convolve` call: cli.py and fourier.py name none of the four
# variants, and no module outside convolution.py holds a table of them.
_VARIANTS = (
    "discrete_convolve", "approx_analog_convolve",
    "periodic_convolve_discrete", "periodic_convolve_analog",
)


def _names_a_variant(node) -> bool:
    if isinstance(node, ast.Constant):
        return node.value in _VARIANTS
    return isinstance(node, (ast.Name, ast.Attribute)) and _attr_or_name(node) in _VARIANTS


def _tables_variants(node) -> bool:
    return isinstance(node, ast.Dict) and any(
        _names_a_variant(n) for value in node.values for n in ast.walk(value)
    )


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name in ("cli.py", "fourier.py")],
                         ids=lambda p: p.name)
def test_convolution_is_picked_by_convolve(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = sorted({n.lineno for n in ast.walk(tree) if _names_a_variant(n)})
    assert not lines, f"{path.name} names a convolution variant at lines {lines}: call conv._convolve"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "convolution.py"], ids=lambda p: p.name)
def test_no_table_of_convolution_variants(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = sorted({n.lineno for n in ast.walk(tree) if _tables_variants(n)})
    assert not lines, f"{path.name} holds a table of convolution variants at lines {lines}"


@pytest.mark.parametrize("source, names, tables", [
    ("conv.discrete_convolve(f, g)", True, False), ("convolve = conv.periodic_convolve_analog", True, False),
    ("approx_analog_convolve(f, g)", True, False), ("getattr(conv, 'periodic_convolve_discrete')", True, False),
    ("{'discrete': conv.discrete_convolve}", True, True), ("{1: (conv.approx_analog_convolve,)}", True, True),
    ("conv._convolve(f, g)", False, False), ("conv.mixed_convolve(h, f)", False, False),
    ("{'discrete': conv._convolve}", False, False), ("'the discrete_convolve variant'", False, False),
])
def test_convolution_guards_see_each_form(source, names, tables):
    nodes = list(ast.walk(ast.parse(source)))
    assert any(map(_names_a_variant, nodes)) is names
    assert any(map(_tables_variants, nodes)) is tables


# A signal's or spectrum's kind is read in one place, `signals._of_kind`,
# as every number is read by a `signals` reader: no other code in the
# package raises a TypeError.
def _raises_type_error(node) -> bool:
    if not (isinstance(node, ast.Raise) and node.exc is not None):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return _attr_or_name(exc) == "TypeError"


def test_a_kind_is_read_in_one_place():
    assert _sites(_raises_type_error) == [("signals.py", "_of_kind")]


@pytest.mark.parametrize("source, raises", [
    ('raise TypeError(f"cannot shift {type(f).__name__}")', True), ("raise TypeError", True),
    ("raise TypeError(message) from None", True), ("raise builtins.TypeError('x')", True),
    ("def check(f):\n    if not isinstance(f, kind):\n        raise TypeError(f)", True),
    ("raise argparse.ArgumentTypeError(str(exc)) from None", False), ("raise ValueError('x')", False),
    ("try:\n    f()\nexcept TypeError:\n    raise", False), ("error = TypeError('x')", False),
    ("sig._of_kind('dft', PeriodicDiscreteSignal, f)", False),
])
def test_type_error_guard_sees_each_form(source, raises):
    assert any(map(_raises_type_error, ast.walk(ast.parse(source)))) is raises


# A discrete factor is the Riemann sum in Log a (`convolution._power_sum`), so
# NumPy's power appears in one place, the power-law exponential
# `signals._discrete_exp`, which eigen.discrete compares against that factor.
_POWERS = ("power", "float_power")


def _uses_numpy_power(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return any(alias.name in _POWERS for alias in node.names)
    return isinstance(node, (ast.Name, ast.Attribute)) and _attr_or_name(node) in _POWERS


def test_numpy_power_is_the_discrete_exponential_alone():
    assert _sites(_uses_numpy_power) == [("signals.py", "_discrete_exp")]


@pytest.mark.parametrize("source, uses", [
    ("np.power(a, k)", True), ("numpy.power(a[:, None], -indices)", True),
    ("power(a, k)", True), ("np.float_power(a, k)", True), ("pow_ = np.power", True),
    ("from numpy import power", True), ("from numpy import exp, float_power", True),
    ("np.exp(-a * k)", False), ("a ** k", False), ("_RIEMANN_BLOCK = 2**10", False),
    ("conv._power_sum(s, k, a)", False), ("np.log(a)", False),
])
def test_numpy_power_guard_sees_each_form(source, uses):
    assert any(map(_uses_numpy_power, ast.walk(ast.parse(source)))) is uses


# The harness draws its inputs from the standard library's `random`, so no
# module of the package reaches `numpy.random`: its first import is the
# larger part of a one-shot `verify`'s memory, and its streams change with
# the NumPy version.
def _names_numpy_random(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[:2] == ["numpy", "random"] for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").split(".")
        return module[:2] == ["numpy", "random"] or (
            module == ["numpy"] and any(alias.name == "random" for alias in node.names)
        )
    return (
        isinstance(node, ast.Attribute) and node.attr == "random"
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    )


@pytest.mark.parametrize("path", SOURCES + [pathlib.Path(convfourier.__file__)], ids=lambda p: p.name)
def test_no_numpy_random(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if _names_numpy_random(node)]
    assert not lines, f"{path.name} names numpy.random at lines {lines}"


@pytest.mark.parametrize("source, names", [
    ("np.random.default_rng(seed)", True), ("np.random.x", True),
    ("numpy.random.SeedSequence(42).spawn(31)", True), ("import numpy.random", True),
    ("import numpy.random as npr", True), ("import numpy.random.mtrand", True),
    ("from numpy import random", True), ("from numpy import fft, random as nr", True),
    ("from numpy.random import default_rng", True),
    ("import random", False), ("random.Random('42:conv.commutativity')", False),
    ("rng.random()", False), ("np.fft.ifft(spectrum)", False), ("import numpy as np", False),
    ("from numpy import fft", False), ("import numpy.fft", False), ("self.random", False),
])
def test_numpy_random_guard_sees_each_form(source, names):
    assert any(map(_names_numpy_random, ast.walk(ast.parse(source)))) is names


# A linear convolution is one direct sum, `convolution._direct_sum`, which
# both linear variants call with or without their `valid` window: no module
# keeps a second direct-sum kernel beside it, so every check that convolves
# runs the sum `cli conv` runs.
_DIRECT_SUMS = ("convolve", "correlate")


def _names_a_direct_sum(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "numpy" and any(
            alias.name in _DIRECT_SUMS for alias in node.names
        )
    return (
        isinstance(node, ast.Attribute) and node.attr in _DIRECT_SUMS
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    )


def test_a_linear_convolution_is_one_direct_sum():
    assert _sites(_names_a_direct_sum) == [("convolution.py", "_direct_sum")]


@pytest.mark.parametrize("source, names", [
    ("np.convolve(a, b)", True), ("np.convolve(a, b, 'valid')", True), ("numpy.correlate(a, b)", True),
    ("kernel = np.convolve", True), ("from numpy import convolve", True),
    ("from numpy import correlate as c", True),
    ("conv._convolve(f, g, valid=True)", False), ("convolve(f, g)", False),
    ("conv.discrete_convolve(f, g)", False), ("np.fft.ifft(fa * fb)", False),
])
def test_direct_sum_guard_sees_each_form(source, names):
    assert any(map(_names_a_direct_sum, ast.walk(ast.parse(source)))) is names
