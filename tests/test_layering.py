"""Layering rules the module docstrings assert, pinned from the source.

Read with :mod:`ast` — nothing under ``src/repro`` is imported to run
these — and every ``import`` statement counts wherever it stands:
module level, inside a function, or under ``TYPE_CHECKING``.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HARNESS = ROOT / "tests" / "scenarios" / "harness.py"


def modules_under(package: str):
    """``(dotted module name, parsed tree)`` for a package or one module
    of the product (``repro``) or of the benchmarks' kit (``benchmarks``)."""
    base = ROOT if package.partition(".")[0] == "benchmarks" else SRC
    root = base.joinpath(*package.split("."))
    paths = sorted(root.rglob("*.py")) if root.is_dir() else [root.with_suffix(".py")]
    for path in paths:
        parts = path.relative_to(base).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts), path, ast.parse(path.read_text(), filename=str(path))


def import_base(module: str, path: Path, node: ast.ImportFrom) -> str:
    """The absolute dotted name ``from <base> import ...`` reads from."""
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    parents = package.split(".")
    names = [node.module] if node.module else []
    if node.level:  # relative: level 1 is the containing package
        names = parents[: len(parents) - node.level + 1] + names
    return ".".join(names)


def imported_modules(module: str, path: Path, tree: ast.AST) -> set[str]:
    """Absolute dotted names of everything ``tree`` imports.

    ``from a import b`` yields both ``a`` and ``a.b``: ``b`` may be a
    submodule, and a name that is not one matches no package rule.
    """
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = import_base(module, path, node)
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def offenders(package: str, forbidden) -> list[str]:
    return sorted(
        f"{module} imports {name}"
        for module, path, tree in modules_under(package)
        for name in imported_modules(module, path, tree)
        if forbidden(name)
    )


def within(name: str, *packages: str) -> bool:
    return any(name == p or name.startswith(p + ".") for p in packages)


def test_core_imports_nothing_from_the_layers_above_it():
    above = tuple(
        f"repro.{layer}" for layer in ("sim", "serve", "metrics", "obs", "adapt", "fleet")
    )
    assert offenders("repro.core", lambda name: within(name, *above)) == []


def test_obs_imports_only_the_stdlib_and_itself():
    def foreign(name: str) -> bool:
        top = name.partition(".")[0]
        return not (within(name, "repro.obs") or top in sys.stdlib_module_names)

    assert offenders("repro.obs", foreign) == []


def test_sim_imports_nothing_from_serve():
    """The lifecycle core and the executors are driven by both planes,
    so they live in ``repro.sim`` and know nothing of the serving one."""
    assert offenders("repro.sim", lambda name: within(name, "repro.serve")) == []


def test_the_layers_both_planes_use_import_nothing_from_serve():
    for package in ("olap", "gpu", "text", "query", "relational"):
        assert (
            offenders(f"repro.{package}", lambda name: within(name, "repro.serve")) == []
        )


def test_core_has_no_observer_slots():
    """The stage stream replaced them: one ``subscribers`` table, no
    ``observer`` / ``*_observer`` attribute, parameter or keyword."""

    def is_slot(name) -> bool:
        return name is not None and (name == "observer" or name.endswith("_observer"))

    found = []
    for module, _, tree in modules_under("repro.core"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, (ast.keyword, ast.arg)):
                name = node.arg
            else:
                continue
            if is_slot(name):
                found.append(f"{module}:{node.lineno} {name}")
    assert found == []


def test_only_main_imports_the_command_line():
    """``repro.cli`` is the top of the stack: a library module that
    needs something of it is a sign the thing lives too high."""
    found = offenders("repro", lambda name: within(name, "repro.cli"))
    assert [o for o in found if not o.startswith("repro.__main__ ")] == []


def test_text_imports_nothing_from_core_or_sim():
    """Eq. 18 belongs to ``DictPerfModel`` read through
    ``SystemEstimator``; the translator only reports dictionary lengths."""
    assert offenders("repro.text", lambda name: within(name, "repro.core", "repro.sim")) == []


def parameters(package: str, names) -> list[str]:
    """``module:line name`` of every function parameter called one of ``names``."""
    return [
        f"{module}:{node.lineno} {node.arg}"
        for module, _, tree in modules_under(package)
        for node in ast.walk(tree)
        if isinstance(node, ast.arg) and node.arg in names
    ]


def test_no_function_takes_a_removed_option():
    """``WorkerPool(max_queue=)`` and ``TranslationService(cost_model=)``
    each had one value in use, and ``RollupCatalog(lattice=)`` none;
    none grows back under another owner.  ``HybridSystem.run(obs=)`` is
    ``spans=``, the attachment's one name on both planes."""
    assert parameters("repro", ("max_queue", "cost_model", "obs", "lattice")) == []


def test_no_validator_keeps_an_option_nobody_sets():
    """The translation queue's name and the comparison slacks are module
    constants of ``repro.sim.validate``, and the span family is
    reconciled with the books, not with another telemetry view."""
    removed = ("trans_queue", "tolerance", "drift_tolerance", "tol")
    assert parameters("repro.sim.validate", removed) == []
    ((_, _, tree),) = modules_under("repro.sim.validate")
    (check_spans,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_check_spans"
    ]
    taken = {arg.arg for arg in ast.walk(check_spans.args) if isinstance(arg, ast.arg)}
    assert "run" in taken and "collector" not in taken


def test_one_function_constructs_violations():
    """Every family reports through the one accumulator."""
    ((_, _, tree),) = modules_under("repro.sim.validate")
    builders = sorted(
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        and any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "Violation"
            for call in ast.walk(function)
        )
    )
    assert builders == ["bad"]


def test_callers_take_the_audit_not_a_family():
    """Which families a run owes is ``audit``'s decision: outside
    ``repro.sim.validate`` (and the ``repro.sim`` namespace re-exporting
    it) no module picks a ``validate_*`` / ``assert_*_valid`` by hand.
    The exception has another subject: a ``FleetReport``, whose one
    audit also covers the fleet's stitched spans."""
    allowed = {"validate_fleet", "assert_fleet_valid"}
    found = sorted(
        f"{module} imports {alias.name}"
        for module, _, tree in modules_under("repro")
        if module not in ("repro.sim", "repro.sim.validate")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("validate_")
        or (alias.name.startswith("assert_") and alias.name.endswith("valid"))
        if alias.name not in allowed
    )
    assert found == []


#: the one public surface of repro.sim.validate: one audit per subject,
#: their raising forms, and the one seeder with its table
VALIDATE_SURFACE = [
    "Violation",
    "ValidationResult",
    "audit",
    "assert_valid",
    "validate_fleet",
    "assert_fleet_valid",
    "seed_violation",
    "SEEDABLE_VIOLATIONS",
]


def module_all(tree: ast.AST) -> list[str]:
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    ]
    return [ast.literal_eval(element) for element in value.elts]


def test_the_validator_exports_one_audit_per_subject():
    """Families are rows of the module table, not public names."""
    ((_, _, tree),) = modules_under("repro.sim.validate")
    assert module_all(tree) == VALIDATE_SURFACE


def top_level_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement binds (functions and plain assignments)."""
    if isinstance(node, ast.FunctionDef):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    return []


def test_no_module_defines_a_per_family_validator():
    """A new family is a ``_check_*`` function and a row of the seed
    table; no module under ``repro`` grows a ``validate_*`` or an
    ``assert_*_valid`` beside the two subjects' audits."""
    kept = {"validate_fleet", "assert_valid", "assert_fleet_valid"}
    found = sorted(
        f"{module}:{node.lineno} {name}"
        for module, _, tree in modules_under("repro")
        for node in tree.body
        for name in top_level_names(node)
        if name.startswith("validate_") or (name.startswith("assert_") and name.endswith("_valid"))
        if name not in kept
    )
    assert found == []


def test_every_family_has_a_seeded_arm():
    """Each family a checker can report (an ``_Audit("<family>")``) is a
    key of the one seed table with at least one kind, so a test can
    prove it fails loudly; the table names no family nothing reports."""
    ((_, _, tree),) = modules_under("repro.sim.validate")
    reported = {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_Audit"
    }
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and top_level_names(node) == ["_SEEDS"]
    ]
    seeded = {
        key.value: len(arms.keys)
        for key, arms in zip(table.keys, table.values)
        if isinstance(arms, ast.Dict)
    }
    assert len(reported) == 10
    assert set(seeded) == reported
    assert all(seeded.values()), seeded


def test_the_simulated_run_takes_no_event_cap():
    """``HybridSystem.run`` drains its stream; the event cap stays on the
    bare event loop, whose own tests use it."""
    run = next(
        node
        for node in class_named("repro.sim.system", "HybridSystem").body
        if isinstance(node, ast.FunctionDef) and node.name == "run"
    )
    assert "max_events" not in {arg.arg for arg in ast.walk(run.args) if isinstance(arg, ast.arg)}


def class_named(package: str, name: str) -> ast.ClassDef:
    ((_, _, tree),) = modules_under(package)
    (found,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name]
    return found


def attribute_stores(tree: ast.AST, names=("metrics", "spans")):
    """``(function, receiver, attribute)`` of every ``x.metrics = ...``
    / ``x.spans = ...`` under ``tree``, with ``receiver`` the source of
    ``x`` and ``function`` the innermost enclosing function."""
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Attribute) and target.attr in names:
                    found.append((function, ast.unparse(target.value), target.attr))
    return found


def test_shared_components_keep_no_per_run_sinks():
    """The rollup router and the translator outlive a run: they return
    what they measured and hold no ``metrics`` / ``spans`` slot a run
    could park its sink in (or a second run could clear).  A worker
    pool keeps none either: its families are a view of the stream."""
    router = class_named("repro.olap.rollup", "RollupRouter")
    translator = class_named("repro.text.translator", "TranslationService")
    pool = class_named("repro.serve.pool", "WorkerPool")
    for cls in (router, translator, pool):
        assert attribute_stores(cls) == [], cls.name
    (init,) = [n for n in router.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
    assert "metrics" not in {arg.arg for arg in ast.walk(init.args) if isinstance(arg, ast.arg)}


def test_drivers_fill_no_slot_of_an_object_they_did_not_build():
    """A run publishes on its stage stream; the lifecycle and the serve
    engine assign ``metrics`` / ``spans`` only on themselves or on an
    object the same function constructed — the run's tracer included."""
    found = []
    for package in ("repro.sim.lifecycle", "repro.serve.engine"):
        ((module, _, tree),) = modules_under(package)
        for function, receiver, attr in attribute_stores(tree):
            built = {
                target.id
                for node in ast.walk(function)
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            if receiver == "self" or receiver in built:
                continue
            found.append(f"{module}:{function.name} {receiver}.{attr}")
    assert found == []


def test_the_adapt_plane_and_the_tracer_keep_no_sink():
    """The adapt plane and the span tracer publish on the stage stream
    or keep totals; neither stores a registry adapter or a collector."""
    found = [
        f"{module}:{function.name} {receiver}.{attr}"
        for package in ("repro.adapt", "repro.obs")
        for module, _, tree in modules_under(package)
        for function, receiver, attr in attribute_stores(
            tree, names=("metrics", "_metrics", "_collector")
        )
    ]
    assert found == []


def test_the_adapt_components_and_the_slo_monitor_set_no_hooks():
    """Refits, epochs and reconfigurations reach their views through
    the run's subscriber table, and SLO crossings reach the controller
    through the plane: no ``on_*`` callback attribute is ever set."""
    classes = (
        class_named("repro.adapt.recalibrate", "OnlineRecalibrator"),
        class_named("repro.adapt.controller", "AdaptiveCapacityController"),
        class_named("repro.metrics.slo", "SloMonitor"),
    )
    found = [
        f"{cls.name}: {ast.unparse(target)}"
        for cls in classes
        for node in ast.walk(cls)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute) and target.attr.startswith("on_")
    ]
    assert found == []


def test_the_adapt_plane_imports_no_metrics_adapter():
    assert offenders("repro.adapt", lambda name: within(name, "repro.metrics.instrument")) == []


def test_workers_wait_on_their_own_pool():
    """A worker pool waits and notifies only on its own condition: a task
    wakes one worker of the pool it went to, and the engine's condition
    (``EngineState.cond``) is left to the admission and drain loops,
    which a finishing query wakes."""
    pool = class_named("repro.serve.pool", "WorkerPool")
    found = [
        ast.unparse(node)
        for node in ast.walk(pool)
        if isinstance(node, ast.Attribute)
        and node.attr in ("wait", "notify", "notify_all")
        and ast.unparse(node.value) != "self._work"
    ]
    assert found == []


def test_worker_pools_import_nothing_from_metrics():
    assert offenders("repro.serve.pool", lambda name: within(name, "repro.metrics")) == []


def test_the_component_telemetry_adapters_stay_deleted():
    gone = (
        "RollupSpans",
        "TranslatorSpans",
        "TranslatorMetrics",
        "PoolInstruments",
        "PoolMetrics",
        "for_pool",
    )
    found = [
        f"{module} names {name}"
        for module, path, _ in modules_under("repro")
        for name in gone
        if name in path.read_text()
    ]
    assert found == []


def gather_copies(tree: ast.AST) -> list[int]:
    """Lines holding ``<expr>[lo:hi][mask]``: a slice indexed again by
    something that is not a slice — the whole-shard gather copy."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Subscript)
        and isinstance(node.value.slice, ast.Slice)
        and not isinstance(node.slice, ast.Slice)
    ]


def test_the_kernels_gather_no_shard_length_copy():
    """The tile loop compacts into call-owned scratch; the reference
    paths (``FactTable``, ``groupby_from_table``) index a whole column
    once and are not of this shape."""
    found = [
        f"{module}:{line}"
        for package in ("repro.gpu.kernels", "repro.groupby")
        for module, _, tree in modules_under(package)
        for line in gather_copies(tree)
    ]
    assert found == []
    assert gather_copies(ast.parse("v = table.column(m)[lo:hi][mask]")) == [1]
    assert gather_copies(ast.parse("v = scratch[: hi - lo].view(int)\nw = col[a:b]")) == []


def test_one_function_reads_a_conditions_parameters_for_both_kernels():
    """Step 2 is written once: whatever scans a predicate column on the
    device side gets its ``lo`` / ``hi`` / ``codes`` from the one
    prepared predicate (``relational/table.py`` is the reference and
    ``olap/chunks.py`` filters chunk coordinates; both out of scope)."""
    found = sorted(
        ".".join(filter(None, (module, getattr(owner, "name", None), function.name)))
        for package in ("repro.gpu", "repro.groupby")
        for module, _, tree in modules_under(package)
        for owner in ast.walk(tree)
        if isinstance(owner, (ast.Module, ast.ClassDef))
        for function in owner.body
        if isinstance(function, ast.FunctionDef)
        and any(
            isinstance(inner, ast.Attribute) and inner.attr in ("lo", "hi", "codes")
            for inner in ast.walk(function)
        )
    )
    assert found == ["repro.gpu.kernels.TilePredicate.__init__"]


#: the processes the product runs as: the command line and a fleet shard
ENTRY_POINTS = ("repro.__main__", "repro.cli", "repro.fleet.worker")
#: the bandwidth sweep waits for ``repro calibrate`` (ROADMAP.md item
#: 2(b)), which will reach it
UNREACHED = {"repro.olap.bandwidth"}


def product_trees() -> dict:
    """``module -> (path, tree)`` for every module under ``src/repro``."""
    return {module: (path, tree) for module, path, tree in modules_under("repro")}


def used_names(tree: ast.Module) -> set[str]:
    """Names a module's own code reads: every ``Name`` load outside its
    top-level imports and its ``__all__``."""
    return {
        node.id
        for stmt in tree.body
        if not isinstance(stmt, (ast.Import, ast.ImportFrom))
        and "__all__" not in top_level_names(stmt)
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def defining_module(base: str, name: str, trees) -> str:
    """The module ``from base import name`` runs for ``name``: the
    submodule ``base.name``, or the module a package ``__init__``
    re-exports ``name`` from (followed through further re-exports), or
    ``base`` itself, which defines it."""
    if f"{base}.{name}" in trees:
        return f"{base}.{name}"
    path, tree = trees.get(base, (None, None))
    if path is not None and path.name == "__init__.py":
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return defining_module(import_base(base, path, node), alias.name, trees)
    return base


def reached_from(module: str, trees) -> set[str]:
    """The modules ``module`` reaches: each imported name resolved to the
    module that defines it.  A package ``__init__``'s top-level imports
    are its re-exports, and count only for names the ``__init__``'s own
    code reads (``repro.core``'s ``SCHEDULERS`` table)."""
    path, tree = trees[module]
    kept = used_names(tree) if path.name == "__init__.py" else None
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = import_base(module, path, node)
            reexport = kept is not None and node in tree.body
            found.update(
                defining_module(base, alias.name, trees)
                for alias in node.names
                if not (reexport and (alias.asname or alias.name) not in kept)
            )
    return found


def reachable(roots, trees=None) -> set[str]:
    """Every ``repro`` module that running ``roots`` needs: what each
    reached module imports, resolved to where each name is defined, and
    each one's parent packages."""
    trees = product_trees() if trees is None else trees
    seen: set[str] = set()
    todo = list(roots)
    while todo:
        module = todo.pop()
        if module in seen or module not in trees:
            continue
        seen.add(module)
        todo.append(module.rpartition(".")[0])
        todo.extend(reached_from(module, trees))
    return seen


def test_every_module_is_reachable_from_an_entry_point():
    """``src/`` holds the product: a module no entry point imports is a
    test kit or dead code and lives elsewhere."""
    every = {module for module, _, _ in modules_under("repro")}
    assert every - reachable(ENTRY_POINTS) == UNREACHED


def test_the_reachability_walk_follows_imports_and_packages():
    """Guard against a vacuous pass: the walk must descend through
    imports into packages, climb to a leaf's parents, and stop at what
    nothing imports."""
    assert reachable(()) == set()
    assert reachable(("repro.olap.bandwidth",)) >= {"repro", "repro.olap", "repro.olap.bandwidth"}
    from_cli = reachable(("repro.cli",))
    assert {"repro.sim.system", "repro.core.scheduler", "repro.fleet.worker"} <= from_cli
    assert "repro.core.admission" in from_cli  # through the SCHEDULERS table
    assert not from_cli & UNREACHED


def test_a_re_export_does_not_make_a_module_reachable():
    """A synthetic mutant: a module nothing uses, re-exported from
    ``repro.olap``'s ``__init__``, stays unreached; once a reached module
    imports the name from the package, the walk resolves it through the
    re-export and reaches it."""
    trees = product_trees()
    olap_path, olap_tree = trees["repro.olap"]
    dead_path = olap_path.with_name("deadkit.py")
    trees["repro.olap"] = (
        olap_path,
        ast.parse(ast.unparse(olap_tree) + "\nfrom repro.olap.deadkit import build_dead_cube"),
    )
    trees["repro.olap.deadkit"] = (dead_path, ast.parse("def build_dead_cube():\n    pass"))
    every = set(trees)
    assert every - reachable(ENTRY_POINTS, trees) == UNREACHED | {"repro.olap.deadkit"}
    cli_path, cli_tree = trees["repro.cli"]
    trees["repro.cli"] = (
        cli_path,
        ast.parse(ast.unparse(cli_tree) + "\nfrom repro.olap import build_dead_cube"),
    )
    assert every - reachable(ENTRY_POINTS, trees) == UNREACHED


def test_the_product_imports_neither_networkx_nor_the_benchmarks():
    """``src/`` depends on numpy alone, and the benchmarks' kit sits
    above the product: nothing under ``repro`` imports it back."""
    assert offenders("repro", lambda name: within(name, "networkx", "benchmarks")) == []
    reach = ast.parse("from benchmarks.kit.buildalgs import project_coordinates")
    assert "benchmarks.kit.buildalgs" in imported_modules(
        "repro.olap.rollup", SRC / "repro" / "olap" / "rollup.py", reach
    )


def test_the_scenario_harness_runs_on_the_production_estimator():
    """The harness keeps no step-2 estimator of its own: no class of it
    defines ``estimate``, it evaluates no model's ``time`` /
    ``query_time`` (truth is a ``SystemEstimator`` on the truth bundle),
    and ``build_kit`` takes only the options its callers set."""
    tree = ast.parse(HARNESS.read_text(), filename=str(HARNESS))
    estimators = [
        cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "estimate" for f in cls.body)
    ]
    assert estimators == []
    model_calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("time", "query_time")
    ]
    assert model_calls == []
    (args,) = [
        n.args for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "build_kit"
    ]
    assert args.vararg is None and args.kwarg is None
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == [
        "arrivals",
        "adaptive",
        "time_constraint",
        "slo_window",
        "service_scale",
        "collector",
        "metrics",
    ]


def test_the_walker_sees_nested_and_relative_imports():
    """Guard against a vacuous pass: the helpers must resolve a relative
    import and find one inside a function body."""
    tree = ast.parse("def f():\n    from . import fileio\n    from ..sim import obs\n")
    path = SRC / "repro" / "obs" / "hooks.py"
    assert imported_modules("repro.obs.hooks", path, tree) == {
        "repro.obs",
        "repro.obs.fileio",
        "repro.sim",
        "repro.sim.obs",
    }
    assert {m for m, _, _ in modules_under("repro.core")} >= {
        "repro.core",
        "repro.core.scheduler",
        "repro.core.stages",
    }


def stray_threads(tree: ast.AST) -> list[str]:
    """``Thread`` / ``ThreadPoolExecutor`` constructions under ``tree``
    that are not handed straight to ``_TEAM.append``: a thread or a pool
    built for one call and thrown away after it."""
    kept = {
        id(arg)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_TEAM.append"
        for arg in node.args
    }
    return [
        ast.unparse(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).rpartition(".")[2] in ("Thread", "ThreadPoolExecutor")
        and id(node) not in kept
    ]


def test_the_reduction_team_outlives_every_call():
    """OpenMP keeps its team between parallel regions: ``repro.olap.parallel``
    builds no executor and no thread per reduction, only the persistent
    team's members."""
    ((_, _, tree),) = modules_under("repro.olap.parallel")
    assert stray_threads(tree) == []
    assert stray_threads(ast.parse("with ThreadPoolExecutor(2) as p:\n    pass")) == [
        "ThreadPoolExecutor"
    ]
    assert stray_threads(ast.parse("threading.Thread(target=f).start()")) == ["threading.Thread"]
    assert stray_threads(ast.parse("_TEAM.append(threading.Thread(target=f))")) == []


def test_the_catalog_takes_no_copy_per_hit():
    """Published cuboids are immutable, so the per-hit snapshot
    (``RollupCatalog.read_view``) stays deleted, and nothing calls one."""
    ((_, _, tree),) = modules_under("repro.olap.rollup")
    catalog = class_named("repro.olap.rollup", "RollupCatalog")
    assert "read_view" not in {n.name for n in catalog.body if isinstance(n, ast.FunctionDef)}
    assert "read_view" not in ast.unparse(tree)


def test_published_cuboids_are_never_folded_in_place():
    """A hit reads the cuboid ``covers`` returned with no lock, so
    ``olap/rollup.py`` folds rows only into a cube the same function
    built (``OLAPCube(...)``), never into one a reader may hold."""
    ((_, _, tree),) = modules_under("repro.olap.rollup")
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        built = {
            target.id
            for node in ast.walk(function)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and ast.unparse(node.value.func).startswith("OLAPCube")
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        found += [
            f"{function.name}:{node.lineno} {ast.unparse(node.func.value)}.ingest"
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "ingest"
            and not (isinstance(node.func.value, ast.Name) and node.func.value.id in built)
        ]
    assert found == []


def floor_knobs(tree: ast.AST) -> list[str]:
    """What would turn the reducer's hand-off floor into a knob: a
    ``ParallelAggregator.__init__`` parameter beyond ``num_threads``, or
    an environment read anywhere in ``tree``."""
    found = [
        f"__init__({arg.arg})"
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "ParallelAggregator"
        for init in cls.body
        if isinstance(init, ast.FunctionDef) and init.name == "__init__"
        for arg in ast.walk(init.args)
        if isinstance(arg, ast.arg) and arg.arg not in ("self", "num_threads")
    ]
    return found + [
        ast.unparse(node)
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (isinstance(node, ast.Name) and node.id in ("environ", "getenv"))
    ]


def test_the_hand_off_floor_is_not_a_knob():
    """``MIN_BLOCK_BYTES`` is a constant of ``repro.olap.parallel`` so an
    answer stays a pure function of ``(array, num_threads)``: the
    aggregator takes ``num_threads`` only, the module reads no
    environment, and no other module names the floor."""
    ((_, _, tree),) = modules_under("repro.olap.parallel")
    init = next(
        node
        for node in class_named("repro.olap.parallel", "ParallelAggregator").body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    )
    assert [arg.arg for arg in ast.walk(init.args) if isinstance(arg, ast.arg)] == [
        "self",
        "num_threads",
    ]
    assert floor_knobs(tree) == []
    named = [
        module
        for module, path, _ in modules_under("repro")
        if module != "repro.olap.parallel" and "MIN_BLOCK_BYTES" in path.read_text()
    ]
    assert named == []
    # the rule fires on a mutant that adds a parameter or reads the environment
    widened = "class ParallelAggregator:\n    def __init__(self, num_threads=1, {}):\n        pass"
    assert floor_knobs(ast.parse(widened.format("min_block_bytes=1"))) == [
        "__init__(min_block_bytes)"
    ]
    assert floor_knobs(ast.parse(widened.format("**options"))) == ["__init__(options)"]
    assert floor_knobs(ast.parse("import os\nMIN = int(os.environ.get('FLOOR', 1))")) == [
        "os.environ"
    ]
    assert floor_knobs(ast.parse("from os import getenv\nMIN = int(getenv('FLOOR'))")) == [
        "getenv"
    ]


#: the stages one ``on_outcome`` replaced
RETIRED_ENDS = ("on_rejected", "on_finished")


def second_ends(module: str, tree: ast.AST) -> list[str]:
    """What would write a query's end a second way in ``module``: an
    ``"abandoned"`` literal outside ``repro.core.stages`` (the outcome's
    one definition), a view defining a retired end stage, or a fleet
    root closed with a hand-written status string."""
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and node.value == "abandoned"
            and module != "repro.core.stages"
        ):
            found.append(f"{module}:{node.lineno} 'abandoned'")
        elif isinstance(node, ast.FunctionDef) and node.name in RETIRED_ENDS:
            found.append(f"{module}:{node.lineno} def {node.name}")
        elif (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Store)
            and node.id in RETIRED_ENDS
        ):
            found.append(f"{module}:{node.lineno} {node.id} =")
        elif (
            within(module, "repro.fleet")
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("close", "close_all")
            and any(
                k.arg == "status" and isinstance(k.value, ast.Constant) for k in node.keywords
            )
        ):
            found.append(f"{module}:{node.lineno} {node.func.attr}(status=<literal>)")
    return found


def test_a_query_ends_one_way():
    """A query ends in one ``Outcome``, published once on ``on_outcome``:
    no view keeps ``on_rejected`` / ``on_finished``, no module but the
    outcome's spells a status the outcome owns, the fleet closes its
    roots with ``Outcome`` values, the tracer has no default status to
    fall back on, and the hand-rolled abandonment paths stay deleted."""
    found = [
        offence
        for module, _, tree in modules_under("repro")
        for offence in second_ends(module, tree)
    ]
    assert found == []
    close_all = next(
        node
        for node in class_named("repro.obs.span", "SpanTracer").body
        if isinstance(node, ast.FunctionDef) and node.name == "close_all"
    )
    keywords = dict(zip((a.arg for a in close_all.args.kwonlyargs), close_all.args.kw_defaults))
    assert "status" in keywords and keywords["status"] is None
    for package, name, gone in (
        ("repro.sim.lifecycle", "QueryLifecycle", "abandon_spans"),
        ("repro.serve.engine", "Ticket", "_abandon"),
    ):
        body = class_named(package, name).body
        assert gone not in {n.name for n in body if isinstance(n, ast.FunctionDef)}
    # the rule fires on a mutant of each kind
    assert second_ends("repro.sim.lifecycle", ast.parse("status = 'abandoned'")) == [
        "repro.sim.lifecycle:1 'abandoned'"
    ]
    view = "class View:\n    def on_finished(self, *args):\n        pass"
    assert second_ends("repro.obs.hooks", ast.parse(view)) == ["repro.obs.hooks:2 def on_finished"]
    assert second_ends("repro.metrics.instrument", ast.parse("on_rejected = sync")) == [
        "repro.metrics.instrument:1 on_rejected ="
    ]
    close = "tracer.close(query_id, status={})"
    assert second_ends("repro.fleet.fleet", ast.parse(close.format("'ok'"))) == [
        "repro.fleet.fleet:1 close(status=<literal>)"
    ]
    assert second_ends("repro.fleet.fleet", ast.parse(close.format("Outcome.SERVED.value"))) == []
    assert second_ends("repro.core.stages", ast.parse("ABANDONED = 'abandoned'")) == []


#: the array-based aggregation's primitives: a call of one folds rows or
#: cells into dense cube cells, fresh (``bincount``) or in place (``.at``)
FOLD_PRIMITIVES = ("np.bincount", "np.add.at", "np.minimum.at", "np.maximum.at")
#: the folds written out on purpose beside ``repro.olap.cube``'s: the
#: grouped-answer oracle, and the device kernel's per-tile scatter (a
#: ``bincount`` per tile would allocate the whole group space per tile)
OWN_FOLDS = ("repro.groupby.groupby_from_table", "repro.groupby.run_groupby_kernel")


def stray_folds(module: str, tree: ast.AST) -> list[str]:
    """Calls of a fold primitive in ``module`` outside ``repro.olap.cube``
    and the named folds, each named by the top-level function or class
    that holds it."""
    if module == "repro.olap.cube":
        return []
    return [
        f"{scope}:{node.lineno} {ast.unparse(node.func)}"
        for top in tree.body
        for scope in [
            f"{module}.{top.name}" if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else module
        ]
        if scope not in OWN_FOLDS
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and ast.unparse(node.func) in FOLD_PRIMITIVES
    ]


def test_one_fold_builds_every_cube():
    """Builds, ingest, rollup cuboids, the device build and grouped cube
    answers all add rows through ``repro.olap.cube``: no other product
    module calls a fold primitive (a build's ``bincount`` or ingest's
    in-place scatter) but the two named folds, ingest keeps no private
    fold of its own, and the builders of ``benchmarks/kit`` call none
    either: they fold through the cube's ``fold`` / ``fold_rows``."""
    found = [
        site
        for module, _, tree in modules_under("repro")
        for site in stray_folds(module, tree)
    ]
    assert found == []
    ((_, path, _),) = modules_under("repro.olap.cube")
    assert "np.bincount(" in path.read_text()
    cube = class_named("repro.olap.cube", "OLAPCube")
    cube_methods = {n.name for n in cube.body if isinstance(n, ast.FunctionDef)}
    assert {"ingest", "with_rows"} <= cube_methods
    assert "_fold" not in cube_methods
    # the kit's builders beside FIG2 and ABL-BUILD fold through the same cube
    kit = {module: tree for module, _, tree in modules_under("benchmarks.kit")}
    assert [site for module, tree in kit.items() for site in stray_folds(module, tree)] == []
    folds_through_the_cube = {
        module
        for module, tree in kit.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "repro.olap.cube"
        and {alias.name for alias in node.names} & {"fold", "fold_rows"}
    }
    assert folds_through_the_cube == {
        "benchmarks.kit.buildalgs.arraybased",
        "benchmarks.kit.cubebuild",
    }
    # the rule fires on a mutant of each kind, and spares the named folds
    scatter = "def {}(flat, values, mins):\n    np.minimum.at(mins, flat, values)"
    assert stray_folds("repro.groupby", ast.parse(scatter.format("groupby_with_cube"))) == [
        "repro.groupby.groupby_with_cube:2 np.minimum.at"
    ]
    assert stray_folds("repro.groupby", ast.parse(scatter.format("groupby_from_table"))) == []
    build = "class RollupCatalog:\n    def materialise(self, flat, n):\n        return np.bincount(flat, minlength=n)"
    assert stray_folds("repro.olap.rollup", ast.parse(build)) == [
        "repro.olap.rollup.RollupCatalog:3 np.bincount"
    ]
    assert stray_folds("repro.olap.cube", ast.parse(build)) == []
    merge = (
        "class RollupCatalog:\n    def ingest(self, cells, flat, values):\n"
        "        np.add.at(cells, flat, values)"
    )
    assert stray_folds("repro.olap.rollup", ast.parse(merge)) == [
        "repro.olap.rollup.RollupCatalog:3 np.add.at"
    ]


def second_feature_pass(module: str, path: Path, tree: ast.AST) -> list[str]:
    """What would derive step 2's features a second way beside
    ``SystemEstimator.features``: an import of ``decompose``, or a call
    of ``decompose`` or ``subcube_size_mb`` (the reference the tests
    compare the feature pass against)."""
    imports = [
        f"imports {name}"
        for name in sorted(imported_modules(module, path, tree))
        if name.rpartition(".")[2] == "decompose"
    ]
    calls = [
        f"{node.lineno} calls {ast.unparse(node.func)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).rpartition(".")[2] in ("decompose", "subcube_size_mb")
    ]
    return imports + calls


def test_step_2_has_one_feature_pass():
    """``estimate`` reads ``features`` (``estimate_batch`` is ``estimate``
    per query): the estimator neither imports ``decompose`` nor calls
    ``subcube_size_mb``, which stay the reference and the kernels'
    input."""
    ((module, path, tree),) = modules_under("repro.sim.system")
    assert second_feature_pass(module, path, tree) == []
    # the rule fires on a mutant of each kind
    mutant = "from repro.query.model import Query, decompose"
    assert second_feature_pass(module, path, ast.parse(mutant)) == [
        "imports repro.query.model.decompose"
    ]
    mutant = "def estimate(self, query):\n    return cfg.pyramid.subcube_size_mb(query)"
    assert second_feature_pass(module, path, ast.parse(mutant)) == [
        "2 calls cfg.pyramid.subcube_size_mb"
    ]


def method_names(package: str, name: str) -> set[str]:
    return {n.name for n in class_named(package, name).body if isinstance(n, ast.FunctionDef)}


def method_named(package: str, cls: str, name: str) -> ast.FunctionDef:
    (found,) = [
        n
        for n in class_named(package, cls).body
        if isinstance(n, ast.FunctionDef) and n.name == name
    ]
    return found


def calls_of(node: ast.AST) -> set[str]:
    return {ast.unparse(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)}


def test_figure_10_is_written_once():
    """``BaseScheduler.schedule`` is the one place steps 1 and 3-6 run:
    ``schedule_batch`` is ``schedule`` per query, no fold with cached
    backlogs or per-candidate views comes back, and only ``schedule``
    reads a queue's ``ready_time``."""
    scheduler = "repro.core.scheduler"
    methods = method_names(scheduler, "BaseScheduler")
    assert {"schedule", "schedule_batch"} <= methods
    assert "_fold" not in methods
    batch_calls = calls_of(method_named(scheduler, "BaseScheduler", "schedule_batch"))
    assert "self.schedule" in batch_calls
    assert not {c for c in batch_calls if c.endswith(("estimate", "choose", "_submit"))}
    readers = {
        n.name
        for n in class_named(scheduler, "BaseScheduler").body
        if isinstance(n, ast.FunctionDef)
        and any(c.endswith(".ready_time") for c in calls_of(n))
    }
    assert readers == {"schedule"}
    stores = {
        node.attr
        for node in ast.walk(class_named(scheduler, "BaseScheduler"))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
    }
    assert not stores & {"_gpu_pairs", "_gpu_index"}


def batch_announcements(module: str, tree: ast.AST) -> list[str]:
    """What would announce a batch pass again: an ``on_batch`` name,
    method or attribute, the ``repro_scheduler_batch_size`` family, a
    ``"batch"`` trace event (emitted or listed in ``EVENT_KINDS``), or a
    ``batched`` parameter or keyword."""
    found = []
    for node in ast.walk(tree):
        where = f"{module}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.FunctionDef) and node.name == "on_batch":
            found.append(f"{where} def on_batch")
        elif isinstance(node, ast.Attribute) and node.attr == "on_batch":
            found.append(f"{where} .on_batch")
        elif isinstance(node, ast.Constant) and node.value in (
            "on_batch",
            "repro_scheduler_batch_size",
        ):
            found.append(f"{where} {node.value!r}")
        elif isinstance(node, ast.arg) and node.arg == "batched":
            found.append(f"{where} batched parameter")
        elif isinstance(node, ast.keyword) and node.arg == "batched":
            found.append(f"{where} batched=")
        elif (
            isinstance(node, ast.Call)
            and ast.unparse(node.func).endswith("emit")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "batch"
        ):
            found.append(f"{where} emit('batch')")
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "EVENT_KINDS" for t in node.targets)
            and "batch" in ast.literal_eval(node.value)
        ):
            found.append(f"{where} EVENT_KINDS 'batch'")
    return found


def test_no_stage_announces_a_batch():
    """Figure 10 decides one query at a time, so no stage, trace event,
    metric family or flag describes a batch pass."""
    found = [
        offence
        for module, _, tree in modules_under("repro")
        for offence in batch_announcements(module, tree)
    ]
    assert found == []
    # the rule fires on a mutant of each kind
    for mutant, offence in (
        ("class T:\n    def on_batch(self, n, now):\n        pass", "2 def on_batch"),
        ("for f in subs.on_batch:\n    f(n, now)", "1 .on_batch"),
        ("STAGES = ('on_arrival', 'on_batch')", "1 'on_batch'"),
        ("h = r.histogram('repro_scheduler_batch_size', '')", "1 'repro_scheduler_batch_size'"),
        ("def decide(pending, now, *, batched):\n    pass", "1 batched parameter"),
        ("core.decide(pending, now, batched=True)", "1 batched="),
        ("self.emit('batch', now, None, n=n)", "1 emit('batch')"),
        ("EVENT_KINDS = ('arrival', 'batch')", "1 EVENT_KINDS 'batch'"),
    ):
        assert batch_announcements("m", ast.parse(mutant)) == [f"m:{offence}"], mutant


def test_drill_through_stays_deleted():
    """``FactTable.drill_through`` had no caller but its tests."""
    assert "drill_through" not in method_names("repro.relational.table", "FactTable")


def test_class_counts_stays_deleted():
    """``QueryStream.class_counts`` had no product caller; a
    ``collections.Counter`` over the stream counts its classes."""
    assert "class_counts" not in method_names("repro.query.workload", "QueryStream")


def test_the_mid_run_span_gather_stays_deleted():
    """``Fleet.gather_spans`` had no caller but a test: the shard's
    ``spans`` op goes with it, and spans come back only on the
    ``shutdown`` response."""
    assert "gather_spans" not in method_names("repro.fleet.fleet", "Fleet")
    assert "_on_spans" not in method_names("repro.fleet.worker", "_ShardServer")
    requests = [
        f"{module}:{node.lineno}"
        for module, _, tree in modules_under("repro.fleet")
        for node in ast.walk(tree)
        if isinstance(node, ast.Dict)
        and any(
            isinstance(k, ast.Constant) and k.value == "kind"
            and isinstance(v, ast.Constant) and v.value == "spans"
            for k, v in zip(node.keys, node.values)
        )
    ]
    assert requests == []


#: calls that reach a cube without going through the pyramid's one answer
CUBE_REACHES = ("select_level", "answer_with_cube", "spec_for_query", "_aggregator.aggregate")


def cube_bypasses(node: ast.AST) -> list[str]:
    """Calls and ``.cube`` reads in ``node`` that reach a cube around
    ``CubePyramid.aggregate``."""
    calls = sorted(c for c in calls_of(node) if c.endswith(CUBE_REACHES))
    reads = sorted(
        ast.unparse(n)
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and n.attr == "cube"
    )
    return calls + reads


def test_the_cpu_answers_reach_cubes_through_the_one_pyramid_answer():
    """The served CPU branch and ``CubePyramid.answer`` both answer with
    ``CubePyramid.aggregate``, which decides the boxes a query reads: no
    level is selected and no cube reduced beside it."""
    execute = method_named("repro.sim.executors", "MaterialisedExecutor", "execute")
    assert "self._config.pyramid.aggregate" in calls_of(execute)
    assert cube_bypasses(execute) == []
    answer = method_named("repro.olap.pyramid", "CubePyramid", "answer")
    assert calls_of(answer) == {"self.aggregate"}
    # the rule fires on the executor's former branch
    former = (
        "def execute(self, target, query):\n"
        "    level = self._config.pyramid.select_level(query)\n"
        "    return self._aggregator.aggregate(level.cube, query).value\n"
    )
    assert cube_bypasses(ast.parse(former)) == [
        "self._aggregator.aggregate",
        "self._config.pyramid.select_level",
        "level.cube",
    ]
