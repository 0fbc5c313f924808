import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kummer_brauer"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements; a check the program relies on
    # must raise explicitly so that -O changes nothing
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert sorted(SRC.glob("*.py")), SRC
    assert found == []


def test_no_module_imports_dataclasses():
    # importing dataclasses pulls in inspect, ast and dis, and each
    # decoration execs generated methods: together most of the package's
    # import time.  Records derive from arith.Record instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_importing_the_cli_loads_no_introspection_modules():
    # a fresh interpreter without site (-S), so that nothing but the
    # package's own imports can load these
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = ("import sys, kummer_brauer.cli; "
            "print(*sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.split() == []


def test_no_mutable_containers_in_module_state():
    # memos live on the objects they describe (a curve's a_p), never in
    # module state that every caller of the process shares; a module-level
    # functools.lru_cache or functools.cache wrapper is such state too, and
    # so is any name a function rebinds through a global statement
    found = []
    for path in sorted(SRC.glob("*.py")):
        name = "kummer_brauer" + ("" if path.stem == "__init__" else "." + path.stem)
        for key, value in vars(importlib.import_module(name)).items():
            if key.startswith("__"):
                continue
            # lru_cache and cache wrappers are told apart by their cache_info
            if isinstance(value, (dict, list, set, bytearray)) or hasattr(value, "cache_info"):
                found.append(f"{name}.{key}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Global):
                found += [f"{name}.{key}" for key in node.names]
    assert found == []


# run in a fresh interpreter, so that "after import" is exactly that
KEEPS_NO_STATE = """
import json, sys
from pathlib import Path
import kummer_brauer.cli
from kummer_brauer.arith import primes_up_to
from kummer_brauer.report import analyze, parse_pair_spec
modules = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "kummer_brauer"}
after_import = {n: dict(vars(m)) for n, m in modules.items()}
primes = list(primes_up_to(10**6))
for path in sorted(Path(sys.argv[1]).glob("golden_*.json")):
    analyze(parse_pair_spec(json.loads(path.read_text(encoding="utf-8"))["input"]))
changed = [f"{n}.{k}" for n, m in modules.items()
           for k in after_import[n].keys() | vars(m).keys()
           if vars(m).get(k, m) is not after_import[n].get(k, after_import)]
print(len(primes), len(modules), *sorted(changed))
"""


def test_the_package_keeps_no_state_after_a_large_scan():
    # a scan of the primes to 10^6 and an analysis of every golden leave
    # each module namespace holding the very objects it held after import
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", KEEPS_NO_STATE, str(ROOT / "tests" / "golden")],
                         env=env, capture_output=True, text=True, timeout=60,
                         check=True).stdout
    assert out.split() == ["78498", str(len(list(SRC.glob("*.py"))))]


def test_no_json_dumps_in_the_package():
    # stable JSON is written in one place, report.stable_json, whose bytes
    # the golden reports pin; a json.dumps call would be a second writer
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "dumps"
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                found.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.module == "json" \
                    and any(alias.name == "dumps" for alias in node.names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _top_level_definitions(tree) -> set[str]:
    """The names a module body binds by def, class or assignment (not by
    import)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_package_imports_name_public_names_their_module_defines():
    # each name lives in one module and is imported from that one: no
    # private name crosses a module boundary, and no import is relayed
    # through a module that itself imported the name
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    found = []
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module):
                continue
            defined = _top_level_definitions(trees[node.module])
            found += [f"{stem}.py:{node.lineno} {node.module}.{alias.name}"
                      for alias in node.names
                      if alias.name.startswith("_") or alias.name not in defined]
    assert len(trees) > 5
    assert found == []


def _names_used(node, skip):
    """The names that node reads, imports or reads as attributes, outside
    the subtree skip."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name
    for child in ast.iter_child_nodes(node):
        yield from _names_used(child, skip)


def test_every_top_level_function_and_class_is_used_in_the_package():
    # code that only tests call belongs in the tests; a reference from the
    # same module, another module or an __init__ export counts, one from
    # inside the definition itself does not
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not any(node.name in _names_used(other, node) for other in trees.values()):
                    unused.append(f"{name}:{node.name}")
    assert len(trees) > 5
    assert unused == []


def test_every_record_field_is_read_in_the_package():
    # a field nothing reads is state to delete; a read is any attribute
    # access .name in the package outside the record's own __init__.  Names
    # are matched, not objects, so a field is only as unread as its name is
    # rare: .ell on any object counts as a read of every field named ell
    from kummer_brauer.arith import Record
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    unread, records = [], 0
    for stem, tree in trees.items():
        module = importlib.import_module(
            "kummer_brauer" + ("" if stem == "__init__" else "." + stem))
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef)
                    and issubclass(getattr(module, node.name), Record)):
                continue
            cls = getattr(module, node.name)
            records += 1
            init = next((f for f in node.body
                         if isinstance(f, ast.FunctionDef) and f.name == "__init__"), None)
            reads = {n.attr for t in trees.values() for n in _attributes_outside(t, init)}
            unread += [f"{stem}.{node.name}.{f}" for f in cls.__match_args__ if f not in reads]
    assert records > 10
    assert unread == []


def _attributes_outside(node, skip):
    """The attribute reads under node, outside the subtree skip."""
    if node is skip:
        return
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node
    for child in ast.iter_child_nodes(node):
        yield from _attributes_outside(child, skip)


def _perfbench_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves_in_the_package():
    # the benchmark's tracer wraps these names and reports a missing one as
    # absent; its own test of that runs outside the tier-1 suite
    tracer = _perfbench_tracer()
    missing = []
    for name, module, attr_path, _ in tracer.TARGETS:
        obj = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        for attr in attr_path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(name)
    assert len(tracer.TARGETS) > 20
    assert missing == []


def test_every_tracer_hook_reads_a_real_result():
    # a hook reads the arguments and the result of the call it follows, and
    # the tracer counts a hook that raises and goes on: a changed argument
    # or return shape would empty a per-layer metric without failing a run
    from kummer_brauer.curves import CurveLW
    from kummer_brauer.gl2 import GL2
    e37 = CurveLW(0, 0, 1, -1, 0)
    calls = {"oddpart.mod_ell_surjectivity": (e37, 5, 1000),
             "curves.count_points": (e37, 101),
             "arith.factor": (16 * 3 * 10007,),
             "gl2.enumerate_subgroups": (GL2(3),)}
    tracer = _perfbench_tracer()
    t = tracer.Tracer()
    hooked = []
    for name, module, attr, hook in tracer.TARGETS:
        if hook is not None:
            args = calls[name]
            hook(t, args, {}, getattr(importlib.import_module(f"{tracer.PACKAGE}.{module}"),
                                      attr)(*args), 0.5)
            hooked.append(name)
    assert sorted(hooked) == sorted(calls)
    assert dict(t.extra) == {"mod_ell_surjectivity.surjective": 1,
                             "count_points.band_calls.b1e3": 1,
                             "count_points.band_s.b1e3": 0.5,
                             "factor.max_digits": 6,
                             "enumerate_subgroups.subgroups": 54}


def test_the_surjectivity_sampler_formats_no_text():
    # its verdicts carry facts: (class, p, a_p), ("reducible", t) and the
    # 2-division cubic's root or discriminant; the report formats the one
    # line of them it prints
    tree = ast.parse((SRC / "oddpart.py").read_text(encoding="utf-8"))
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    found = []
    for name in ("surjectivity_verdicts", "_mod2_verdict"):
        for node in ast.walk(funcs[name]):
            if (isinstance(node, ast.JoinedStr)
                    or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "format"
                    or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                    and isinstance(node.left, ast.Constant) and isinstance(node.left.value, str)):
                found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_every_method_and_property_of_a_package_class_is_read():
    # a method or property that neither the package nor its tests reads is
    # code to delete; a read is an attribute access .name in src/ or tests/,
    # matched by name.  The language calls the dunder methods
    reads = {n.attr for path in [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py")]
             for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(n, ast.Attribute)}
    unread, methods = [], 0
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for f in cls.body:
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("__"):
                    methods += 1
                    if f.name not in reads:
                        unread.append(f"{path.stem}.{cls.name}.{f.name}")
    assert methods > 20
    assert unread == []


def test_only_curves_reads_private_attributes_of_other_objects():
    # a curve's invariants and memos are private to curves.py; every other
    # module reads them through public fields and functions, so the
    # mathematics behind them lives in one place
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "curves.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and not node.attr.startswith("__")
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def _loops(node, func=None):
    """(enclosing function, loop) for each for statement and comprehension
    under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _loops(child, child.name)
            continue
        if isinstance(child, (ast.For, ast.ListComp, ast.SetComp, ast.DictComp,
                              ast.GeneratorExp)):
            yield func, child
        yield from _loops(child, func)


def _calls(node, name):
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name
               for n in ast.walk(node))


def test_trace_scans_take_their_primes_from_good_primes():
    # which primes a trace scan reads is decided in one place,
    # curves.good_primes: a loop that reads a_p iterates it and drops no
    # prime itself (no continue, no comprehension filter, no goodness test).
    # nonisogeny_certificate is the one exception: its reduction-type
    # witness lies at primes where exactly one curve is good
    scans, exceptions, found = set(), [], []
    for path in sorted(SRC.glob("*.py")):
        for func, loop in _loops(ast.parse(path.read_text(encoding="utf-8"))):
            if not _calls(loop, "ap"):
                continue
            where = f"{path.name}:{func}"
            if func == "nonisogeny_certificate":
                exceptions.append(where)
                continue
            scans.add(where)
            if isinstance(loop, ast.For):
                iters = [loop.iter]
                filters = [n for n in ast.walk(loop) if isinstance(n, ast.Continue)]
            else:
                iters = [g.iter for g in loop.generators]
                filters = [f for g in loop.generators for f in g.ifs]
            if not all(isinstance(i, ast.Call) and isinstance(i.func, ast.Name)
                       and i.func.id == "good_primes" for i in iters):
                found.append(f"{where}:{loop.lineno}: primes not from good_primes")
            if filters or _calls(loop, "is_good_prime"):
                found.append(f"{where}:{loop.lineno}: drops primes itself")
    assert exceptions == ["homrank.py:nonisogeny_certificate"]
    # mod_ell_surjectivity and congruence_evidence read the one-pass scans
    # over every ell, surjectivity_verdicts and first_incongruent_primes
    assert scans >= {"curves.py:frobenius_table", "curves.py:supersingular_fraction",
                     "oddpart.py:surjectivity_verdicts", "oddpart.py:no_rational_ell_isogeny",
                     "oddpart.py:first_incongruent_primes"}
    assert found == []


def _name_reads(node, func=None):
    """(enclosing function, name) for each name or attribute that node
    reads; imports are not reads."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _name_reads(child, child.name)
            continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            yield func, child.id
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            yield func, child.attr
        yield from _name_reads(child, func)


def test_the_point_counting_switch_and_the_exit_prime_have_one_reader_each():
    # HASSE_MAX_PRIME is where count_points changes method and
    # X0_EXIT_PRIME where the two exact exits run; neither stands in for
    # the other, and 229, the value both once shared, is written nowhere
    readers = {"HASSE_MAX_PRIME": set(), "X0_EXIT_PRIME": set()}
    literals = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for func, name in _name_reads(ast.parse(text)):
            if name in readers:
                readers[name].add(f"{path.stem}.{func}")
        literals += [f"{path.name}:{text.count(chr(10), 0, m.start()) + 1}"
                     for m in re.finditer(r"\b229\b", text)]
    assert readers == {
        "HASSE_MAX_PRIME": {"curves.count_points"},
        "X0_EXIT_PRIME": {"homrank.nonisogeny_certificate", "oddpart.surjectivity_verdicts"},
    }
    assert literals == []


def test_the_cm_list_has_one_reader():
    # CM membership is decided on ints in curves.is_cm_j, and every CM
    # test in the package goes through it
    readers = {"CM_J_INVARIANTS": set(), "is_cm_j": set()}
    for path in sorted(SRC.glob("*.py")):
        for func, name in _name_reads(ast.parse(path.read_text(encoding="utf-8"))):
            if name in readers:
                readers[name].add(f"{path.stem}.{func}")
    assert readers == {
        "CM_J_INVARIANTS": {"curves.is_cm_j"},
        "is_cm_j": {"curves.cm_status", "homrank.nonisogeny_certificate"},
    }


def _relative_imports(tree) -> dict[str, set[str]]:
    """module -> the names imported from it, for every relative import."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.setdefault(node.module, set()).update(alias.name for alias in node.names)
    return found


def test_each_module_imports_only_the_layers_below_it():
    # curve identity and the exhaustive recount live in curves, the isogeny
    # class in isogeny: oddpart reaches neither through homrank, and from
    # gl2 it takes only the witness predicate, not the subgroup oracle
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    imports = {stem: _relative_imports(tree) for stem, tree in trees.items()}
    assert {stem: set(found) for stem, found in imports.items()} == {
        "arith": set(),
        "curves": {"arith"},
        "gl2": {"arith"},
        "residues": {"arith"},
        "isogeny": {"arith", "curves"},
        "homrank": {"arith", "curves", "isogeny", "residues"},
        "oddpart": {"arith", "curves", "isogeny", "gl2"},
        "report": {"arith", "curves", "homrank", "oddpart", "residues"},
        "cli": {"arith", "curves", "gl2", "report", "residues"},
    }
    assert imports["oddpart"]["gl2"] == {"WitnessPredicate"}
    definers = {name: sorted(stem for stem, tree in trees.items()
                             if name in _top_level_definitions(tree))
                for name in ("same_curve", "isogeny_class", "verify_trace")}
    assert definers == {"same_curve": ["curves"], "isogeny_class": ["isogeny"],
                        "verify_trace": ["curves"]}
