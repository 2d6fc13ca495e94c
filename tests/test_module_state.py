"""The library keeps no state between calls. No function declares
`global` or changes a module-level dict, list or set, and no dataclass
holds one: none declares a dict, list or set field, and no
`__post_init__` stores one through `object.__setattr__`. What a run
shares between its tasks lives in the run (runner.run_scan), not in a
module name or an object that every caller shares."""

import ast
import importlib.util
from pathlib import Path

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_CONSTRUCTORS = {"dict", "list", "set", "defaultdict", "OrderedDict",
                 "Counter", "deque"}
_MUTATORS = {"append", "extend", "insert", "remove", "pop", "clear",
             "update", "setdefault", "popitem", "add", "discard", "sort",
             "reverse", "difference_update", "intersection_update",
             "symmetric_difference_update", "appendleft", "extendleft",
             "popleft", "__setitem__", "__delitem__"}


def _library_sources():
    package = Path(importlib.util.find_spec("scatterlab").origin).parent
    paths = sorted(package.glob("*.py"))
    assert "eikonal.py" in {path.name for path in paths}
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in paths]


def _is_dataclass(node):
    """Whether a class definition carries a @dataclass decorator, called
    or not, by name or as an attribute."""
    for dec in node.decorator_list:
        if isinstance(dec, ast.Call):
            dec = dec.func
        if getattr(dec, "id", getattr(dec, "attr", None)) == "dataclass":
            return True
    return False


def _is_container_type(node):
    """Whether an annotation names a dict, list or set, bare, subscripted
    (dict[str, int]) or from typing (typing.Dict)."""
    if isinstance(node, ast.Subscript):
        node = node.value
    name = getattr(node, "id", getattr(node, "attr", ""))
    return name.lower() in {c.lower() for c in _CONSTRUCTORS}


def _container_fields(tree):
    """(class name, field name) of each dataclass field that holds a dict,
    list or set: by its annotation, its default or its default_factory,
    or through object.__setattr__ in the class's __post_init__."""
    found = []
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
            continue
        for node in cls.body:
            if not (isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)):
                continue
            value = node.value
            factories = [kw.value for kw in getattr(value, "keywords", ())
                         if kw.arg == "default_factory"]
            if _is_container_type(node.annotation) \
                    or (value is not None and _is_container(value)) \
                    or any(getattr(f, "id", None) in _CONSTRUCTORS
                           or _is_container(getattr(f, "body", None))
                           for f in factories):
                found.append((cls.name, node.target.id))
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef)
                    and fn.name == "__post_init__"):
                continue
            for call in ast.walk(fn):
                if isinstance(call, ast.Call) \
                        and isinstance(call.func, ast.Attribute) \
                        and call.func.attr == "__setattr__" \
                        and len(call.args) == 3 \
                        and _is_container(call.args[2]):
                    name = call.args[1]
                    found.append((cls.name, name.value
                                  if isinstance(name, ast.Constant)
                                  else ast.unparse(name)))
    return found


def _globals(tree):
    """(function name, declared names) of each `global` statement inside a
    function, nested ones included."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [(node.name, tuple(sub.names)) for sub in ast.walk(node)
                      if isinstance(sub, ast.Global)]
    return found


def _is_container(node):
    """Whether an expression builds a dict, list or set: a display, a
    comprehension, a constructor call, or an operator or method applied to
    one of those."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.BinOp):
        return _is_container(node.left) or _is_container(node.right)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute):
            return func.attr in _CONSTRUCTORS or _is_container(func.value)
        return isinstance(func, ast.Name) and func.id in _CONSTRUCTORS
    return False


def _module_containers(tree):
    """Names the module body binds to a dict, list or set."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        if node.value is not None and _is_container(node.value):
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _root(node):
    """The name under a chain of subscripts, such as x in x[i][j]."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _locals(fn):
    """Names a function binds itself: its arguments and its stores, nested
    functions' included, less those it declares global."""
    args = fn.args
    names = {a.arg for a in (*args.posonlyargs, *args.args,
                             *args.kwonlyargs, args.vararg, args.kwarg)
             if a is not None}
    declared = set()
    for sub in ast.walk(fn):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.arg):
            names.add(sub.arg)
        elif isinstance(sub, ast.Global):
            declared.update(sub.names)
    return names - declared


def _mutations(tree):
    """(function name, module name) for each change a function makes to a
    module-level dict, list or set: a store or delete through a subscript,
    or a call of a mutating method, nested functions included."""
    shared = _module_containers(tree)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, _FUNCTIONS):
            continue
        free = shared - _locals(fn)
        name = getattr(fn, "name", "<lambda>")
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Subscript) \
                    and isinstance(sub.ctx, (ast.Store, ast.Del)):
                root = _root(sub.value)
            elif isinstance(sub, ast.Call) \
                    and isinstance(sub.func, ast.Attribute) \
                    and sub.func.attr in _MUTATORS:
                root = _root(sub.func.value)
            else:
                continue
            if root in free:
                found.append((name, root))
    return found


def test_globals_finds_a_declaration_in_a_nested_function():
    tree = ast.parse("x = 0\ndef f():\n    def g():\n        global x\n"
                     "        x = 1\n    return g\n")
    assert _globals(tree) == [("f", ("x",)), ("g", ("x",))]


def test_mutations_finds_each_change_to_a_module_container():
    tree = ast.parse("""
_memo = {}
_seen = set()
_rows = [1.0] + [2.0]
_keys = {"a"}.union({"b"})
_table = dict(a=1)
_fixed = (1, 2)

def store(x):
    _memo[x] = 1

def drop(x):
    del _table[x]

def bump(x):
    _memo[x][0] += 1

def note(x):
    _seen.add(x)

def grow():
    def inner():
        _rows.append(3.0)
    return inner

def widen():
    _keys.update({"c"})

def reads(x):
    return _memo.get(x), _rows[0], _fixed[1], sorted(_seen)

def shadows(_memo):
    _memo[0] = 1

def own():
    _rows = []
    _rows.append(1)
    local = {}
    local["a"] = _table["a"]
    return local, _rows
""")
    assert _module_containers(tree) == {"_memo", "_seen", "_rows", "_keys",
                                        "_table"}
    assert _mutations(tree) == [
        ("store", "_memo"), ("drop", "_table"), ("bump", "_memo"),
        ("note", "_seen"), ("grow", "_rows"), ("widen", "_keys"),
        ("inner", "_rows")]


def test_no_library_function_declares_global():
    declared = [f"{stem}.{name}: global {', '.join(names)}"
                for stem, tree in _library_sources()
                for name, names in _globals(tree)]
    assert declared == []


def test_no_library_function_changes_a_module_container():
    changed = [f"{stem}.{name} changes {target}"
               for stem, tree in _library_sources()
               for name, target in _mutations(tree)]
    assert changed == []


def test_container_fields_finds_each_dataclass_container():
    tree = ast.parse("""
import dataclasses
from dataclasses import dataclass, field

@dataclass(frozen=True)
class Table:
    r: tuple
    _memo: dict = field(init=False, repr=False)
    _rows: list[float] = field(default_factory=list)
    _keys: tuple = field(default_factory=lambda: {"a": 1})
    _fixed: tuple = (1, 2)

    def __post_init__(self):
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_fixed", (3, 4))
        object.__setattr__(self, "_more", dict(a=1))

@dataclasses.dataclass
class Plain:
    x: float
    y: typing.Dict[str, int] = None

class NotData:
    z: dict = {}

    def __post_init__(self):
        object.__setattr__(self, "_memo", {})
""")
    assert _container_fields(tree) == [
        ("Table", "_memo"), ("Table", "_rows"), ("Table", "_keys"),
        ("Table", "_memo"), ("Table", "_more"), ("Plain", "y")]


def test_no_library_dataclass_holds_a_container():
    held = [f"{stem}.{cls}.{name}"
            for stem, tree in _library_sources()
            for cls, name in _container_fields(tree)]
    assert held == []
