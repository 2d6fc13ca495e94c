"""No library function keeps state in its module: none declares `global`,
and none changes a module-level dict, list or set. State a call keeps
lives on the object it belongs to (a table's pass memo), not in a
module name that every caller shares."""

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
