"""The one reader of package source, for tests that claim how a result is
reached: a function does what everything it reaches does, and divides as divisions() says."""

import ast
import importlib
import inspect
import textwrap

_DIVIDING_OPS = (ast.Div, ast.FloorDiv, ast.Mod, ast.RShift)
_DIVIDING_NAMES = {  # divmod and operator's names for the operators, in-place and dunder forms too
    f"{pre}{op}{post}" for op in ("divmod", "mod", "floordiv", "truediv", "rshift")
    for pre, post in [("", ""), ("i", ""), ("__", "__"), ("__i", "__"), ("__r", "__")]
}


def _value(node, scope):
    """What a Name, or an attribute of a module or class on one, is in scope."""
    if isinstance(node, ast.Name):
        return scope.get(node.id)
    base = _value(node.value, scope) if isinstance(node, ast.Attribute) else None
    named = inspect.isclass(base) or inspect.ismodule(base)
    return getattr(base, node.attr, None) if named else None


def _imported(tree, package) -> dict:
    """What each from-import in tree binds, relative ones resolved in package."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = importlib.import_module("." * node.level + (node.module or ""), package)
            for alias in node.names:
                if not hasattr(base, alias.name):  # a submodule not imported yet
                    importlib.import_module(f"{base.__name__}.{alias.name}")
                bound[alias.asname or alias.name] = getattr(base, alias.name)
    return bound


def _members(value) -> list:
    """value, or for a class every function it defines: its methods, static
    and class methods, and property accessors."""
    if not inspect.isclass(value):
        return [value]
    return [
        fn
        for m in vars(value).values()
        for fn in ([m.fget, m.fset] if isinstance(m, property) else [getattr(m, "__func__", m)])
    ]


def defined_in(*modules) -> list:
    """Every function and method each module defines, property accessors included."""
    names = [module.__name__ for module in modules]
    found = [fn for module in modules for value in vars(module).values() for fn in _members(value)]
    return [fn for fn in found if inspect.isfunction(fn) and fn.__module__ in names]


def reached(*roots):
    """Read each root and every package function it reaches: each one a
    function read names (called or passed by value, alone, as module.attr or
    imported inside it) and each one defined on a package class it names. A
    module root is read, under its name, without its function bodies.
    Returns the qualified names read and every (qualified name, ast node,
    what the node is in the function's scope) in them."""
    read, seen, todo = {}, [], list(roots)
    while todo:
        fn = todo.pop()
        if fn in read:
            continue
        is_module = inspect.ismodule(fn)
        read[fn] = fn.__name__ if is_module else fn.__qualname__
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        for node in ast.walk(tree) if is_module else ():  # a module is what runs on import
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                node.body = []
        scope = vars(fn) if is_module else fn.__globals__
        scope = {**scope, **_imported(tree, scope.get("__package__"))}
        for node in ast.walk(tree):
            value = _value(node, scope)
            seen.append((read[fn], node, value))
            for member in _members(value):
                if inspect.isfunction(member) and str(member.__module__).startswith("euclidkit"):
                    todo.append(member)
    return set(read.values()), seen


def mentioned(*roots):
    """The functions reached from roots, and every name they mention."""
    read, seen = reached(*roots)
    return read, {getattr(node, "id", None) or getattr(node, "attr", None) for _, node, _ in seen}


def divisions(seen, helpers=()) -> list:
    """(function, line, what) for each division among reached's nodes: an
    operator /, //, % or >>, alone or augmented (what is its ast name), or a
    dividing name, bare, as an attribute or bound under another name: divmod,
    operator's mod, floordiv, truediv and rshift, their in-place forms and
    dunders, and the dividing helpers the caller names."""
    names, found = _DIVIDING_NAMES | set(helpers), []
    for fn, node, value in seen:
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        named = {name, getattr(value, "__name__", None)} & names
        if isinstance(getattr(node, "op", None), _DIVIDING_OPS):
            found.append((fn, node.lineno, type(node.op).__name__))
        elif named:
            found.append((fn, node.lineno, min(named)))
    return found
