"""The one transitive reader of package code, for tests that claim how a
result is reached: a function does what everything it reaches does."""

import ast
import inspect
import textwrap


def _value(node, scope):
    """What a Name, or an attribute of a module or class on one, is in scope."""
    if isinstance(node, ast.Name):
        return scope.get(node.id)
    base = _value(node.value, scope) if isinstance(node, ast.Attribute) else None
    named = inspect.isclass(base) or inspect.ismodule(base)
    return getattr(base, node.attr, None) if named else None


def reached(*roots):
    """Read each root and every package function it reaches: each one a
    function read names (called or passed by value, alone or as module.attr)
    and each one defined on a package class it names. Returns the qualified
    names read and every (qualified name, ast node, what the node is in the
    function's globals) in them."""
    read, seen, todo = {}, [], list(roots)
    while todo:
        fn = todo.pop()
        if fn in read:
            continue
        read[fn] = fn.__qualname__
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
            value = _value(node, fn.__globals__)
            seen.append((fn.__qualname__, node, value))
            for member in vars(value).values() if inspect.isclass(value) else [value]:
                member = getattr(member, "__func__", member)  # static and class methods
                if inspect.isfunction(member) and str(member.__module__).startswith("euclidkit"):
                    todo.append(member)
    return set(read.values()), seen


def mentioned(*roots):
    """The functions reached from roots, and every name they mention."""
    read, seen = reached(*roots)
    return read, {getattr(node, "id", None) or getattr(node, "attr", None) for _, node, _ in seen}
