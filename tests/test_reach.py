"""reached reads a package helper however the code reaches it: passed by
value, as module.helper, or as a method of a package record."""

import ast
import types
from typing import NamedTuple

from reach import reached


def _halve(x: int) -> int:
    return x // 2


def _third(x: int) -> int:
    return x // 3


class _Pair(NamedTuple):
    a: int
    b: int

    def quotient(self) -> int:
        return self.a // self.b


for _helper in (_halve, _third, _Pair, _Pair.quotient):
    _helper.__module__ = "euclidkit.helpers"
_helpers = types.ModuleType("euclidkit.helpers")
_helpers.third = _third


def _halves(xs):
    return list(map(_halve, xs))


def _thirds(xs):
    return [_helpers.third(x) for x in xs]


def _pair_quotient(a: int, b: int) -> int:
    return _Pair(a, b).quotient()


def _floor_divisions(root) -> tuple[set, list]:
    read, seen = reached(root)
    return read, [fn for fn, node, _ in seen if isinstance(getattr(node, "op", None), ast.FloorDiv)]


def test_a_helper_passed_by_value_is_read():
    assert _floor_divisions(_halves) == ({"_halves", "_halve"}, ["_halve"])


def test_a_helper_named_as_module_attribute_is_read():
    assert _floor_divisions(_thirds) == ({"_thirds", "_third"}, ["_third"])


def test_a_method_of_a_package_record_is_read():
    assert _floor_divisions(_pair_quotient) == (
        {"_pair_quotient", "_Pair.quotient"},
        ["_Pair.quotient"],
    )
