"""reached reads a package helper however the code reaches it: passed by value, as
module.helper, as a method or property of a package record, or through a layer
imported inside a function; divisions flags a division in each form it takes."""

import builtins
import operator
import types
from typing import NamedTuple

from euclidkit import cli
from reach import defined_in, divisions, reached


def _halve(x: int) -> int:
    return x // 2


def _third(x: int) -> int:
    return x // 3


class _Pair(NamedTuple):
    a: int
    b: int

    def quotient(self) -> int:
        return self.a // self.b


class _Cell:
    def __init__(self, n: int) -> None:
        self.n = n

    @property
    def half(self) -> int:
        return self.n // 2

    @half.setter
    def half(self, value: int) -> None:
        self.n = value % 7


_half = _Cell.half
for _helper in (_halve, _third, _Pair, _Pair.quotient, _Cell.__init__, _half.fget, _half.fset):
    _helper.__module__ = "euclidkit.helpers"
_helpers = types.ModuleType("euclidkit.helpers")
_helpers.third = _third


def _halves(xs):
    return list(map(_halve, xs))


def _thirds(xs):
    return [_helpers.third(x) for x in xs]


def _pair_quotient(a: int, b: int) -> int:
    return _Pair(a, b).quotient()


def _cell_half(n: int) -> int:
    return _Cell(n).half


def test_a_helper_passed_by_value_is_read():
    read, seen = reached(_halves)
    assert (read, divisions(seen)) == ({"_halves", "_halve"}, [("_halve", 2, "FloorDiv")])


def test_a_helper_named_as_module_attribute_is_read():
    read, seen = reached(_thirds)
    assert (read, divisions(seen)) == ({"_thirds", "_third"}, [("_third", 2, "FloorDiv")])


def test_a_method_of_a_package_record_is_read():
    read, seen = reached(_pair_quotient)
    assert read == {"_pair_quotient", "_Pair.quotient"}
    assert divisions(seen) == [("_Pair.quotient", 2, "FloorDiv")]


def test_a_property_getter_and_setter_are_read():
    read, seen = reached(_cell_half)
    assert read == {"_cell_half", "_Cell.__init__", "_Cell.half"}
    assert sorted(divisions(seen)) == [("_Cell.half", 3, "FloorDiv"), ("_Cell.half", 3, "Mod")]


def test_a_layer_imported_inside_a_function_is_read():
    # _cmd_cf runs `from . import cf_dynamics` on entry, then calls through it
    assert reached(cli._cmd_cf)[0] == {
        "_cmd_cf",
        "Report.__init__",
        "cf_expand",
        "cf_value",
        "_validate_quotients",
        "_division_chain",
        "_positive",
        "_integer",
        "_items",
        "_shown",
    }


def test_every_command_handler_reaches_its_own_layer():
    # so that a claim rooted at a handler checks the layer it runs
    for command in cli.COMMANDS:
        handler = command.handler
        read, seen = reached(handler)
        layers = {
            value
            for fn, _, value in seen
            if fn == handler.__qualname__ and isinstance(value, types.ModuleType)
        }
        assert len(layers) == 1, command.name
        assert read & {fn.__qualname__ for fn in defined_in(*layers)}, command.name


def _divides_every_way(a: int, b: int) -> tuple:
    from operator import mod as remainder
    a /= b
    return a // b, a % b, a >> b, divmod(a, b), builtins.divmod(a, b), operator.floordiv(a, b), (
        operator.irshift(a, b), remainder(a, b), a.__truediv__(b), b.__rmod__(a), _halve(a)
    )


def test_the_division_predicate_flags_every_form():
    read, seen = reached(_divides_every_way)
    assert read == {"_divides_every_way", "_halve"}
    every_form = "Div FloorDiv Mod RShift divmod divmod floordiv irshift mod __truediv__ __rmod__"
    assert [what for _, _, what in divisions(seen)] == [*every_form.split(), "FloorDiv"]
