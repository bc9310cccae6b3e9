"""Adversarial attribute values and the atoms that compare against them.

A data graph may mix attribute domains, so one attribute column can hold
ints, floats (``nan``, ``inf``, ``-0.0``), bools, ints past float64
precision, strings, ``None`` and sequences side by side.  Each entry of
:data:`ATOM_CASES` pins which of :data:`VALUES` satisfy one atom over that
column, by Python's own comparison rules: ``True == 1``, ``nan`` equals
nothing, ``2**53 + 1`` is not equal to the float it rounds to, and a
comparison between incompatible types fails instead of raising.
"""

from __future__ import annotations

import pytest

NAN = float("nan")
INF = float("inf")

VALUES = {
    "zero": 0,
    "one": 1,
    "neg": -3,
    "half": 2.5,
    "negzero": -0.0,
    "true": True,
    "false": False,
    "nan": NAN,
    "inf": INF,
    "big": 2**53 + 1,
    "huge": 10**40,
    "db": "DB",
    "empty": "",
    "none": None,
    "pair": (1, 2),
}

_NUMBERS = {
    "zero", "one", "neg", "half", "negzero", "true", "false", "nan", "inf",
    "big", "huge",
}

# (op, constant, names of the VALUES that satisfy ``x op constant``).
ATOM_CASES = [
    pytest.param("=", 1, {"one", "true"}, id="eq-1"),
    pytest.param("=", True, {"one", "true"}, id="eq-True"),
    pytest.param("=", 0, {"zero", "negzero", "false"}, id="eq-0"),
    pytest.param("=", 2.5, {"half"}, id="eq-2.5"),
    pytest.param("=", "DB", {"db"}, id="eq-DB"),
    pytest.param("=", None, {"none"}, id="eq-None"),
    pytest.param("=", (1, 2), {"pair"}, id="eq-pair"),
    pytest.param("=", NAN, set(), id="eq-nan"),
    pytest.param("=", 2**53 + 1, {"big"}, id="eq-2**53+1"),
    pytest.param("=", float(2**53 + 1), set(), id="eq-float(2**53+1)"),
    pytest.param("!=", 1, set(VALUES) - {"one", "true"}, id="ne-1"),
    pytest.param("!=", "DB", set(VALUES) - {"db"}, id="ne-DB"),
    pytest.param("!=", NAN, set(VALUES), id="ne-nan"),
    pytest.param(
        "<", 2, {"zero", "one", "neg", "negzero", "true", "false"}, id="lt-2"
    ),
    pytest.param(
        "<=", 2.5,
        {"zero", "one", "neg", "half", "negzero", "true", "false"},
        id="le-2.5",
    ),
    pytest.param(
        ">", 0, {"one", "half", "true", "inf", "big", "huge"}, id="gt-0"
    ),
    pytest.param(
        ">=", -1, _NUMBERS - {"neg", "nan"}, id="ge-minus-1"
    ),
    pytest.param("<", INF, _NUMBERS - {"nan", "inf"}, id="lt-inf"),
    pytest.param(">", NAN, set(), id="gt-nan"),
    pytest.param("<", "E", {"db", "empty"}, id="lt-E"),
]
