"""Tests for predicates and the predicate parser."""

import pytest

from repro.patterns.predicate import (
    Atom,
    Predicate,
    PredicateError,
    parse_predicate,
)
from tests.attr_values import ATOM_CASES, VALUES


class TestAtom:
    def test_equality_op(self):
        atom = Atom("job", "=", "DB")
        assert atom.satisfied_by({"job": "DB"})
        assert not atom.satisfied_by({"job": "AI"})

    def test_double_equals_normalized(self):
        assert Atom("x", "==", 1) == Atom("x", "=", 1)

    @pytest.mark.parametrize(
        "op,value,attrs,expected",
        [
            ("<", 5, {"x": 4}, True),
            ("<", 5, {"x": 5}, False),
            ("<=", 5, {"x": 5}, True),
            (">", 5, {"x": 6}, True),
            (">=", 5, {"x": 5}, True),
            ("!=", 5, {"x": 4}, True),
            ("!=", 5, {"x": 5}, False),
        ],
    )
    def test_comparison_ops(self, op, value, attrs, expected):
        assert Atom("x", op, value).satisfied_by(attrs) is expected

    def test_missing_attribute_fails(self):
        assert not Atom("x", "=", 1).satisfied_by({"y": 1})

    def test_incompatible_types_fail_instead_of_raising(self):
        assert not Atom("x", "<", 5).satisfied_by({"x": "string"})

    def test_unknown_op_rejected(self):
        with pytest.raises(PredicateError):
            Atom("x", "~", 1)

    def test_hash_and_eq(self):
        assert len({Atom("x", "=", 1), Atom("x", "=", 1)}) == 1

    def test_repr_quotes_strings(self):
        assert repr(Atom("job", "=", "DB")) == "job = 'DB'"


class TestMixedDomainColumn:
    """One attribute holding values of every domain (``tests.attr_values``)."""

    @pytest.mark.parametrize("op,value,expected", ATOM_CASES)
    def test_atom_verdicts(self, op, value, expected):
        atom = Atom("x", op, value)
        assert {
            name for name, v in VALUES.items() if atom.satisfied_by({"x": v})
        } == expected
        assert not atom.satisfied_by({})
        assert not atom.satisfied_by({"y": value})
        # A conjunction with an atom on another attribute keeps the
        # verdicts where that atom holds and drops them where it fails.
        both = Predicate([atom, Atom("y", "=", 1)])
        for name, v in VALUES.items():
            assert both.satisfied_by({"x": v, "y": 1}) is (name in expected)
            assert not both.satisfied_by({"x": v, "y": 2})


class TestPredicate:
    def test_true_predicate(self):
        assert Predicate.true().satisfied_by({})
        assert Predicate.true().is_trivial()

    def test_conjunction_requires_all(self):
        p = Predicate([Atom("x", ">", 1), Atom("x", "<", 5)])
        assert p.satisfied_by({"x": 3})
        assert not p.satisfied_by({"x": 0})
        assert not p.satisfied_by({"x": 9})

    def test_label_shorthand(self):
        p = Predicate.label("A")
        assert p.satisfied_by({"label": "A"})
        assert not p.satisfied_by({"label": "B"})

    def test_label_custom_attribute(self):
        p = Predicate.label("A", attribute="kind")
        assert p.satisfied_by({"kind": "A"})

    def test_conjoin(self):
        p = Predicate.label("A").conjoin(Predicate([Atom("x", ">", 1)]))
        assert p.satisfied_by({"label": "A", "x": 2})
        assert not p.satisfied_by({"label": "A", "x": 0})

    def test_equality_ignores_order(self):
        a = Predicate([Atom("x", "=", 1), Atom("y", "=", 2)])
        b = Predicate([Atom("y", "=", 2), Atom("x", "=", 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_repr(self):
        assert repr(Predicate.true()) == "TRUE"
        assert "&" in repr(Predicate([Atom("x", "=", 1), Atom("y", "=", 2)]))


class TestCanonicalization:
    """Structurally-equal predicates must intern to one eligibility key."""

    def test_conjunct_order_normalized(self):
        a = parse_predicate("age > 25 & job = DB")
        b = parse_predicate("job = DB & age > 25")
        assert a == b
        assert hash(a) == hash(b)
        assert a.atoms == b.atoms  # canonical order, not just set-equality
        assert repr(a) == repr(b)

    def test_repeated_atoms_deduped(self):
        a = parse_predicate("job = DB & job = DB")
        b = parse_predicate("job = DB")
        assert a == b
        assert hash(a) == hash(b)
        assert len(a.atoms) == 1

    def test_dict_interning(self):
        table = {parse_predicate("a = 1 & b = 2"): "entry"}
        assert table[parse_predicate("b = 2 & a = 1")] == "entry"
        assert len({parse_predicate("x > 1 & x > 1"), parse_predicate("x > 1")}) == 1

    def test_conjoin_canonicalizes(self):
        p = Predicate([Atom("y", "=", 2)]).conjoin(Predicate([Atom("a", "=", 1)]))
        q = Predicate([Atom("a", "=", 1), Atom("y", "=", 2)])
        assert p == q and p.atoms == q.atoms

    def test_distinct_ops_and_values_not_conflated(self):
        assert parse_predicate("x > 1") != parse_predicate("x >= 1")
        assert parse_predicate("x = 1") != parse_predicate("x = '1'")

    def test_mixed_value_types_sort_safely(self):
        # int and str constants on the same attribute must not raise.
        p = Predicate([Atom("x", "=", "a"), Atom("x", "=", 1)])
        assert len(p.atoms) == 2

    def test_semantics_preserved(self):
        p = parse_predicate("age > 25 & age < 60 & job = DB")
        assert p.satisfied_by({"age": 30, "job": "DB"})
        assert not p.satisfied_by({"age": 61, "job": "DB"})
        assert not p.satisfied_by({"age": 30, "job": "AI"})


class TestUnsatisfiable:
    """Trivially-contradictory conjunctions are detected at construction
    so the eligibility substrate and router can skip their upkeep."""

    def test_two_different_eq_constants(self):
        p = parse_predicate("job = 'DB' & job = 'AI'")
        assert p.is_unsatisfiable()
        assert not p.satisfied_by({"job": "DB"})
        assert not p.satisfied_by({"job": "AI"})

    def test_eq_and_ne_same_value(self):
        assert parse_predicate("x = 1 & x != 1").is_unsatisfiable()

    def test_eq_outside_range(self):
        assert parse_predicate("x = 1 & x > 5").is_unsatisfiable()
        assert parse_predicate("x = 9 & x < 5").is_unsatisfiable()

    def test_eq_cross_type_comparison(self):
        # 'DB' < 5 raises TypeError inside the atom => contradiction.
        assert parse_predicate("x = 'DB' & x < 5").is_unsatisfiable()

    def test_satisfiable_conjunctions_not_flagged(self):
        for text in (
            "",
            "x = 1",
            "x = 1 & y = 2",
            "x = 3 & x > 1 & x < 5",
            "x != 1 & x != 2",
        ):
            assert not parse_predicate(text).is_unsatisfiable(), text

    def test_inequality_only_contradiction_not_detected(self):
        # Sound, not complete: no equality atom anchors the check.
        p = parse_predicate("age > 5 & age < 3")
        assert not p.is_unsatisfiable()
        assert not p.satisfied_by({"age": 4})

    def test_interning_still_works(self):
        a = parse_predicate("j = 'DB' & j = 'AI'")
        b = parse_predicate("j = 'AI' & j = 'DB'")
        assert a == b and hash(a) == hash(b)
        assert b.is_unsatisfiable()


class TestParser:
    def test_empty_is_true(self):
        assert parse_predicate("") == Predicate.true()
        assert parse_predicate("   ") == Predicate.true()

    def test_single_atom_quoted_string(self):
        p = parse_predicate("job = 'DB'")
        assert p.satisfied_by({"job": "DB"})

    def test_double_quoted_string(self):
        p = parse_predicate('job = "DB"')
        assert p.satisfied_by({"job": "DB"})

    def test_bare_identifier_value(self):
        p = parse_predicate("job = DB")
        assert p.satisfied_by({"job": "DB"})

    def test_integer_value(self):
        p = parse_predicate("age >= 18")
        assert p.satisfied_by({"age": 18})
        assert not p.satisfied_by({"age": 17})

    def test_float_value(self):
        p = parse_predicate("rate > 3.5")
        assert p.satisfied_by({"rate": 4.0})

    def test_negative_number(self):
        p = parse_predicate("delta >= -2")
        assert p.satisfied_by({"delta": -1})
        assert not p.satisfied_by({"delta": -3})

    def test_conjunction_ampersand(self):
        p = parse_predicate("a = 1 & b = 2")
        assert p.satisfied_by({"a": 1, "b": 2})
        assert not p.satisfied_by({"a": 1, "b": 3})

    def test_conjunction_and_keyword(self):
        p = parse_predicate("a = 1 AND b = 2")
        assert len(p.atoms) == 2

    def test_all_operators_parse(self):
        for op in ("<", "<=", "=", "==", "!=", ">", ">="):
            p = parse_predicate(f"x {op} 3")
            assert len(p.atoms) == 1

    def test_dotted_attribute_names(self):
        p = parse_predicate("user.age > 10")
        assert p.satisfied_by({"user.age": 11})

    @pytest.mark.parametrize(
        "bad",
        [
            "= 3",
            "x =",
            "x 3",
            "x = 3 &",
            "x = 3 y = 4",
            "x = 3 & & y = 4",
            "x ! 3",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(PredicateError):
            parse_predicate(bad)

    def test_garbage_rejected(self):
        with pytest.raises(PredicateError):
            parse_predicate("x = 3 ???")

    def test_scientific_notation(self):
        p = parse_predicate("rating > 1e5")
        assert p.satisfied_by({"rating": 200000})
        assert not p.satisfied_by({"rating": 99999})
        assert parse_predicate("x < 2.5e-3").satisfied_by({"x": 0.001})
        assert parse_predicate("x = 1E2").satisfied_by({"x": 100.0})

    def test_bare_dot_floats(self):
        assert parse_predicate("x > .5").satisfied_by({"x": 0.6})
        assert parse_predicate("x >= 1.").satisfied_by({"x": 1.0})
        assert parse_predicate("x > -.5").satisfied_by({"x": 0})

    @pytest.mark.parametrize("lit", ["1e", "1.2.3", "5x", "1e5g", "3.4.5e1"])
    def test_malformed_numeric_literal_named_in_error(self, lit):
        with pytest.raises(PredicateError, match="malformed numeric literal"):
            parse_predicate(f"x > {lit}")

    @pytest.mark.parametrize(
        "lit,value",
        [
            ("+5", 5),
            ("+.5", 0.5),
            ("+2.5e3", 2500.0),
            ("+1E+3", 1000.0),
            ("-1e-5", -1e-5),
            ("-1E5", -100000.0),
            ("+0", 0),
        ],
    )
    def test_signed_literals_accepted(self, lit, value):
        # Everything float()/int() accepts must parse: an explicit '+'
        # sign and signed scientific notation included.
        p = parse_predicate(f"x = {lit}")
        (atom,) = p.atoms
        assert atom.value == value
        assert type(atom.value) is type(value)
        assert p.satisfied_by({"x": value})

    @pytest.mark.parametrize(
        "bad",
        ["+", "++5", "+-5", "+e5", "+.", "+ 5", "x > +5y"],
    )
    def test_malformed_signed_literals_still_rejected(self, bad):
        text = bad if bad.startswith("x ") else f"x = {bad}"
        with pytest.raises(PredicateError):
            parse_predicate(text)
