"""The record contract, checked on every Record class of the package, and the
assignment guard and copies of WeylElement, Subexpression and RootSystem."""

import copy
import pkgutil
from importlib import import_module

import pytest

import deodhar
from deodhar import cells, counting, flags, frobenius
from deodhar.errors import Record
from deodhar.gf import field
from deodhar.rootdata import WeylElement, build_root_system


def _instances() -> dict:
    """One record of every class, each built by the library itself."""
    rs = build_root_system("A", 2)
    word = cells.ReducedWord.from_letters(rs, rs.longest_element().canonical_word)
    gamma = cells.Subexpression(word, (1, 0, 1))
    od = frobenius.orbit_data(rs, 2)
    psi = frobenius.RegularCharacter.regular_default(od)
    model = frobenius.quotient_model(gamma, od)
    table = frobenius.theorem_table(word, od, psi)
    w0_row = next(row for row in table.rows if row.gamma_rows is not None)
    made = [
        word,
        gamma.cell_shape(),
        counting.r_polynomial(rs.identity(), rs.longest_element()),
        flags.canonical_flag(field(3), ((0, 1, 0), (1, 0, 0), (2, 2, 1))),
        flags.gl3_example_counts(2),
        od,
        psi,
        frobenius.cell_invariants(gamma, od),
        model.factors[0],
        model,
        w0_row.gamma_rows[0][2],
        w0_row,
        table,
    ]
    return {type(record).__name__: record for record in made}


INSTANCES = _instances()


def test_every_record_class_is_checked():
    classes = {
        name
        for info in pkgutil.iter_modules(deodhar.__path__)
        for name, value in vars(import_module(f"deodhar.{info.name}")).items()
        if isinstance(value, type) and issubclass(value, Record) and value is not Record
    }
    assert classes == set(INSTANCES) and len(classes) == 13


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_record_contract(name):
    record = INSTANCES[name]
    cls = type(record)
    fields = cls.__slots__
    values = [getattr(record, field) for field in fields]

    # equal values, equal records, equal hashes
    twin = cls(*values)
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert copy.copy(record) == record

    # keyword construction equals positional construction
    assert cls(**dict(zip(fields, values))) == twin

    # another record class with the same fields and values is not equal
    other = type(name, (Record,), {"__slots__": fields})(*values)
    assert record != other and other != record
    assert record != tuple(values)

    # fields can be neither assigned nor deleted
    for field, value in zip(fields, values):
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert [getattr(record, field) for field in fields] == values

    # a wrong field count, or a repeated or unknown name, is a TypeError
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values[:-1], extra=values[-1])

    if "__repr__" not in cls.__dict__:
        shown = ", ".join(f"{field}={value!r}" for field, value in zip(fields, values))
        assert repr(record) == f"{name}({shown})"


def _interned() -> dict:
    """One value of every immutable, interned kind: each record, a Weyl
    element, a subexpression and a root system."""
    rs = build_root_system("A", 2)
    word = cells.ReducedWord.from_letters(rs, (0, 1, 0))
    return {
        **INSTANCES,
        "WeylElement": rs.simple_reflection(0),
        "Subexpression": cells.Subexpression(word, (1, 0, 1)),
        "RootSystem": rs,
    }


COPIED = _interned()


@pytest.mark.parametrize("name", sorted(COPIED))
def test_copy_and_deepcopy_return_the_value_itself(name):
    value = COPIED[name]
    assert copy.copy(value) is value
    assert copy.deepcopy(value) is value
    assert copy.deepcopy([value, value])[1] is value


def test_weyl_elements_and_subexpressions_refuse_assignment():
    rs = build_root_system("A", 2)
    s = rs.simple_reflection(0)
    index, hashed = s.index, hash(s)
    for attr in WeylElement.__slots__:
        with pytest.raises(AttributeError):
            setattr(s, attr, 5)
        with pytest.raises(AttributeError):
            delattr(s, attr)
    # the interned element of the cached root system is untouched
    assert build_root_system("A", 2).simple_reflection(0).index == index
    assert hash(rs.simple_reflection(0)) == hashed

    word = cells.ReducedWord.from_letters(rs, (0, 1, 0))
    gamma = cells.Subexpression(word, (1, 0, 1))
    # __init__ stores every slot, past the guard
    fields = {attr: getattr(gamma, attr) for attr in cells.Subexpression.__slots__}
    assert fields["word"] is word and fields["end"] == rs.identity()
    for attr in cells.Subexpression.__slots__:
        with pytest.raises(AttributeError):
            setattr(gamma, attr, ())
        with pytest.raises(AttributeError):
            delattr(gamma, attr)
    with pytest.raises(AttributeError):
        gamma.extra = 1
    assert {attr: getattr(gamma, attr) for attr in fields} == fields
    assert gamma == cells.Subexpression(word, (1, 0, 1)) and gamma.bits == (1, 0, 1)
