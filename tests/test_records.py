"""The contract of gradmine's twelve records: fields that cannot be
assigned or deleted, equality and hashing by field values (a Dataset is
not hashable), reprs that name every field, and the checks of the four
checked records on every path that builds one."""

from __future__ import annotations

import json
import pickle
from array import array
from pathlib import Path

import numpy as np
import pytest

from conftest import pat, write_csv
from gradmine import (
    BenchCell,
    BenchReport,
    BenchSpec,
    Dataset,
    Direction,
    GradualItem,
    GradualPattern,
    SearchConfig,
    SearchResult,
    SearchSpace,
    Trajectory,
    WilcoxonOutcome,
    build_space,
    load_dataset,
    to_pattern,
)
from gradmine.harness import DatasetFailure


def _trajectory() -> Trajectory:
    return Trajectory(range(1, 4), (5, 6, 9), (1, 0, 2))


def _cell() -> BenchCell:
    return BenchCell("t", "rs", "numeric", (0, 1), (0.5, 0.25), 0.375, 2, 1, 0.5, None, None)


#: Each record, made afresh on each call from new but equal values.
RECORDS = {
    Dataset: lambda: Dataset(("a", "b"), np.array([[1.0, 2.0], [3.0, 4.0]])),
    GradualItem: lambda: GradualItem(1, Direction.DOWN),
    GradualPattern: lambda: pat("2-", "0+"),
    SearchSpace: lambda: build_space(3),
    SearchConfig: lambda: SearchConfig(npop=4, sigma=0.25),
    Trajectory: _trajectory,
    SearchResult: lambda: SearchResult(
        pat("0+", "1+"), 0.5, 0.25, ((pat("0+", "1+"), 0.5),), _trajectory(), 0.01
    ),
    WilcoxonOutcome: lambda: WilcoxonOutcome(3.0, 0.25, 6, 1),
    BenchSpec: lambda: BenchSpec(["t.csv"], ["ga"], overrides={"ga": {"npop": 4}}),
    BenchCell: _cell,
    DatasetFailure: lambda: DatasetFailure("u", "u.csv", "no data rows"),
    BenchReport: lambda: BenchReport(
        1, 0.5, 0, 2, (_cell(),), (DatasetFailure("u", "u.csv", "no data rows"),)
    ),
}

#: The fields of the two records that are not named tuples.
PLAIN_FIELDS = {Dataset: ("attribute_names", "n", "m"), GradualPattern: ("items",)}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    make = RECORDS[cls]
    record, twin = make(), make()
    assert type(record) is cls and record is not twin
    fields = PLAIN_FIELDS.get(cls) or cls._fields
    for name in fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    assert record == twin and not record != twin
    if cls is Dataset:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
    text = repr(record)
    assert text.startswith(f"{cls.__name__}(")
    for name in fields:
        assert f"{name}=" in text


def _spec_json(tmp_path) -> Path:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"datasets": ["t.csv"], "algorithms": ["ga"], "repetitions": 0}))
    return path


def _duplicate_header_csv(tmp_path):
    path = tmp_path / "dup.csv"
    write_csv(path, ("a", "a"), [[1.0, 2.0], [3.0, 4.0]])
    return path


_SPEC = BenchSpec(["t.csv"], ["ga"])

#: Every path that builds one of the four checked records, each given a
#: bad value: (record, path) -> a call that must raise ValueError.
BAD_BUILDS = {
    ("SearchConfig", "constructor"): lambda tmp: SearchConfig(npop=1),
    ("SearchConfig", "_make"): lambda tmp: SearchConfig._make((20, -1)),
    ("SearchConfig", "_replace"): lambda tmp: SearchConfig()._replace(sigma=1.5),
    ("SearchConfig", "config_for"): lambda tmp: BenchSpec(
        ["t.csv"], ["ga"], overrides={"ga": {"npop": 1}}
    ),
    ("BenchSpec", "constructor"): lambda tmp: BenchSpec(["t.csv"], ["ga"], repetitions=0),
    ("BenchSpec", "from_dict"): lambda tmp: BenchSpec.from_dict(
        {"datasets": ["t.csv"], "algorithms": ["ga"], "repetitions": 0}
    ),
    ("BenchSpec", "from_json"): lambda tmp: BenchSpec.from_json(_spec_json(tmp)),
    ("BenchSpec", "_make"): lambda tmp: BenchSpec._make((["t.csv"], ["ga"], ["hex"])),
    ("BenchSpec", "_replace"): lambda tmp: _SPEC._replace(algorithms=("ga", "ga")),
    ("BenchSpec", "_replace overrides"): lambda tmp: _SPEC._replace(
        overrides={"ga": {"npop": 1}}
    ),
    ("GradualPattern", "constructor"): lambda tmp: GradualPattern(
        (GradualItem(1, Direction.UP), GradualItem(1, Direction.DOWN))
    ),
    ("GradualPattern", "to_pattern"): lambda tmp: to_pattern(0b110010, build_space(3)),
    ("Dataset", "constructor"): lambda tmp: Dataset(("a", "b"), np.array([[1.0, np.inf]] * 2)),
    ("Dataset", "_from_cells"): lambda tmp: Dataset._from_cells(("a", "a"), array("d", [1.0] * 4)),
    ("Dataset", "load_dataset"): lambda tmp: load_dataset(_duplicate_header_csv(tmp)),
}


@pytest.mark.parametrize("case", BAD_BUILDS, ids=" ".join)
def test_checked_records_refuse_bad_values_on_every_path(case, tmp_path):
    with pytest.raises(ValueError):
        BAD_BUILDS[case](tmp_path)


@pytest.mark.parametrize("cls", [cls for cls in RECORDS if cls is not BenchSpec],
                         ids=lambda cls: cls.__name__)
def test_pickled_copies_are_equal(cls):
    # A spec's read-only overrides do not pickle.
    record = RECORDS[cls]()
    assert pickle.loads(pickle.dumps(record)) == record
