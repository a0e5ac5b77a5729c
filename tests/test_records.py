"""The library's records: plain ``__slots__`` classes and ``namedtuple``
subclasses, immutable, compared, hashed and shown on their defining fields,
and picklable."""

import copy
import pickle

import pytest

from stabledec import (
    POOL,
    RING,
    AbsorbingSet,
    Analysis,
    MalformedSpec,
    MarriageSpec,
    Party,
    RingComponent,
    RoommateSpec,
    StableDecomposition,
    check_stable_decomposition,
    component,
    d_structures,
    decomposition,
    make_party,
    successors,
)
from stabledec import core
from stabledec.cli import Report
from games import C, RC7, SEVEN, make_structure

RING7 = component(SEVEN, [C(t) for t in RC7])
PARTY7 = make_party(SEVEN, [C(t) for t in RC7])

RECORDS = {
    "absorbing_set": AbsorbingSet((make_structure(SEVEN, "12 34 5 67"),)),
    "ring_component": RING7,
    "party": PARTY7,
    "decomposition": decomposition([PARTY7, Party(POOL, (C("6"), C("7")))]),
    "roommate_spec": RoommateSpec(3, {1: [2, 3], 2: [1], 3: [1]}),
    "marriage_spec": MarriageSpec(1, 2, {1: [3, 2], 2: [1]}),
}
# the first field of each
FIELDS = {
    "absorbing_set": "members",
    "ring_component": "coalitions",
    "party": "kind",
    "decomposition": "parties",
    "roommate_spec": "n",
    "marriage_spec": "men",
}

# every constructor parameter of each, in order
CONSTRUCTOR_FIELDS = {
    "absorbing_set": ("members",),
    "ring_component": ("coalitions", "simple", "maximal", "compact", "breakers"),
    "party": ("kind", "coalitions", "compact", "breakers"),
    "decomposition": ("parties",),
    "roommate_spec": ("n", "preferences"),
    "marriage_spec": ("men", "women", "preferences"),
}
_MAXIMAL7 = "((3, 12), (3, 24), (6, 17), (6, 24), (12, 17))"
_RING7 = (
    f"RingComponent(coalitions=(3, 6, 12, 17, 24), simple=True, maximal={_MAXIMAL7}, "
    f"compact={_MAXIMAL7})"
)
_PARTY7 = f"Party(kind='ring_component', coalitions=(3, 6, 12, 17, 24), compact={_MAXIMAL7})"
REPRS = {
    "absorbing_set": "AbsorbingSet(members=((3, 12, 16, 96),))",
    "ring_component": _RING7,
    "party": _PARTY7,
    "decomposition": (
        f"StableDecomposition(parties=({_PARTY7}, "
        "Party(kind='singleton_pool', coalitions=(32, 64), compact=())))"
    ),
    "roommate_spec": "RoommateSpec(n=3, preferences={1: [2, 3], 2: [1], 3: [1]})",
    "marriage_spec": "MarriageSpec(men=1, women=2, preferences={1: [3, 2], 2: [1], 3: []})",
}


def _filled_report():
    return Report(
        SEVEN, 32, [RECORDS["absorbing_set"]], [(0, RING7)], [], (False, (3, 12, 16, 96)),
        "limit",
    )


def test_breakers_stay_out_of_eq_hash_and_repr():
    assert RING7.breakers and PARTY7.breakers == RING7.breakers
    ring = RingComponent(RING7.coalitions, RING7.simple, RING7.maximal, RING7.compact, ())
    party = Party(RING, PARTY7.coalitions, PARTY7.compact)
    for carried, bare in ((RING7, ring), (PARTY7, party)):
        assert carried == bare and hash(carried) == hash(bare)
        assert repr(carried) == repr(bare) and "breakers" not in repr(carried)
    assert repr(party) == (
        f"Party(kind='ring_component', coalitions={party.coalitions!r}, "
        f"compact={party.compact!r})"
    )
    assert party != Party(RING, PARTY7.coalitions, ())
    assert party != ring and ring != party


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name]
    field = FIELDS[name]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.other = 1
    assert getattr(record, field) is before
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_and_copy_round_trips(name):
    record = RECORDS[name]
    for again in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(again) is type(record) and again == record
        assert repr(again) == repr(record)
        if name in ("ring_component", "party"):
            assert again.breakers == record.breakers
        if name in ("roommate_spec", "marriage_spec"):
            assert again.to_dict() == record.to_dict()
        else:
            assert hash(again) == hash(record)
    if name == "absorbing_set":
        for a in (record, *Analysis(SEVEN).absorbing_sets()):
            assert hash(a) == hash((a.members,)) == hash(AbsorbingSet(a.members))
            assert hash(pickle.loads(pickle.dumps(a))) == hash(a)


def test_keyword_construction_and_defaults():
    pool = Party(kind=POOL, coalitions=(C("1"), C("2")))
    assert pool.compact == () and pool.breakers is None
    assert pool == Party(POOL, (C("1"), C("2")), ())
    ring = RingComponent(
        coalitions=RING7.coalitions, simple=RING7.simple, maximal=RING7.maximal,
        compact=RING7.compact, breakers=RING7.breakers,
    )
    assert ring == RING7 and ring.breakers == RING7.breakers
    members = RECORDS["absorbing_set"].members
    assert AbsorbingSet(members=members) == RECORDS["absorbing_set"]
    assert StableDecomposition(parties=(pool,)).parties == (pool,)
    spec = RoommateSpec(n=2, preferences={1: (2,)})
    assert spec.preferences == {1: [2], 2: []}
    assert MarriageSpec(men=1, women=1, preferences={}).n == 2
    report = Report(SEVEN)
    assert report.structures is None and report.limit_exceeded is None
    assert report == Report(game=SEVEN) and report != Report(SEVEN, structures=1)
    report.structures = 5  # a report is filled in section by section
    assert report == Report(SEVEN, structures=5)
    with pytest.raises(TypeError):
        hash(report)


def test_specs_validate_when_built():
    for row in (2, None, "2", {2: 1}):
        with pytest.raises(MalformedSpec, match="agent 1's partners must be a list"):
            RoommateSpec(2, {1: row})
        with pytest.raises(MalformedSpec, match="agent 1's partners must be a list"):
            MarriageSpec(1, 1, {1: row})
    with pytest.raises(MalformedSpec, match="agent 1 listed twice"):
        RoommateSpec(2, {1: [2], "1": [2]})
    with pytest.raises(MalformedSpec, match="from its own side"):
        MarriageSpec(2, 1, {1: [2]})
    for spec in RECORDS["roommate_spec"], RECORDS["marriage_spec"]:
        with pytest.raises(TypeError):
            hash(spec)


def test_named_tuples_stay_tuples():
    D = decomposition([PARTY7, Party(POOL, (C("6"), C("7")))])
    records = [
        SEVEN.expansion(),
        # the graph has no equality of its own
        Analysis(SEVEN).factors[0]._replace(graph=None),
        d_structures(SEVEN, D)[0],
        successors(SEVEN, make_structure(SEVEN, "12 34 5 67"))[0],
        *check_stable_decomposition(SEVEN, D),
    ]
    assert [type(r).__name__ for r in records[:4]] == [
        "Expansion", "Factor", "DStructure", "DominationEdge"
    ]
    assert type(records[-1]).__name__ == "Violation"
    for record in records:
        assert isinstance(record, tuple) and not hasattr(record, "__dict__")
        assert type(record._replace()) is type(record)
        assert pickle.loads(pickle.dumps(record)) == record
        assert repr(record).startswith(type(record).__name__ + "(")


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_pinned(name):
    assert repr(RECORDS[name]) == REPRS[name]


def test_filled_report_repr_is_pinned():
    assert repr(_filled_report()) == (
        "Report(game=Game(n=7, |K|=8), structures=32, "
        "absorbing_sets=[AbsorbingSet(members=((3, 12, 16, 96),))], "
        f"rings=[(0, {_RING7})], decompositions=[], converges=(False, (3, 12, 16, 96)), "
        "limit_exceeded='limit')"
    )


@pytest.mark.parametrize("name", RECORDS)
def test_reduce_passes_every_constructor_field(name):
    record = RECORDS[name]
    fields = tuple(getattr(record, f) for f in CONSTRUCTOR_FIELDS[name])
    assert record.__reduce__() == (type(record), fields)


def test_report_reduces_to_its_constructor_fields():
    report = _filled_report()
    assert report.__reduce__() == (Report, (
        report.game, report.structures, report.absorbing_sets, report.rings,
        report.decompositions, report.converges, report.limit_exceeded,
    ))
    assert pickle.loads(pickle.dumps(report)) == report


def _record_classes():
    out, todo = [], [core._Record]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("stabledec."):
                out.append(sub)
    return out


def test_record_fields_are_the_constructor_parameters():
    classes = [cls for cls in _record_classes() if cls is not core._Frozen]
    assert {cls.__name__ for cls in classes} == {
        "AbsorbingSet", "RingComponent", "Party", "StableDecomposition", "RoommateSpec",
        "MarriageSpec", "Report",
    }
    # the specs and the report are mutable, so not hashable
    assert {cls.__name__ for cls in classes if "__hash__" in vars(cls)} == {
        "RoommateSpec", "MarriageSpec", "Report",
    }
    for cls in classes:
        code = cls.__init__.__code__
        assert cls._fields == code.co_varnames[1:code.co_argcount], cls.__name__
        # the base alone compares, hashes, shows and pickles a record
        assert not {"__eq__", "__repr__", "__reduce__"} & vars(cls).keys(), cls.__name__
        assert vars(cls).get("__hash__") is None, cls.__name__
