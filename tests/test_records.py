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


def test_absorbing_set_hash_is_computed_once():
    an = Analysis(SEVEN)
    for a in an.absorbing_sets():
        assert a._hash is None
        assert hash(a) == hash((a.members,)) == hash(AbsorbingSet(a.members))
        assert a._hash == hash(a)
        assert pickle.loads(pickle.dumps(a))._hash is None


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
