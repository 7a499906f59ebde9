"""Property-based parity: batched updates equal row-at-a-time updates.

``Relation.update_many`` is the RULE_TIME write of a DBCRON wave.  It
must leave exactly what ``[update(tid, changes) for ...]`` leaves on a
keyed, indexed relation — live rows, dead versions, index lanes, key
map, ``data_version`` and replace-event order — and a batch that one
update would fail on must apply nothing.  ``OrderedIndex.replace_batch``
is checked against an index rebuilt from scratch on each of its three
paths, on random and on wave-shaped batches and with blocks small
enough that every key run crosses block boundaries, and every
maintenance path keeps the lanes in ``(key, tid)`` order.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.errors import DatabaseError
from repro.db.index import OrderedIndex, _merge
from repro.db.storage import Relation, Schema
from repro.db.types import TypeRegistry

_KEYS = [f"k{i}" for i in range(8)]
#: ``v`` is indexed; None is stored but never indexed, and a string is
#: a type error that must stop the whole batch.
_values = st.one_of(st.none(), st.integers(min_value=0, max_value=5),
                    st.just("not-an-int"))
_changes = st.fixed_dictionaries({}, optional={
    "k": st.sampled_from(_KEYS), "v": _values, "w": st.integers(0, 3)})
_initial = st.lists(st.tuples(st.none() | st.integers(0, 5),
                              st.integers(0, 3)),
                    min_size=1, max_size=6)
#: (row position, changes); positions past the table are unknown tids.
_updates = st.lists(st.tuples(st.integers(0, 6), _changes), max_size=8)


def _relation(initial) -> tuple[Relation, list]:
    relation = Relation(
        "t", Schema([("k", "text"), ("v", "int4"), ("w", "int4")],
                    key=("k",)),
        TypeRegistry(), xact_source=lambda: 7)
    relation.indexes["v"] = OrderedIndex("v")
    relation.indexes["w"] = OrderedIndex("w")
    relation.insert_many([{"k": _KEYS[i], "v": v, "w": w}
                          for i, (v, w) in enumerate(initial)],
                         fire_hooks=False)
    events: list = []
    relation.hooks["replace"].append(
        lambda event: events.append((dict(event.current),
                                     dict(event.new))))
    return relation, events


def _state(relation: Relation) -> tuple:
    return ({row["_tid"]: dict(row) for row in relation.scan()},
            [dict(row) for row in relation._history],
            {column: tuple(map(list, index.items()))
             for column, index in relation.indexes.items()},
            dict(relation._key_map),
            relation.data_version)


@settings(max_examples=300, deadline=None)
@given(_initial, _updates)
def test_update_many_equals_sequential_updates(initial, updates):
    sequential, seq_events = _relation(initial)
    batched, batch_events = _relation(initial)
    untouched = _state(batched)
    pairs = [(position + 1, changes) for position, changes in updates]
    try:
        for tid, changes in pairs:
            sequential.update(tid, changes)
    except DatabaseError as exc:
        # A batch the sequential path fails on fails alike, atomically.
        with pytest.raises(type(exc)):
            batched.update_many(pairs)
        assert _state(batched) == untouched
        assert batch_events == []
        return
    rows = batched.update_many(pairs)
    assert [row["_tid"] for row in rows] == [tid for tid, _ in pairs]
    assert _state(batched) == _state(sequential)
    assert batch_events == seq_events


def test_duplicate_key_fails_the_whole_batch():
    relation, events = _relation([(1, 0), (2, 0), (3, 0)])
    before = _state(relation)
    with pytest.raises(DatabaseError, match="duplicate key"):
        relation.update_many([(1, {"v": 9}), (2, {"k": "k2"})])
    assert _state(relation) == before
    assert events == []


def test_key_swap_through_a_freed_key():
    # k0 -> k9 frees k0, which a later update of the same batch claims.
    relation, _ = _relation([(1, 0), (2, 0)])
    relation.update_many([(1, {"k": "k9"}), (2, {"k": "k0"})])
    assert relation._key_map == {("k9",): 1, ("k0",): 2}


# -- OrderedIndex.replace_batch ---------------------------------------------


def _index_rows(rng: random.Random, count: int) -> list[dict]:
    return [{"_tid": tid, "v": rng.choice([None, *range(6)])}
            for tid in range(1, count + 1)]


def _random_batch(rng: random.Random, rows: list[dict], batch: int,
                  keys: range):
    old = rng.sample(rows, batch)
    return old, [{"_tid": row["_tid"], "v": rng.choice([None, *keys])}
                 for row in old]


def _wave_batch(rng: random.Random, rows: list[dict]):
    """A DBCRON wave: every row of one key moves to one of 1-4 keys,
    which may be NULL, already present or new."""
    tick = rng.choice([row["v"] for row in rows if row["v"] is not None])
    old = [row for row in rows if row["v"] == tick]
    targets = rng.sample([None, *range(8)], rng.randint(1, 4))
    return old, [{"_tid": row["_tid"], "v": rng.choice(targets)}
                 for row in old]


#: New keys of a random batch: the index's own few keys, or many more.
_FEW, _MANY = range(6), range(-3, 12)

#: shape -> (index size, batch size, new keys, path): a few rows, a
#: sixth of the index over its own keys (eight or more rows per key) or
#: over many keys, the whole index, and waves, whose batch is the rows
#: of one key.  A wave takes whichever path its seed's run length calls
#: for.
_SHAPES = {"per-row": (400, 10, _MANY, "per-row"),
           "runs": (400, 60, _FEW, "merge"),
           "merge": (400, 60, _MANY, "merge"),
           "whole-index": (40, 40, _MANY, "merge"),
           "wave": (400, None, None, None),
           "small-wave": (40, None, None, None)}


#: (seed, shape, block); small blocks make every key run cross block
#: boundaries.
_REBUILD_CASES = [
    pytest.param(seed, shape, block, id=f"{seed}-{shape}" if block is None
                 else f"{seed}-{shape}-block{block}")
    for seed in range(5) for shape in _SHAPES for block in (None, 2, 3, 8)]


@pytest.mark.parametrize("seed,shape,block", _REBUILD_CASES)
def test_replace_batch_matches_a_rebuild(seed, shape, block):
    rng = random.Random(seed)
    size, batch, keys, path = _SHAPES[shape]
    block = block or OrderedIndex.BLOCK
    with mock.patch.object(OrderedIndex, "BLOCK", block):
        rows = _index_rows(rng, size)
        index = OrderedIndex("v")
        index.rebuild(rows)
        old, new = _random_batch(rng, rows, batch, keys) if batch else \
            _wave_batch(rng, rows)
        with mock.patch("repro.db.index._merge",
                        side_effect=_merge) as merged:
            index.replace_batch(old, new)
        replaced = {row["_tid"]: row for row in new}
        expected = OrderedIndex("v")
        expected.rebuild([replaced.get(row["_tid"], row) for row in rows])
    # Each path must match the rebuild.
    if path is not None:
        taken = "merge" if merged.called else "per-row"
        assert taken == path
    # Same entries in the same (key, tid) order as the rebuild.
    assert index.items() == expected.items()
    assert len(index) == len(expected)
    for value in range(-4, 13):
        assert index.lookup_eq(value) == expected.lookup_eq(value)
    for lo, hi in [(None, None), (1, 3), (2, 2), (-1, 9), (4, None),
                   (None, 0), (6, 7), (-3, 0), (8, 11)]:
        for lo_inc in (True, False):
            assert index.lookup_range(lo, hi, lo_inclusive=lo_inc,
                                      hi_inclusive=not lo_inc) == \
                expected.lookup_range(lo, hi, lo_inclusive=lo_inc,
                                      hi_inclusive=not lo_inc)
    # Block invariants: no empty block, each block's last key recorded,
    # no block above twice the block size.
    assert all(index._kb) and all(index._tb)
    assert [len(keys) for keys in index._kb] == \
        [len(tids) for tids in index._tb]
    assert index._last == [keys[-1] for keys in index._kb]
    assert max(map(len, index._kb), default=0) <= 2 * block


def test_replace_batch_paths_place_equal_keys_alike():
    # The per-row path and the merge path must agree entry for entry.
    rng = random.Random(11)
    rows = _index_rows(rng, 64)
    old = rng.sample(rows, 16)
    new = [{"_tid": row["_tid"], "v": rng.choice([None, 1, 2])}
           for row in old]
    per_row = OrderedIndex("v")
    per_row.rebuild(rows)
    for row in old:
        per_row.remove(row)
    for row in new:
        per_row.insert(row)
    merged = OrderedIndex("v")
    merged.rebuild(rows)
    merged.replace_batch(old, new)  # 16 * 8 >= 64: the merge path
    assert merged.items() == per_row.items()


#: One maintenance step on a relation: (kind, row position, values).
_steps = st.lists(st.tuples(
    st.sampled_from(["insert", "insert_many", "update_many", "delete",
                     "truncate"]),
    st.integers(0, 20),
    st.lists(st.tuples(st.none() | st.integers(0, 3), st.integers(0, 3)),
             min_size=1, max_size=12)), max_size=12)


@settings(max_examples=80, deadline=None)
@given(_steps, st.sampled_from([1, 2, 3, 1024]),
       st.lists(st.integers(-1, 5), max_size=6))
def test_index_lanes_stay_in_key_tid_order(steps, block, cuts):
    """After any mix of maintenance paths, each index holds exactly
    ``sorted((key, tid))`` over the live rows with a non-None key, and
    its probes agree with that model — also when blocks are tiny, so
    every entry sits near a block edge."""
    with mock.patch.object(OrderedIndex, "BLOCK", block):
        relation = Relation("t", Schema([("v", "int4"), ("w", "int4")],
                                        valid_time_column="w"),
                            TypeRegistry())
        relation.indexes["v"] = OrderedIndex("v")
        for kind, at, values in steps:
            live = [row["_tid"] for row in relation.scan()]
            batch = [{"v": v, "w": w} for v, w in values]
            if kind == "insert":
                relation.insert(batch[0])
            elif kind == "insert_many":
                relation.insert_many(batch)
            elif kind == "truncate":
                relation.truncate()
            elif live and kind == "delete":
                relation.delete(live[at % len(live)])
            elif live:  # update_many, a tid possibly written twice
                relation.update_many([(live[(at + i) % len(live)], changes)
                                      for i, changes in enumerate(batch)])
            for column, index in relation.indexes.items():
                model = sorted((row[column], row["_tid"])
                               for row in relation.scan()
                               if row[column] is not None)
                assert list(zip(*index.items())) == model, (kind, column)
                _assert_probes(index, model, sorted(set(cuts)))


def _assert_probes(index, model, cuts):
    """Equality, range and run probes (and run counts, where the index
    keeps per-key counts) against the sorted model."""
    for key in range(-1, 5):
        assert index.lookup_eq(key) == [t for k, t in model if k == key]
    runs = list(zip(cuts[::2], cuts[1::2]))  # ascending, disjoint
    assert index.lookup_runs(runs) == [
        t for k, t in model if any(a <= k <= b for a, b in runs)]
    assert index.count_runs(runs) in (None, len(index.lookup_runs(runs)))
    for a, b in runs:
        assert index.lookup_range(a, b, hi_inclusive=False) == [
            t for k, t in model if a <= k < b]
