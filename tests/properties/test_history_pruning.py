"""Property: low-watermark pruning deletes exactly what a full scan does.

The delivery protocol prunes its per-seq and per-visit tables on every
accepted token.  :class:`~repro.multicast.delivery.LowWatermark` walks
only the gap since the previous floor; this checks it against a full
scan of the table, step by step, with stragglers (keys inserted below
the floor) and floors that move down as well as up.
"""

from hypothesis import given, settings, strategies as st

from repro.multicast.delivery import LowWatermark

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 300)),
        st.tuples(st.just("prune"), st.integers(-5, 320)),
    ),
    max_size=80,
)


@given(OPS)
@settings(max_examples=300)
def test_prune_matches_full_scan_reference(ops):
    table = {}
    watermark = LowWatermark(table)
    reference = {}
    for step, (op, key) in enumerate(ops):
        if op == "insert":
            table[key] = step
            watermark.note(key)
            reference[key] = step
        else:
            stale = [k for k in reference if k < key]
            for k in stale:
                del reference[k]
            deleted = watermark.prune(key)
            assert sorted(deleted) == sorted(stale)
        assert table == reference
        assert list(table) == list(reference)  # same insertion order
        assert all(k >= watermark.low for k in table)
