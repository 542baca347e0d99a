"""Level 2 of the plain layered index: the packed sorted run."""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import BPlusTree, LayeredIndex
from repro.index.layered import _default_tree_factory

#: int and float keys mixed in one run (equal ones, 1 and 1.0, included)
_numbers = st.integers(-8, 8) | st.floats(-8, 8, allow_nan=False).map(
    lambda x: round(x * 2) / 2)
_strings = st.text(alphabet="abc", max_size=3)


@st.composite
def keyed_block(draw):
    """(key, position) pairs of one block in block order, keys drawn from
    one domain with duplicates, plus two bounds from the same domain."""
    domain = draw(st.sampled_from([_numbers, _strings]))
    keys = draw(st.lists(domain, max_size=60))
    bounds = st.none() | domain
    return ([(key, position) for position, key in enumerate(keys)],
            draw(bounds), draw(bounds))


class TestPlainRunEqualsBPlusTree:
    @settings(deadline=None, max_examples=150)
    @given(block=keyed_block(), order=st.integers(3, 8))
    def test_every_lookup_matches(self, block, order):
        pairs, low, high = block
        run = _default_tree_factory(pairs, None)
        tree = BPlusTree.bulk_load(pairs, order=order)
        assert run.keys() == tree.keys()
        for key in [key for key, _ in pairs] + [low, high]:
            if key is not None:
                # a key's payloads in block order
                assert run.search(key) == tree.search(key)
        for include_low in (True, False):
            for include_high in (True, False):
                assert (list(run.range(low, high, include_low, include_high))
                        == list(tree.range(low, high, include_low, include_high)))
        expected = list(tree.range(low, high))
        assert run.payloads(low, high) == [payload for _, payload in expected]
        assert run.slices(low, high) == ([key for key, _ in expected],
                                         [payload for _, payload in expected])


def tracked_objects(root):
    """GC-tracked objects reachable from ``root``, classes not followed."""
    seen, stack, count = {id(root)}, [root], 0
    while stack:
        obj = stack.pop()
        count += gc.is_tracked(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, type):
                seen.add(id(ref))
                stack.append(ref)
    return count


class TestRetainedObjects:
    def test_level_two_holds_the_run_and_its_two_lists(self):
        """A block's level 2 keeps three container objects whatever its
        size: no node, leaf list or payload group per key."""
        index = LayeredIndex("v", lambda tx: tx.values[0], continuous=False)
        pairs = [(f"key{position % 40}", position) for position in range(100)]
        index.add_entries(0, pairs, None)
        assert len(index.tree(0).keys()) == 40
        assert tracked_objects(index.tree(0)) == 3
