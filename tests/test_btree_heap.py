"""Unit tests for the chunk-index B-tree and the global heap."""

import hashlib
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.hdf5.btree import MAX_ENTRIES, ChunkBTree, _Entry, _Node, node_capacity
from repro.hdf5.errors import H5FormatError
from repro.hdf5.freespace import FreeSpaceManager
from repro.hdf5.heap import GlobalHeap, HeapRef
from repro.hdf5.meta_cache import MetadataCache
from repro.hdf5.metaio import MetaIO
from repro.posix import SimFS
from repro.simclock import SimClock
from repro.storage import Mount, make_device
from repro.vfd import Sec2VFD


@pytest.fixture()
def io():
    fs = SimFS(SimClock(), mounts=[Mount("/", make_device("ram"))])
    vfd = Sec2VFD(fs, "/t.bin", "w")
    return MetaIO(vfd, FreeSpaceManager(), MetadataCache())


class TestChunkBTree:
    def test_empty_lookup(self, io):
        tree = ChunkBTree(io, ndim=1)
        assert tree.lookup((0,)) is None
        assert len(tree) == 0

    def test_insert_lookup(self, io):
        tree = ChunkBTree(io, ndim=1)
        tree.insert((3,), addr=1000, size=64)
        assert tree.lookup((3,)) == (1000, 64)
        assert tree.lookup((4,)) is None

    def test_update_existing_key(self, io):
        tree = ChunkBTree(io, ndim=1)
        tree.insert((1,), 10, 5)
        tree.insert((1,), 20, 6)
        assert tree.lookup((1,)) == (20, 6)
        assert len(tree) == 1

    def test_2d_keys(self, io):
        tree = ChunkBTree(io, ndim=2)
        tree.insert((0, 1), 100, 8)
        tree.insert((1, 0), 200, 8)
        assert tree.lookup((0, 1)) == (100, 8)
        assert tree.lookup((1, 0)) == (200, 8)

    def test_rank_mismatch(self, io):
        tree = ChunkBTree(io, ndim=2)
        with pytest.raises(H5FormatError):
            tree.insert((1,), 0, 0)
        with pytest.raises(H5FormatError):
            tree.lookup((1, 2, 3))

    def test_items_in_key_order(self, io):
        tree = ChunkBTree(io, ndim=1)
        for k in (5, 1, 9, 3, 7):
            tree.insert((k,), k * 100, 10)
        keys = [k for k, _, _ in tree.items()]
        assert keys == sorted(keys)

    def test_split_grows_height(self, io):
        tree = ChunkBTree(io, ndim=1)
        assert tree.height() == 1
        for i in range(MAX_ENTRIES + 1):
            tree.insert((i,), i * 10, 1)
        assert tree.height() == 2
        for i in range(MAX_ENTRIES + 1):
            assert tree.lookup((i,)) == (i * 10, 1)

    def test_many_inserts_multilevel(self, io):
        tree = ChunkBTree(io, ndim=1)
        n = MAX_ENTRIES * MAX_ENTRIES + 10  # forces at least 3 levels
        for i in range(n):
            tree.insert((i,), i, 1)
        assert tree.height() >= 3
        assert len(tree) == n
        for probe in (0, 1, MAX_ENTRIES, n // 2, n - 1):
            assert tree.lookup((probe,)) == (probe, 1)

    def test_reverse_order_inserts(self, io):
        tree = ChunkBTree(io, ndim=1)
        n = MAX_ENTRIES * 3
        for i in reversed(range(n)):
            tree.insert((i,), i + 1, 2)
        for i in range(n):
            assert tree.lookup((i,)) == (i + 1, 2)

    def test_reopen_from_root_addr(self, io):
        tree = ChunkBTree(io, ndim=1)
        for i in range(100):
            tree.insert((i,), i * 7, 3)
        root = tree.root_addr
        reopened = ChunkBTree(io, ndim=1, root_addr=root)
        assert reopened.lookup((42,)) == (294, 3)
        assert len(reopened) == 100

    def test_bad_rank_construction(self, io):
        with pytest.raises(H5FormatError):
            ChunkBTree(io, ndim=0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=300, unique=True))
    def test_property_matches_dict(self, keys):
        fs = SimFS(SimClock(), mounts=[Mount("/", make_device("ram"))])
        io = MetaIO(Sec2VFD(fs, "/p.bin", "w"), FreeSpaceManager(), MetadataCache())
        tree = ChunkBTree(io, ndim=1)
        ref = {}
        for k in keys:
            tree.insert((k,), k * 2, k % 17)
            ref[(k,)] = (k * 2, k % 17)
        for k, v in ref.items():
            assert tree.lookup(k) == v
        assert [k for k, _, _ in tree.items()] == sorted(ref)


def _golden_node(ndim, n):
    entries = [
        _Entry(tuple(i * 7 + d * 3 + 1 for d in range(ndim)), 4096 + i * 977, (i * 131) % 5000)
        for i in range(n)
    ]
    return _Node(is_leaf=(n % 2 == 0), ndim=ndim, entries=entries)


#: SHA-256 of ``_golden_node(ndim, n).encode(node_capacity(ndim))`` as the
#: per-coordinate encoder produced it; the fixed-width entry codec must
#: write the same bytes.
GOLDEN_NODE_SHA256 = {
    (1, 0): "35c8b9f6f3765f1c640d6dcc5aec9f198ddfaa016915b19e28a13f9a5b36aa20",
    (1, 1): "314ddf43b2ec88a3be5b3db814ef6dd75056a53919fcb5217ce5070a1b1d4f1a",
    (1, 32): "2b3bab598bf115eadcc159f795aef9a7621501cad493f65d5296ea0e65c5eb01",
    (2, 0): "f275fce60bc73761eb2dc7e7a2609135a28105e4de4a04fa99cab5b0dca596b8",
    (2, 1): "85df304f3a47561ed82cbd5955a7eed10e3f39fd8d134d644d9316b529070f78",
    (2, 32): "87bde229df0a75b97281752a6cdd89ac1395fd85f785de00e2b893338504550d",
    (3, 0): "b6aff4027f86a064790415d2454a07678e6157e7fc73f7c7068251d43d2ef27c",
    (3, 1): "288d83096464220f5b08844708896b3fd8f5fffe850a2cb2164cebbc28222187",
    (3, 32): "74a0dc3d7dd701ce73b5bad198bc1e41365c836936a695f795acd43f99afedd9",
    (4, 0): "fbcb6e0f641ad6b879e012b174d35a7afd8e0153194f61dcbdae94d048922312",
    (4, 1): "0c73a19353f0ccadb31def4d5a758b1684f4e8f3a9ba4d5a5e39eebc0429ab91",
    (4, 32): "5799ff97e794e6eff95d05e4a41ca91396d47ff0205ba0d7f433d666ce7b751d",
}


class TestNodeCodec:
    @pytest.mark.parametrize("ndim,n", sorted(GOLDEN_NODE_SHA256))
    def test_golden_bytes_and_roundtrip(self, ndim, n):
        assert n in (0, 1, MAX_ENTRIES)
        node = _golden_node(ndim, n)
        data = node.encode(node_capacity(ndim))
        assert len(data) == node_capacity(ndim)
        assert hashlib.sha256(data).hexdigest() == GOLDEN_NODE_SHA256[(ndim, n)]
        back = _Node.decode(data)
        assert (back.is_leaf, back.ndim, back.entries) == (node.is_leaf, ndim, node.entries)
        assert back.encode(node_capacity(ndim)) == data

    def test_entry_count_overrunning_block(self):
        data = bytearray(_golden_node(2, 1).encode(node_capacity(2)))
        struct.pack_into("<H", data, 6, 200)  # the prefix's entry count
        with pytest.raises(H5FormatError, match="overrun"):
            _Node.decode(bytes(data))

    def test_truncated_entries(self):
        data = _golden_node(2, 1).encode(node_capacity(2))
        with pytest.raises(H5FormatError, match="overrun"):
            _Node.decode(data[: 8 + 20])
        with pytest.raises(H5FormatError, match="truncated"):
            _Node.decode(data[:5])

    def test_bad_signature(self):
        data = b"XXXX" + _golden_node(1, 1).encode(node_capacity(1))[4:]
        with pytest.raises(H5FormatError, match="signature"):
            _Node.decode(data)

    def test_node_of_wrong_rank_rejected(self, io):
        tree = ChunkBTree(io, ndim=2)
        io.write(tree.root_addr, _golden_node(1, 1).encode(node_capacity(2)))
        with pytest.raises(H5FormatError, match="rank"):
            tree.lookup((0, 0))


class TestDecodedNodes:
    def test_every_node_read_goes_through_the_cache(self, io):
        tree = ChunkBTree(io, ndim=1)
        for i in range(MAX_ENTRIES + 1):
            tree.insert((i,), i, 1)
        before = io.cache.hits + io.cache.misses
        for _ in range(5):
            assert tree.lookup((3,)) == (3, 1)
        # Two levels: a root and a leaf read per lookup.
        assert io.cache.hits + io.cache.misses - before == 10

    def test_cache_disabled(self):
        fs = SimFS(SimClock(), mounts=[Mount("/", make_device("ram"))])
        io = MetaIO(Sec2VFD(fs, "/n.bin", "w"), FreeSpaceManager(),
                    MetadataCache(enabled=False))
        tree = ChunkBTree(io, ndim=1)
        for i in reversed(range(MAX_ENTRIES * 2)):
            tree.insert((i,), i + 5, 2)
        assert [k for (k,), _, _ in tree.items()] == list(range(MAX_ENTRIES * 2))
        assert tree.lookup((7,)) == (12, 2)

    def test_change_that_failed_to_write_is_not_served(self, io):
        tree = ChunkBTree(io, ndim=1)
        tree.insert((1,), 10, 1)
        assert tree.lookup((1,)) == (10, 1)
        real_write = io.write

        def failing_write(addr, data):
            raise OSError("injected")

        io.write = failing_write
        with pytest.raises(OSError):
            tree.insert((2,), 20, 1)
        with pytest.raises(OSError):
            tree.insert((1,), 99, 9)
        io.write = real_write
        assert tree.lookup((2,)) is None
        assert tree.lookup((1,)) == (10, 1)

    def test_block_changed_behind_the_tree(self, io):
        tree = ChunkBTree(io, ndim=1)
        tree.insert((1,), 10, 1)
        other = ChunkBTree(io, ndim=1, root_addr=tree.root_addr)
        assert other.lookup((1,)) == (10, 1)
        tree.insert((1,), 30, 3)
        assert other.lookup((1,)) == (30, 3)


class TestGlobalHeap:
    def test_insert_read_roundtrip(self, io):
        heap = GlobalHeap(io)
        ref = heap.insert(b"hello heap")
        assert heap.read(ref) == b"hello heap"

    def test_refs_encode_roundtrip(self):
        ref = HeapRef(12345, 7, 890)
        assert HeapRef.decode(ref.encode()) == ref
        assert len(ref.encode()) == HeapRef.nbytes()

    def test_batch_roundtrip(self, io):
        heap = GlobalHeap(io)
        items = [b"a" * i for i in range(1, 20)]
        refs = heap.insert_batch(items)
        assert [heap.read(r) for r in refs] == items

    def test_empty_batch(self, io):
        assert GlobalHeap(io).insert_batch([]) == []

    def test_collection_rollover(self, io):
        heap = GlobalHeap(io, data_capacity=100)
        refs = [heap.insert(b"x" * 40) for _ in range(5)]
        addrs = {r.collection_addr for r in refs}
        assert len(addrs) >= 2  # rolled to a new collection
        for r in refs:
            assert heap.read(r) == b"x" * 40

    def test_oversized_object_gets_own_collection(self, io):
        heap = GlobalHeap(io, data_capacity=64)
        small = heap.insert(b"s")
        big = heap.insert(b"B" * 1000)
        assert big.collection_addr != small.collection_addr
        assert heap.read(big) == b"B" * 1000

    def test_dir_entries_limit_rolls_collection(self, io):
        heap = GlobalHeap(io, dir_entries=3, data_capacity=10_000)
        refs = [heap.insert(b"t") for _ in range(7)]
        assert len({r.collection_addr for r in refs}) == 3

    def test_flush_and_cold_read(self):
        """References must dereference after closing and reopening — i.e.
        through the on-disk directory, not in-memory state."""
        fs = SimFS(SimClock(), mounts=[Mount("/", make_device("ram"))])
        vfd = Sec2VFD(fs, "/h.bin", "w")
        alloc = FreeSpaceManager()
        heap = GlobalHeap(MetaIO(vfd, alloc, MetadataCache()))
        refs = [heap.insert(b"item-%d" % i) for i in range(10)]
        refs += heap.insert_batch([b"batch-%d" % i for i in range(5)])
        heap.flush()
        vfd.close()
        # Fresh heap over the same file: no in-memory directories.
        vfd2 = Sec2VFD(fs, "/h.bin", "r")
        heap2 = GlobalHeap(MetaIO(vfd2, alloc, MetadataCache()))
        assert heap2.read(refs[3]) == b"item-3"
        assert heap2.read(refs[12]) == b"batch-2"

    def test_bad_index_rejected(self, io):
        heap = GlobalHeap(io)
        ref = heap.insert(b"one")
        bogus = HeapRef(ref.collection_addr, 99, 3)
        with pytest.raises(H5FormatError):
            heap.read(bogus)

    def test_batch_uses_single_raw_write(self):
        fs = SimFS(SimClock(), mounts=[Mount("/", make_device("ram"))])
        vfd = Sec2VFD(fs, "/h.bin", "w")
        heap = GlobalHeap(MetaIO(vfd, FreeSpaceManager(), MetadataCache()))
        fs.clear_log()
        heap.insert_batch([b"q" * 10] * 30)
        assert fs.op_count(op="write") == 1

    def test_individual_inserts_write_per_element(self):
        fs = SimFS(SimClock(), mounts=[Mount("/", make_device("ram"))])
        vfd = Sec2VFD(fs, "/h.bin", "w")
        heap = GlobalHeap(MetaIO(vfd, FreeSpaceManager(), MetadataCache()))
        fs.clear_log()
        for _ in range(30):
            heap.insert(b"q" * 10)
        assert fs.op_count(op="write") == 30

    def test_dirty_collections_counter(self, io):
        heap = GlobalHeap(io)
        assert heap.dirty_collections == 0
        heap.insert(b"x")
        assert heap.dirty_collections == 1
        heap.flush()
        assert heap.dirty_collections == 0

    def test_invalid_capacities(self, io):
        with pytest.raises(H5FormatError):
            GlobalHeap(io, dir_entries=0)
        with pytest.raises(H5FormatError):
            GlobalHeap(io, data_capacity=0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.binary(max_size=500), min_size=1, max_size=60))
    def test_property_roundtrip_mixed_paths(self, items):
        fs = SimFS(SimClock(), mounts=[Mount("/", make_device("ram"))])
        vfd = Sec2VFD(fs, "/p.bin", "w")
        heap = GlobalHeap(MetaIO(vfd, FreeSpaceManager(), MetadataCache()),
                          data_capacity=256)
        refs = []
        for i, item in enumerate(items):
            if i % 3 == 0:
                refs.extend(heap.insert_batch([item]))
            else:
                refs.append(heap.insert(item))
        heap.flush()
        assert [heap.read(r) for r in refs] == items
