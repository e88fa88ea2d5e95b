"""B-tree chunk index.

Chunked datasets locate their chunks through a B-tree keyed by the chunk's
coordinate in the chunk grid.  Every node the tree touches is a metadata
block read/written through :class:`~repro.hdf5.metaio.MetaIO` — so index
traffic shows up in DaYu's VFD trace as the metadata I/O the paper's
"metadata overhead" observations are about.

Nodes hold up to :data:`MAX_ENTRIES` entries and are allocated at their
maximum serialized size, so in-place rewrites never relocate a node; splits
allocate fresh nodes (more metadata churn, exactly like the real format).
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.hdf5.errors import H5FormatError
from repro.hdf5.metaio import MetaIO

__all__ = ["ChunkBTree", "MAX_ENTRIES", "node_capacity"]

_NODE_SIG = b"BTND"
_NODE_PREFIX = struct.Struct("<4sBBH")

#: Maximum entries per node before it splits.
MAX_ENTRIES = 32

Coords = Tuple[int, ...]


@dataclass
class _Entry:
    key: Coords
    addr: int      # leaf: chunk address | internal: child node address
    size: int = 0  # leaf only: chunk byte size


@dataclass
class _Node:
    is_leaf: bool
    ndim: int
    entries: List[_Entry] = field(default_factory=list)
    addr: int = -1  # file address, set when persisted

    def encode(self, capacity: int) -> bytes:
        pack = _entry_struct(self.ndim).pack
        out = b"".join([
            _NODE_PREFIX.pack(_NODE_SIG, 1 if self.is_leaf else 0, self.ndim, len(self.entries)),
            *[pack(*e.key, e.addr, e.size) for e in self.entries],
        ])
        if len(out) > capacity:
            raise H5FormatError("B-tree node exceeds its allocation")
        return out.ljust(capacity, b"\x00")

    @classmethod
    def decode(cls, data: bytes) -> "_Node":
        if len(data) < _NODE_PREFIX.size:
            raise H5FormatError("truncated B-tree node")
        sig, is_leaf, ndim, count = _NODE_PREFIX.unpack_from(data)
        if sig != _NODE_SIG:
            raise H5FormatError(f"bad B-tree node signature {sig!r}")
        entry = _entry_struct(ndim)
        end = _NODE_PREFIX.size + count * entry.size
        if end > len(data):
            raise H5FormatError("B-tree node entries overrun the block")
        return cls(
            is_leaf=bool(is_leaf),
            ndim=ndim,
            entries=[
                _Entry(fields[:ndim], fields[ndim], fields[ndim + 1])
                for fields in entry.iter_unpack(memoryview(data)[_NODE_PREFIX.size:end])
            ],
        )


@functools.lru_cache(maxsize=None)
def _entry_struct(ndim: int) -> struct.Struct:
    """One node entry: ``ndim`` key coordinates, then address and size."""
    return struct.Struct(f"<{ndim + 2}Q")


def node_capacity(ndim: int) -> int:
    """Fixed allocation size of a node for a given key rank."""
    return _NODE_PREFIX.size + MAX_ENTRIES * _entry_struct(ndim).size


_node_capacity = node_capacity  # internal alias


class ChunkBTree:
    """A persistent B-tree mapping chunk coordinates to (address, size).

    Args:
        io: Metadata block I/O services.
        ndim: Rank of the chunk-coordinate keys.
        root_addr: Address of an existing root node, or None to create an
            empty tree (allocates the root immediately so the dataset's
            layout message can reference it).
    """

    def __init__(self, io: MetaIO, ndim: int, root_addr: Optional[int] = None) -> None:
        if ndim < 1:
            raise H5FormatError("B-tree key rank must be >= 1")
        self._io = io
        self._ndim = ndim
        self._capacity = _node_capacity(ndim)
        #: addr -> (bytes, node) of the last node decoded or written there.
        self._decoded: Dict[int, Tuple[bytes, _Node]] = {}
        if root_addr is None:
            root = _Node(is_leaf=True, ndim=ndim)
            root.addr = io.allocate(self._capacity)
            self._write_node(root)
            self._root_addr = root.addr
        else:
            self._root_addr = root_addr

    @property
    def root_addr(self) -> int:
        return self._root_addr

    @property
    def ndim(self) -> int:
        return self._ndim

    # ------------------------------------------------------------------
    # Node persistence
    # ------------------------------------------------------------------
    def _read_node(self, addr: int) -> _Node:
        """The node at ``addr``.  The block is always read through the
        metadata cache; decoding is skipped when its bytes equal those of
        the node last decoded or written there."""
        data = self._io.read(addr, self._capacity)
        kept = self._decoded.get(addr)
        if kept is not None and kept[0] == data:
            return kept[1]
        node = _Node.decode(data)
        node.addr = addr
        if node.ndim != self._ndim:
            raise H5FormatError(
                f"B-tree node rank {node.ndim} != tree rank {self._ndim}"
            )
        self._decoded[addr] = (data, node)
        return node

    def _release(self, node: _Node) -> None:
        """Forget ``node``'s decoded form before changing it in memory, so a
        change that is never written back cannot be served as the block."""
        self._decoded.pop(node.addr, None)

    def _write_node(self, node: _Node) -> None:
        data = node.encode(self._capacity)
        self._io.write(node.addr, data)
        self._decoded[node.addr] = (data, node)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, key: Coords) -> Optional[Tuple[int, int]]:
        """Return (chunk_addr, chunk_size) for ``key``, or None."""
        key = self._check_key(key)
        node = self._read_node(self._root_addr)
        while not node.is_leaf:
            child = self._descend_entry(node, key)
            if child is None:
                return None
            node = self._read_node(child.addr)
        for e in node.entries:
            if e.key == key:
                return (e.addr, e.size)
        return None

    @staticmethod
    def _descend_entry(node: _Node, key: Coords) -> Optional[_Entry]:
        """The child entry whose subtree may hold ``key``."""
        candidate = None
        for e in node.entries:
            if e.key <= key:
                candidate = e
            else:
                break
        return candidate

    # ------------------------------------------------------------------
    # Insert / update
    # ------------------------------------------------------------------
    def insert(self, key: Coords, addr: int, size: int) -> None:
        """Insert ``key → (addr, size)``, replacing an existing mapping."""
        key = self._check_key(key)
        split = self._insert_into(self._root_addr, key, addr, size)
        if split is not None:
            # Root split: grow the tree by one level.
            sep_key, new_addr = split
            old_root = self._read_node(self._root_addr)
            new_root = _Node(is_leaf=False, ndim=self._ndim)
            new_root.addr = self._io.allocate(self._capacity)
            first_key = old_root.entries[0].key if old_root.entries else (0,) * self._ndim
            new_root.entries = [
                _Entry(first_key, self._root_addr),
                _Entry(sep_key, new_addr),
            ]
            self._write_node(new_root)
            self._root_addr = new_root.addr

    def _insert_into(
        self, node_addr: int, key: Coords, addr: int, size: int
    ) -> Optional[Tuple[Coords, int]]:
        """Insert below ``node_addr``; returns (sep_key, new_node_addr) on split."""
        node = self._read_node(node_addr)
        if node.is_leaf:
            self._release(node)
            for e in node.entries:
                if e.key == key:
                    e.addr, e.size = addr, size
                    self._write_node(node)
                    return None
            node.entries.append(_Entry(key, addr, size))
            node.entries.sort(key=lambda e: e.key)
        else:
            child = self._descend_entry(node, key)
            if child is None:
                # Key sorts before every separator: route to the first child
                # and lower that separator.
                self._release(node)
                child = node.entries[0]
                child.key = key
                node.entries.sort(key=lambda e: e.key)
                self._write_node(node)
            split = self._insert_into(child.addr, key, addr, size)
            if split is None:
                return None
            sep_key, new_addr = split
            self._release(node)
            node.entries.append(_Entry(sep_key, new_addr))
            node.entries.sort(key=lambda e: e.key)
        if len(node.entries) <= MAX_ENTRIES:
            self._write_node(node)
            return None
        # Split: move the upper half to a fresh node.
        mid = len(node.entries) // 2
        sibling = _Node(is_leaf=node.is_leaf, ndim=self._ndim)
        sibling.entries = node.entries[mid:]
        node.entries = node.entries[:mid]
        sibling.addr = self._io.allocate(self._capacity)
        self._write_node(node)
        self._write_node(sibling)
        return (sibling.entries[0].key, sibling.addr)

    # ------------------------------------------------------------------
    # Iteration / stats
    # ------------------------------------------------------------------
    def items(self) -> Iterator[Tuple[Coords, int, int]]:
        """Yield (key, addr, size) for every chunk, in key order."""
        yield from self._items_under(self._root_addr)

    def _items_under(self, node_addr: int) -> Iterator[Tuple[Coords, int, int]]:
        node = self._read_node(node_addr)
        if node.is_leaf:
            for e in node.entries:
                yield (e.key, e.addr, e.size)
        else:
            for e in node.entries:
                yield from self._items_under(e.addr)

    def node_addrs(self) -> List[int]:
        """File addresses of every node in the tree (root first)."""
        out: List[int] = []
        stack = [self._root_addr]
        while stack:
            addr = stack.pop()
            out.append(addr)
            node = self._read_node(addr)
            if not node.is_leaf:
                stack.extend(e.addr for e in node.entries)
        return out

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    def height(self) -> int:
        """Number of levels (1 for a lone leaf root)."""
        levels = 1
        node = self._read_node(self._root_addr)
        while not node.is_leaf:
            levels += 1
            node = self._read_node(node.entries[0].addr)
        return levels

    def _check_key(self, key: Coords) -> Coords:
        key = tuple(int(k) for k in key)
        if len(key) != self._ndim:
            raise H5FormatError(f"key rank {len(key)} != tree rank {self._ndim}")
        return key
