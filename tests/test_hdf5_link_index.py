"""The per-header link index stays equal to the header's LINK messages.

Groups look children up through ``ObjectHeader.link_index()``, a lazily
built ``name -> (kind, addr)`` map.  These tests drive random sequences of
creates, deletes and flushes (flushes relocate grown headers and re-point
their parents' links) and compare the index against a fresh decode of the
LINK messages after every step, then reopen the file read-only.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hdf5 import H5File
from repro.hdf5.errors import H5NameError
from repro.hdf5.oheader import (
    DEFAULT_HEADER_CAPACITY,
    MessageType,
    ObjectHeader,
    ObjectKind,
    decode_link,
)
from repro.posix import SimFS
from repro.simclock import SimClock
from repro.storage import Mount, make_device

#: Long names make a handful of links outgrow the default header block.
NAMES = [f"{stem}_{'x' * 72}" for stem in "abcdefgh"]

OPS = st.lists(
    st.tuples(
        st.sampled_from(["group", "dataset", "delete", "flush"]),
        st.integers(0, 63),
        st.sampled_from(NAMES),
    ),
    max_size=60,
)


def make_fs():
    return SimFS(SimClock(), mounts=[Mount("/", make_device("ram"))])


def decoded_links(header):
    return [
        (name, (kind, addr))
        for name, kind, addr in (
            decode_link(m.payload) for m in header.find_all(MessageType.LINK)
        )
    ]


def check_indexes(f):
    for rec in f._objects.values():
        assert list(rec.header.link_index().items()) == decoded_links(rec.header)


def check_parent_links(f):
    """After a flush every child's parent link names its current block."""
    for rec in f._objects.values():
        if rec.parent_oid is not None and rec.parent_oid in f._objects:
            parent = f._objects[rec.parent_oid].header
            assert parent.link_index()[rec.name] == (rec.kind, rec.addr)


def join(parent, name):
    return parent.rstrip("/") + "/" + name


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ops=OPS)
def test_index_matches_messages_through_random_edits(ops):
    fs = make_fs()
    f = H5File(fs, "/links.h5", "w")
    model = {"/": {}}  # group path -> {child name: kind}, in link order
    for op, pick, name in ops:
        groups = sorted(model)
        parent = groups[pick % len(groups)]
        children = model[parent]
        g = f.root if parent == "/" else f[parent]
        if op == "flush":
            f.flush()
            check_parent_links(f)
        elif op == "delete":
            if not children:
                with pytest.raises(H5NameError):
                    g.delete(name)
                continue
            victim = list(children)[pick % len(children)]
            g.delete(victim)
            kind = children.pop(victim)
            if kind == ObjectKind.GROUP:
                gone = join(parent, victim)
                for path in [p for p in model if p == gone or p.startswith(gone + "/")]:
                    del model[path]
        elif name in children:
            with pytest.raises(H5NameError):
                if op == "group":
                    g.create_group(name)
                else:
                    g.create_dataset(name, shape=(2,))
        elif op == "group":
            g.create_group(name)
            children[name] = ObjectKind.GROUP
            model[join(parent, name)] = {}
        else:
            g.create_dataset(name, shape=(2,))
            children[name] = ObjectKind.DATASET
        check_indexes(f)
        assert g.keys() == list(children)
    f.close()

    f = H5File(fs, "/links.h5", "r")
    for path, children in model.items():
        g = f.root if path == "/" else f[path]
        assert g.keys() == list(children)
        assert len(g) == len(children)
        for name, kind in children.items():
            assert name in g
            assert f"{path}/{name}".lstrip("/") in f
            child = g[name]
            assert (kind == ObjectKind.GROUP) == hasattr(child, "keys")
        for name in NAMES:
            if name not in children:
                assert name not in g
                assert g.get(name) is None
    check_indexes(f)
    f.close()


def test_relocated_headers_are_repointed_and_reopen():
    fs = make_fs()
    with H5File(fs, "/grow.h5", "w") as f:
        sub = f.create_group("sub")
        for name in NAMES:
            sub.create_group(name).create_dataset("d", shape=(1,))
        f.flush()
        rec = f._record(sub._oid)
        assert rec.header.capacity > DEFAULT_HEADER_CAPACITY
        check_parent_links(f)
        check_indexes(f)
        sub.delete(NAMES[0])
        sub.create_group(NAMES[0])
        assert sub.keys() == NAMES[1:] + NAMES[:1]
        check_indexes(f)
    with H5File(fs, "/grow.h5", "r") as f:
        assert f["sub"].keys() == NAMES[1:] + NAMES[:1]
        assert f["sub"][NAMES[1]].keys() == ["d"]
        assert f[f"sub/{NAMES[0]}"].keys() == []


def test_index_survives_non_link_edits():
    header = ObjectHeader(kind=ObjectKind.GROUP)
    header.add_link("a", ObjectKind.GROUP, 100)
    header.add_link("b", ObjectKind.DATASET, 200)
    assert header.link_index() == {"a": (ObjectKind.GROUP, 100),
                                   "b": (ObjectKind.DATASET, 200)}
    header.replace(MessageType.ATTRIBUTE, b"attr")
    header.remove(lambda m: m.type == MessageType.ATTRIBUTE)
    assert header.repoint_link("b", 300)
    assert not header.repoint_link("missing", 1)
    assert header.remove_link("a") == 1
    assert header.remove_link("a") == 0
    assert list(header.link_index().items()) == decoded_links(header)
    back = ObjectHeader.decode(header.encode())
    assert back.link_index() == {"b": (ObjectKind.DATASET, 300)}


def test_duplicate_link_names_resolve_to_the_first():
    header = ObjectHeader(kind=ObjectKind.GROUP)
    header.add_link("a", ObjectKind.GROUP, 100)
    header.add_link("a", ObjectKind.DATASET, 200)
    back = ObjectHeader.decode(header.encode())
    assert back.link_index() == {"a": (ObjectKind.GROUP, 100)}
    assert back.repoint_link("a", 300)
    assert decoded_links(back) == [("a", (ObjectKind.GROUP, 300)),
                                   ("a", (ObjectKind.DATASET, 200))]
