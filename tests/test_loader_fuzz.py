"""Loader fuzzing: a mutated checkpoint or graph snapshot either loads to an
object that round-trips through its writer, or raises the loader's own error.

Mutations are byte flips, truncations and edits of one JSON field (replaced
by an arbitrary JSON value, or deleted) of a small ``.ckpt`` and ``.dgm``.
"""
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dgmem.graph import GraphMemory, SnapshotError
from dgmem.learner import CheckpointError, load_checkpoint, save_checkpoint
from dgmem.nn import ActorCritic

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

json_values = st.recursive(
    st.none() | st.booleans()
    | st.integers(-10 ** 20, 10 ** 20) | st.integers(-3, 12)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


def flip(data: bytes, flips) -> bytes:
    out = bytearray(data)
    for index, mask in flips:
        out[index % len(out)] ^= mask
    return bytes(out)


@st.composite
def byte_flips(draw, data: bytes) -> bytes:
    flips = draw(st.lists(st.tuples(st.integers(0, len(data) - 1),
                                    st.integers(1, 255)),
                          min_size=1, max_size=4))
    return flip(data, flips)


@st.composite
def field_edit(draw, doc):
    """``doc`` with one field, found by a random walk, replaced or deleted."""
    doc = json.loads(json.dumps(doc))
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(list(keys)))
        node = node[key]
        if draw(st.booleans()):
            break
    if parent is None:
        return draw(json_values)
    if draw(st.integers(0, 4)) == 0:
        del parent[key]
    else:
        parent[key] = draw(json_values)
    return doc


# -- checkpoints -----------------------------------------------------------------

def checkpoint_bytes(tmp_path) -> bytes:
    path = tmp_path / "small.ckpt"
    save_checkpoint(str(path), ActorCritic(6, 4, hidden=(5, 3), seed=1))
    return path.read_bytes()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def assert_checkpoint_loads_or_rejects(workdir, data: bytes) -> None:
    path = workdir / "mutated.ckpt"
    path.write_bytes(data)
    try:
        net = load_checkpoint(str(path))
    except CheckpointError:
        return
    again_path = workdir / "again.ckpt"
    save_checkpoint(str(again_path), net)
    again = load_checkpoint(str(again_path))
    assert (again.input_dim, again.n_actions, again.hidden) == (
        net.input_dim, net.n_actions, net.hidden)
    assert list(again.params) == list(net.params)
    for name, value in net.params.items():
        assert again.params[name].tobytes() == value.tobytes()
    save_checkpoint(str(path), again)
    assert path.read_bytes() == again_path.read_bytes()


class TestCheckpointFuzz:
    @FUZZ
    @given(data=st.data())
    def test_byte_flips(self, workdir, data):
        original = checkpoint_bytes(workdir)
        assert_checkpoint_loads_or_rejects(
            workdir, data.draw(byte_flips(original)))

    @FUZZ
    @given(data=st.data())
    def test_truncations(self, workdir, data):
        original = checkpoint_bytes(workdir)
        size = data.draw(st.integers(0, len(original) - 1))
        assert_checkpoint_loads_or_rejects(workdir, original[:size])

    @FUZZ
    @given(data=st.data())
    def test_manifest_field_edits(self, workdir, data):
        header, manifest, body = checkpoint_bytes(workdir).split(b"\n", 2)
        doc = data.draw(field_edit(json.loads(manifest)))
        assert_checkpoint_loads_or_rejects(
            workdir, header + b"\n" + json.dumps(doc).encode() + b"\n" + body)

    @pytest.mark.parametrize("edit", [
        {"input_dim": 10 ** 12}, {"hidden": [10 ** 9, 10 ** 9]},
        {"input_dim": 0}, {"n_actions": -1}, {"input_dim": float("inf")},
        {"hidden": [5]}, {"hidden": [5, 3, 2]}])
    def test_impossible_networks_rejected_before_allocating(self, workdir,
                                                             edit):
        header, manifest, body = checkpoint_bytes(workdir).split(b"\n", 2)
        doc = {**json.loads(manifest), **edit}
        path = workdir / "edited.ckpt"
        path.write_bytes(header + b"\n" + json.dumps(doc).encode() + b"\n"
                         + body)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_deeply_nested_manifest_rejected(self, workdir):
        path = workdir / "nested.ckpt"
        path.write_bytes(b"dgmem-ckpt-v1\n" + b"[" * 100000 + b"\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))


# -- graph snapshots -------------------------------------------------------------

def snapshot_text() -> str:
    g = GraphMemory()
    rng = np.random.default_rng(0)
    for i in range(4):
        feat = rng.standard_normal(6)
        g.try_add_node(feat / np.linalg.norm(feat),
                       np.array([3.0 * i, 0.5 * i, 0.0]), 5.0, step=i)
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 1)):
        g.localize(g.nodes[a].feature, g.nodes[a].pose)
        g.break_trajectory()
        g.localize(g.nodes[b].feature, g.nodes[b].pose)
        g.record_transition(a % 4, g.nodes[b].feature, g.nodes[b].pose)
    g.origin = (4.0, 5.0, 0.0)
    assert g.num_edges == 4 and len(g) == 4
    return g.snapshot()


def assert_snapshot_loads_or_rejects(text: str) -> None:
    try:
        graph = GraphMemory.restore(text)
    except SnapshotError:
        return
    first = graph.snapshot()
    assert GraphMemory.restore(first).snapshot() == first
    # an accepted snapshot is a usable graph: every route can be planned
    for src in graph.nodes:
        for dst in graph.nodes:
            graph.weighted_path(src, dst)
            graph.distances_from(src)


class TestSnapshotFuzz:
    @FUZZ
    @given(data=st.data())
    def test_byte_flips(self, data):
        original = snapshot_text().encode()
        mutated = data.draw(byte_flips(original))
        assert_snapshot_loads_or_rejects(mutated.decode(errors="replace"))

    @FUZZ
    @given(data=st.data())
    def test_truncations(self, data):
        original = snapshot_text()
        assert_snapshot_loads_or_rejects(
            original[:data.draw(st.integers(0, len(original) - 1))])

    @FUZZ
    @given(data=st.data())
    def test_field_edits(self, data):
        header, body = snapshot_text().split("\n", 1)
        doc = data.draw(field_edit(json.loads(body)))
        assert_snapshot_loads_or_rejects(header + "\n" + json.dumps(doc))

    @pytest.mark.parametrize("edit", [
        lambda d: d["edges"][0].update(i=d["edges"][0]["j"],
                                       j=d["edges"][0]["i"]),
        lambda d: d["edges"].append(dict(d["edges"][0])),
        lambda d: d["edges"][0].update(j=d["edges"][0]["i"]),
        lambda d: d["thresholds"].update(traj_cap=float("inf")),
        lambda d: d["nodes"][1].update(count=float("inf")),
        lambda d: d.update(origin=[1.0, "x", 0.0]),
        lambda d: d.update(origin=[1.0, 2.0]),
    ])
    def test_unusable_snapshots_rejected(self, edit):
        header, body = snapshot_text().split("\n", 1)
        doc = json.loads(body)
        edit(doc)
        with pytest.raises(SnapshotError):
            GraphMemory.restore(header + "\n" + json.dumps(doc))

    def test_deeply_nested_snapshot_rejected(self):
        with pytest.raises(SnapshotError):
            GraphMemory.restore("dgmem-graph-v1\n" + "[" * 100000)
