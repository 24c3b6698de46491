"""Commands move their rows as arrays: no ``Embedding`` is built on a command path."""

import numpy as np
import pytest

from fiva import Embedding, write_container
from fiva.cli import main

DIM = 16


def unit_rows(rng, count):
    rows = rng.normal(size=(count, DIM))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.fixture
def work(rng, tmp_path, monkeypatch):
    means = unit_rows(rng, 8)
    means[1] = -means[0]  # one antipodal pair, so build-anchors records a skip
    write_container(tmp_path / "means.emb", means)
    frames = np.repeat(unit_rows(rng, 6), 3, axis=0)
    write_container(tmp_path / "frames.emb", frames)
    write_container(tmp_path / "probes.emb", frames, [f"p{i // 3}" for i in range(len(frames))])
    write_container(tmp_path / "gallery.emb", frames[::3], [f"p{i}" for i in range(6)])
    assert main(["build-anchors", "--means", str(tmp_path / "means.emb"),
                 "--out", str(tmp_path / "anchors.emb")]) == 0

    def refuse(self):
        raise AssertionError("an Embedding was built on a command path")

    monkeypatch.setattr(Embedding, "__post_init__", refuse)
    monkeypatch.chdir(tmp_path)
    return tmp_path


# Each command line, in order, with the files the fixture writes.
COMMANDS = {
    "build-anchors": [
        "build-anchors --means means.emb --rounds 3 --out a3.emb"
        " --provenance provenance.csv --skips skips.csv",
    ],
    "sample": ["sample --anchors anchors.emb --query frames.emb --out s.emb"],
    "track": [
        "track --frames frames.emb --anchors anchors.emb"
        " --state-out state1.bin --out t1.emb --log t1.csv",
        "track --frames probes.emb --anchors anchors.emb --state-in state1.bin"
        " --state-out state2.bin --out t2.emb --log t2.csv",
    ],
    "eval-retrieval": [
        "eval-retrieval --probes probes.emb --gallery gallery.emb --report r.csv",
        "eval-retrieval --probes probes.emb --gallery gallery.emb --negate --report n.csv",
    ],
    "eval-temporal": ["eval-temporal --frames frames.emb probes.emb --report v.csv"],
    "detect": ["detect --inputs frames.emb --outputs probes.emb --report d.csv"],
    **{
        f"bench-{mode}": [
            f"bench --dim {DIM} --identities 6 --frames 3 --mode {mode} --out-dir bench_{mode}"
        ]
        for mode in ("negation", "anchor_sample", "slerp_blend")
    },
}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_builds_no_embedding(work, capsys, name):
    for line in COMMANDS[name]:
        assert main(line.split()) == 0, capsys.readouterr().err
    capsys.readouterr()


def test_the_guard_catches_an_embedding(work):
    with pytest.raises(AssertionError, match="command path"):
        Embedding(np.ones(DIM))
