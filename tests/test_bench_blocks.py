"""``fiva bench`` generates its frames a block of identities at a time and hands
each block to the tracker, the per-frame anonymizer and the float32 frame
rows. Where the blocks end changes no byte it writes: runs cut into many
small blocks, the last holding a one-identity tail, and runs of one identity
per block write the files of a run whose one block holds every identity."""

import numpy as np
import pytest

from fiva import AnchorSet, cli, synth

DIM = 16
WHOLE = 1 << 40  # cells: one block holds every identity

# (identities, frames): four identities per block and one identity left over,
# so the runs cross four and five blocks, the last a lone identity. At one
# frame that block is a lone row.
SIZES = [(13, 3), (17, 1)]


def blocks(identities, frames):
    config = synth.SynthConfig(dimension=DIM, identity_count=identities, frames_per_identity=frames)
    return [part for part, _ in synth._frame_blocks(synth.generate_identities(config), config)]


def bench(tmp_path, monkeypatch, cells, name, identities, frames, *flags):
    """The exit code and the files (name -> bytes) of one run, its frames cut
    into blocks of ``cells`` cells."""
    monkeypatch.setattr(synth, "_BLOCK_ELEMENTS", cells)
    out = tmp_path / name
    code = cli.main(["bench", "--dim", str(DIM), "--identities", str(identities), "--frames", str(frames),
                     "--seed", "4", "--jitter", "0.05", *flags, "--out-dir", str(out)])
    return code, {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("identities, frames", SIZES)
def test_small_blocks_end_in_a_one_identity_tail(monkeypatch, identities, frames):
    monkeypatch.setattr(synth, "_BLOCK_ELEMENTS", 4 * frames * DIM)
    parts = blocks(identities, frames)
    assert len(parts) >= 4 and parts[-1].stop - parts[-1].start == 1
    assert [p.start for p in parts[1:]] == [p.stop for p in parts[:-1]] and parts[-1].stop == identities
    monkeypatch.setattr(synth, "_BLOCK_ELEMENTS", WHOLE)
    assert blocks(identities, frames) == [slice(0, identities)]


@pytest.mark.parametrize("identities, frames", SIZES)
@pytest.mark.parametrize("per_block", [4, 1])
@pytest.mark.parametrize("mode", synth.ANONYMIZER_MODES)
@pytest.mark.parametrize("margin", ["0", "0.3"])
def test_blocked_runs_write_the_bytes_of_one_block(tmp_path, monkeypatch, identities, frames, per_block,
                                                   mode, margin):
    # One identity per block: a block smaller than one identity's frames still
    # holds them all, and the tracker mints each block's one new identity alone.
    flags = ("--mode", mode, "--margin", margin)
    cells = 4 * frames * DIM if per_block == 4 else frames * DIM - 1
    blocked = bench(tmp_path, monkeypatch, cells, "blocked", identities, frames, *flags)
    whole = bench(tmp_path, monkeypatch, WHOLE, "whole", identities, frames, *flags)
    names = {"gallery.emb", "frames.emb", "fakes_tracked.emb", "fakes_per_frame.emb", "report.csv"}
    assert blocked[0] == whole[0] == 0
    assert set(whole[1]) == names | ({"anchors.emb"} if mode != "negation" else set())
    assert blocked[1] == whole[1]


def test_antipodal_pair_in_the_last_block_leaves_the_out_dir_empty(tmp_path, monkeypatch, capsys):
    # The anchor set gains the antipode of the last identity, the one-identity
    # tail that is the last block. At margin 1 and no jitter both the tracker's mint
    # and the per-frame sampler pick it for that identity's frames.
    build = cli.build_anchor_set

    def with_antipode(means, **kwargs):
        return AnchorSet(np.vstack([build(means, **kwargs).matrix, -means[-1]]))

    monkeypatch.setattr(cli, "build_anchor_set", with_antipode)
    monkeypatch.setattr(synth, "_BLOCK_ELEMENTS", 4 * 3 * DIM)
    out = tmp_path / "bench"
    code = cli.main(["bench", "--dim", str(DIM), "--identities", "13", "--frames", "3", "--jitter", "0",
                     "--mode", "slerp_blend", "--margin", "1", "--out-dir", str(out)])
    assert code == 2
    assert "antipodal" in capsys.readouterr().err
    assert out.is_dir() and not any(out.iterdir())
