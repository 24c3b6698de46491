"""``fiva bench`` streams ``frames.emb`` into its staged temporary as each block
of frames is made, through the one container writer, ``io._container_writer``,
given the file ``io._opened`` stages. The streamed file holds the bytes
``write_container`` writes; a run that fails once streaming has begun leaves
the files of an earlier run as they were and no temporary, a killed run leaves
them too, beside its one temporary, and a run stopped by SIGINT or SIGTERM
exits 2 with one line on stderr and leaves them with no temporary."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fiva
from fiva import MAGIC, ShapeMismatch, cli, synth, write_container
from fiva import io as fio

DIM, IDENTITIES, FRAMES = 64, 13, 4
# Four identities per block: blocks of 4, 4, 4 and 1 identities.
BLOCK_CELLS = 4 * FRAMES * DIM
LAST_BLOCK = 12 * FRAMES  # the first frame row of the last block


def bench_args(out, seed, *flags):
    return ["bench", "--dim", str(DIM), "--identities", str(IDENTITIES), "--frames", str(FRAMES),
            "--seed", str(seed), "--jitter", "0.05", *flags, "--out-dir", str(out)]


def files(folder):
    return {path.name: path.read_bytes() for path in sorted(folder.iterdir())}


@pytest.fixture
def earlier(tmp_path, monkeypatch):
    """An --out-dir holding the files of a seed-1 run, and those files. The runs
    under test use seed 2, so every file they would land differs."""
    monkeypatch.setattr(synth, "_BLOCK_ELEMENTS", BLOCK_CELLS)
    out = tmp_path / "out"
    assert cli.main(bench_args(out, 1)) == 0
    return out, files(out)


def test_streamed_container_holds_the_bytes_of_write_container(rng, tmp_path):
    # Blocks of uneven sizes, one empty and one larger than the writer's buffer.
    rows = rng.normal(size=(3000, 96))
    labels = [f"row {i}" for i in range(len(rows))]
    path = tmp_path / "rows.emb"
    with fio._opened(path) as fh, fio._container_writer(fh, len(rows), 96, labels) as write:
        for part in (slice(0, 1), slice(1, 2900), slice(2900, 2900), slice(2900, 3000)):
            write(rows[part])
        assert not path.exists()
    write_container(tmp_path / "whole.emb", rows, labels)
    assert path.read_bytes() == (tmp_path / "whole.emb").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.emb", "whole.emb"]


@pytest.mark.parametrize("blocks", [[2, 1], [4, 2]], ids=["short", "long"])
def test_streamed_container_of_the_wrong_row_count_keeps_the_old_file(rng, tmp_path, blocks):
    path = tmp_path / "rows.emb"
    path.write_bytes(b"old bytes")
    with pytest.raises(ShapeMismatch):
        with fio._opened(path) as fh, fio._container_writer(fh, 4, 8) as write:
            for count in blocks:
                write(rng.normal(size=(count, 8)))
    assert [p.name for p in tmp_path.iterdir()] == ["rows.emb"]
    assert path.read_bytes() == b"old bytes"


def test_sampler_failing_on_a_late_block_leaves_the_out_dir(earlier, monkeypatch, capsys):
    out, before = earlier
    staged = out / f".frames.emb.{os.getpid()}.tmp"
    anonymize = synth._anonymize_rows
    seen = []

    def failing(rows, anonymizer, fakes=None, at=0):
        if at >= LAST_BLOCK:  # the per-frame anonymizer on the last block
            # The earlier blocks' frames are on their way to the temporary.
            seen.append(staged.read_bytes()[: len(MAGIC)])
            raise ValueError("sampler failed")
        return anonymize(rows, anonymizer, fakes, at)

    monkeypatch.setattr(synth, "_anonymize_rows", failing)
    assert cli.main(bench_args(out, 2, "--mode", "anchor_sample")) == 2
    assert "sampler failed" in capsys.readouterr().err
    assert seen == [MAGIC]
    assert files(out) == before


def test_bad_retrieval_threshold_after_the_loop_leaves_the_out_dir(earlier, monkeypatch, capsys):
    out, before = earlier
    staged = out / f".frames.emb.{os.getpid()}.tmp"
    reports = synth.retrieval_reports
    seen = []

    def scoring(*args):  # scoring follows the loop, so every frame is streamed
        seen.append(staged.read_bytes()[: len(MAGIC)])
        return reports(*args)

    monkeypatch.setattr(synth, "retrieval_reports", scoring)
    assert cli.main(bench_args(out, 2, "--retrieval-threshold", "3")) == 2
    assert "threshold must be in [0, 2]" in capsys.readouterr().err
    assert seen == [MAGIC]
    assert files(out) == before


# A child run that exits on the per-frame anonymizer of the last block, as a
# killed process would: no cleanup runs.
CHILD = """
import os, sys
from fiva import cli, synth
synth._BLOCK_ELEMENTS = {cells}
anonymize = synth._anonymize_rows
def exiting(rows, anonymizer, fakes=None, at=0):
    if at >= {last}:
        os._exit(3)
    return anonymize(rows, anonymizer, fakes, at)
synth._anonymize_rows = exiting
cli.main(sys.argv[1:])
"""


def test_killed_run_leaves_the_old_files_and_one_temporary(earlier):
    out, before = earlier
    env = dict(os.environ, PYTHONPATH=str(Path(fiva.__file__).parents[1]))
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD.format(cells=BLOCK_CELLS, last=LAST_BLOCK), *bench_args(out, 2)],
        env=env,
    )
    assert child.wait(timeout=120) == 3
    staged = f".frames.emb.{child.pid}.tmp"
    after = files(out)
    assert sorted(after) == sorted([*before, staged])
    assert after.pop(staged).startswith(MAGIC)
    assert after == before
    # The temporary is debris a later run leaves alone; the rerun lands its files.
    assert cli.main(bench_args(out, 1)) == 0
    assert files(out) == {**before, staged: (out / staged).read_bytes()}


# A child ``fiva`` run with Python's own SIGINT handler, which a shell may have
# set to ignored for a background job.
STOPPABLE = """
import signal, sys
signal.signal(signal.SIGINT, signal.default_int_handler)
from fiva import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_stopped_run_exits_2_and_leaves_the_out_dir(earlier, signum):
    out, before = earlier
    env = dict(os.environ, PYTHONPATH=str(Path(fiva.__file__).parents[1]))
    child = subprocess.Popen(
        [sys.executable, "-c", STOPPABLE, "bench", "--identities", "3000", "--frames", "10",
         "--out-dir", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + 120
    while not list(out.glob(".frames.emb.*.tmp")):  # the frames stream into their temporary
        assert child.poll() is None and time.monotonic() < deadline
        time.sleep(0.005)
    child.send_signal(signum)
    _, err = child.communicate(timeout=120)
    assert child.returncode == 2
    assert err.decode().splitlines() == ["fiva: interrupted"]
    assert files(out) == before


def test_main_restores_the_sigterm_handler_it_replaced(tmp_path):
    before = signal.getsignal(signal.SIGTERM)
    assert cli.main(bench_args(tmp_path / "out", 1)) == 0
    assert cli.main(bench_args(tmp_path / "out", 1, "--margin", "2")) == 2
    assert signal.getsignal(signal.SIGTERM) is before
