"""A ``sample``, ``track`` or ``eval-retrieval`` run stopped by SIGINT or SIGTERM
ends as a failure does: it exits 2 with the one line ``fiva: interrupted`` on
stderr, removes its temporaries, and leaves every output as it was, an old file
with its old bytes and a missing one missing. So does a ``sample`` or ``track``
run interrupted while it writes or replaces one of its outputs."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import fiva
from fiva import io as fio
from fiva import write_container
from fiva.cli import main

DIM, ROWS, REFERENCES = 64, 80000, 20000
# Seconds between the child's "ready" and the signal: past the start of cli.main,
# and well before the end of the command, which runs for seconds.
DELAY = 0.2

# A child ``fiva`` run with Python's own SIGINT handler, which a shell may have
# set to ignored for a background job. It says "ready" once imports are done.
CHILD = """
import signal, sys
signal.signal(signal.SIGINT, signal.default_int_handler)
from fiva import cli
print("ready", flush=True)
sys.exit(cli.main(sys.argv[1:]))
"""

# Per command: its arguments, with {i} the input folder and {o} the output folder,
# and the output that holds old bytes when the run starts; the others are missing.
COMMANDS = {
    "sample": ("sample --anchors {i}/references.emb --query {i}/rows.emb --out {o}/fakes.emb", "fakes.emb"),
    "track": ("track --frames {i}/rows.emb --anchors {i}/references.emb --state-out {o}/state.bin"
              " --out {o}/fakes.emb --log {o}/log.csv", "state.bin"),
    "eval-retrieval": ("eval-retrieval --probes {i}/rows.emb --gallery {i}/references.emb"
                       " --report {o}/report.csv", "report.csv"),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A folder of labeled unit rows: ``ROWS`` probes or frames, all distinct, and
    ``REFERENCES`` anchors or gallery entries, enough for seconds of work."""
    folder = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(23)
    for name, labels in (("rows", rng.integers(0, REFERENCES, ROWS)), ("references", range(REFERENCES))):
        rows = rng.normal(size=(len(labels), DIM))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        write_container(folder / f"{name}.emb", rows, [f"g{i}" for i in labels])
    return folder


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_stopped_command_exits_2_and_leaves_its_outputs(inputs, tmp_path, command, signum):
    argv, kept = COMMANDS[command]
    (tmp_path / kept).write_bytes(b"old bytes")
    env = dict(os.environ, PYTHONPATH=str(Path(fiva.__file__).parents[1]))
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, *argv.format(i=inputs, o=tmp_path).split()],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert child.stdout.readline() == b"ready\n"
    time.sleep(DELAY)
    assert child.poll() is None  # the command is still running
    child.send_signal(signum)
    _, err = child.communicate(timeout=120)
    assert child.returncode == 2
    assert err.decode().splitlines() == ["fiva: interrupted"]
    assert not list(tmp_path.glob("*.tmp"))  # pathlib globs match dot files
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == {kept: b"old bytes"}


# Per staged output: the command writing it, with {i} the input folder and {o} the
# output folder, and the outputs it writes in their order.
STAGED = {
    "sample --out": ("sample --anchors {i}/references.emb --query {i}/rows.emb --out {o}/fakes.emb",
                     ["fakes.emb"], "fakes.emb"),
    **{f"track {flag}": ("track --frames {i}/rows.emb --anchors {i}/references.emb --out {o}/fakes.emb"
                         " --log {o}/log.csv --state-out {o}/state.bin",
                         ["fakes.emb", "log.csv", "state.bin"], name)
       for flag, name in (("--out", "fakes.emb"), ("--log", "log.csv"), ("--state-out", "state.bin"))},
}


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("small_inputs")
    rng = np.random.default_rng(29)
    for name, count in (("rows", 300), ("references", 40)):
        rows = rng.normal(size=(count, 16))
        write_container(folder / f"{name}.emb", rows / np.linalg.norm(rows, axis=1, keepdims=True))
    return folder


class _InterruptedWrite:
    """An open file whose first write reaches it, then raises ``KeyboardInterrupt``,
    as the SIGTERM handler does when the signal lands mid-write."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def write(self, data):
        self._fh.write(data)
        raise KeyboardInterrupt

    def __getattr__(self, name):
        return getattr(self._fh, name)


@pytest.mark.parametrize("step", ["write", "replace"])
@pytest.mark.parametrize("output", list(STAGED))
def test_an_interrupt_in_a_staged_write_keeps_the_old_file(small_inputs, tmp_path, capsys, output, step):
    argv, written, kept = STAGED[output]
    (tmp_path / kept).write_bytes(b"old bytes")
    fired = []

    def ours(path) -> bool:  # the temporary staged for the output interrupted, the first time
        hit = not fired and Path(path).name.startswith(f".{kept}.")
        fired.extend([path] * hit)
        return hit

    def opened(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return _InterruptedWrite(fh) if step == "write" and ours(path) else fh

    def replace(source, destination, moved=os.replace):
        if step == "replace" and ours(source):
            raise KeyboardInterrupt
        moved(source, destination)

    with mock.patch.object(fio, "open", opened, create=True), mock.patch.object(fio.os, "replace", replace):
        code = main(argv.format(i=small_inputs, o=tmp_path).split())
    captured = capsys.readouterr()
    assert fired
    assert code == 2
    assert captured.err == "fiva: interrupted\n"
    assert captured.out == ""
    assert not list(tmp_path.glob("*.tmp"))  # pathlib globs match dot files
    assert (tmp_path / kept).read_bytes() == b"old bytes"
    # The outputs written before it are replaced; those after it are not written.
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(written[: written.index(kept) + 1])
