"""A command's process loads only the layers it runs and ends without interpreter
teardown: ``import fiva`` loads no submodule and resolves each public name from
its module on first use, each command of ``python -m fiva.cli`` imports exactly
its layers, and the process flushes stdout before it ends, so a child's tables
equal in-process ``main``'s bytes and a closed stdout is a data error (exit 2).
A command's numpy loads with ``OPENBLAS_THREAD_TIMEOUT`` at 20 unless its caller
set it; ``import fiva`` sets nothing, nor does a process that loaded numpy first."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fiva
from fiva import write_container, write_image_ppm
from fiva.cli import main

SRC = str(Path(fiva.__file__).resolve().parents[1])
# Buffered stdout, so that output still held at exit shows.
ENV = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"} | {"PYTHONPATH": SRC}

# Every command loads these: io reads and writes its files and imports sphere and gallery.
BASE = {"fiva", "fiva.errors", "fiva.io", "fiva.sphere", "fiva.gallery"}
COMMANDS = {
    "build-anchors": ("build-anchors --means {d}/means.emb --out {d}/out/anchors.emb", set()),
    "sample": ("sample --anchors {d}/anchors.emb --query {d}/frames.emb --out {d}/out/fakes.emb",
               {"sampling"}),
    "track": ("track --frames {d}/frames.emb --anchors {d}/anchors.emb --state-out {d}/out/state.bin",
              {"sampling", "tracking"}),
    "eval-retrieval": ("eval-retrieval --probes {d}/means.emb --gallery {d}/means.emb", {"metrics"}),
    "eval-temporal": ("eval-temporal --frames {d}/frames.emb {d}/means.emb", {"metrics"}),
    "detect": ("detect --inputs {d}/frames.emb --outputs {d}/frames.emb", {"detector"}),
    "defend": ("defend --mode uniform --input {d}/image.ppm --output {d}/out/image.ppm", {"defense", "util"}),
    "bench": ("bench --dim 8 --identities 4 --frames 2 --out-dir {d}/out/bench",
              {"metrics", "sampling", "synth", "tracking", "util"}),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Six labeled means, an anchor set, twelve frames of three of them and an image; ``out`` is empty."""
    folder = tmp_path_factory.mktemp("startup")
    rng = np.random.default_rng(3)
    means = rng.normal(size=(6, 16))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    write_container(folder / "means.emb", means, [f"id{i}" for i in range(6)])
    assert main(["build-anchors", "--means", str(folder / "means.emb"), "--out", str(folder / "anchors.emb")]) == 0
    frames = means[rng.integers(0, 3, size=12)] + rng.normal(0.0, 0.01, size=(12, 16))
    write_container(folder / "frames.emb", frames / np.linalg.norm(frames, axis=1, keepdims=True))
    write_image_ppm(folder / "image.ppm", rng.random((4, 5, 3)))
    (folder / "out").mkdir()
    return folder


def child(*args, stdout=subprocess.PIPE):
    return subprocess.run([sys.executable, *args], env=ENV, stdout=stdout, stderr=subprocess.PIPE,
                          timeout=120)


def test_import_fiva_loads_no_submodule():
    loaded = child("-c", "import sys, fiva; print(sorted(m for m in sys.modules if m.startswith('fiva')))")
    assert loaded.stdout.decode() == "['fiva']\n"


def test_every_public_name_is_its_modules_object():
    for name in fiva.__all__:
        value = getattr(fiva, name)
        home = importlib.import_module(f"fiva.{fiva._HOME[name]}")
        assert value is getattr(home, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == home.__name__, name


def test_star_import_binds_every_public_name_and_unknown_names_raise():
    namespace = {}
    exec("from fiva import *", namespace)
    assert {name: namespace[name] for name in fiva.__all__} == {name: getattr(fiva, name) for name in fiva.__all__}
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fiva.no_such_name
    with pytest.raises(ImportError):
        exec("from fiva import no_such_name", {})


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_command_loads_only_its_layers(inputs, command):
    argv, layers = COMMANDS[command]
    run = child("-X", "importtime", "-m", "fiva.cli", *argv.format(d=inputs).split())
    stderr = run.stderr.decode()
    assert run.returncode == 0, stderr
    imported = {line.split("|")[-1].strip() for line in stderr.splitlines() if line.startswith("import time:")}
    # python -m runs cli as __main__, so fiva.cli itself is not imported.
    assert {name for name in imported if name.split(".")[0] == "fiva"} == BASE | {f"fiva.{layer}" for layer in layers}


def in_process(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out.encode()


@pytest.mark.parametrize("command", ["sample", "track", "track with a failing --state-out"])
def test_a_childs_stdout_table_equals_in_process_mains(inputs, capsys, command):
    # The failing --state-out names a directory: track prints its log, then exits 2.
    argv = COMMANDS[command.split()[0]][0].format(d=inputs).split()
    if command.endswith("--state-out"):
        argv[argv.index("--state-out") + 1] = str(inputs / "out")
    run = child("-m", "fiva.cli", *argv)
    assert (run.returncode, run.stdout) == in_process(capsys, argv)
    assert run.returncode == (2 if command.endswith("--state-out") else 0)
    assert run.stdout.count(b"\n") == 13


def test_a_closed_stdout_is_a_data_error(inputs):
    read, write = os.pipe()
    os.close(read)  # every write to the pipe fails with EPIPE
    try:
        argv = COMMANDS["sample"][0].format(d=inputs).split()
        run = child("-m", "fiva.cli", *argv, stdout=write)
    finally:
        os.close(write)
    assert run.returncode == 2
    assert run.stderr == b"fiva: error: [Errno 32] Broken pipe\n"


# Prints OPENBLAS_THREAD_TIMEOUT on stderr the first time numpy is looked up, before it loads.
NUMPY_SPY = """
import os, sys
class Spy:
    seen = False
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not self.seen:
            self.seen = True
            print("numpy sees", os.environ.get("OPENBLAS_THREAD_TIMEOUT"), file=sys.stderr, flush=True)
sys.meta_path.insert(0, Spy())
"""


def unset_timeout_child(code, **env):
    """A child running ``code`` after ``NUMPY_SPY``, OPENBLAS_THREAD_TIMEOUT unset unless ``env`` sets it."""
    env = {key: value for key, value in ENV.items() if key != "OPENBLAS_THREAD_TIMEOUT"} | env
    return subprocess.run([sys.executable, "-c", NUMPY_SPY + code], env=env, capture_output=True, timeout=120)


@pytest.mark.parametrize("code, env, seen", [
    ("import fiva.cli", {}, "20"),
    ("import runpy, sys; sys.argv = ['fiva', '--help']; runpy.run_module('fiva.cli', run_name='__main__')", {}, "20"),
    ("import fiva.cli", {"OPENBLAS_THREAD_TIMEOUT": "28"}, "28"),
    ("import fiva; fiva.AnchorSet", {}, "None"),
], ids=["import", "runpy main", "caller's value", "library"])
def test_numpy_loads_with_the_blas_idle_timeout(code, env, seen):
    run = unset_timeout_child(code, **env)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stderr.decode().splitlines()[0] == f"numpy sees {seen}"


def test_a_process_that_loaded_numpy_first_keeps_its_environment():
    run = unset_timeout_child(
        "before = dict(os.environ); import numpy, fiva.cli; print(dict(os.environ) == before, 'OPENBLAS_THREAD_TIMEOUT' in os.environ)"
    )
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout.decode() == "True False\n"
