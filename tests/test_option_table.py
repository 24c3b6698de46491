"""The CLI's option table: every config key that names a table option is
checked by its type as the config is read, for any command, before anything
is read or written; flags, help defaults and config defaults come from the
one table."""

import argparse
import json
import re

import numpy as np
import pytest

from fiva import load_state, write_container, write_image_ppm
from fiva.cli import _build_parser, main
from conftest import random_unit

# Each command's option strings, as they stood before the table: no flag is
# added, dropped or renamed.
OPTION_STRINGS = {
    "build-anchors": "--means --rounds --t --normalize --out --provenance --skips",
    "sample": "--anchors --query --margin --normalize --out",
    "track": "--frames --anchors --threshold --margin --normalize --state-in --state-out --out --log",
    "eval-retrieval": "--probes --gallery --threshold --negate --normalize --report",
    "eval-temporal": "--frames --normalize --report",
    "defend": "--mode --epsilon --fraction --sweep --center --input --output",
    "detect": "--inputs --outputs --threshold --normalize --report",
    "bench": "--identities --frames --jitter --mode --margin --blend --rounds --t "
    "--retrieval-threshold --tracker-threshold --out-dir",
}
GLOBAL = ["--dim", "--seed", "--config", "--threads"]


def run(capsys, *argv):
    code = main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def commands():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, sub.choices


def config_file(tmp_path, values):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(values))
    return path


def help_text(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    return " ".join(out.split())  # argparse wraps help to the terminal width


def test_option_strings_are_pinned():
    parser, choices = commands()
    flags = lambda p: [s for a in p._actions for s in a.option_strings]  # noqa: E731
    assert flags(parser) == ["-h", "--help", *GLOBAL]
    assert list(choices) == list(OPTION_STRINGS)
    for name, strings in OPTION_STRINGS.items():
        assert flags(choices[name]) == ["-h", "--help", *strings.split(), *GLOBAL], name


def test_bad_config_choice_writes_nothing(capsys, tmp_path):
    config = config_file(tmp_path, {"dim": 16, "identities": 5, "frames": 2, "mode": "bogus"})
    out_dir = tmp_path / "o"
    code, out, err = run(capsys, "bench", "--out-dir", out_dir, "--config", config)
    assert code == 2 and out == ""
    assert "config key 'mode' must be one of negation, anchor_sample, slerp_blend, got 'bogus'" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "sweep, written",
    [("0.25,0.5", ["out_f0.25.ppm", "out_f0.5.ppm"]), (0.5, ["out_f0.5.ppm"]), (True, None)],
)
def test_config_sweep_takes_a_string_or_a_number(capsys, rng, tmp_path, sweep, written):
    image = tmp_path / "in.ppm"
    write_image_ppm(image, rng.integers(0, 256, size=(6, 5, 3)) / 255.0)
    config = config_file(tmp_path, {"sweep": sweep})
    code, out, err = run(
        capsys, "defend", "--mode", "uniform", "--input", image,
        "--output", tmp_path / "out.ppm", "--config", config,
    )
    found = sorted(p.name for p in tmp_path.glob("out*"))
    if written is None:
        assert code == 2 and out == "" and found == []
        assert "config key 'sweep' must be a string or a number, got True" in err
    else:
        assert code == 0 and found == written
        assert out.splitlines()[0] == "fraction,path" and len(out.splitlines()) == 1 + len(written)


def test_config_keys_are_checked_for_a_command_that_does_not_take_them(capsys, rng, tmp_path):
    video = tmp_path / "video.emb"
    write_container(video, np.stack([random_unit(rng, 16).values for _ in range(3)]))
    report = tmp_path / "report.csv"
    config = config_file(tmp_path, {"rounds": 1.5})
    code, out, err = run(
        capsys, "eval-temporal", "--frames", video, "--report", report, "--config", config
    )
    assert code == 2 and out == ""
    assert "config key 'rounds' must be an integer, got 1.5" in err
    assert not report.exists()


# One run of each command, with {i} for its inputs and {o} for its outputs.
EVERY_COMMAND = [
    "build-anchors --means {i}/in.emb --out {o}/a.emb --provenance {o}/p.csv",
    "sample --anchors {i}/in.emb --query {i}/in.emb --out {o}/s.emb",
    "track --frames {i}/in.emb --anchors {i}/in.emb --out {o}/f.emb --log {o}/l.csv --state-out {o}/s",
    "eval-retrieval --probes {i}/in.emb --gallery {i}/in.emb --report {o}/r.csv",
    "eval-temporal --frames {i}/in.emb --report {o}/r.csv",
    "defend --mode uniform --input {i}/in.ppm --output {o}/d.ppm",
    "detect --inputs {i}/in.emb --outputs {i}/in.emb --report {o}/r.csv",
    "bench --identities 5 --frames 2 --dim 16 --out-dir {o}/bench",
]


@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_every_command_checks_the_config_before_it_reads_or_writes(capsys, tmp_path, argv):
    # The inputs do not exist: the config error comes first.
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    config = config_file(tmp_path, {"threads": "x"})
    argv = argv.format(i=tmp_path / "missing", o=out_dir).split()
    code, out, err = run(capsys, *argv, "--config", config)
    assert code == 2 and out == ""
    assert err == "fiva: error: config key 'threads' must be an integer, got 'x'\n"
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("argv", [argv for argv in EVERY_COMMAND if "{o}/" in argv and "--out-dir" not in argv])
def test_every_command_checks_its_output_paths_before_it_reads(capsys, tmp_path, argv):
    # Neither the inputs nor the outputs' directory exist: the first output named fails first.
    argv = argv.format(i=tmp_path / "missing", o=tmp_path / "nodir").split()
    first = next(arg for arg in argv if "nodir" in arg)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"fiva: error: [Errno 2] No such file or directory: '{first}'\n"


def test_help_renders_each_commands_defaults(capsys):
    track = help_text(capsys, "track")
    assert "cosine-distance match threshold (default 0.63; a resumed tracker keeps its state's)" in track
    assert "targets cosine -m (default 0; a resumed tracker keeps its state's)" in track
    assert "fakeness distance threshold (default 0.6)" in help_text(capsys, "detect")
    assert "interpolation generations (default 1)" in help_text(capsys, "build-anchors")
    assert "anchor construction rounds (default 2)" in help_text(capsys, "bench")
    assert "(default 0.15; 0.1 for param)" in help_text(capsys, "defend")


def test_help_defaults_are_the_defaults_the_commands_use():
    _, choices = commands()
    for name, parser in choices.items():
        for option, default in parser.get_default("defaults").items():
            action = next(a for a in parser._actions if a.dest == option)
            if default is not None and action.nargs != 0:  # on/off flags show no default
                shown = f"{default:g}" if isinstance(default, float) else str(default)
                assert re.search(rf"default[^)]*\b{re.escape(shown)}\b", action.help), (name, option)


def test_resumed_tracker_keeps_its_threshold_unless_an_option_sets_it(capsys, rng, tmp_path):
    frames = tmp_path / "frames.emb"
    write_container(frames, np.stack([random_unit(rng, 16).values for _ in range(4)]))
    anchors = tmp_path / "anchors.emb"
    write_container(anchors, np.stack([random_unit(rng, 16).values for _ in range(6)]))
    first, kept, changed = (tmp_path / name for name in ("first.state", "kept.state", "changed.state"))
    common = ["track", "--frames", frames, "--anchors", anchors, "--log", tmp_path / "log.csv"]
    assert run(capsys, *common, "--threshold", "0.3", "--margin", "0.2", "--state-out", first)[0] == 0
    assert run(capsys, *common, "--state-in", first, "--state-out", kept)[0] == 0
    config = config_file(tmp_path, {"threshold": 0.5})
    assert run(capsys, *common, "--state-in", first, "--state-out", changed, "--config", config)[0] == 0
    assert (load_state(kept).threshold, load_state(kept).margin) == (
        float(np.float32(0.3)), float(np.float32(0.2)),
    )
    assert (load_state(changed).threshold, load_state(changed).margin) == (
        float(np.float32(0.5)), float(np.float32(0.2)),
    )


@pytest.mark.parametrize(
    "argv",
    [
        "bench --identities 6 --frames 2 --dim 16 --out-dir {o}",
        "bench --identities 6 --frames 2 --dim 16 --mode slerp_blend --out-dir {o}",
        "defend --mode uniform --input {i}/in.ppm --output {o}/u.ppm",
    ],
)
def test_a_config_of_the_table_defaults_changes_nothing(capsys, rng, tmp_path, argv):
    inputs = tmp_path / "in"
    inputs.mkdir()
    write_image_ppm(inputs / "in.ppm", rng.integers(0, 256, size=(6, 5, 3)) / 255.0)
    _, choices = commands()
    command = argv.split()[0]
    defaults = {k: v for k, v in choices[command].get_default("defaults").items() if v is not None}
    config = config_file(tmp_path, defaults)
    results = []
    for name, extra in (("plain", []), ("config", ["--config", config])):
        out_dir = tmp_path / name
        out_dir.mkdir()
        code, out, err = run(capsys, *argv.format(i=inputs, o=out_dir).split(), *extra)
        assert code == 0, err
        files = {p.name: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
        results.append((out.replace(str(out_dir), ""), err, files))
    assert results[0] == results[1]
