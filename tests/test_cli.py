import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fiva
from fiva import cli, synth
from fiva import (
    load_embeddings,
    load_state,
    normalize,
    pack_container,
    read_container,
    read_image_ppm,
    write_container,
    write_embeddings,
    write_image_ppm,
)
from fiva.cli import main
from conftest import random_unit


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def means_file(rng, tmp_path):
    path = tmp_path / "means.emb"
    write_embeddings(path, [random_unit(rng, 16) for _ in range(6)])
    return path


@pytest.fixture
def anchors_file(means_file, tmp_path, capsys):
    path = tmp_path / "anchors.emb"
    assert main(["build-anchors", "--means", str(means_file), "--out", str(path)]) == 0
    capsys.readouterr()
    return path


@pytest.fixture
def gallery_file(rng, tmp_path):
    path = tmp_path / "gallery.emb"
    embeddings = [random_unit(rng, 16) for _ in range(8)]
    labels = ["id_%04d" % i for i in range(8)]
    write_embeddings(path, embeddings, labels)
    return path, embeddings, labels


@pytest.fixture
def image_file(rng, tmp_path):
    path = tmp_path / "input.ppm"
    image = rng.integers(0, 256, size=(10, 10, 3)).astype(np.uint8) / 255.0
    write_image_ppm(path, image)
    return path, image


class TestExitCodes:
    def test_help_is_success(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
        assert main(["bench", "--help"]) == 0
        capsys.readouterr()

    def test_no_command_is_usage_error(self, capsys):
        code, _, err = run(capsys, )
        assert code == 1
        assert "usage" in err

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sample", "--margin", "0.5")
        assert code == 1
        assert "error" in err

    def test_missing_input_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "sample",
            "--anchors", str(tmp_path / "nope.emb"),
            "--query", str(tmp_path / "nope2.emb"),
            "--out", str(tmp_path / "out.emb"),
        )
        assert code == 2
        assert "error" in err

    def test_wrong_format_file_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.emb"
        bad.write_bytes(b"definitely not a container")
        code, _, err = run(
            capsys,
            "sample",
            "--anchors", str(bad),
            "--query", str(bad),
            "--out", str(tmp_path / "out.emb"),
        )
        assert code == 2

    def test_out_of_range_value_is_data_error(self, capsys, anchors_file, means_file, tmp_path):
        code, _, err = run(
            capsys,
            "sample",
            "--anchors", str(anchors_file),
            "--query", str(means_file),
            "--margin", "3.0",
            "--out", str(tmp_path / "out.emb"),
        )
        assert code == 2

    @pytest.mark.parametrize("argv, seed, message", [
        ("detect --inputs {i}/means.emb --outputs {i}/means.emb --threshold 3", None,
         "threshold must be in (0, 2), got 3.0"),
        ("bench --identities 5 --frames 2 --dim 8 --out-dir {o}/bench", "abc",
         "FIVA_SEED must be an integer, got 'abc'"),
        ("detect --inputs {i}/means.emb --outputs {i}/means.emb --config {i}/none.json", None,
         "cannot read config {i}/none.json: [Errno 2] No such file or directory: '{i}/none.json'"),
        ("detect --inputs {i}/means.emb --outputs {i}/means.emb --config {i}/list.json", None,
         "config {i}/list.json must hold a flat JSON object"),
        ("defend --mode uniform --input {i}/input.ppm --output {o}/d.ppm --sweep 0.1,x", None,
         "bad --sweep value '0.1,x': could not convert string to float: 'x'"),
        ("defend --mode uniform --input {i}/empty.pgm --output {o}/d.pgm", None,
         "bad raster size 0x2"),
        ("defend --mode uniform --input {i}/joined.pgm --output {o}/d.pgm", None,
         "missing whitespace between header and raster"),
    ])
    def test_data_errors_name_their_cause_and_write_nothing(
        self, capsys, monkeypatch, means_file, image_file, tmp_path, argv, seed, message
    ):
        inputs, out = means_file.parent, tmp_path / "out"
        out.mkdir()
        (inputs / "list.json").write_text("[1]")
        (inputs / "empty.pgm").write_bytes(b"P5\n0 2\n255\n")
        (inputs / "joined.pgm").write_bytes(b"P5\n1 1\n255\x80")
        if seed is not None:
            monkeypatch.setenv("FIVA_SEED", seed)
        code, stdout, err = run(capsys, *argv.format(i=inputs, o=out).split())
        assert (code, stdout) == (2, "")
        assert err == f"fiva: error: {message.format(i=inputs)}\n"
        assert list(out.iterdir()) == []

    def test_unlabeled_probes_is_data_error(self, capsys, means_file, tmp_path):
        code, _, err = run(
            capsys,
            "eval-retrieval",
            "--probes", str(means_file),
            "--gallery", str(means_file),
        )
        assert code == 2


class TestBuildAnchors:
    def test_writes_anchor_file_and_reports(self, capsys, means_file, tmp_path):
        out = tmp_path / "anchors.emb"
        prov = tmp_path / "prov.csv"
        skips = tmp_path / "skips.csv"
        code, _, err = run(
            capsys,
            "build-anchors",
            "--means", str(means_file),
            "--rounds", "2",
            "--out", str(out),
            "--provenance", str(prov),
            "--skips", str(skips),
        )
        assert code == 0
        assert "built 12 anchors" in err
        anchors = load_embeddings(out)
        assert len(anchors) == 12
        lines = prov.read_text().splitlines()
        assert lines[0] == "anchor_index,round,source_a,source_b,t"
        assert len(lines) == 13
        assert lines[1].startswith("0,1,0,1,")
        assert skips.read_text().splitlines() == ["round,source_a,source_b"]

    def test_rerun_is_byte_identical(self, capsys, means_file, tmp_path):
        a, b = tmp_path / "a.emb", tmp_path / "b.emb"
        for out in (a, b):
            code, _, _ = run(
                capsys, "build-anchors", "--means", str(means_file), "--out", str(out)
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestSample:
    def test_samples_and_prints_assignments(self, capsys, anchors_file, means_file, tmp_path):
        out = tmp_path / "fakes.emb"
        code, stdout, _ = run(
            capsys,
            "sample",
            "--anchors", str(anchors_file),
            "--query", str(means_file),
            "--out", str(out),
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "query_index,anchor_index,achieved_cosine"
        assert len(lines) == 7
        fakes = load_embeddings(out)
        anchors = load_embeddings(anchors_file)
        for line, fake in zip(lines[1:], fakes):
            index = int(line.split(",")[1])
            assert fake == anchors[index]

    def test_margin_changes_selection(self, capsys, anchors_file, means_file, tmp_path):
        outputs = []
        for margin in ("0.0", "0.9"):
            out = tmp_path / f"fakes_{margin}.emb"
            code, stdout, _ = run(
                capsys,
                "sample",
                "--anchors", str(anchors_file),
                "--query", str(means_file),
                "--margin", margin,
                "--out", str(out),
            )
            assert code == 0
            outputs.append(stdout)
        assert outputs[0] != outputs[1]


def test_sample_and_track_round_the_margin_alike(capsys, tmp_path):
    # Two anchors with cosines just either side of -0.3 to the query: the
    # float64 margin 0.3 picks anchor 0, its float32 rounding anchor 1.
    query = np.array([[1.0 - 2.0**-24, 0.0]])
    first = np.float32(-0.3)
    cosines = np.array([first, np.nextafter(first, np.float32(-1.0))], dtype=np.float64)
    anchors = np.stack([cosines, np.sqrt(1.0 - cosines**2)], axis=1)
    achieved = anchors[:, 0] * query[0, 0]
    assert np.argmin(np.abs(achieved + 0.3)) == 0
    assert np.argmin(np.abs(achieved + float(np.float32(0.3)))) == 1
    paths = {name: tmp_path / f"{name}.emb" for name in ("query", "anchors", "sampled", "tracked")}
    write_container(paths["query"], query)
    write_container(paths["anchors"], anchors)
    code, stdout, _ = run(
        capsys, "sample", "--anchors", str(paths["anchors"]), "--query", str(paths["query"]),
        "--margin", "0.3", "--out", str(paths["sampled"]),
    )
    assert code == 0 and stdout.splitlines()[1].startswith("0,1,")
    code, _, _ = run(
        capsys, "track", "--frames", str(paths["query"]), "--anchors", str(paths["anchors"]),
        "--margin", "0.3", "--out", str(paths["tracked"]),
    )
    assert code == 0
    assert paths["sampled"].read_bytes() == paths["tracked"].read_bytes()
    assert read_container(paths["sampled"])[0].tobytes() == anchors[1:].astype(np.float32).tobytes()


class TestTrack:
    def test_track_writes_log_and_state(self, capsys, anchors_file, rng, tmp_path):
        z = random_unit(rng, 16)
        frames_path = tmp_path / "frames.emb"
        write_embeddings(frames_path, [z, z, random_unit(rng, 16)])
        state_path = tmp_path / "tracker.state"
        fakes_path = tmp_path / "fakes.emb"
        code, stdout, err = run(
            capsys,
            "track",
            "--frames", str(frames_path),
            "--anchors", str(anchors_file),
            "--state-out", str(state_path),
            "--out", str(fakes_path),
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "frame_index,matched,key,distance"
        assert lines[1] == "0,0,0,"
        assert lines[2].startswith("1,1,0,")
        assert len(load_embeddings(fakes_path)) == 3
        assert "2 distinct identities" in err
        state = load_state(state_path)
        assert state.key_pointer == 2

    def test_resume_matches_previous_identities(self, capsys, anchors_file, rng, tmp_path):
        z = random_unit(rng, 16)
        first = tmp_path / "first.emb"
        write_embeddings(first, [z])
        state_path = tmp_path / "tracker.state"
        run(
            capsys, "track",
            "--frames", str(first),
            "--anchors", str(anchors_file),
            "--state-out", str(state_path),
        )
        second = tmp_path / "second.emb"
        write_embeddings(second, [z])
        code, stdout, _ = run(
            capsys, "track",
            "--frames", str(second),
            "--anchors", str(anchors_file),
            "--state-in", str(state_path),
        )
        assert code == 0
        assert stdout.splitlines()[1].startswith("0,1,0,")

    def test_state_anchor_dimension_mismatch_is_data_error(self, capsys, anchors_file, rng, tmp_path):
        frames = tmp_path / "frames8.emb"
        write_embeddings(frames, [random_unit(rng, 8) for _ in range(3)])
        anchors8 = tmp_path / "anchors8.emb"
        write_embeddings(anchors8, [random_unit(rng, 8) for _ in range(4)])
        state_path = tmp_path / "s8.state"
        run(capsys, "track", "--frames", str(frames), "--anchors", str(anchors8),
            "--state-out", str(state_path))
        outputs = [tmp_path / name for name in ("fakes.emb", "log.csv", "next.state")]
        code, stdout, err = run(
            capsys, "track",
            "--frames", str(frames),
            "--anchors", str(anchors_file),
            "--state-in", str(state_path),
            "--out", str(outputs[0]),
            "--log", str(outputs[1]),
            "--state-out", str(outputs[2]),
        )
        assert code == 2
        assert "anchors have dimension 16, tracker state has dimension 8" in err
        assert stdout == ""
        assert not any(path.exists() for path in outputs)

    @pytest.mark.parametrize("flag,value", [("--threshold", "5"), ("--margin", "7")])
    def test_resume_overrides_are_range_checked(self, capsys, anchors_file, rng, tmp_path, flag, value):
        frames = tmp_path / "frames.emb"
        write_embeddings(frames, [random_unit(rng, 16) for _ in range(3)])
        state_path = tmp_path / "first.state"
        run(capsys, "track", "--frames", str(frames), "--anchors", str(anchors_file),
            "--state-out", str(state_path))
        outputs = [tmp_path / name for name in ("fakes.emb", "log.csv", "next.state")]
        code, stdout, err = run(
            capsys, "track",
            "--frames", str(frames),
            "--anchors", str(anchors_file),
            "--state-in", str(state_path),
            flag, value,
            "--out", str(outputs[0]),
            "--log", str(outputs[1]),
            "--state-out", str(outputs[2]),
        )
        assert code == 2
        assert "must be in" in err
        assert stdout == ""
        assert not any(path.exists() for path in outputs)


class TestEvalRetrieval:
    def test_members_retrieve_themselves(self, capsys, gallery_file, tmp_path):
        path, _, _ = gallery_file
        report = tmp_path / "report.csv"
        code, _, err = run(
            capsys,
            "eval-retrieval",
            "--probes", str(path),
            "--gallery", str(path),
            "--report", str(report),
        )
        assert code == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "probe_index,true_label,retrieved_label,distance,success"
        assert lines[-1] == "aggregate,,,,1.0"
        assert "rate 1.000000" in err

    def test_negate_flag_inverts_perfectly_for_negated_probes(self, capsys, gallery_file, tmp_path):
        path, embeddings, labels = gallery_file
        negated = tmp_path / "negated.emb"
        write_embeddings(
            negated, [normalize(-e.values) for e in embeddings], labels
        )
        code, stdout, _ = run(
            capsys,
            "eval-retrieval",
            "--probes", str(negated),
            "--gallery", str(path),
            "--negate",
        )
        assert code == 0
        assert stdout.splitlines()[-1] == "aggregate,,,,1.0"

    def test_labels_needing_quotes_read_back(self, capsys, rng, tmp_path):
        path = tmp_path / "gallery.emb"
        labels = ["a,b", "c", 'say "hi"']
        write_embeddings(path, [random_unit(rng, 16) for _ in labels], labels)
        code, stdout, _ = run(
            capsys, "eval-retrieval", "--probes", str(path), "--gallery", str(path)
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(stdout)))
        assert all(len(row) == 5 for row in rows)
        assert [row[1:3] for row in rows[1:-1]] == [[label, label] for label in labels]

    def test_labels_no_writer_accepts_are_a_data_error(self, capsys, gallery_file, tmp_path):
        path, embeddings, _ = gallery_file
        probes = tmp_path / "probes.emb"
        rows = np.stack([e.values for e in embeddings[:2]])
        probes.write_bytes(pack_container(rows) + b"a\rb\n\n")
        code, stdout, err = run(
            capsys, "eval-retrieval", "--probes", str(probes), "--gallery", str(path)
        )
        assert code == 2
        assert stdout == ""
        assert "newline-free" in err


class TestEvalTemporal:
    def test_reports_per_video_and_aggregate(self, capsys, rng, tmp_path):
        v1 = tmp_path / "v1.emb"
        v2 = tmp_path / "v2.emb"
        z = random_unit(rng, 16)
        write_embeddings(v1, [z, z, z])
        write_embeddings(v2, [random_unit(rng, 16) for _ in range(4)])
        code, stdout, _ = run(
            capsys, "eval-temporal", "--frames", str(v1), str(v2)
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "video_index,video,frame_count,mean_distance,std_distance"
        assert lines[1] == "0,v1.emb,3,0.0,0.0"
        assert lines[2].startswith("1,v2.emb,4,")
        assert lines[3].startswith("aggregate,,,")

    def test_file_names_needing_quotes_read_back(self, capsys, rng, tmp_path):
        video = tmp_path / "a,b.emb"
        write_embeddings(video, [random_unit(rng, 16) for _ in range(3)])
        code, stdout, _ = run(capsys, "eval-temporal", "--frames", str(video))
        assert code == 0
        rows = list(csv.reader(io.StringIO(stdout)))
        assert all(len(row) == 5 for row in rows)
        assert rows[1][:3] == ["0", "a,b.emb", "3"]


class TestDefend:
    def test_uniform_mode_counts(self, capsys, image_file, tmp_path):
        path, image = image_file
        out = tmp_path / "defended.ppm"
        code, _, err = run(
            capsys,
            "defend",
            "--mode", "uniform",
            "--fraction", "0.47",
            "--input", str(path),
            "--output", str(out),
        )
        assert code == 0
        noised = read_image_ppm(out)
        changed = np.any(noised != image, axis=2).sum()
        # quantization can return a noised value to its original byte, so
        # the written count can dip slightly below floor(0.47 * 100)
        assert 40 <= changed <= 47

    def test_uniform_rerun_is_byte_identical(self, capsys, image_file, tmp_path):
        path, _ = image_file
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        for out in (a, b):
            code, _, _ = run(
                capsys,
                "defend",
                "--mode", "uniform",
                "--seed", "5",
                "--input", str(path),
                "--output", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_writes_one_file_per_fraction(self, capsys, image_file, tmp_path):
        path, _ = image_file
        out = tmp_path / "defended.ppm"
        code, stdout, _ = run(
            capsys,
            "defend",
            "--mode", "uniform",
            "--sweep", "0.1,0.47",
            "--input", str(path),
            "--output", str(out),
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "fraction,path"
        assert len(lines) == 3
        assert (tmp_path / "defended_f0.1.ppm").exists()
        assert (tmp_path / "defended_f0.47.ppm").exists()

    @pytest.mark.parametrize("sweep, first, second", [
        ("0.5,0.5000001,0.5", "0.5", "0.5000001"), ("0.1,0.47,0.1", "0.1", "0.1"),
    ])
    def test_sweep_fractions_sharing_a_file_name_write_nothing(self, capsys, image_file, tmp_path, sweep, first, second):
        path, _ = image_file
        code, stdout, stderr = run(
            capsys, "defend", "--mode", "uniform", "--sweep", sweep,
            "--input", str(path), "--output", str(tmp_path / "out.ppm"),
        )
        name = tmp_path / f"out_f{float(first):g}.ppm"
        assert code == 2 and stdout == ""
        assert stderr == f"fiva: error: --sweep fractions {first} and {second} both write {name}\n"
        assert not list(tmp_path.glob("out*"))

    def test_sweep_report_quotes_paths(self, capsys, image_file, tmp_path, monkeypatch):
        path, _ = image_file
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sw").mkdir()
        code, stdout, _ = run(
            capsys,
            "defend",
            "--mode", "uniform",
            "--sweep", "0.1,0.47",
            "--input", str(path),
            "--output", "sw/a,b.ppm",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(stdout)))
        assert rows == [
            ["fraction", "path"], ["0.1", "sw/a,b_f0.1.ppm"], ["0.47", "sw/a,b_f0.47.ppm"]
        ]
        assert (tmp_path / "sw" / "a,b_f0.1.ppm").exists()

    def test_param_mode_preserves_shape_and_labels(self, capsys, rng, tmp_path):
        params = rng.normal(size=(3, 8)).astype(np.float32)
        src = tmp_path / "params.emb"
        write_container(src, params, labels=["w1", "w2", "w3"])
        out = tmp_path / "noised.emb"
        code, _, _ = run(
            capsys,
            "defend", "--mode", "param",
            "--input", str(src),
            "--output", str(out),
        )
        assert code == 0
        noised, labels = read_container(out)
        assert noised.shape == (3, 8)
        assert labels == ["w1", "w2", "w3"]
        assert not np.array_equal(noised, params)

    def test_fgsm_needs_center(self, capsys, image_file, tmp_path):
        path, _ = image_file
        code, _, err = run(
            capsys,
            "defend", "--mode", "fgsm",
            "--input", str(path),
            "--output", str(tmp_path / "out.ppm"),
        )
        assert code == 2
        assert "center" in err

    def test_fgsm_moves_pixels(self, capsys, image_file, rng, tmp_path):
        path, image = image_file
        center = tmp_path / "center.ppm"
        write_image_ppm(center, rng.uniform(size=(10, 10, 3)))
        out = tmp_path / "out.ppm"
        code, _, _ = run(
            capsys,
            "defend", "--mode", "fgsm",
            "--epsilon", "0.2",
            "--input", str(path),
            "--center", str(center),
            "--output", str(out),
        )
        assert code == 0
        moved = read_image_ppm(out)
        assert np.abs(moved - image).max() <= 0.2 + 1 / 255


class TestDetect:
    def test_scores_aligned_pairs(self, capsys, rng, tmp_path):
        originals = [random_unit(rng, 16) for _ in range(5)]
        same = tmp_path / "same.emb"
        flipped = tmp_path / "flipped.emb"
        write_embeddings(same, originals)
        write_embeddings(flipped, [normalize(-e.values) for e in originals])
        inputs = tmp_path / "inputs.emb"
        write_embeddings(inputs, originals)
        code, stdout, err = run(
            capsys, "detect", "--inputs", str(inputs), "--outputs", str(flipped)
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "pair_index,distance,is_fake"
        assert all(line.endswith(",1") for line in lines[1:6])
        assert "flagged 5/5" in err
        code, stdout, err = run(
            capsys, "detect", "--inputs", str(inputs), "--outputs", str(same)
        )
        assert code == 0
        assert "flagged 0/5" in err

    def test_mismatched_lengths_is_data_error(self, capsys, rng, tmp_path):
        a, b = tmp_path / "a.emb", tmp_path / "b.emb"
        write_embeddings(a, [random_unit(rng, 16) for _ in range(3)])
        write_embeddings(b, [random_unit(rng, 16) for _ in range(2)])
        code, _, _ = run(capsys, "detect", "--inputs", str(a), "--outputs", str(b))
        assert code == 2


class TestBench:
    def run_bench(self, capsys, out_dir, *extra):
        # tight tracker threshold: at dim 32 two of ten random centers can
        # land within the default 0.63 and merge tracks
        return run(
            capsys,
            "bench",
            "--dim", "32",
            "--identities", "10",
            "--frames", "4",
            "--mode", "negation",
            "--tracker-threshold", "0.3",
            "--out-dir", str(out_dir),
            *extra,
        )

    def test_writes_report_and_corpora(self, capsys, tmp_path):
        out_dir = tmp_path / "bench"
        code, _, err = self.run_bench(capsys, out_dir)
        assert code == 0
        report = (out_dir / "report.csv").read_text().splitlines()
        assert report[0] == "variant,id_rate,neg_id_rate,mtc_mean,mtc_std"
        tracked = report[1].split(",")
        assert tracked[0] == "tracked"
        assert tracked[1] == "0.0"
        assert tracked[2] == "1.0"
        assert (out_dir / "gallery.emb").exists()
        assert (out_dir / "frames.emb").exists()
        assert (out_dir / "fakes_tracked.emb").exists()
        assert (out_dir / "fakes_per_frame.emb").exists()
        assert len(load_embeddings(out_dir / "frames.emb")) == 40

    def test_thread_count_invariant_outputs(self, capsys, tmp_path):
        dirs = []
        for threads in ("1", "2", "8"):
            out_dir = tmp_path / f"bench_t{threads}"
            code, _, _ = self.run_bench(capsys, out_dir, "--threads", threads)
            assert code == 0
            dirs.append(out_dir)
        baseline = sorted(p.name for p in dirs[0].iterdir())
        for other in dirs[1:]:
            assert sorted(p.name for p in other.iterdir()) == baseline
            for name in baseline:
                assert (other / name).read_bytes() == (dirs[0] / name).read_bytes()


class TestOptionResolution:
    def test_global_flags_accepted_in_both_positions(self, capsys, tmp_path):
        before = tmp_path / "before"
        after = tmp_path / "after"
        code, _, _ = run(
            capsys, "--dim", "16", "--seed", "3",
            "bench", "--identities", "5", "--frames", "2",
            "--mode", "negation", "--out-dir", str(before),
        )
        assert code == 0
        code, _, _ = run(
            capsys,
            "bench", "--identities", "5", "--frames", "2",
            "--mode", "negation", "--out-dir", str(after),
            "--dim", "16", "--seed", "3",
        )
        assert code == 0
        for name in sorted(p.name for p in before.iterdir()):
            assert (before / name).read_bytes() == (after / name).read_bytes()

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dim": 16, "identities": 5, "frames": 2, "mode": "negation"}))
        out_dir = tmp_path / "bench"
        code, _, _ = run(
            capsys, "--config", str(config), "bench", "--out-dir", str(out_dir)
        )
        assert code == 0
        assert len(load_embeddings(out_dir / "gallery.emb", renormalize=True)) == 5

    def test_flag_overrides_config(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"identities": 5, "frames": 2, "mode": "negation", "dim": 16}))
        out_dir = tmp_path / "bench"
        code, _, _ = run(
            capsys, "--config", str(config),
            "bench", "--identities", "7", "--out-dir", str(out_dir),
        )
        assert code == 0
        assert len(load_embeddings(out_dir / "gallery.emb", renormalize=True)) == 7

    def test_env_seed_used_when_unset(self, capsys, tmp_path, monkeypatch):
        with_env = tmp_path / "env"
        with_flag = tmp_path / "flag"
        monkeypatch.setenv("FIVA_SEED", "11")
        code, _, _ = run(
            capsys, "bench", "--dim", "16", "--identities", "5",
            "--frames", "2", "--mode", "negation", "--out-dir", str(with_env),
        )
        assert code == 0
        monkeypatch.delenv("FIVA_SEED")
        code, _, _ = run(
            capsys, "bench", "--dim", "16", "--identities", "5",
            "--frames", "2", "--mode", "negation", "--seed", "11",
            "--out-dir", str(with_flag),
        )
        assert code == 0
        assert (with_env / "gallery.emb").read_bytes() == (with_flag / "gallery.emb").read_bytes()

    def test_flag_beats_env_seed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FIVA_SEED", "11")
        out_env = tmp_path / "env"
        out_flag = tmp_path / "flag"
        for seed_flags, out_dir in ((["--seed", "3"], out_flag), ([], out_env)):
            code, _, _ = run(
                capsys, "bench", "--dim", "16", "--identities", "5",
                "--frames", "2", "--mode", "negation",
                *seed_flags, "--out-dir", str(out_dir),
            )
            assert code == 0
        assert (out_env / "gallery.emb").read_bytes() != (out_flag / "gallery.emb").read_bytes()

    def test_config_negate_is_a_json_boolean(self, capsys, gallery_file, tmp_path):
        path, embeddings, labels = gallery_file
        negated = tmp_path / "negated.emb"
        write_embeddings(negated, [normalize(-e.values) for e in embeddings], labels)
        config = tmp_path / "config.json"
        for value, flags, want in [
            (True, [], "aggregate,,,,1.0"),
            (False, [], "aggregate,,,,0.0"),
            (False, ["--negate"], "aggregate,,,,1.0"),  # the flag wins
            ("true", [], None),
            (1, [], None),
        ]:
            config.write_text(json.dumps({"negate": value}))
            code, stdout, err = run(
                capsys, "--config", str(config),
                "eval-retrieval", "--probes", str(negated), "--gallery", str(path), *flags,
            )
            if want is None:
                assert code == 2 and stdout == ""
                assert "'negate' must be true or false" in err
            else:
                assert code == 0 and stdout.splitlines()[-1] == want

    def test_config_normalize_is_a_json_boolean(self, capsys, rng, tmp_path):
        frames = tmp_path / "frames.emb"
        write_container(frames, 2.0 * np.stack([random_unit(rng, 16).values for _ in range(3)]))
        config = tmp_path / "config.json"
        for value, flags, want in [
            (True, [], 0),
            (False, [], 2),  # rows of norm 2 are not unit
            (False, ["--normalize"], 0),  # the flag wins
            ("yes", [], 2),
            (None, [], 2),
        ]:
            config.write_text(json.dumps({"normalize": value}))
            code, _, err = run(
                capsys, "--config", str(config), "eval-temporal", "--frames", str(frames), *flags
            )
            assert code == want
            if value not in (True, False):
                assert "'normalize' must be true or false" in err

    def test_config_int_options_take_json_integers(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        base = {"dim": 16, "frames": 2, "mode": "negation"}
        for value, want in [(5, 0), (7.9, 2), (5.0, 2), (True, 2), ("5", 2)]:
            out_dir = tmp_path / f"bench_{value!r}"
            config.write_text(json.dumps({**base, "identities": value}))
            code, _, err = run(capsys, "--config", str(config), "bench", "--out-dir", str(out_dir))
            assert code == want, value
            if want:
                assert "'identities' must be an integer" in err
                assert not out_dir.exists()  # nothing written, not even the directory
            else:
                assert len(load_embeddings(out_dir / "gallery.emb")) == 5

    def test_config_float_options_take_finite_json_numbers(self, capsys, gallery_file, tmp_path):
        path, _, _ = gallery_file
        config = tmp_path / "config.json"
        report = tmp_path / "report.csv"
        for text, want in [
            ('{"threshold": 0.5}', "0.5"),
            ('{"threshold": 1}', "1.0"),  # a JSON integer is a number too
            ('{"threshold": true}', None),
            ('{"threshold": "0.5"}', None),
            ('{"threshold": NaN}', None),
            ('{"threshold": Infinity}', None),
            ('{"threshold": 1e400}', None),
        ]:
            config.write_text(text)
            code, _, err = run(
                capsys, "--config", str(config),
                "eval-retrieval", "--probes", str(path), "--gallery", str(path),
                "--report", str(report),
            )
            if want is None:
                assert code == 2, text
                assert "'threshold' must be a finite number" in err
                assert not report.exists()
            else:
                assert code == 0 and err.rstrip().endswith(f"at threshold {want}")
                report.unlink()

    def test_malformed_config_is_data_error(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        code, _, err = run(
            capsys, "--config", str(config), "bench", "--out-dir", str(tmp_path / "x")
        )
        assert code == 2

    def test_nested_config_rejected(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bench": {"dim": 16}}))
        code, _, _ = run(
            capsys, "--config", str(config), "bench", "--out-dir", str(tmp_path / "x")
        )
        assert code == 2


def test_no_stray_files_in_working_directory(capsys, rng, tmp_path, monkeypatch):
    # every artifact must land in the requested paths, nothing in cwd
    monkeypatch.chdir(tmp_path)
    work = tmp_path / "work"
    work.mkdir()
    means = work / "means.emb"
    write_embeddings(means, [random_unit(rng, 16) for _ in range(4)])
    code, _, _ = run(
        capsys, "build-anchors", "--means", str(means), "--out", str(work / "anchors.emb")
    )
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["work"]
    assert sorted(p.name for p in work.iterdir()) == ["anchors.emb", "means.emb"]


@pytest.mark.parametrize("value", ["--margin 2", "--tracker-threshold 5", "--retrieval-threshold 3"])
def test_bench_value_error_leaves_out_dir_empty(capsys, tmp_path, value):
    out_dir = tmp_path / "bench"
    code, _, err = run(
        capsys, "bench", "--dim", "16", "--identities", "6", "--frames", "2",
        "--mode", "anchor_sample", "--out-dir", str(out_dir), *value.split(),
    )
    assert code == 2, err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_bench_non_finite_jitter_is_rejected_before_any_write(capsys, tmp_path, value):
    out_dir = tmp_path / "bench"
    code, _, err = run(capsys, "bench", "--dim", "16", "--identities", "6", "--jitter", value, "--out-dir", str(out_dir))
    assert code == 2
    assert err == f"fiva: error: jitter_sigma must be >= 0 and finite, got {float(value)}\n"
    assert not out_dir.exists()


def test_bench_too_large_for_memory_is_a_data_error(tmp_path):
    # 10^11 identities of D = 512 ask numpy for 373 TiB at once: more than the
    # 128 TiB a Linux process can map, so the allocation fails under any
    # overcommit setting. Run in a child, as the command would be.
    out_dir = tmp_path / "bench"
    env = dict(os.environ, PYTHONPATH=str(Path(fiva.__file__).resolve().parents[1]))
    child = subprocess.run(
        [sys.executable, "-m", "fiva.cli", "bench", "--identities", "100000000000", "--frames", "1",
         "--out-dir", str(out_dir)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 2, child.stderr
    assert len(child.stderr.splitlines()) == 1
    assert child.stderr.startswith("fiva: error: Unable to allocate ") and " TiB " in child.stderr
    assert list(out_dir.iterdir()) == []


def test_bare_memory_error_is_a_data_error_that_leaves_no_temporary(capsys, tmp_path, monkeypatch):
    # Raised once frames.emb's staged temporary is open, as a late block would.
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(synth, "end_to_end_benchmark", exhausted)
    out_dir = tmp_path / "bench"
    code, out, err = run(capsys, "bench", "--dim", "16", "--identities", "6", "--frames", "2", "--out-dir", str(out_dir))
    assert (code, out, err) == (2, "", "fiva: error: out of memory\n")
    assert list(out_dir.iterdir()) == []


# Per command table: the arguments, with {inputs} and {out} folders, and the
# table's file under {out}, or None for the table printed to stdout.
TABLES = {
    "provenance": ("build-anchors --means {inputs}/means.emb --rounds 2 --out {out}/anchors.emb"
                   " --provenance {out}/table.csv", "table.csv"),
    "skips": ("build-anchors --means {inputs}/means.emb --out {out}/anchors.emb --skips {out}/table.csv",
              "table.csv"),
    "sample stdout": ("sample --anchors {inputs}/anchors.emb --query {inputs}/frames.emb"
                      " --margin 0.3 --out {out}/fakes.emb", None),
    "track log": ("track --frames {inputs}/frames.emb --anchors {inputs}/anchors.emb", None),
    "eval-retrieval": ("eval-retrieval --probes {inputs}/probes.emb --gallery {inputs}/means.emb"
                       " --report {out}/table.csv", "table.csv"),
    "eval-temporal": ("eval-temporal --frames {inputs}/frames.emb {inputs}/means.emb", None),
    "detect": ("detect --inputs {inputs}/frames.emb --outputs {inputs}/probes.emb"
               " --report {out}/table.csv", "table.csv"),
    "bench report": ("bench --dim 16 --identities 6 --frames 2 --out-dir {out}", "report.csv"),
    "defend sweep": ("defend --mode uniform --input {inputs}/image.ppm --output {out}/noised.ppm"
                     " --sweep 0.1,0.35,1", None),
}


@pytest.mark.parametrize("table", TABLES)
def test_every_table_keeps_one_csv_rule(capsys, rng, tmp_path, table):
    # Means holding an antipodal pair (one skip), jittered frames of them, and
    # probes labeled with names that need quoting.
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    means = np.array([random_unit(rng, 16).values for _ in range(6)])
    means[3] = -means[2]
    labels = ["a,b", 'say "hi"', "id_2", "id 3", "id_4", "ünï"]
    frames = means[np.arange(12) % 6] + rng.normal(0.0, 0.01, size=(12, 16))
    write_container(inputs / "means.emb", means, labels)
    write_container(inputs / "frames.emb", frames / np.linalg.norm(frames, axis=1, keepdims=True))
    write_container(inputs / "probes.emb", -frames / np.linalg.norm(frames, axis=1, keepdims=True),
                    [labels[i % 6] for i in range(12)])
    assert main(["build-anchors", "--means", str(inputs / "means.emb"), "--out", str(inputs / "anchors.emb")]) == 0
    write_image_ppm(inputs / "image.ppm", rng.random((4, 5, 3)))
    capsys.readouterr()
    args, name = TABLES[table]
    code, stdout, err = run(capsys, *args.format(inputs=inputs, out=out).split())
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(stdout if name is None else (out / name).read_text())))
    assert len(rows) > 1
    for row in rows:
        assert len(row) == len(rows[0]), row
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            if not cell.lstrip("-").isdigit():
                assert cell == repr(value), row
