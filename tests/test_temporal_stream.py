"""``eval-temporal`` scores each file as it reads it: its report equals one of
each video scored alone, and the first bad file in argument order decides its
error, naming an empty one. Its peak is pinned in ``test_io_memory.py``."""

import numpy as np
import pytest

from fiva import cli, temporal_consistency, write_container
from fiva import io as fio


def write_videos(folder, rng, shapes, scale=1.0):
    """One file per (frames, width) of ``shapes``, of jittered rows of one
    direction, each row's norm ``scale`` (0 frames: an empty file)."""
    paths = []
    for v, (frames, dim) in enumerate(shapes):
        center = rng.normal(size=dim)
        rows = center + rng.normal(0.0, 0.3, size=(frames, dim))
        rows *= scale / np.linalg.norm(rows, axis=1, keepdims=True)
        paths.append(folder / f"v{v:03d}.emb")
        write_container(paths[-1], rows)
    return paths


def alone(paths, normalize):
    """The report of ``paths`` rendered from each video scored on its own."""
    rows, means, stds = [], [], []
    for i, path in enumerate(paths):
        video = fio._distinct_table(path, normalize)[0]
        report = temporal_consistency([video])
        means.append(report.video_means[0])
        stds.append(report.video_stds[0])
        rows.append([i, path.name, len(video), float(means[-1]), float(stds[-1])])
    rows.append(["aggregate", "", "", float(np.mean(means)), float(np.mean(stds))])
    return "video_index,video,frame_count,mean_distance,std_distance\n" + fio._csv_text(rows)


@pytest.mark.parametrize("normalize", [False, True])
def test_report_of_mixed_lengths_and_widths_equals_each_video_alone(rng, tmp_path, capsys, normalize):
    # Shapes interleaved, so runs of one shape break where the next file differs,
    # then a run of 60 videos of 50 frames of D = 64: more than the 45 a Gram
    # block holds.
    mixed = [(frames, dim) for frames in (1, 4, 7, 50) for dim in (16, 64)] * 3
    shapes = [mixed[i] for i in rng.permutation(len(mixed))] + [(50, 64)] * 60
    paths = write_videos(tmp_path, rng, shapes, 1.5 if normalize else 1.0)
    flags = ["--normalize"] if normalize else []
    for run in (1, 2):
        argv = ["eval-temporal", "--frames", *map(str, paths), *flags, "--report", str(tmp_path / f"r{run}.csv")]
        assert cli.main(argv) == 0
    assert capsys.readouterr().err.startswith(f"temporal consistency over {len(paths)} videos: ")
    report = (tmp_path / "r1.csv").read_text()
    assert report == alone(paths, normalize)
    assert (tmp_path / "r2.csv").read_bytes() == report.encode()


def test_first_bad_file_in_argument_order_decides_the_error(rng, tmp_path, capsys):
    good, empty = write_videos(tmp_path, rng, [(4, 8), (0, 8)])
    bad = tmp_path / "bad.emb"
    bad.write_bytes(b"XXXXXXXX")
    cases = [
        ([good, empty, bad], f"{empty}: a video needs at least one frame embedding"),
        ([good, bad, empty], "bad magic b'XXXXXXXX', expected b'FIVAEMB1'"),
        ([empty, good], f"{empty}: a video needs at least one frame embedding"),
    ]
    for paths, message in cases:
        assert cli.main(["eval-temporal", "--frames", *map(str, paths), "--report", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr() == ("", f"fiva: error: {message}\n")
        assert not (tmp_path / "r.csv").exists()
