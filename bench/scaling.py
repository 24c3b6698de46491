"""Layer scaling of fiva's sampling and scoring: how each layer grows.

Times, in process, the layers ``fiva bench`` runs per variant, on a corpus of
I identities with F jittered frames each:

- ``sample_batch``: the nearest anchor of each of the I * F frames among
  2 * I anchors (``build_anchor_set`` of the identities, 2 rounds), at m = 0;
- ``retrieval``: the id and the neg-id report of the I * F jittered frames
  (all distinct) against an I-entry gallery (``retrieval_reports``; on a tree
  without it, the two ``retrieval_report`` calls it replaces);
- ``retrieval_sampled``: the same reports on the anchor each frame samples,
  the per-frame fakes of ``fiva bench``: few distinct rows, many copies;
- ``temporal``: ``temporal_consistency`` of the (I, F, D) array of videos;
- ``track_mint``: ``TrackerState.track_rows`` of the I * F frames in scene
  order (each identity's frames in a row) into an empty tracker with the
  anchors above: I new identities, the rest matches;
- ``track_match``: the same frames shuffled, into the tracker the scene-order
  run filled: matches only;
- ``io_write``: ``write_container`` of the I * F labeled frames to a file in a
  temporary directory;
- ``io_read``: ``load_rows`` of that file, as float64 unit rows;
- ``io_fold``: the probes reader's fold (``io._distinct_table``, a dict of row
  hashes filled as the file is read) of that file, all distinct, and of the
  sampled fakes' file, few distinct rows;
- ``io_state``: a ``save_state`` and ``load_state`` round trip, through a file
  in the temporary directory, of the tracker the scene-order run filled (the
  ``track_mint`` tracker);
- ``score_rows``: the detector's distance distribution of each frame against
  the anchor it samples;
- ``cli_track``: ``fiva track`` (``cli.main``, in process) of the frames file
  in scene order into an empty tracker with the anchors file, writing the
  fakes and the log;
- ``cli_track_resume``: ``fiva track --state-in`` of the shuffled frames' file
  with the anchors file, resumed from the saved state of the tracker the
  scene-order run filled, writing the fakes and the log: matches only, so the
  anchors are checked and never read;
- ``cli_sample``: ``fiva sample`` of the frames file against the anchors file
  at m = 0, writing the fakes and the pick table;
- ``cli_detect``: ``fiva detect`` of the frames file against the sampled
  fakes' file, writing the report;
- ``cli_eval_retrieval``: ``fiva eval-retrieval`` of the labeled frames file
  (all distinct probes) against the I-entry gallery's file, writing the report;
- ``cli_eval_retrieval_sampled``: the same of the sampled fakes' file, labeled
  as the frames: few distinct probes, which the reader folds as it reads;
- ``cli_eval_temporal``: ``fiva eval-temporal`` of one file per identity
  holding its F frames, writing the report;
- ``bench``: ``end_to_end_benchmark`` of the I identities with F frames each,
  anchor sampling at m = 0 from the anchors above, given the gallery: the
  frames, both fake corpora and their retrieval and temporal scores;
- ``build_anchor_set``: the anchors above, built again from the I-entry
  gallery (2 rounds).

Each grid point is the median of 5 ``perf_counter`` runs, after one untimed
warm-up run, at a fixed seed and D = 512, one axis varied at a time: I in
{250, 1000, 4000} at F = 10, and F in {5, 10, 20} at I = 1000. The tracker,
container, detector and command layers, ``bench`` and ``build_anchor_set``
also get one more run under ``tracemalloc``, whose peak (the most memory the
call held at once, numpy's buffers included) is reported in MiB. Each command
layer is also run 3 times as ``python -m fiva.cli`` in a child process, started
from a small runner that imports no numpy, and the medians of the child's
``ru_maxrss``, minor page faults and CPU time from ``os.wait4`` are reported
(``child``): unlike the in-process layers, these compare across two trees,
since no earlier layer's heap or caches are in the child.

A third axis moves the reference rows K alone: ``sample_batch`` and
``retrieval`` of the I * F = 1000 * 10 frames against K in {1000, 4000, 16000}
rows, the I-entry gallery followed by K - I seeded random distractors, used
both as the anchor set and as a K-entry gallery. Both layers are traced at
each K, so the points show how the nearest-row kernel's time and memory grow
with the reference count at a fixed query count.

The JSON printed on stdout holds the raw points (with the count of distinct
sampled anchors, or the reference row count on the K axis), the log-log
slope of each layer's time and of each traced peak along each axis, and the
Python, numpy and BLAS versions and ``nproc``.
Only the stdlib and numpy are needed::

    python3 bench/scaling.py                       # the src/ of this checkout
    python3 bench/scaling.py --src OTHER/src       # another tree, same grid
    python3 bench/scaling.py --smallest            # one point per axis, a smoke run
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

DIM = 512
JITTER = 0.01
REPEATS = 5
SEED = 7
IDENTITY_AXIS = (250, 1000, 4000)
FRAME_AXIS = (5, 10, 20)
BASE_IDENTITIES, BASE_FRAMES = 1000, 10
REFERENCE_AXIS = (1000, 4000, 16000)
# Layers timed and traced along the reference axis.
REFERENCE_LAYERS = ("sample_batch", "retrieval")
# Layers whose tracemalloc peak is reported besides their time.
CLI_LAYERS = ("cli_track", "cli_track_resume", "cli_sample", "cli_detect", "cli_eval_retrieval",
              "cli_eval_retrieval_sampled", "cli_eval_temporal")
TRACED = ("track_mint", "track_match", "io_write", "io_read", "io_fold", "io_state", "score_rows",
          "cli_track", "cli_track_resume", "cli_sample", "cli_detect",
          "cli_eval_retrieval", "cli_eval_retrieval_sampled", "cli_eval_temporal", "bench", "build_anchor_set")


def corpus(identities: int, frames: int):
    """A unit gallery of ``identities`` rows and ``frames`` jittered copies of each."""
    rng = np.random.default_rng(SEED)
    gallery = rng.normal(size=(identities, DIM))
    gallery /= np.linalg.norm(gallery, axis=1, keepdims=True)
    videos = rng.normal(0.0, JITTER, size=(identities, frames, DIM))
    videos += gallery[:, None, :]
    videos /= np.linalg.norm(videos, axis=2, keepdims=True)
    return gallery, videos


def inputs(fiva, identities: int, frames: int, workdir: Path) -> dict:
    """The gallery, labels, frames, anchors and sampled fakes of one grid point,
    how many distinct anchors the frames sampled, and the files of the frames,
    the shuffled frames, the anchors, the fakes (labeled as their frames), the
    gallery, each identity's video and the filled tracker's state, with a
    folder for command outputs."""
    matrix, videos = corpus(identities, frames)
    names = [f"id_{i:04d}" for i in range(identities)]
    probes = videos.reshape(-1, DIM)
    anchors = fiva.build_anchor_set(matrix, rounds=2)
    picked = fiva.sample_batch(probes, anchors, 0.0)[0]
    filled = fiva.TrackerState(anchors=anchors)
    filled.track_rows(probes)
    labels = [name for name in names for _ in range(frames)]
    shuffled = probes[np.random.default_rng(SEED).permutation(len(probes))]
    fiva.write_container(workdir / "frames.emb", probes, labels)
    fiva.write_container(workdir / "shuffled.emb", shuffled)
    fiva.save_state(filled, workdir / "filled.state")
    fiva.write_container(workdir / "anchors.emb", anchors.matrix)
    fiva.write_container(workdir / "sampled.emb", anchors.matrix[picked], labels)
    fiva.write_container(workdir / "gallery.emb", matrix, names)
    (workdir / "videos").mkdir()
    video_files = [workdir / "videos" / f"{name}.emb" for name in names]
    for path, video in zip(video_files, videos):
        fiva.write_container(path, video)
    return {
        "gallery": fiva.Gallery(matrix, names),
        "config": fiva.SynthConfig(DIM, identities, frames, JITTER, SEED),
        "labels": labels,
        "probes": probes,
        "videos": videos,
        "anchors": anchors,
        "sampled": anchors.matrix[picked],
        "sampled_distinct": len(np.unique(picked)),
        "filled": filled,
        "shuffled": shuffled,
        "file": workdir / "frames.emb",
        "video_files": video_files,
        "workdir": workdir,
    }


def reference_inputs(fiva, rows: int) -> dict:
    """The BASE_IDENTITIES x BASE_FRAMES frames and their labels, and ``rows``
    reference rows, the identities' gallery then seeded random distractors, as
    an anchor set and as a labeled gallery."""
    matrix, videos = corpus(BASE_IDENTITIES, BASE_FRAMES)
    distractors = np.random.default_rng(SEED + 1).normal(size=(rows - BASE_IDENTITIES, DIM))
    distractors /= np.linalg.norm(distractors, axis=1, keepdims=True)
    reference = np.concatenate([matrix, distractors])
    names = [f"id_{i:04d}" for i in range(BASE_IDENTITIES)]
    names += [f"distractor_{i:05d}" for i in range(len(distractors))]
    return {
        "probes": videos.reshape(-1, DIM),
        "labels": [name for name in names[:BASE_IDENTITIES] for _ in range(BASE_FRAMES)],
        "anchors": fiva.AnchorSet(reference),
        "gallery": fiva.Gallery(reference, names),
    }


def command(fiva, *argv):
    """``fiva`` run in process on ``argv``, its tables and messages dropped."""
    from fiva import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if cli.main([str(arg) for arg in argv]):
            raise RuntimeError(f"fiva {argv[0]} failed")


def cli_commands(x) -> dict[str, list]:
    """name -> the ``fiva`` arguments of each command layer on the inputs ``x``."""
    w = x["workdir"]
    return {
        "cli_track": ["track", "--frames", x["file"], "--anchors", w / "anchors.emb",
                      "--out", w / "tracked.emb", "--log", w / "track.csv"],
        "cli_track_resume": ["track", "--frames", w / "shuffled.emb", "--anchors", w / "anchors.emb",
                             "--state-in", w / "filled.state", "--out", w / "resumed.emb",
                             "--log", w / "resumed.csv"],
        "cli_sample": ["sample", "--anchors", w / "anchors.emb", "--query", x["file"],
                       "--out", w / "fakes.emb"],
        "cli_detect": ["detect", "--inputs", x["file"], "--outputs", w / "sampled.emb",
                       "--report", w / "detect.csv"],
        "cli_eval_retrieval": ["eval-retrieval", "--probes", x["file"], "--gallery", w / "gallery.emb",
                               "--report", w / "retrieval.csv"],
        "cli_eval_retrieval_sampled": ["eval-retrieval", "--probes", w / "sampled.emb",
                                       "--gallery", w / "gallery.emb", "--report", w / "sampled.csv"],
        "cli_eval_temporal": ["eval-temporal", "--frames", *x["video_files"],
                              "--report", w / "temporal.csv"],
    }


# Runs ``python -m fiva.cli ARGS`` (argv after the source directory) and prints
# the child's rusage. It imports no numpy: Linux starts a forked child's
# ``ru_maxrss`` at its parent's resident size, so a child of this runner
# would report at least the runner's own size.
LAUNCHER = """
import json, os, subprocess, sys
env = dict(os.environ, PYTHONPATH=sys.argv[1])
child = subprocess.Popen([sys.executable, "-m", "fiva.cli", *sys.argv[2:]], env=env,
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(json.dumps({"code": os.waitstatus_to_exitcode(status), "maxrss_kib": usage.ru_maxrss,
                  "minflt": usage.ru_minflt, "cpu_s": usage.ru_utime + usage.ru_stime}))
"""


def child_usage(src: str, argv) -> dict[str, float]:
    """The median peak RSS (MiB), minor page faults and CPU seconds of ``fiva
    argv`` run in a child process started by :data:`LAUNCHER`, over 3 runs."""
    runs = []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", LAUNCHER, src, *map(str, argv)],
                             check=True, capture_output=True, text=True).stdout
        run = json.loads(out)
        if run["code"]:
            raise RuntimeError(f"fiva {argv[0]} exited {run['code']}")
        runs.append(run)
    return {
        "maxrss_mib": statistics.median(r["maxrss_kib"] for r in runs) / 1024,
        "minflt": statistics.median(r["minflt"] for r in runs),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
    }


def layers(fiva):
    """name -> callable(inputs) for the tree under test."""
    fold = fiva.io._distinct_table  # the probes reader: private, taken from the tree under test
    both = getattr(fiva, "retrieval_reports", None)
    if both is None:
        def both(probes, labels, gallery, threshold):
            return tuple(
                fiva.retrieval_report(probes, labels, gallery, threshold, negate=flag)
                for flag in (False, True)
            )
    return {
        "sample_batch": lambda x: fiva.sample_batch(x["probes"], x["anchors"], 0.0),
        "retrieval": lambda x: both(x["probes"], x["labels"], x["gallery"], 0.63),
        "retrieval_sampled": lambda x: both(x["sampled"], x["labels"], x["gallery"], 0.63),
        "temporal": lambda x: fiva.temporal_consistency(x["videos"]),
        "track_mint": lambda x: fiva.TrackerState(anchors=x["anchors"]).track_rows(x["probes"]),
        "track_match": lambda x: x["filled"].track_rows(x["shuffled"]),
        "io_write": lambda x: fiva.write_container(x["file"], x["probes"], x["labels"]),
        "io_read": lambda x: fiva.load_rows(x["file"]),
        "io_fold": lambda x: (fold(x["file"]), fold(x["workdir"] / "sampled.emb")),
        "io_state": lambda x: (
            fiva.save_state(x["filled"], x["workdir"] / "tracker.state"),
            fiva.load_state(x["workdir"] / "tracker.state", x["anchors"]),
        ),
        "score_rows": lambda x: fiva.score_rows(x["probes"], x["sampled"]),
        **{name: (lambda x, name=name: command(fiva, *cli_commands(x)[name])) for name in CLI_LAYERS},
        "bench": lambda x: fiva.end_to_end_benchmark(
            x["config"], fiva.MockAnonymizer("anchor_sample", anchors=x["anchors"]),
            gallery=x["gallery"],
        ),
        "build_anchor_set": lambda x: fiva.build_anchor_set(x["gallery"].matrix, rounds=2),
    }


def traced_peak(layer, point) -> float:
    """The most memory, in MiB, one run of ``layer`` held at once beyond what it started with."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        layer(point)
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        tracemalloc.stop()


def time_layers(table, point, traced) -> tuple[dict[str, float], dict[str, float]]:
    """Per layer of ``table``, the median time on ``point``; per layer named in
    ``traced``, its peak MiB."""
    medians, peaks = {}, {}
    for name, layer in table.items():
        layer(point)  # warm-up, untimed
        runs = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            layer(point)
            runs.append(time.perf_counter() - start)
        medians[name] = statistics.median(runs)
        if name in traced:
            peaks[name] = traced_peak(layer, point)
    return medians, peaks


def time_point(fiva, src: str, identities: int, frames: int) -> tuple[dict, dict, dict, int]:
    """Per layer, the median time at one grid point; per traced layer, its peak
    MiB; per command layer, its child's usage; and the distinct sampled anchors."""
    with tempfile.TemporaryDirectory() as workdir:
        point = inputs(fiva, identities, frames, Path(workdir))
        medians, peaks = time_layers(layers(fiva), point, TRACED)
        children = {name: child_usage(src, argv) for name, argv in cli_commands(point).items()}
        return medians, peaks, children, point["sampled_distinct"]


def time_reference_point(fiva, rows: int) -> tuple[dict[str, float], dict[str, float]]:
    """The median time and peak MiB of each reference-axis layer against ``rows`` reference rows."""
    table = {name: layer for name, layer in layers(fiva).items() if name in REFERENCE_LAYERS}
    return time_layers(table, reference_inputs(fiva, rows), REFERENCE_LAYERS)


def slope(sizes, seconds) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    x = np.log(np.asarray(sizes, dtype=float))
    y = np.log(np.asarray(seconds, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version")},
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="the src directory of the fiva tree to time")
    parser.add_argument("--smallest", action="store_true",
                        help="time only the smallest point of each axis")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import fiva

    identity_axis = IDENTITY_AXIS[:1] if args.smallest else IDENTITY_AXIS
    frame_axis = FRAME_AXIS[:1] if args.smallest else FRAME_AXIS
    reference_axis = REFERENCE_AXIS[:1] if args.smallest else REFERENCE_AXIS
    axes = {
        "identities": [(i, BASE_FRAMES) for i in identity_axis],
        "frames": [(BASE_IDENTITIES, f) for f in frame_axis],
    }
    cache: dict[tuple[int, int], dict[str, float]] = {}
    peak_cache: dict[tuple[int, int], dict[str, float]] = {}
    points, slopes, peak_slopes = [], {}, {}
    for axis, grid in axes.items():
        for shape in grid:
            if shape not in cache:
                cache[shape], peak_cache[shape], children, distinct = time_point(fiva, args.src, *shape)
                points.append({"identities": shape[0], "frames": shape[1], "dim": DIM,
                               "sampled_distinct": distinct, "median_s": cache[shape],
                               "peak_mib": peak_cache[shape], "child": children})
        if len(grid) > 1:
            sizes = [i if axis == "identities" else f for i, f in grid]
            for into, table in ((slopes, cache), (peak_slopes, peak_cache)):
                into[axis] = {
                    name: slope(sizes, [table[shape][name] for shape in grid])
                    for name in table[grid[0]]
                }
    reference = {rows: time_reference_point(fiva, rows) for rows in reference_axis}
    for rows, (medians, peaks) in reference.items():
        points.append({"identities": BASE_IDENTITIES, "frames": BASE_FRAMES, "dim": DIM,
                       "reference_rows": rows, "median_s": medians, "peak_mib": peaks})
    if len(reference_axis) > 1:
        for into, part in ((slopes, 0), (peak_slopes, 1)):
            into["reference_rows"] = {
                name: slope(reference_axis, [reference[rows][part][name] for rows in reference_axis])
                for name in REFERENCE_LAYERS
            }
    print(json.dumps({
        "src": str(Path(args.src).resolve()),
        "repeats": REPEATS,
        "seed": SEED,
        "points": points,
        "loglog_slope": slopes,
        "peak_loglog_slope": peak_slopes,
        "env": environment(),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
