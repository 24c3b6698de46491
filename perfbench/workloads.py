"""The benchmark's workloads: seeded inputs, fiva commands, glue and checks.

A workload is one pass of ``fiva`` commands run by a single client in a
closed loop: each command starts when the previous one has finished, with
no arrival rate.  ``write_inputs`` and ``setup_commands`` make the inputs
(timed as set-up), ``steps`` is the timed pass.  A step is either a
:class:`Cmd` or an untimed glue function that reshapes one command's output
into the next one's input.  Every command carries a check that compares its
outputs with a numpy oracle written here, independent of ``fiva``:
indices, keys and labels must match exactly, floats to within ``TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, Union

import numpy as np

from formats import (
    column,
    expect,
    read_container,
    read_csv,
    read_state,
    write_container,
)

D = 512
JITTER = 0.01
ROUNDS = 2
# fiva's default tracker and retrieval threshold; the state file keeps it as f32.
MATCH_THRESHOLD = 0.63
TOL = 1e-12
# Values the program keeps in float64 but writes as float32.
STORED_TOL = 1e-6
# Rows per command checked against the brute-force oracle.
SAMPLE_ROWS = 512


@dataclass(frozen=True)
class Cmd:
    """One ``fiva`` command line; ``check`` raises if its outputs are wrong.

    ``outputs`` (files or directories) are removed before each run, so the
    command always writes new files.
    """

    name: str
    argv: list[str]
    check: Callable[[], None]
    outputs: tuple[str, ...] = ()
    stdout: Path | None = None


Step = Union[Cmd, Callable[[], None]]


def unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def as_stored(x: np.ndarray) -> np.ndarray:
    """The float64 values a float32 file round trip gives back."""
    return x.astype(np.float32).astype(np.float64)


def jittered(centers: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` frames per center, grouped by center."""
    offsets = rng.normal(0.0, JITTER, size=(len(centers), count, centers.shape[1]))
    return unit_rows((centers[:, None, :] + offsets).reshape(-1, centers.shape[1]))


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def anchor_rounds(means: np.ndarray, rounds: int = ROUNDS) -> np.ndarray:
    """Anchors as ``build_anchor_set`` makes them at t = 0.5: each round takes
    the slerp midpoint of every row and its successor (cyclically)."""
    produced, current = [], means
    for _ in range(rounds):
        nxt = np.roll(current, -1, axis=0)
        cos = np.clip(rowdot(current, nxt), -1.0, 1.0)
        # The program skips antipodal pairs and uses a chord for parallel
        # ones; random inputs have neither, and the oracle models neither.
        expect(bool(((cos > -1 + 1e-6) & (cos < 1 - 1e-12)).all()), "degenerate anchor pair")
        omega = np.arccos(cos)
        half = np.sin(0.5 * omega)[:, None]
        current = unit_rows((half * current + half * nxt) / np.sin(omega)[:, None])
        produced.append(current)
    return np.concatenate(produced)


def nearest_anchor(queries: np.ndarray, anchors: np.ndarray, margin: float = 0.0):
    """Brute-force argmin of |cos + m|, and the cosine it reaches."""
    cos = np.clip(queries @ anchors.T, -1.0, 1.0)
    index = np.argmin(np.abs(cos + margin), axis=1)
    return index, cos[np.arange(len(index)), index]


def nearest_entry(probes: np.ndarray, gallery: np.ndarray):
    """Nearest gallery row by cosine distance, and that distance."""
    dist = 1.0 - np.clip(probes @ gallery.T, -1.0, 1.0)
    index = np.argmin(dist, axis=1)
    return index, dist[np.arange(len(index)), index]


def video_stats(videos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std of each video's pairwise distance matrix."""
    sq = np.einsum("vnd,vnd->vn", videos, videos)
    gram = videos @ videos.transpose(0, 2, 1)
    dist = np.clip(0.5 * (sq[:, :, None] + sq[:, None, :] - 2.0 * gram), 0.0, 2.0)
    mean = dist.mean(axis=(1, 2))
    std = np.sqrt(((dist - mean[:, None, None]) ** 2).mean(axis=(1, 2)))
    return mean, std


def close(got, want, what: str, tol: float = TOL) -> None:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    expect(got.shape == want.shape, f"{what}: shape {got.shape}, expected {want.shape}")
    worst = float(np.max(np.abs(got - want), initial=0.0))
    expect(worst <= tol, f"{what}: off by {worst:.3g} from the oracle")


def same_rows(got: np.ndarray, want: np.ndarray, what: str) -> None:
    expect(got.shape == want.shape and np.array_equal(got, want), f"{what}: rows differ")


class Workload:
    """Inputs under ``work``; subclasses set ``means`` in ``write_inputs``."""

    name = ""
    rows = 0  # embedding rows the timed commands consume per pass

    def __init__(self, seed: int, work: Path, threads: int) -> None:
        self.seed = seed
        self.work = work
        self.threads = threads
        self.means = np.empty((0, D))
        self.anchors = np.empty((0, D))

    def p(self, name: str) -> str:
        return str(self.work / name)

    def sample(self, count: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, count])
        return np.sort(rng.choice(count, min(SAMPLE_ROWS, count), replace=False))

    def write_inputs(self) -> None:
        raise NotImplementedError

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def setup_commands(self) -> list[Cmd]:
        argv = ["build-anchors", "--means", self.p("means.emb"), "--rounds", str(ROUNDS),
                "--out", self.p("anchors.emb")]
        return [Cmd("build_anchors", argv, self._check_anchors, (self.p("anchors.emb"),))]

    def _check_anchors(self) -> None:
        anchors, labels = read_container(self.work / "anchors.emb")
        expect(labels is None, "anchors carry labels")
        close(anchors, anchor_rounds(self.means), "anchors", STORED_TOL)
        self.anchors = anchors


class BenchE2E(Workload):
    """``fiva bench``: generation, tracking, per-frame sampling, retrieval,
    temporal scoring and the corpus writes, all in one process."""

    name = "bench_e2e"
    IDENTITIES, FRAMES = 1000, 10
    rows = IDENTITIES * FRAMES

    def write_inputs(self) -> None:
        # Set-up anchors the same identities ``bench`` generates from --seed;
        # this mirrors fiva.synth.generate_identities.
        raw = np.random.default_rng(self.seed).normal(size=(self.IDENTITIES, D))
        self.gallery = unit_rows(raw)
        self.means = as_stored(self.gallery)
        write_container(self.work / "means.emb", self.means)

    def steps(self) -> list[Step]:
        argv = ["bench", "--identities", str(self.IDENTITIES), "--frames", str(self.FRAMES),
                "--mode", "anchor_sample", "--threads", "1", "--seed", str(self.seed),
                "--out-dir", self.p("bench")]
        return [Cmd("bench", argv, self._check, (self.p("bench"),))]

    @cached_property
    def oracle(self) -> dict:
        frames = []
        for i, center in enumerate(self.gallery):
            # fiva.util.spawn_seed(seed, 1, i) seeds identity i's frames.
            child = int(np.random.SeedSequence([self.seed, 1, i]).generate_state(1)[0])
            offsets = np.random.default_rng(child).normal(0.0, JITTER, size=(self.FRAMES, D))
            frames.append(unit_rows(center + offsets))
        frames = np.concatenate(frames)
        anchors = anchor_rounds(self.gallery)
        per_frame, _ = nearest_anchor(frames, anchors)
        # The tracker mints from the float32 copy it stores of a first frame.
        tracked, _ = nearest_anchor(as_stored(frames[:: self.FRAMES]), anchors)
        mtc = video_stats(anchors[per_frame].reshape(self.IDENTITIES, self.FRAMES, D))
        return {"frames": frames, "anchors": anchors, "per_frame": per_frame,
                "tracked": tracked, "mtc": [m.mean() for m in mtc]}

    def _check(self) -> None:
        want = self.oracle
        out = self.work / "bench"
        rows = read_csv(out / "report.csv", "variant,id_rate,neg_id_rate,mtc_mean,mtc_std")
        report = {row[0]: [float(v) for v in row[1:]] for row in rows}
        expect(sorted(report) == ["per_frame", "tracked"], "report variants")
        expect(report["tracked"] == [0.0] * 4, "tracked: id, neg-id and mtc must all be 0")
        expect(report["per_frame"][:2] == [0.0, 0.0], "per-frame: id and neg-id rate must be 0")
        close(report["per_frame"][2:], want["mtc"], "per-frame mtc")

        labels = [f"id_{i:04d}" for i in range(self.IDENTITIES)]
        frame_labels = [label for label in labels for _ in range(self.FRAMES)]
        gallery, got = read_container(out / "gallery.emb")
        expect(got == labels, "gallery labels")
        close(gallery, self.gallery, "gallery", STORED_TOL)
        frames, got = read_container(out / "frames.emb")
        expect(got == frame_labels, "frame labels")
        close(frames, want["frames"], "frames", STORED_TOL)
        anchors, _ = read_container(out / "anchors.emb")
        close(anchors, want["anchors"], "bench anchors", STORED_TOL)
        tracked, got = read_container(out / "fakes_tracked.emb")
        expect(got == frame_labels, "tracked fake labels")
        same_rows(tracked, np.repeat(anchors[want["tracked"]], self.FRAMES, axis=0), "tracked fakes")
        per_frame, got = read_container(out / "fakes_per_frame.emb")
        expect(got == frame_labels, "per-frame fake labels")
        same_rows(per_frame, anchors[want["per_frame"]], "per-frame fakes")


class TrackResume(Workload):
    """``fiva track`` in two resumed chunks: mint-heavy, then lookup only."""

    name = "track_resume"
    MEANS, IDENTITIES, FRAMES = 2000, 2000, 5
    rows = 2 * IDENTITIES * FRAMES

    def write_inputs(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.means = as_stored(unit_rows(rng.normal(size=(self.MEANS, D))))
        centers = unit_rows(rng.normal(size=(self.IDENTITIES, D)))
        # Chunk 1 is in scene order: each person's frames are consecutive.
        self.chunk1 = as_stored(jittered(centers, self.FRAMES, rng))
        self.ids1 = np.repeat(np.arange(self.IDENTITIES), self.FRAMES)
        # Chunk 2 revisits everyone in shuffled order.
        order = rng.permutation(self.IDENTITIES * self.FRAMES)
        self.chunk2 = as_stored(jittered(centers, self.FRAMES, rng))[order]
        self.ids2 = self.ids1[order]
        write_container(self.work / "means.emb", self.means)
        write_container(self.work / "chunk1.emb", self.chunk1)
        write_container(self.work / "chunk2.emb", self.chunk2)

    def steps(self) -> list[Step]:
        p = self.p
        anchors = ["--anchors", p("anchors.emb")]
        return [
            Cmd("track_chunk1", ["track", "--frames", p("chunk1.emb"), *anchors,
                                 "--state-out", p("state1.bin"), "--out", p("fakes1.emb"),
                                 "--log", p("log1.csv")], partial(self._check, 1),
                (p("state1.bin"), p("fakes1.emb"), p("log1.csv"))),
            Cmd("track_chunk2", ["track", "--frames", p("chunk2.emb"), *anchors,
                                 "--state-in", p("state1.bin"), "--state-out", p("state2.bin"),
                                 "--out", p("fakes2.emb"), "--log", p("log2.csv")],
                partial(self._check, 2), (p("state2.bin"), p("fakes2.emb"), p("log2.csv"))),
        ]

    @cached_property
    def minted(self) -> np.ndarray:
        """Anchor index minted for each identity, from its first stored frame."""
        return nearest_anchor(self.chunk1[:: self.FRAMES], self.anchors)[0]

    def _check(self, chunk: int) -> None:
        first = self.chunk1[:: self.FRAMES]
        if chunk == 1:
            frames, ids = self.chunk1, self.ids1
            mints = np.arange(len(ids)) % self.FRAMES == 0
            store_size = ids + ~mints
        else:
            frames, ids = self.chunk2, self.ids2
            mints = np.zeros(len(ids), dtype=bool)
            store_size = np.full(len(ids), self.IDENTITIES)
        rows = read_csv(self.work / f"log{chunk}.csv", "frame_index,matched,key,distance")
        expect(len(rows) == len(frames), f"log has {len(rows)} rows for {len(frames)} frames")
        expect(bool((column(rows, 0, int) == np.arange(len(rows))).all()), "frame indices")
        expect(bool((column(rows, 1, int) == ~mints).all()),
               f"chunk {chunk} must mint exactly once per new identity")
        expect(bool((column(rows, 2, int) == ids).all()), "keys do not follow the identity partition")
        for i in self.sample(len(frames)):
            cell, n = rows[i][3], store_size[i]
            if n == 0:
                expect(cell == "", "first contact must have no match distance")
                continue
            best = (1.0 - np.clip(first[:n] @ frames[i], -1.0, 1.0)).min()
            close(float(cell), best, f"chunk {chunk} frame {i} match distance")

        fakes, labels = read_container(self.work / f"fakes{chunk}.emb")
        expect(labels is None, "tracked fakes carry labels")
        same_rows(fakes, self.anchors[self.minted[ids]], f"chunk {chunk} fakes")
        stored, fake_rows, (threshold, margin, keys) = read_state(self.work / f"state{chunk}.bin")
        same_rows(stored, first, "stored identities")
        same_rows(fake_rows, self.anchors[self.minted], "stored fakes")
        expect((threshold, margin, keys) == (float(np.float32(MATCH_THRESHOLD)), 0.0, self.IDENTITIES),
               f"state trailer {(threshold, margin, keys)}")


class ScoreFiles(Workload):
    """Offline scoring of an anonymized corpus held in many files."""

    name = "score_files"
    MEANS, GALLERY, VIDEOS, FRAMES = 2000, 2000, 200, 50
    QUERIES = VIDEOS * FRAMES
    # sample, eval-retrieval twice, eval-temporal and detect each read every query row.
    rows = 5 * QUERIES

    def write_inputs(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        self.means = as_stored(unit_rows(rng.normal(size=(self.MEANS, D))))
        self.gallery = as_stored(unit_rows(rng.normal(size=(self.GALLERY, D))))
        self.labels = np.array([f"id_{i:04d}" for i in range(self.GALLERY)])
        people = rng.choice(self.GALLERY, self.VIDEOS, replace=False)
        self.queries = as_stored(jittered(self.gallery[people], self.FRAMES, rng))
        self.query_labels = list(self.labels[np.repeat(people, self.FRAMES)])
        self.videos = [self.p(f"videos/v{v:03d}.emb") for v in range(self.VIDEOS)]
        write_container(self.work / "means.emb", self.means)
        write_container(self.work / "gallery.emb", self.gallery, list(self.labels))
        write_container(self.work / "queries.emb", self.queries, self.query_labels)
        (self.work / "videos").mkdir(exist_ok=True)

    def steps(self) -> list[Step]:
        p = self.p
        threads = ["--threads", str(self.threads)]
        retrieval = ["eval-retrieval", "--probes", p("probes.emb"), "--gallery", p("gallery.emb"), *threads]
        return [
            Cmd("sample", ["sample", "--anchors", p("anchors.emb"), "--query", p("queries.emb"),
                           "--out", p("fakes.emb"), *threads],
                self._check_sample, (p("fakes.emb"),), self.work / "sample.csv"),
            self._label_and_split,
            Cmd("eval_retrieval", [*retrieval, "--report", p("retrieval.csv")],
                partial(self._check_retrieval, "retrieval.csv", 1.0), (p("retrieval.csv"),)),
            Cmd("eval_retrieval_negate", [*retrieval, "--negate", "--report", p("negated.csv")],
                partial(self._check_retrieval, "negated.csv", -1.0), (p("negated.csv"),)),
            Cmd("eval_temporal", ["eval-temporal", "--frames", *self.videos,
                                  "--report", p("temporal.csv"), *threads],
                self._check_temporal, (p("temporal.csv"),)),
            Cmd("detect", ["detect", "--inputs", p("queries.emb"), "--outputs", p("fakes.emb"),
                           "--report", p("detect.csv"), *threads],
                self._check_detect, (p("detect.csv"),)),
        ]

    def _label_and_split(self) -> None:
        """``sample`` writes unlabeled fakes; retrieval needs labeled probes
        and temporal scoring one file per video."""
        self.fakes, _ = read_container(self.work / "fakes.emb")
        write_container(self.work / "probes.emb", self.fakes, self.query_labels)
        for v, path in enumerate(self.videos):
            write_container(Path(path), self.fakes[v * self.FRAMES : (v + 1) * self.FRAMES])

    def _check_sample(self) -> None:
        rows = read_csv(self.work / "sample.csv", "query_index,anchor_index,achieved_cosine")
        expect(len(rows) == self.QUERIES, f"{len(rows)} sample rows")
        expect(bool((column(rows, 0, int) == np.arange(self.QUERIES)).all()), "query indices")
        index, cos = column(rows, 1, int), column(rows, 2, float)
        expect(bool(((index >= 0) & (index < len(self.anchors))).all()), "anchor index out of range")
        fakes, labels = read_container(self.work / "fakes.emb")
        expect(labels is None, "sampled fakes carry labels")
        same_rows(fakes, self.anchors[index], "sampled fakes")
        close(cos, rowdot(self.queries, self.anchors[index]), "achieved cosine")
        rows_checked = self.sample(self.QUERIES)
        want_index, want_cos = nearest_anchor(self.queries[rows_checked], self.anchors)
        expect(bool((index[rows_checked] == want_index).all()), "sampled anchor is not argmin |cos + m|")
        close(cos[rows_checked], want_cos, "sampled cosine")

    def _check_retrieval(self, report: str, sign: float) -> None:
        header = "probe_index,true_label,retrieved_label,distance,success"
        rows = read_csv(self.work / report, header)
        expect(len(rows) == self.QUERIES + 1 and rows[-1][0] == "aggregate", f"{report}: row count")
        expect(float(rows[-1][4]) == 0.0, f"{report}: anchor-sampled fakes must give rate 0")
        rows = rows[:-1]
        expect(bool((column(rows, 0, int) == np.arange(self.QUERIES)).all()), "probe indices")
        expect(list(column(rows, 1)) == self.query_labels, f"{report}: true labels")
        expect(bool((column(rows, 4, int) == 0).all()), f"{report}: a probe was retrieved")
        checked = self.sample(self.QUERIES)
        index, dist = nearest_entry(sign * self.fakes[checked], self.gallery)
        expect(bool((column(rows, 2)[checked] == self.labels[index]).all()), f"{report}: retrieved labels")
        close(column(rows, 3, float)[checked], dist, f"{report}: distances")

    def _check_temporal(self) -> None:
        header = "video_index,video,frame_count,mean_distance,std_distance"
        rows = read_csv(self.work / "temporal.csv", header)
        expect(len(rows) == self.VIDEOS + 1 and rows[-1][0] == "aggregate", "temporal row count")
        per_video, aggregate = rows[:-1], rows[-1]
        expect(bool((column(per_video, 0, int) == np.arange(self.VIDEOS)).all()), "video indices")
        expect(list(column(per_video, 1)) == [Path(v).name for v in self.videos], "video names")
        expect(bool((column(per_video, 2, int) == self.FRAMES).all()), "frame counts")
        mean, std = video_stats(self.fakes.reshape(self.VIDEOS, self.FRAMES, D))
        close(column(per_video, 3, float), mean, "per-video mean distance")
        close(column(per_video, 4, float), std, "per-video std distance")
        close([float(aggregate[3]), float(aggregate[4])], [mean.mean(), std.mean()], "temporal aggregate")

    def _check_detect(self) -> None:
        rows = read_csv(self.work / "detect.csv", "pair_index,distance,is_fake")
        expect(len(rows) == self.QUERIES + 5, f"{len(rows)} detect rows")
        pairs, summary = rows[: self.QUERIES], rows[self.QUERIES :]
        expect(bool((column(pairs, 0, int) == np.arange(self.QUERIES)).all()), "pair indices")
        want = 1.0 - np.clip(rowdot(self.queries, self.fakes), -1.0, 1.0)
        close(column(pairs, 1, float), want, "detect distances")
        expect(bool((column(pairs, 2, int) == 1).all()), "detect must flag every swapped pair")
        stats = {row[0]: row[1] for row in summary}
        expect(list(stats) == ["mean", "std", "min", "max", "histogram"], "detect summary rows")
        close([float(stats[k]) for k in ("mean", "std", "min", "max")],
              [want.mean(), want.std(), want.min(), want.max()], "detect summary")
        histogram = np.histogram(want, bins=40, range=(0.0, 2.0))[0]
        expect(stats["histogram"] == " ".join(str(c) for c in histogram), "detect histogram")


WORKLOADS = {w.name: w for w in (BenchE2E, TrackResume, ScoreFiles)}
