"""``eval-retrieval`` and ``eval-temporal`` hold their inputs as the float32
rows the files store and widen them a block at a time: every report, and
every error, equals the one of the rows materialized as float64 first. So do
the library's batch entries given float32 arrays."""

from unittest import mock

import numpy as np
import pytest

from fiva import (
    AnchorSet,
    FivaError,
    Gallery,
    MockAnonymizer,
    NotUnitNorm,
    TrackerState,
    build_anchor_set,
    mean_embedding,
    pack_container,
    retrieval_reports,
    sample_batch,
    score_rows,
    temporal_consistency,
    write_container,
)
from fiva import io as fio
from fiva.cli import main
from fiva.metrics import _distinct_rows
from fiva.sphere import _BLOCK_ROWS, _Scratch, _nearest
from fiva.synth import _anonymize_rows


def unit_rows(rng, count, dim):
    rows = rng.normal(size=(count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def stored(rows):
    """``rows`` as a file stores them."""
    return np.asarray(rows, dtype=np.float32)


def materialized(source, renormalize=False):
    """The float64 rows :func:`fio.load_rows` gives, in place of the folded float32 table."""
    return fio.load_rows(source, renormalize)


def run(capsys, argv, report):
    """Exit code, stderr and report bytes of one command."""
    code = main([str(arg) for arg in argv] + ["--report", str(report)])
    err = capsys.readouterr().err
    return code, err, report.read_bytes() if code == 0 else None


def both_paths(capsys, tmp_path, argv):
    """The command's result from the folded float32 tables, then with float64 rows
    read by the stand-in, which must have run."""
    table = run(capsys, argv, tmp_path / "table.csv")
    with mock.patch.object(fio, "_distinct_table", side_effect=materialized) as stand_in:
        wide = run(capsys, argv, tmp_path / "wide.csv")
    assert stand_in.called
    return table, wide


def copy_rich(rng, distinct, count, dim):
    """``count`` rows repeating ``distinct`` unit rows, each at least once."""
    rows = unit_rows(rng, distinct, dim)
    source = np.concatenate([np.arange(distinct), rng.integers(0, distinct, count - distinct)])
    return rows[rng.permutation(source)]


def gallery_files(rng, folder, size, dim):
    labels = [f"id_{i:03d}" for i in range(size)]
    write_container(folder / "gallery.emb", unit_rows(rng, size, dim), labels)
    return labels


def retrieval_argv(folder, probes, *flags):
    return ["eval-retrieval", "--probes", probes, "--gallery", folder / "gallery.emb", *flags]


@pytest.mark.parametrize("dim", [3, 5, 32])
@pytest.mark.parametrize("distinct", [1, 40, 300])
def test_copy_rich_probes_report_the_float64_bytes(rng, tmp_path, capsys, dim, distinct):
    labels = gallery_files(rng, tmp_path, 30, dim)
    probes = copy_rich(rng, distinct, 600, dim)
    write_container(tmp_path / "probes.emb", probes, list(rng.choice(labels, len(probes))))
    for flags in ([], ["--negate"], ["--threshold", "1.5"]):
        table, wide = both_paths(capsys, tmp_path, retrieval_argv(tmp_path, tmp_path / "probes.emb", *flags))
        assert table == wide and table[0] == 0


@pytest.mark.parametrize("dim", [3, 5, 8])
def test_distinct_rows_of_float32_equal_those_widened(rng, dim):
    rows = stored(copy_rich(rng, 50, 700, dim))
    rows[::7, 0] = -0.0  # zeros of both signs stay apart at either width
    rows[1::7, 0] = 0.0
    first, inverse = _distinct_rows(rows)
    wide_first, wide_inverse = _distinct_rows(rows.astype(np.float64))
    assert np.array_equal(first, wide_first) and np.array_equal(inverse, wide_inverse)
    assert np.array_equal(rows[first][inverse], rows)


def test_nearest_with_one_scratch_has_the_bits_of_fresh_buffers(rng):
    # Batches of changing sizes against references of changing sizes, in an
    # order that both grows and shrinks the shared buffers.
    scratch = _Scratch()
    for count, size in [(5, 40), (300, 7), (1, 40), (700, 90), (2, 3), (260, 90)]:
        queries, matrix = unit_rows(rng, count, 24), unit_rows(rng, size, 24)
        for m, negate in [(-1.0, False), (0.3, (False, True))]:
            shared = _nearest(queries, matrix, m, negate, scratch)
            fresh = _nearest(queries, matrix, m, negate)
            flat = lambda picks: [a.tobytes() for pair in (picks if negate else [picks]) for a in pair]
            assert flat(shared) == flat(fresh)


@pytest.mark.parametrize("count", [1, 2, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 5])
def test_library_retrieval_of_float32_rows_has_the_widened_bits(rng, count):
    gallery = Gallery(unit_rows(rng, 20, 16), [f"g{i}" for i in range(20)])
    for probes in (stored(unit_rows(rng, count, 16)), stored(copy_rich(rng, 1, count, 16))):
        labels = ["g0"] * count
        table = retrieval_reports(probes, labels, gallery, 0.63)
        wide = retrieval_reports(probes.astype(np.float64), labels, gallery, 0.63)
        for a, b in zip(table, wide):
            assert a.index.tobytes() == b.index.tobytes()
            assert a.distance.tobytes() == b.distance.tobytes()
            assert a.success.tobytes() == b.success.tobytes()


def test_library_float32_rows_off_the_sphere_raise_the_widened_error(rng):
    gallery = Gallery(unit_rows(rng, 20, 16), [f"g{i}" for i in range(20)])
    rows = stored(unit_rows(rng, 3 * _BLOCK_ROWS, 16))
    rows[2 * _BLOCK_ROWS + 9] *= 1.5
    for call in (
        lambda probes: retrieval_reports(probes, ["g0"] * len(probes), gallery, 0.63),
        lambda probes: temporal_consistency([probes[:5], probes]),
    ):
        with pytest.raises(NotUnitNorm) as table:
            call(rows)
        with pytest.raises(NotUnitNorm) as wide:
            call(rows.astype(np.float64))
        assert str(table.value) == str(wide.value)
        assert f" {2 * _BLOCK_ROWS + 9} has norm 1.4999" in str(table.value)


# D = 512 puts 512 rows in a block of the entry check, so 773 rows span two.
LIBRARY_DIM = 512
LIBRARY_ENTRIES = ["sample_batch", "track_rows", "score_rows", "build_anchor_set", "mean_embedding", "negation"]


def library_calls(rng):
    """The batch entries that take rows, each mapped to the values it returns."""
    anchors = AnchorSet(unit_rows(rng, 40, LIBRARY_DIM))

    def track(rows):
        state = TrackerState(margin=0.3, anchors=anchors)
        # The second call against a store; reversed into a contiguous copy, as a
        # strided float64 array can take other BLAS bits than its copy.
        runs = [state.track_rows(part) for part in (rows, rows[::-1].copy())]
        return runs, state.fake_matrix, state._stored[: len(state)]

    def scores(rows):
        result = score_rows(rows, rows[::-1])
        return np.array(result.scores), result.histogram, result.mean, result.std

    def anchor_set(means):
        built = build_anchor_set(means, rounds=2)
        return built.matrix, built.provenance, built.skipped

    def negation(rows):
        negated = _anonymize_rows(rows, MockAnonymizer("negation"))
        return negated.table, negated.index

    return {
        "sample_batch": lambda rows: sample_batch(rows, anchors, 0.3),
        "track_rows": track,
        "score_rows": scores,
        "build_anchor_set": anchor_set,
        "mean_embedding": lambda rows: mean_embedding(rows).values,
        "negation": negation,
    }


def outcome(call, rows):
    """``call(rows)`` with each array as its dtype, shape and bytes, or the error raised."""

    def bits(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, value.tobytes()
        return tuple(map(bits, value)) if isinstance(value, (tuple, list)) else value

    try:
        return bits(call(rows))
    except FivaError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", LIBRARY_ENTRIES)
@pytest.mark.parametrize("count", [1, 2, 3 * _BLOCK_ROWS + 5])
def test_library_batch_entries_give_float32_rows_the_widened_bits(rng, name, count):
    call = library_calls(rng)[name]
    for rows in (stored(unit_rows(rng, count, LIBRARY_DIM)), stored(copy_rich(rng, 1, count, LIBRARY_DIM))):
        assert outcome(call, rows) == outcome(call, rows.astype(np.float64))


@pytest.mark.parametrize("name", LIBRARY_ENTRIES)
def test_library_batch_entries_raise_the_widened_error_for_float32_rows_off_the_sphere(rng, name):
    call = library_calls(rng)[name]
    rows = stored(unit_rows(rng, 3 * _BLOCK_ROWS, LIBRARY_DIM))
    rows[2 * _BLOCK_ROWS + 9] *= 1.5
    with pytest.raises(NotUnitNorm) as table:
        call(rows)
    with pytest.raises(NotUnitNorm) as wide:
        call(rows.astype(np.float64))
    assert str(table.value) == str(wide.value)
    assert f" {2 * _BLOCK_ROWS + 9} has norm 1.5" in str(table.value)


def test_library_temporal_consistency_of_float32_videos_has_the_widened_bits(rng):
    videos = [stored(copy_rich(rng, n // 2 + 1, n, 24)) for n in (4, 7, 4, 1, 7)]
    table = temporal_consistency(videos)
    wide = temporal_consistency([video.astype(np.float64) for video in videos])
    assert table.video_means.tobytes() == wide.video_means.tobytes()
    assert table.video_stds.tobytes() == wide.video_stds.tobytes()
    stacked = stored(np.stack([copy_rich(rng, 3, 6, 24) for _ in range(9)]))
    assert temporal_consistency(stacked) == temporal_consistency(stacked.astype(np.float64))


def test_csv_probes_and_videos_report_the_bytes_of_the_emb_files(rng, tmp_path, capsys):
    labels = gallery_files(rng, tmp_path, 30, 16)
    probes, probe_labels = copy_rich(rng, 25, 200, 16), list(rng.choice(labels, 200))
    write_container(tmp_path / "probes.emb", probes, probe_labels)
    write_container(tmp_path / "probes.csv", probes, probe_labels)
    for flags in ([], ["--negate"]):
        emb = run(capsys, retrieval_argv(tmp_path, tmp_path / "probes.emb", *flags), tmp_path / "emb.csv")
        table, wide = both_paths(capsys, tmp_path, retrieval_argv(tmp_path, tmp_path / "probes.csv", *flags))
        assert emb == table == wide
    # A report names each video by its file name: the .emb rows go into binary
    # containers under the .csv names, which the reader knows by their magic.
    (tmp_path / "text").mkdir()
    (tmp_path / "binary").mkdir()
    names = [f"v{i}.csv" for i in range(4)]
    for name, frames in zip(names, (5, 3, 5, 1)):
        rows = copy_rich(rng, frames // 2 + 1, frames, 16)
        write_container(tmp_path / "text" / name, rows)
        (tmp_path / "binary" / name).write_bytes(pack_container(rows))
    emb = run(capsys, ["eval-temporal", "--frames", *(tmp_path / "binary" / n for n in names)],
              tmp_path / "emb.csv")
    table, wide = both_paths(capsys, tmp_path, ["eval-temporal", "--frames",
                                                *(tmp_path / "text" / n for n in names)])
    assert emb == table == wide and emb[0] == 0


def test_normalize_reads_x_and_2x_as_one_row(rng, tmp_path, capsys):
    labels = gallery_files(rng, tmp_path, 30, 16)
    raw = stored(rng.normal(size=(40, 16))).astype(np.float64)
    tags = list(rng.choice(labels, 40))
    cases = {  # rows, their labels, and where each row's first copy is
        "mixed": (np.concatenate([raw, 2.0 * raw, 0.5 * raw[::3]]), tags * 2 + tags[::3],
                  [*range(40), *range(40), *range(0, 40, 3)]),
        # One distinct row once normalized: the search runs it as a lone row.
        "one_row": (np.concatenate([raw[:1], 2.0 * raw[:1], 4.0 * raw[:1]]), tags[:1] * 3, [0] * 3),
    }
    for name, (rows, row_labels, first) in cases.items():
        path = tmp_path / f"{name}.emb"
        write_container(path, rows, row_labels)
        for flags in (["--normalize"], ["--normalize", "--negate"]):
            table, wide = both_paths(capsys, tmp_path, retrieval_argv(tmp_path, path, *flags))
            assert table == wide and table[0] == 0
            # Past the probe index, a row's cells are those of its first copy.
            cells = [line.split(",", 1)[1] for line in table[2].decode().splitlines()[1:-1]]
            assert cells == [cells[i] for i in first]
        videos = [tmp_path / f"{name}_{i}.emb" for i in range(2)]
        for i, video in enumerate(videos):
            write_container(video, rows[i::2])
        table, wide = both_paths(capsys, tmp_path, ["eval-temporal", "--normalize", "--frames", *videos])
        assert table == wide and table[0] == 0


def bad_files(rng, folder, dim=16):
    """Files that each break one check: name -> (path, the error message)."""
    rows = unit_rows(rng, 600, dim)
    labels = [f"p{i}" for i in range(600)]
    files = {}
    nan = rows.copy()
    nan[3] *= 2.0  # off the sphere first, but a NaN anywhere outranks it
    nan[590, 1] = np.nan
    files["nan"] = (nan, labels, "row 590 contains a NaN or infinite value")
    off = rows.copy()
    off[417] *= 1.5
    files["off_sphere"] = (off, labels, "row 417 has norm 1.50000000, expected 1 within 1e-06")
    files["unlabeled"] = (rows, None, None)
    paths = {}
    for name, (matrix, tags, message) in files.items():
        for suffix in ("emb", "csv"):
            path = folder / f"{name}.{suffix}"
            write_container(path, matrix, tags)
            paths[name, suffix] = (path, message or f"{path} has no label block")
    return paths


def test_bad_files_fail_with_the_float64_paths_message(rng, tmp_path, capsys):
    gallery_files(rng, tmp_path, 30, 16)
    for (name, suffix), (path, message) in bad_files(rng, tmp_path).items():
        for argv in (retrieval_argv(tmp_path, path), retrieval_argv(tmp_path, path, "--negate"),
                     ["eval-temporal", "--frames", tmp_path / "gallery.emb", path]):
            if argv[0] == "eval-temporal" and name == "unlabeled":
                continue  # videos need no labels
            table, wide = both_paths(capsys, tmp_path, argv)
            assert table == wide == (2, f"fiva: error: {message}\n", None), (name, suffix)
    # A file the gallery cannot take: its dimension differs.
    write_container(tmp_path / "wide.emb", unit_rows(rng, 5, 17), [f"p{i}" for i in range(5)])
    table, wide = both_paths(capsys, tmp_path, retrieval_argv(tmp_path, tmp_path / "wide.emb"))
    assert table == wide and table[0] == 2 and "D = 16" in table[1]
