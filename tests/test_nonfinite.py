"""NaN and infinite values are rejected when a file is parsed."""

import numpy as np
import pytest

from fiva import (
    CorruptState,
    NonFinite,
    NotUnitNorm,
    load_rows,
    load_state,
    pack_container,
    read_container,
    write_container,
    write_embeddings,
)
from fiva.cli import main
from conftest import random_unit


def unit_matrix(rng, count, dim):
    rows = rng.normal(size=(count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def poisoned(rng, value, count=4, dim=8):
    matrix = unit_matrix(rng, count, dim)
    matrix[2, 3] = value
    return matrix


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_container_rejects_non_finite(rng, tmp_path, value):
    path = tmp_path / "bad.emb"
    write_container(path, poisoned(rng, value))
    with pytest.raises(NonFinite, match="row 2"):
        read_container(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e39"])
def test_csv_rejects_non_finite(tmp_path, cell):
    # 1e39 overflows single precision to inf
    path = tmp_path / "bad.csv"
    path.write_text(f"a,1.0,0.0\nb,0.0,{cell}\n")
    with pytest.raises(NonFinite, match="row 1"):
        read_container(path)


def test_unit_check_names_first_bad_row(rng, tmp_path):
    matrix = unit_matrix(rng, 5, 8)
    matrix[3] *= 2.0
    matrix[4] *= 3.0
    path = tmp_path / "raw.emb"
    write_container(path, matrix)
    with pytest.raises(NotUnitNorm, match="row 3 has norm"):
        load_rows(path)


def test_tracker_state_rejects_nan_row(rng, tmp_path):
    rows = unit_matrix(rng, 2, 8)
    fakes = rows.copy()
    fakes[1, 0] = np.nan
    trailer = np.array([0.63, 0.0], dtype="<f4").tobytes() + (2).to_bytes(4, "little")
    path = tmp_path / "nan.state"
    path.write_bytes(pack_container(rows) + pack_container(fakes) + trailer)
    with pytest.raises(CorruptState, match="fake embedding 1"):
        load_state(path)


@pytest.fixture
def files(rng, tmp_path):
    anchors = tmp_path / "anchors.emb"
    write_embeddings(anchors, [random_unit(rng, 8) for _ in range(6)])
    labels = [f"id_{i}" for i in range(4)]
    good = tmp_path / "good.emb"
    write_container(good, unit_matrix(rng, 4, 8), labels)
    bad = {}
    for value in (np.nan, np.inf):
        path = tmp_path / f"bad_{value}.emb"
        write_container(path, poisoned(rng, value), labels)
        bad[str(value)] = path
    csv = tmp_path / "bad.csv"
    csv.write_text("".join(f"id_{i},{'nan' if i == 1 else '0.0'},1.0\n" for i in range(4)))
    bad["csv"] = csv
    return tmp_path, anchors, good, bad


def commands(tmp_path, anchors, good, bad):
    out = str(tmp_path / "out.emb")
    report = str(tmp_path / "report.csv")
    yield ["sample", "--anchors", str(anchors), "--query", str(bad), "--out", out]
    yield ["eval-retrieval", "--probes", str(bad), "--gallery", str(good), "--report", report]
    yield ["eval-retrieval", "--probes", str(good), "--gallery", str(bad), "--negate"]
    yield ["detect", "--inputs", str(good), "--outputs", str(bad), "--report", report]
    yield ["track", "--frames", str(bad), "--anchors", str(anchors), "--out", out]
    yield ["track", "--frames", str(good), "--anchors", str(bad), "--normalize"]


@pytest.mark.parametrize("kind", ["nan", "inf", "csv"])
def test_cli_exits_2_without_traceback(files, capsys, kind):
    tmp_path, anchors, good, bad = files
    for argv in commands(tmp_path, anchors, good, bad[kind]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert "Traceback" not in err
        assert "NaN or infinite" in err, err
