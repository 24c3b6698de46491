import numpy as np
import pytest

from fiva import (
    BadMagic,
    DimensionMismatch,
    LabelCountMismatch,
    MissingLabels,
    NotUnitNorm,
    Truncated,
    UnsupportedFormat,
    load_embeddings,
    load_gallery,
    load_labeled_embeddings,
    pack_container,
    parse_container,
    read_container,
    read_image_ppm,
    write_container,
    write_embeddings,
    write_image_ppm,
)
from conftest import random_unit

MAGIC = b"FIVAEMB1"


def unit_matrix(rng, count, dim):
    rows = np.stack([random_unit(rng, dim).values for _ in range(count)])
    return rows.astype(np.float32)


class TestContainer:
    def test_pack_parse_round_trip(self, rng):
        matrix = unit_matrix(rng, 5, 16)
        for source in (matrix, matrix.astype(np.float64)):
            buf = pack_container(source)
            assert type(buf) is bytes
            parsed, labels, end = parse_container(buf)
            assert labels is None
            assert end == len(buf)
            assert parsed.dtype == np.float32
            assert parsed.tobytes() == matrix.tobytes()

    def test_pack_parse_with_labels(self, rng):
        matrix = unit_matrix(rng, 3, 8)
        labels = ["alice", "bob", "carol"]
        buf = pack_container(matrix, labels=labels)
        parsed, out_labels, _ = parse_container(buf)
        assert out_labels == labels
        assert parsed.tobytes() == matrix.tobytes()

    def test_header_layout(self, rng):
        matrix = unit_matrix(rng, 2, 4)
        buf = pack_container(matrix)
        assert buf[:8] == MAGIC
        assert int.from_bytes(buf[8:12], "little") == 2
        assert int.from_bytes(buf[12:16], "little") == 4
        assert len(buf) == 16 + 2 * 4 * 4

    def test_payload_is_little_endian_f32(self):
        row = np.array([[1.0, 0.0]], dtype=np.float32)
        buf = pack_container(row)
        assert buf[16:24] == np.array([1.0, 0.0], dtype="<f4").tobytes()

    def test_unicode_labels(self, rng):
        matrix = unit_matrix(rng, 2, 4)
        labels = ["ané", "bébé"]
        buf = pack_container(matrix, labels=labels)
        _, out, _ = parse_container(buf)
        assert out == labels

    def test_one_dimensional_vector_is_one_row(self, rng, tmp_path):
        vector = unit_matrix(rng, 1, 8)[0]
        parsed, labels, _ = parse_container(pack_container(vector, labels=["solo"]))
        assert parsed.shape == (1, 8) and labels == ["solo"]
        assert parsed.tobytes() == vector.tobytes()
        write_container(tmp_path / "solo.emb", vector)
        matrix, labels = read_container(tmp_path / "solo.emb")
        assert matrix.shape == (1, 8) and labels is None
        assert matrix.tobytes() == vector.tobytes()

    def test_empty_container(self):
        buf = pack_container(np.zeros((0, 8), dtype=np.float32), dim=8)
        parsed, labels, _ = parse_container(buf)
        assert parsed.shape == (0, 8)
        assert labels is None

    def test_bad_magic(self, rng):
        buf = bytearray(pack_container(unit_matrix(rng, 2, 4)))
        buf[:8] = b"NOTMAGIC"
        with pytest.raises(BadMagic):
            parse_container(bytes(buf))

    def test_truncated_header_and_payload(self, rng):
        buf = pack_container(unit_matrix(rng, 2, 4))
        with pytest.raises(Truncated):
            parse_container(buf[:10])
        with pytest.raises(Truncated):
            parse_container(buf[:-3])

    def test_label_count_mismatch(self, rng):
        matrix = unit_matrix(rng, 3, 4)
        buf = pack_container(matrix, labels=["a", "b", "c"])
        # drop the final label line
        trimmed = buf[: buf.rindex(b"c\n")]
        with pytest.raises(LabelCountMismatch):
            parse_container(trimmed + b"")
        extra = buf + b"ghost\n"
        with pytest.raises(LabelCountMismatch):
            parse_container(extra)

    def test_labels_no_writer_accepts_are_rejected_on_read(self, rng, tmp_path):
        # Two lines for two rows, but one holds a carriage return and one is empty.
        path = tmp_path / "bad_labels.emb"
        path.write_bytes(pack_container(unit_matrix(rng, 2, 4)) + b"a\rb\n\n")
        with pytest.raises(LabelCountMismatch, match="non-empty and newline-free"):
            read_container(path)

    def test_embedded_parse_leaves_label_bytes_unconsumed(self, rng):
        matrix = unit_matrix(rng, 2, 4)
        buf = pack_container(matrix, labels=["a", "b"])
        parsed, labels, end = parse_container(buf, allow_labels=False)
        assert labels is None
        assert np.array_equal(parsed, matrix.astype(np.float32))
        assert buf[end:] == b"a\nb\n"

    def test_pack_rejects_bad_inputs(self, rng):
        with pytest.raises(DimensionMismatch):
            pack_container(np.zeros((2, 2, 2), dtype=np.float32))
        with pytest.raises(LabelCountMismatch):
            pack_container(unit_matrix(rng, 2, 4), labels=["only_one"])
        with pytest.raises(LabelCountMismatch):
            pack_container(unit_matrix(rng, 2, 4), labels=["ok", "bad\nlabel"])


class TestFileRoundTrips:
    def test_binary_file_round_trip(self, rng, tmp_path):
        matrix = unit_matrix(rng, 4, 8)
        path = tmp_path / "vectors.emb"
        write_container(path, matrix, labels=["a", "b", "c", "d"])
        out_matrix, out_labels = read_container(path)
        assert out_matrix.tobytes() == matrix.tobytes()
        assert out_labels == ["a", "b", "c", "d"]

    def test_binary_rewrite_is_byte_identical(self, rng, tmp_path):
        matrix = unit_matrix(rng, 4, 8)
        p1, p2 = tmp_path / "a.emb", tmp_path / "b.emb"
        write_container(p1, matrix)
        write_container(p2, matrix)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_round_trip_exact_f32(self, rng, tmp_path):
        matrix = unit_matrix(rng, 5, 6)
        path = tmp_path / "vectors.csv"
        write_container(path, matrix, labels=["r%d" % i for i in range(5)])
        out_matrix, out_labels = read_container(path)
        # repr round trip keeps every f32 bit
        assert out_matrix.tobytes() == matrix.tobytes()
        assert out_labels == ["r0", "r1", "r2", "r3", "r4"]

    def test_csv_without_labels(self, rng, tmp_path):
        matrix = unit_matrix(rng, 3, 4)
        path = tmp_path / "plain.csv"
        write_container(path, matrix)
        out_matrix, out_labels = read_container(path)
        assert out_labels is None
        assert out_matrix.tobytes() == matrix.tobytes()

    def test_csv_hand_written(self, tmp_path):
        path = tmp_path / "hand.csv"
        path.write_text("probe_a,1.0,0.0\nprobe_b,0.0,1.0\n")
        matrix, labels = read_container(path)
        assert labels == ["probe_a", "probe_b"]
        assert np.array_equal(matrix, np.eye(2, dtype=np.float32))

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_csv_line_endings(self, tmp_path, end):
        path = tmp_path / "ends.csv"
        path.write_bytes(f"probe_a,1.0,0.0{end}probe_b,0.0,1.0{end}".encode())
        matrix, labels = read_container(path)
        assert labels == ["probe_a", "probe_b"]
        assert np.array_equal(matrix, np.eye(2, dtype=np.float32))

    def test_csv_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,0.0\n0.0,1.0,0.0\n")
        with pytest.raises(UnsupportedFormat):
            read_container(path)

    def test_csv_mixed_label_presence_rejected(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("a,1.0,0.0\n0.0,1.0\n")
        with pytest.raises(UnsupportedFormat):
            read_container(path)

    def test_binary_trailing_bytes_rejected(self, rng, tmp_path):
        # junk after the payload is interpreted as a label block and fails
        matrix = unit_matrix(rng, 2, 4)
        path = tmp_path / "extra.emb"
        path.write_bytes(pack_container(matrix) + b"\x00\x01")
        with pytest.raises(LabelCountMismatch):
            read_container(path)

    def test_unknown_bytes_rejected(self, tmp_path):
        path = tmp_path / "mystery.emb"
        path.write_bytes(b"\x89PNG not an embedding file")
        with pytest.raises(BadMagic):
            read_container(path)


class TestLoadHelpers:
    def test_load_embeddings_accepts_f32_units(self, rng, tmp_path):
        # single precision shifts the norm by ~1e-7, within tolerance
        matrix = unit_matrix(rng, 4, 16)
        path = tmp_path / "u.emb"
        write_container(path, matrix)
        embeddings = load_embeddings(path)
        assert len(embeddings) == 4
        for e in embeddings:
            assert abs(e.norm - 1.0) <= 1e-6
        renormed = load_embeddings(path, renormalize=True)
        for e in renormed:
            assert abs(e.norm - 1.0) <= 1e-12

    def test_load_embeddings_raw_rows_rejected_without_renormalize(self, tmp_path):
        raw = np.array([[3.0, 4.0]], dtype=np.float32)
        path = tmp_path / "raw.emb"
        write_container(path, raw)
        with pytest.raises(NotUnitNorm):
            load_embeddings(path, renormalize=False)
        loaded = load_embeddings(path, renormalize=True)
        assert np.allclose(loaded[0].values, [0.6, 0.8])

    def test_load_labeled_requires_labels(self, rng, tmp_path):
        matrix = unit_matrix(rng, 2, 4)
        path = tmp_path / "nolabels.emb"
        write_container(path, matrix)
        with pytest.raises(MissingLabels):
            load_labeled_embeddings(path)

    def test_load_labeled_embeddings(self, rng, tmp_path):
        matrix = unit_matrix(rng, 3, 8)
        path = tmp_path / "labeled.emb"
        write_container(path, matrix, labels=["x", "y", "z"])
        loaded = load_labeled_embeddings(path)
        assert [e.label for e in loaded] == ["x", "y", "z"]
        assert np.stack([e.embedding.values for e in loaded]).tobytes() == matrix.astype(np.float64).tobytes()

    def test_load_gallery(self, rng, tmp_path):
        matrix = unit_matrix(rng, 3, 8)
        path = tmp_path / "gal.emb"
        write_container(path, matrix, labels=["x", "y", "z"])
        gallery = load_gallery(path)
        assert gallery.labels == ["x", "y", "z"]
        assert gallery.dim == 8

    def test_write_embeddings_round_trip(self, rng, tmp_path):
        embeddings = [random_unit(rng, 8) for _ in range(5)]
        path = tmp_path / "out.emb"
        write_embeddings(path, embeddings)
        back = load_embeddings(path)
        for original, loaded in zip(embeddings, back):
            f32 = original.values.astype(np.float32).astype(np.float64)
            assert np.array_equal(loaded.values, f32)


class TestNetpbm:
    def test_color_round_trip_bit_exact(self, rng, tmp_path):
        image = rng.integers(0, 256, size=(7, 5, 3)).astype(np.uint8) / 255.0
        path = tmp_path / "img.ppm"
        write_image_ppm(path, image)
        back = read_image_ppm(path)
        assert back.shape == (7, 5, 3)
        assert np.array_equal(back, image)

    def test_file_round_trip_byte_identical(self, rng, tmp_path):
        image = rng.uniform(size=(4, 6, 3))
        p1 = tmp_path / "a.ppm"
        p2 = tmp_path / "b.ppm"
        write_image_ppm(p1, image)
        write_image_ppm(p2, read_image_ppm(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_grayscale_round_trip(self, rng, tmp_path):
        image = rng.integers(0, 256, size=(3, 4, 1)).astype(np.uint8) / 255.0
        path = tmp_path / "img.pgm"
        write_image_ppm(path, image)
        back = read_image_ppm(path)
        assert back.shape == (3, 4, 1)
        assert np.array_equal(back, image)

    def test_header_is_canonical(self, tmp_path):
        path = tmp_path / "hdr.ppm"
        write_image_ppm(path, np.zeros((2, 3, 3)))
        assert path.read_bytes().startswith(b"P6\n3 2\n255\n")

    def test_quantization_rounds_to_nearest(self, tmp_path):
        # 0.5 * 255 = 127.5 rounds half even to 128; 0.1 * 255 = 25.5 to 26? no: half even gives 26
        path = tmp_path / "q.ppm"
        write_image_ppm(path, np.full((1, 1, 3), 0.5))
        raster = path.read_bytes()[len(b"P6\n1 1\n255\n"):]
        assert raster == bytes([128, 128, 128])

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "comment.ppm"
        path.write_bytes(b"P6\n# made by hand\n2 1\n# another\n255\n" + bytes(6))
        image = read_image_ppm(path)
        assert image.shape == (1, 2, 3)
        assert np.all(image == 0.0)

    def test_values_scaled_to_unit_interval(self, tmp_path):
        path = tmp_path / "scale.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 51]))
        image = read_image_ppm(path)
        assert image[0, 0, 0] == 1.0
        assert image[0, 0, 1] == 0.0
        assert abs(image[0, 0, 2] - 51 / 255) <= 1e-15

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "max.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(UnsupportedFormat):
            read_image_ppm(path)

    def test_unsupported_format_code(self, tmp_path):
        path = tmp_path / "ascii.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(UnsupportedFormat):
            read_image_ppm(path)

    def test_short_raster(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(11))
        with pytest.raises(Truncated):
            read_image_ppm(path)

    def test_trailing_raster_bytes(self, tmp_path):
        path = tmp_path / "long.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes(4))
        with pytest.raises(UnsupportedFormat):
            read_image_ppm(path)

    def test_write_rejects_bad_images(self, tmp_path):
        with pytest.raises(ValueError):
            write_image_ppm(tmp_path / "bad.ppm", np.full((2, 2, 3), 1.5))
        with pytest.raises(DimensionMismatch):
            write_image_ppm(tmp_path / "bad.ppm", np.zeros((2, 2, 4)))
