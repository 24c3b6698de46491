"""Fuzz the four file parsers: any byte string parses or raises a FivaError."""

import io
import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from fiva import (
    FivaError,
    UnsupportedFormat,
    load_state,
    pack_container,
    read_container,
    read_image_ppm,
)

MAGIC = b"FIVAEMB1"

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# A container header with small counts, so random tails can reach the payload
# and label checks instead of failing on the size alone.
headers = st.builds(
    lambda count, dim: MAGIC + struct.pack("<II", count, dim),
    st.integers(0, 4),
    st.integers(0, 4),
)
containers = st.one_of(
    st.binary(max_size=96), st.builds(bytes.__add__, headers, st.binary(max_size=96))
)
# A whole payload and then a label block whose lines may hold carriage
# returns or be empty, so the label checks themselves are reached.
labeled_containers = st.builds(
    lambda count, dim, block: MAGIC + struct.pack("<II", count, dim) + bytes(4 * count * dim)
    + block.encode(),
    st.integers(0, 3),
    st.integers(1, 3),
    st.text(alphabet="ab\r\n", max_size=12),
)
csv_text = st.text(alphabet="0123456789.-+eE,\"' \r\nabinfNA\x00", max_size=80).map(str.encode)
ppm_headers = st.builds(
    lambda magic, header, raster: magic + header.encode() + raster,
    st.sampled_from([b"P5", b"P6", b"P3", b""]),
    st.text(alphabet="0123456789 \n\t#x", max_size=24),
    st.binary(max_size=48),
)
trailers = st.builds(
    struct.pack, st.just("<ffI"), st.floats(width=32), st.floats(width=32), st.integers(0, 5)
)
states = st.builds(
    lambda a, b, trailer: a + b + trailer,
    containers,
    containers,
    st.one_of(st.binary(max_size=12), trailers),
)


def _parses_or_fiva_error(parse, data):
    try:
        parse(data)
    except FivaError:
        pass


def _named(data: bytes, name: str) -> io.BytesIO:
    buf = io.BytesIO(data)
    buf.name = name
    return buf


@FUZZ
@given(containers)
def test_binary_container(data):
    _parses_or_fiva_error(lambda d: read_container(io.BytesIO(d)), data)


@FUZZ
@given(labeled_containers)
def test_container_labels_read_back_only_as_a_writer_writes_them(data):
    try:
        matrix, labels = read_container(io.BytesIO(data))
    except FivaError:
        return
    assert pack_container(matrix, labels) == data


@FUZZ
@given(st.one_of(csv_text, st.binary(max_size=64)))
def test_csv_container(data):
    _parses_or_fiva_error(lambda d: read_container(_named(d, "rows.csv")), data)


@FUZZ
@given(st.one_of(ppm_headers, st.binary(max_size=64)))
def test_netpbm_image(data):
    _parses_or_fiva_error(lambda d: read_image_ppm(io.BytesIO(d)), data)


@FUZZ
@given(st.one_of(states, st.binary(max_size=128)))
def test_tracker_state(data):
    _parses_or_fiva_error(lambda d: load_state(io.BytesIO(d)), data)


def test_netpbm_header_number_past_the_int_digit_limit():
    with pytest.raises(UnsupportedFormat):
        read_image_ppm(io.BytesIO(b"P6\n" + b"9" * 5000 + b" 1 255\n"))


def test_csv_cell_past_the_csv_field_limit():
    with pytest.raises(UnsupportedFormat):
        read_container(_named(b"a" * 200_000 + b",1,2\n", "rows.csv"))
