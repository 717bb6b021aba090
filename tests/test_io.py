"""File-format round trips and validation errors."""

import numpy as np
import numpy.testing as npt
import pytest

from blindgi import FormatError
from blindgi import arrayio
from blindgi.config import RunConfig, config_from_entries, config_to_entries


class TestArrayFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(24, 16))
        path = str(tmp_path / "a.f64")
        arrayio.write_array(path, values, pitch=1.25e-5, centered=True,
                           kind=arrayio.KIND_SPECTRUM)
        back, meta = arrayio.read_array(path)
        npt.assert_array_equal(back, values)
        assert meta == {"nx": 16, "ny": 24, "pitch": 1.25e-5, "centered": True,
                        "kind": arrayio.KIND_SPECTRUM}

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.f64"
        path.write_bytes(b"\x00" * 128)
        with pytest.raises(FormatError, match="byte offset 0"):
            arrayio.read_array(str(path))

    def test_truncated_payload_reports_offset(self, tmp_path):
        values = np.ones((8, 8))
        path = str(tmp_path / "t.f64")
        arrayio.write_array(path, values, pitch=1e-5)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-16])
        with pytest.raises(FormatError, match="offset"):
            arrayio.read_array(path)

    def test_header_is_recognizable(self, tmp_path):
        path = str(tmp_path / "h.f64")
        arrayio.write_array(path, np.zeros((4, 4)), pitch=1e-5)
        assert open(path, "rb").read(8) == arrayio.MAGIC_BYTES


class TestPGM:
    def test_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(12, 20)) * 3.0 + 5.0
        path = str(tmp_path / "img.pgm")
        arrayio.write_pgm16(path, values)
        back = arrayio.read_pgm16(path)
        span = values.max() - values.min()
        assert np.max(np.abs(back - values)) <= span / 65535

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "img.pgm")
        arrayio.write_pgm16(path, np.zeros((3, 5)))
        raw = open(path, "rb").read()
        assert raw.startswith(b"P5\n5 3\n65535\n")
        assert len(raw) == len(b"P5\n5 3\n65535\n") + 3 * 5 * 2

    def test_big_endian_samples(self, tmp_path):
        values = np.array([[0.0, 1.0]])
        path = str(tmp_path / "be.pgm")
        arrayio.write_pgm16(path, values)
        raw = open(path, "rb").read()
        assert raw.endswith(b"\x00\x00\xff\xff")

    @pytest.mark.parametrize("raw", [b"P5\n64", b"P5\n64 64\n", b"P5\nab 64\n65535\n", b"P5\n0 5\n65535\n"])
    def test_bad_header_is_format_error(self, tmp_path, raw):
        path = str(tmp_path / "bad.pgm")
        open(path, "wb").write(raw)
        with pytest.raises(FormatError):
            arrayio.read_pgm16(path)

    def test_constant_image(self, tmp_path):
        path = str(tmp_path / "c.pgm")
        arrayio.write_pgm16(path, np.full((4, 4), 2.5))
        back = arrayio.read_pgm16(path)
        npt.assert_array_equal(back, 2.5)


class TestBucketsCSV:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        buckets = rng.normal(size=100) * 1e-9
        path = str(tmp_path / "b.csv")
        arrayio.write_buckets_csv(path, buckets)
        npt.assert_array_equal(arrayio.read_buckets_csv(path), buckets)
        assert open(path).readline() == "j,value\n"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("x,y\n0,1\n")
        with pytest.raises(FormatError, match="line 1"):
            arrayio.read_buckets_csv(str(path))

    def test_non_sequential_rejected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("j,value\n0,1.0\n2,2.0\n")
        with pytest.raises(FormatError, match="line 3"):
            arrayio.read_buckets_csv(str(path))


class TestFlatConfig:
    def test_round_trip(self, tmp_path):
        cfg = RunConfig(ensemble_count=2**10, psf_seed=3)
        path = str(tmp_path / "cfg.txt")
        arrayio.write_flat_config(path, config_to_entries(cfg))
        back = config_from_entries(arrayio.read_flat_config(path))
        assert back == cfg

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\n\nensemble.count = 128\n")
        entries = arrayio.read_flat_config(str(path))
        assert entries == {"ensemble.count": "128"}

    def test_unknown_key_rejected(self):
        from blindgi import ConfigError

        with pytest.raises(ConfigError):
            config_from_entries({"nonsense.key": "1"})

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("this is not a pair\n")
        with pytest.raises(FormatError, match="line 1"):
            arrayio.read_flat_config(str(path))

    def test_write_is_sorted(self, tmp_path):
        path = str(tmp_path / "cfg.txt")
        arrayio.write_flat_config(path, {"b.two": "2", "a.one": "1"})
        lines = open(path).read().splitlines()
        assert lines == ["a.one = 1", "b.two = 2"]
