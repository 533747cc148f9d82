import numpy as np
import pytest

from shiftadd_dvs.dataset import (
    Manifest,
    SampleRef,
    convert_samples,
    ingest_dataset,
    read_sample,
    save_manifest,
    write_sample,
)
from shiftadd_dvs.errors import IngestionError, NumericError, ParseError


def make_dataset(tmp_path, frames_labels_ids):
    root = tmp_path / "ds"
    (root / "samples").mkdir(parents=True)
    manifest = Manifest(name="test")
    for frame, label, ident in frames_labels_ids:
        rel = f"samples/{ident}.dvsf"
        write_sample(root / rel, frame, label)
        manifest.samples.append(SampleRef(id=ident, file=rel, label=label))
    save_manifest(root, manifest)
    return root


class TestSampleFiles:
    def test_round_trip(self, tmp_path, rng):
        frame = rng.normal(size=(256, 11)).astype(np.float32).astype(np.float64)
        path = tmp_path / "s.dvsf"
        write_sample(path, frame, 2)
        got, label = read_sample(path)
        assert label == 2
        np.testing.assert_array_equal(got, frame)

    def test_wrong_shape_rejected_on_write(self, tmp_path):
        with pytest.raises(IngestionError):
            write_sample(tmp_path / "s.dvsf", np.zeros((255, 11)), 0)

    def test_wrong_shape_rejected_on_read(self, tmp_path):
        import struct
        blob = b"DVSF" + struct.pack("<HHHB", 1, 255, 11, 0) + bytes(4 * 255 * 11)
        path = tmp_path / "bad.dvsf"
        path.write_bytes(blob)
        with pytest.raises(IngestionError, match="255"):
            read_sample(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dvsf"
        path.write_bytes(b"XXXX" + bytes(100))
        with pytest.raises(IngestionError):
            read_sample(path)

    def test_unknown_label_rejected(self, tmp_path):
        with pytest.raises(IngestionError):
            write_sample(tmp_path / "s.dvsf", np.zeros((256, 11)), 7)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, tmp_path, value):
        frame = np.zeros((256, 11))
        frame[3, 4] = value
        with pytest.raises(NumericError):
            write_sample(tmp_path / "s.dvsf", frame, 0)
        path = tmp_path / "t.dvsf"
        write_sample(path, np.zeros((256, 11)), 0)
        blob = bytearray(path.read_bytes())
        offset = 11 + 4 * (3 * 11 + 4)
        blob[offset:offset + 4] = np.float32(value).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(NumericError):
            read_sample(path)


class TestIngest:
    def test_three_samples_one_per_class(self, tmp_path, rng):
        root = make_dataset(tmp_path, [
            (rng.normal(size=(256, 11)), 0, "a"),
            (rng.normal(size=(256, 11)), 1, "b"),
            (rng.normal(size=(256, 11)), 2, "c"),
        ])
        ds = ingest_dataset(root)
        assert ds.manifest.counts == [1, 1, 1]
        assert ds.frames.shape == (3, 1, 256, 11)
        assert ds.ids == ["a", "b", "c"]

    def test_ordering_is_by_id(self, tmp_path, rng):
        root = make_dataset(tmp_path, [
            (rng.normal(size=(256, 11)), 0, "zz"),
            (rng.normal(size=(256, 11)), 1, "aa"),
        ])
        ds = ingest_dataset(root)
        assert ds.ids == ["aa", "zz"]
        assert list(ds.labels) == [1, 0]

    def test_label_mismatch_names_file(self, tmp_path, rng):
        root = make_dataset(tmp_path, [(rng.normal(size=(256, 11)), 0, "a")])
        manifest = Manifest(name="test",
                            samples=[SampleRef(id="a", file="samples/a.dvsf", label=1)])
        save_manifest(root, manifest)
        with pytest.raises(IngestionError, match="a.dvsf"):
            ingest_dataset(root)

    def test_duplicate_ids_rejected(self, tmp_path, rng):
        root = make_dataset(tmp_path, [(rng.normal(size=(256, 11)), 0, "a")])
        manifest = Manifest(name="test", samples=[
            SampleRef(id="a", file="samples/a.dvsf", label=0),
            SampleRef(id="a", file="samples/a.dvsf", label=0),
        ])
        save_manifest(root, manifest)
        with pytest.raises(IngestionError, match="duplicate"):
            ingest_dataset(root)

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(IngestionError):
            ingest_dataset(tmp_path / "empty")


class TestCsv:
    def test_csv_round_trip(self, tmp_path, rng):
        header = "label," + ",".join(f"r{r}c{c}" for r in range(256) for c in range(11))
        frame = rng.normal(size=(256, 11))
        row = "1," + ",".join(repr(float(v)) for v in frame.reshape(-1))
        path = tmp_path / "data.csv"
        path.write_text(header + "\n" + row + "\n")
        ds = ingest_dataset(path)
        assert ds.frames.shape == (1, 1, 256, 11)
        assert list(ds.labels) == [1]
        np.testing.assert_allclose(ds.frames[0, 0], frame, rtol=1e-15)

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("label,x\n0,1\n")
        with pytest.raises(IngestionError, match="header"):
            ingest_dataset(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_csv_non_finite_value_rejected(self, tmp_path, cell):
        header = "label," + ",".join(f"r{r}c{c}" for r in range(256) for c in range(11))
        row = "0," + ",".join(["0.0"] * (256 * 11 - 1) + [cell])
        path = tmp_path / "data.csv"
        path.write_text(header + "\n" + row + "\n")
        with pytest.raises(NumericError, match=":2"):
            ingest_dataset(path)

    def test_csv_bad_value_reports_line(self, tmp_path):
        header = "label," + ",".join(f"r{r}c{c}" for r in range(256) for c in range(11))
        row = "0," + ",".join(["0.0"] * (256 * 11 - 1) + ["oops"])
        path = tmp_path / "data.csv"
        path.write_text(header + "\n" + row + "\n")
        with pytest.raises(ParseError, match=":2"):
            ingest_dataset(path)


def test_convert_samples_hook(tmp_path, rng):
    frames = rng.normal(size=(4, 256, 11))
    labels = [0, 1, 2, 0]
    ids = [f"x{i}" for i in range(4)]
    convert_samples(frames, labels, ids, tmp_path / "converted", name="adapted")
    ds = ingest_dataset(tmp_path / "converted")
    assert ds.manifest.counts == [2, 1, 1]
    np.testing.assert_array_equal(
        ds.frames[0, 0], frames[0].astype(np.float32).astype(np.float64))
