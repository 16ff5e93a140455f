import json

import numpy as np
import pytest

from gsreg import io as gio
from gsreg.data import make_instance
from gsreg.groups import GroupStructure


class TestMatrixFormat:
    def test_roundtrip(self, tmp_path, rng):
        A = rng.standard_normal((7, 5))
        path = tmp_path / "A.gsrm"
        gio.write_matrix(path, A)
        assert np.array_equal(gio.read_matrix(path), A)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "A.gsrm"
        gio.write_matrix(path, np.zeros((3, 4)))
        raw = path.read_bytes()
        assert raw[:4] == b"GSRM"
        assert int.from_bytes(raw[4:8], "little") == 3
        assert int.from_bytes(raw[8:12], "little") == 4
        assert raw[12] == 0  # float64 dtype code
        assert len(raw) == 13 + 8 * 12

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.gsrm"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ValueError, match="magic"):
            gio.read_matrix(path)

    @pytest.mark.parametrize("size", [0, 6, 12])
    def test_truncated_header(self, tmp_path, size):
        path = tmp_path / "short.gsrm"
        gio.write_matrix(path, np.ones((2, 2)))
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ValueError, match=f"{path}: {size} bytes is shorter than the 13-byte"):
            gio.read_matrix(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.gsrm"
        gio.write_matrix(path, np.ones((4, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            gio.read_matrix(path)


class TestVectors:
    def test_roundtrip(self, tmp_path, rng):
        v = rng.standard_normal(11)
        path = tmp_path / "v.f64"
        gio.write_vector(path, v)
        assert np.array_equal(gio.read_vector(path), v)

    def test_little_endian_f64(self, tmp_path):
        path = tmp_path / "v.f64"
        gio.write_vector(path, [1.0])
        assert path.read_bytes() == np.float64(1.0).tobytes()


class TestInstanceDirectory:
    def test_roundtrip(self, tmp_path):
        inst = make_instance(design="I", signal="ii", n=12, p=24, m=6, r_bar=2,
                             alpha=1.0, theta1=0.1, theta2=0.1, seed=31)
        d = gio.save_instance(tmp_path / "inst", inst)
        back = gio.load_instance(d)
        assert np.array_equal(back.A, inst.A)
        assert np.array_equal(back.b, inst.b)
        assert np.array_equal(back.x_true, inst.x_true)
        assert np.array_equal(back.support_true, inst.support_true)
        assert back.g == inst.g
        assert back.seed == inst.seed
        assert back.meta["design"] == "I"

    def test_meta_support_is_one_based(self, tmp_path):
        inst = make_instance(design="I", signal="i", n=12, p=24, m=6, r_bar=2,
                             alpha=1.0, theta1=0.0, theta2=0.0, seed=32)
        d = gio.save_instance(tmp_path / "inst", inst)
        meta = json.loads((d / "meta.json").read_text())
        assert meta["support_true"] == (inst.support_true + 1).tolist()

    @pytest.mark.parametrize("support", [{"a": 1}, [0, 1], [1, 99], [2, 2], [1.0], [True], "1"],
                             ids=["object", "zero", "above_m", "repeated", "float", "bool",
                                  "string"])
    def test_bad_support_is_rejected(self, tmp_path, support):
        inst = make_instance(design="I", signal="i", n=12, p=24, m=6, r_bar=2,
                             alpha=1.0, theta1=0.0, theta2=0.0, seed=32)
        d = gio.save_instance(tmp_path / "inst", inst)
        meta = json.loads((d / "meta.json").read_text())
        meta["support_true"] = support
        (d / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="support_true must be a list of distinct integers "
                                             "in 1..6"):
            gio.load_instance(d)

    def test_missing_support_is_that_of_x_true(self, tmp_path):
        inst = make_instance(design="I", signal="i", n=12, p=24, m=6, r_bar=2,
                             alpha=1.0, theta1=0.0, theta2=0.0, seed=32)
        d = gio.save_instance(tmp_path / "inst", inst)
        meta = json.loads((d / "meta.json").read_text())
        del meta["support_true"]
        (d / "meta.json").write_text(json.dumps(meta))
        back = gio.load_instance(d)
        assert np.array_equal(back.support_true, inst.support_true)
        assert "support_true" not in back.meta

    def test_instance_without_truth(self, tmp_path, rng):
        from gsreg.data import Instance
        from gsreg.groups import contiguous_groups

        inst = Instance(A=rng.standard_normal((4, 6)), b=rng.standard_normal(4),
                        g=contiguous_groups(6, 2))
        d = gio.save_instance(tmp_path / "raw", inst)
        back = gio.load_instance(d)
        assert back.x_true is None
        assert back.support_true is None


class TestTraces:
    def test_jsonl_roundtrip(self, tmp_path):
        from gsreg.data import default_box
        from gsreg.mscra import MscraConfig, run

        inst = make_instance(design="I", signal="iii", n=32, p=64, m=8, r_bar=2,
                             alpha=1.0, theta1=0.05, theta2=0.05, seed=33)
        res = run(inst.A, inst.b, inst.g, default_box(inst.x_true),
                  MscraConfig(max_stages=2))
        path = tmp_path / "traces.jsonl"
        gio.write_traces_jsonl(path, res.traces, include_x=False)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == res.stages
        assert lines[0]["k"] == 1
        assert "x" not in lines[0]
        assert "inner" in lines[0]
