"""Tests for flat key=value config files."""

import pytest

from tinyst.config import boolean, converter, format_value, read_config


class TestConverter:
    def test_each_type_converts_its_text(self):
        assert converter(bool) is boolean
        assert boolean("true") is True and boolean("False") is False
        assert boolean("YES") is True and boolean("0") is False
        assert converter(int)("42") == 42
        assert converter(float)("2e-3") == 2e-3
        assert converter(str)("67739675e6142625") == "67739675e6142625"

    def test_bad_bool_is_a_value_error(self):
        with pytest.raises(ValueError, match="true/false"):
            boolean("maybe")


class TestConfigIO:
    def test_roundtrip(self, tmp_path):
        cfg = {"variant": "sate", "hidden": 64, "base_lr": 2e-3,
               "prenorm": True, "dlcl": False}
        p = tmp_path / "run.conf"
        p.write_text("".join(f"{k} = {format_value(v)}\n" for k, v in cfg.items()))
        assert read_config(p) == {k: format_value(v) for k, v in cfg.items()}

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("# heading\n\nhidden = 8  # trailing\n\n")
        assert read_config(p) == {"hidden": "8"}

    def test_values_stay_text(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("digest = 3149255329814175\nflag = true\nname =  spaced  \n")
        assert read_config(p) == {"digest": "3149255329814175", "flag": "true",
                                  "name": "spaced"}

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("hidden 8\n")
        with pytest.raises(ValueError, match="key = value"):
            read_config(p)

    def test_empty_key_rejected(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("= 8\n")
        with pytest.raises(ValueError, match="empty key"):
            read_config(p)

    def test_repeated_key_rejected(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("hidden = 8\nheads = 2\nhidden = 16\n")
        with pytest.raises(ValueError, match=r"c\.conf:3: repeated key 'hidden'"):
            read_config(p)

    def test_float_precision_survives(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text(f"lr = {format_value(0.1 + 0.2)}\n")
        assert float(read_config(p)["lr"]) == 0.1 + 0.2
