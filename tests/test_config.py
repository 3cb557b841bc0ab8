import re
from dataclasses import dataclass

import pytest

from skillscope.config import check_fields, conforms, from_json, read_json
from skillscope.errors import ConfigError, DataError


class TestConforms:
    @pytest.mark.parametrize("value, kind", [
        (3, int), (3, float), (2.5, float), ("x", str), (None, str | None),
        ([2018, 2025], tuple[int, int]), (["a", "b"], list[str]), ([], list[str]),
        (True, bool), (False, bool)])
    def test_accepts(self, value, kind):
        assert conforms(value, kind)

    @pytest.mark.parametrize("value, kind", [
        (True, int), (False, float), (2.0, int), (2.7, int), ("3", int),
        (float("nan"), float), (float("inf"), float), (None, int),
        ([2018], tuple[int, int]), ([2018, "2025"], tuple[int, int]),
        ((2018, 2025), tuple[int, int]), ("ab", list[str]), ([1], list[str]),
        (1, bool), (0, bool), ("true", bool), (None, bool)])
    def test_rejects(self, value, kind):
        assert not conforms(value, kind)


class TestCheckFields:
    FIELDS = {"n": (int, 4, 1), "x": (float, 0.5, None)}

    def test_defaults_filled_and_int_taken_as_float(self):
        assert check_fields({"x": 1}, self.FIELDS, "t") == {"n": 4, "x": 1.0}
        assert type(check_fields({"x": 1}, self.FIELDS, "t")["x"]) is float

    @pytest.mark.parametrize("obj", [{"n": 0}, {"n": 1.5}, {"x": "y"}, {"m": 1}, [1]])
    def test_rejects(self, obj):
        with pytest.raises(ConfigError):
            check_fields(obj, self.FIELDS, "t")


@dataclass
class Spec:
    name: str
    span: tuple[int, int] | None = None


class TestFromJson:
    def test_arrays_become_tuples(self):
        assert from_json(Spec, {"name": "a", "span": [1, 2]}, "t") == Spec("a", (1, 2))

    @pytest.mark.parametrize("obj", [{}, {"name": 1}, {"name": "a", "span": [1]},
                                     {"name": "a", "other": 1}, "a"])
    def test_rejects(self, obj):
        with pytest.raises(ConfigError):
            from_json(Spec, obj, "t")


class TestReadJson:
    def test_reads_utf8(self, tmp_path):
        f = tmp_path / "a.json"
        f.write_bytes('{"name": "caf\u00e9"}'.encode("utf-8"))
        assert read_json(f, "thing") == {"name": "caf\u00e9"}

    @pytest.mark.parametrize("data", [None, b"", b'{"a": 1', b'{"a": "\xff"}', b"[1] [2]"])
    @pytest.mark.parametrize("error", [ConfigError, DataError])
    def test_unreadable_raises_the_given_error_naming_the_file(self, tmp_path, data, error):
        f = tmp_path / "a.json"
        if data is not None:  # else missing
            f.write_bytes(data)
        with pytest.raises(error, match=re.escape(f"cannot read thing {f}: ")):
            read_json(f, "thing", error)
