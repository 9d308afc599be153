"""The JSON report writer.  cli._write_json writes the bytes of
json.dumps(value, sort_keys=True, indent=2) + "\\n", the form the golden
digests pin, for any JSON value: it joins a list of only plain str or only
plain int in one step, joins each such list that is an item of a list, and
writes a list object met again at the same indent from the text it kept, so
these tests hold it to json itself on values that could trip those
shortcuts."""

import json
import math

from hypothesis import given, settings, strategies as st

from qspec import cli


def written(value):
    parts = []
    cli._write_json(value, parts.append)
    return parts


def canonical(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-2 ** 80, max_value=2 ** 80),  # past 64 bits
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e300, math.nan, math.inf, -math.inf]),
    st.text(),  # any code point but surrogates: non-ASCII and control characters
    st.sampled_from(['"', "\\", '\\"', "\x00\x1f\n\t", "é", " ", "\U0001f600"]),
)
# few distinct values, so that lists equal across types ([1, 0], [True, False]) recur
LEAF_LISTS = st.one_of(
    st.lists(st.sampled_from(["0", "1", "a\\b"]), max_size=3),
    st.lists(st.integers(0, 2), max_size=3),
    st.lists(st.booleans(), max_size=3),
    st.lists(st.sampled_from([0.0, 1.0]), max_size=3),
)
VALUES = st.recursive(
    st.one_of(SCALARS, LEAF_LISTS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(), inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_the_writer_writes_what_json_dumps_writes(value):
    assert "".join(written(value)) == canonical(value)


@settings(max_examples=100, deadline=None)
@given(st.one_of(LEAF_LISTS, st.lists(LEAF_LISTS, max_size=3)), VALUES)
def test_one_list_object_met_at_two_depths(shared, other):
    value = [shared, {"k": [shared, other], "m": (shared, [shared])}, shared]
    assert "".join(written(value)) == canonical(value)


def test_lists_equal_across_types_keep_their_own_bytes():
    # [1, 0] == [True, False] == [1.0, 0.0], in either order at one depth
    for value in ([[1, 0], [True, False], [1.0, 0.0]],
                  [[1.0, 0.0], [True, False], [1, 0]],
                  {"a": [True, False], "b": [[1, 0], [1, 0]], "c": [1, 0]},
                  [[[1, 0]], [[True, False]]]):
        assert "".join(written(value)) == canonical(value)


def test_a_large_report_is_written_in_pieces():
    # the pairs are flat items, each joined at once, and flushed as they go
    value = {"rows": [{"i": i, "row": [i, i + 1]} for i in range(20_000)],
             "pairs": [[i, i + 1] if i % 2 else (i, -i) for i in range(20_000)]}
    parts = written(value)
    assert "".join(parts) == canonical(value)
    assert len(parts) > 10 and max(map(len, parts)) < len(canonical(value)) / 10


def test_a_shared_list_of_flat_lists_met_three_times_at_two_depths():
    # the third meeting at an indent reads the text kept at the second
    for shared in ([["0", "a\\b"], ("1",)], [[0, 1], (2, -3)], [["0"], [1], ("é",), (2,)]):
        value = {"a": shared, "b": shared, "c": shared, "deeper": [shared, shared, shared]}
        assert "".join(written(value)) == canonical(value)


def test_a_failed_axioms_report_is_written_as_json_writes_it(tmp_path, monkeypatch, capsys):
    # the violations are lists that mix an axiom name with its witness list
    doc = {
        "name": "broken", "elements": ["0", "1"],
        "join": [["0", "1"], ["1", "0"]],
        "mul": [["0", "0"], ["0", "1"]],
        "unit": "1",
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    reports = []
    write_json = cli._write_json

    def recording(value, write):
        reports.append(value)
        write_json(value, write)

    monkeypatch.setattr(cli, "_write_json", recording)
    assert cli.main(["check-quantale", "--file", str(path), "--format", "json"]) == 1
    out = capsys.readouterr().out
    (report,) = reports
    assert report["violations"] and not report["axioms_passed"]
    assert out == canonical(report)
