"""Unit tests for the committed-baseline loader of the CI gate.

One skip policy, once: ``benchmarks/check_regression.py`` turns
:class:`BaselineUnusable` into SKIP + exit 0, so the loader must be
precise about *when* a committed baseline is unusable — and loud about
why — without ever masking a bad fresh report. The gate's rows and exit
codes over the same inputs are in ``test_check_regression.py``.
"""

import json

import pytest

from benchmarks.check_regression import (
    SCHEMA_VERSION,
    BaselineUnusable,
    load_committed_baseline,
)


def write(tmp_path, payload, name="report.json"):
    path = tmp_path / name
    path.write_text(
        payload if isinstance(payload, str) else json.dumps(payload),
        encoding="utf-8",
    )
    return str(path)


def test_loads_a_good_report(tmp_path):
    path = write(tmp_path, {"benchmark": "x", "figure": 2.0})
    assert load_committed_baseline(path) == {"benchmark": "x", "figure": 2.0}


def test_missing_file_is_unusable(tmp_path):
    with pytest.raises(BaselineUnusable, match="does not exist"):
        load_committed_baseline(str(tmp_path / "absent.json"))


def test_unparseable_json_is_unusable(tmp_path):
    path = write(tmp_path, "{not json")
    with pytest.raises(BaselineUnusable, match="unreadable"):
        load_committed_baseline(path)


def test_non_object_report_is_unusable(tmp_path):
    path = write(tmp_path, [1, 2, 3])
    with pytest.raises(BaselineUnusable, match="not a report object"):
        load_committed_baseline(path)


def test_schema_mismatch_is_unusable(tmp_path):
    path = write(tmp_path, {"schema_version": SCHEMA_VERSION + 1})
    with pytest.raises(BaselineUnusable, match="schema_version"):
        load_committed_baseline(path)


def test_report_without_version_key_predates_versioning(tmp_path):
    # Version-less reports are the version-1 shape by definition.
    path = write(tmp_path, {"figure": 1.5})
    assert load_committed_baseline(path, schema_version=1)["figure"] == 1.5


def test_require_hook_vetoes_with_its_reason(tmp_path):
    path = write(tmp_path, {"benchmark": "x"})
    with pytest.raises(BaselineUnusable, match="carries no speedup"):
        load_committed_baseline(
            path,
            require=lambda r: None if r.get("speedup") else "carries no speedup",
        )


def test_require_hook_passes_usable_reports_through(tmp_path):
    path = write(tmp_path, {"speedup": 2.0})
    report = load_committed_baseline(
        path,
        require=lambda r: None if r.get("speedup") else "carries no speedup",
    )
    assert report["speedup"] == 2.0
