"""The benchmark's checker must count a tampered report as a failed request."""

from __future__ import annotations

import contextlib
import io
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import minexp.cli  # noqa: E402
import workloads  # noqa: E402
from worker import Client  # noqa: E402

REQUEST = workloads.Request("formula", ("formula", "--n", "6", "--degrees", "1,2,3"), {"n": 6, "degrees": [1, 2, 3]})


def _real_report() -> tuple[dict, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = minexp.cli.main([*REQUEST.argv, "--json"])
    return json.loads(out.getvalue()), code


def _send(report: dict, code: int) -> Client:
    def main(argv):
        print(json.dumps(report, indent=2, sort_keys=True))
        return code

    client = Client([REQUEST], types.SimpleNamespace(main=main, REPORT_SCHEMA=minexp.cli.REPORT_SCHEMA))
    client.send(0)
    return client


def test_real_report_passes():
    report, code = _real_report()
    client = _send(report, code)
    assert (client.attempted, client.failed) == (1, 0), client.problems


def _wrong_rational(report, code):
    report["results"]["minimal_exponent"]["num"] += 1
    return report, code


def _schema_invalid(report, code):
    report["ok"] = "yes"
    return report, code


def _wrong_exit_code(report, code):
    return report, 2


@pytest.mark.parametrize("tamper", [_wrong_rational, _schema_invalid, _wrong_exit_code])
def test_tampered_report_counts_as_failed(tamper):
    client = _send(*tamper(*_real_report()))
    assert (client.attempted, client.failed) == (1, 1)
    assert client.problems


def test_changed_repeat_counts_as_failed():
    report, code = _real_report()
    client = _send(report, code)
    client.cli = types.SimpleNamespace(main=lambda argv: print(json.dumps(report)) or code)
    client.send(0)
    assert (client.attempted, client.failed) == (2, 1)
