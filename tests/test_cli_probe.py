"""The committed behaviour probe: every argv of cli_probe's seeded corpus must
end with the exit code, stdout, stderr and files recorded in PROBE_cli.json."""

import json
import sys

import pytest

import cli_probe


def test_every_probe_argv_does_what_was_recorded():
    want = json.loads(cli_probe.RECORD.read_text())
    if want["python"] != "%d.%d" % sys.version_info[:2]:  # argparse words its own errors
        pytest.skip(f"recorded under Python {want['python']}")
    assert cli_probe.changed(want) == []
