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
    cases = cli_probe.corpus(want["seed"], want["count"])
    assert cases == [{k: v for k, v in c.items() if k not in ("sha256", "exit")}
                     for c in want["cases"]]  # the same corpus, inputs included
    got = cli_probe.probe(cases)
    changed = [(g["argv"], w["exit"], g["exit"])
               for g, w in zip(got, want["cases"]) if g["sha256"] != w["sha256"]]
    assert changed == []
    assert cli_probe.record(got)["exit_counts"] == want["exit_counts"]
