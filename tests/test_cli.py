#!/usr/bin/env python3
"""Regression tests for resipe_cli argument hardening.

Unknown commands, unknown per-command options, and flags missing their
value must all fail fast with a usage message and exit code 2 — never
fall through to a default run.  The trace and metrics JSON a run
writes must parse under a strict reader.  Run as:

    test_cli.py /path/to/resipe_cli
"""
import json
import os
import subprocess
import sys
import tempfile


def run(cli, *args):
    return subprocess.run(
        [cli, *args], capture_output=True, text=True, timeout=300
    )


def strict_json(path):
    """Parses `path` as strict JSON: no NaN/Infinity tokens and no raw
    control characters inside strings.  Returns None when it fails."""
    def reject(token):
        raise ValueError(f"non-standard constant {token}")

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=reject, strict=True)
    except (OSError, ValueError) as exc:
        print(f"  {path}: {exc}", file=sys.stderr)
        return None


def main():
    if len(sys.argv) != 2:
        print("usage: test_cli.py <resipe_cli binary>", file=sys.stderr)
        return 2
    cli = sys.argv[1]
    failures = []

    def check(name, ok):
        print(("PASS" if ok else "FAIL") + f"  {name}")
        if not ok:
            failures.append(name)

    # Unknown command (a typo of 'compare').
    r = run(cli, "comapre")
    check(
        "unknown command exits 2",
        r.returncode == 2
        and "unknown command 'comapre'" in r.stderr
        and "usage:" in r.stderr,
    )

    # No command at all.
    r = run(cli)
    check("missing command exits 2", r.returncode == 2 and "usage:" in r.stderr)

    # Unknown option for a known command.
    r = run(cli, "yield", "--bogus", "3")
    check(
        "unknown option exits 2",
        r.returncode == 2
        and "unknown option '--bogus' for command 'yield'" in r.stderr
        and "usage:" in r.stderr,
    )

    # Option from a *different* command is still unknown here.
    r = run(cli, "yield", "--rows", "4")
    check(
        "foreign option exits 2",
        r.returncode == 2 and "unknown option '--rows'" in r.stderr,
    )

    # Flag at end of line with no value.
    r = run(cli, "yield", "--bound")
    check(
        "missing value exits 2",
        r.returncode == 2 and "missing value for '--bound'" in r.stderr,
    )

    # Global flag missing its value.
    r = run(cli, "yield", "--threads")
    check(
        "global flag missing value exits 2",
        r.returncode == 2 and "missing value" in r.stderr,
    )

    # A well-formed invocation still works (cheap command).
    r = run(cli, "yield", "--bound", "0.02")
    check("valid invocation exits 0", r.returncode == 0 and r.stdout != "")

    # Valid global flag placement still works.
    r = run(cli, "--threads", "1", "yield", "--bound", "0.02")
    check("global flag before command exits 0", r.returncode == 0)

    # Telemetry exports: both files must be strict JSON.
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "t.json")
        metrics = os.path.join(tmp, "m.json")
        r = run(cli, "--trace", trace, "--metrics", metrics, "quickstart")
        check("traced quickstart exits 0", r.returncode == 0)
        doc = strict_json(trace)
        check(
            "trace JSON parses strictly",
            doc is not None and len(doc.get("traceEvents", [])) > 0,
        )
        doc = strict_json(metrics)
        check(
            "metrics JSON parses strictly",
            doc is not None
            and set(doc) == {"counters", "gauges", "histograms"},
        )

    if failures:
        print(f"{len(failures)} failure(s): {failures}", file=sys.stderr)
        return 1
    print("all CLI hardening checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
