#!/usr/bin/env python3
"""Tier-1 smoke test for the observability endpoints.

Starts the given rest_server binary on an ephemeral port, drives one tiny
selection-only run through POST /v1/runs, then asserts that

  * GET /v1/metrics returns parseable Prometheus text exposition,
  * smartml_requests_total advanced between two scrapes,
  * the completed GET /v1/runs/{id} body carries the nested span tree,
  * GET /v1/health reports the same KB and job counts as GET /v1/metrics
    (both read the one process registry).

Usage: scripts/metrics_smoke.py path/to/rest_server
"""

import json
import re
import subprocess
import sys
import time
import urllib.error
import urllib.request

CSV = "f1,f2,f3,label\n" + "\n".join(
    "%d,%d,%d,%s" % (i % 7, (i * 3) % 5, i % 2, "a" if i % 2 else "b")
    for i in range(40)
)

# name{labels} value  |  # HELP/TYPE  |  blank
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE+.inf-]+$"
)


def fetch(url, data=None, method=None):
    request = urllib.request.Request(url, data=data, method=method)
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.read().decode()


def parse_exposition(text):
    """Validates the format; returns {metric name: sum of sample values}."""
    totals = {}
    for line in text.splitlines():
        if not line or line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        if not SAMPLE_RE.match(line):
            raise SystemExit("invalid exposition line: %r" % line)
        name = re.split(r"[{ ]", line, 1)[0]
        totals[name] = totals.get(name, 0.0) + float(line.rsplit(" ", 1)[1])
    return totals


def sample(text, series):
    """Value of one exact sample line, e.g. 'name{label="v"}'; None if absent."""
    prefix = series + " "
    for line in text.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):])
    return None


def check_health_matches_metrics(base):
    """/v1/health's counters must equal the samples /v1/metrics serves."""
    health = json.loads(fetch(base + "/v1/health"))
    text = fetch(base + "/v1/metrics")
    for health_value, series in (
        (health["kb"]["updates_total"], "smartml_kb_updates_total"),
        (health["kb"]["lookups_total"], "smartml_kb_lookup_seconds_count"),
        (health["jobs"]["done"], 'smartml_jobs_total{state="done"}'),
    ):
        if sample(text, series) != health_value:
            raise SystemExit(
                "/v1/health reports %r but /v1/metrics has %s = %r"
                % (health_value, series, sample(text, series))
            )


def main():
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    server = subprocess.Popen(
        [sys.argv[1], "--port", "0", "--workers", "2", "--job-workers", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        match = None
        deadline = time.time() + 30
        while match is None and time.time() < deadline:
            line = server.stdout.readline()
            if not line:
                break
            match = re.search(r"listening on http://127\.0\.0\.1:(\d+)", line)
        if match is None:
            raise SystemExit("server never reported its port")
        base = "http://127.0.0.1:%s" % match.group(1)

        before = parse_exposition(fetch(base + "/v1/metrics"))

        # One cheap selection-only run, polled to completion.
        submitted = json.loads(
            fetch(
                base + "/v1/runs?name=smoke&selection_only=1",
                data=CSV.encode(),
            )
        )
        job = None
        deadline = time.time() + 60
        while time.time() < deadline:
            job = json.loads(fetch(base + "/v1/runs/" + submitted["id"]))
            if job["state"] in ("done", "failed"):
                break
            time.sleep(0.2)
        if job is None or job["state"] != "done":
            raise SystemExit("run did not finish: %r" % (job,))
        if "trace" not in job.get("result", {}):
            raise SystemExit("completed run result lacks the span tree")
        if not any(
            span["name"] == "preprocess" for span in job["result"]["trace"]
        ):
            raise SystemExit("span tree lacks the preprocess phase")

        after = parse_exposition(fetch(base + "/v1/metrics"))
        for required in (
            "smartml_requests_total",
            "smartml_request_seconds_count",
            "smartml_job_phase_seconds_count",
            "smartml_kb_lookup_seconds_count",
        ):
            if required not in after:
                raise SystemExit("metric missing from scrape: " + required)
        if not after["smartml_requests_total"] > before.get(
            "smartml_requests_total", 0.0
        ):
            raise SystemExit("smartml_requests_total did not advance")
        check_health_matches_metrics(base)
        print("metrics smoke: OK (%d metric families scraped)" % len(after))
    finally:
        server.terminate()
        server.wait(timeout=10)


if __name__ == "__main__":
    main()
