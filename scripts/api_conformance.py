#!/usr/bin/env python3
"""Tier-1 conformance smoke for the multi-tenant v1 API.

Starts the given rest_server binary on an ephemeral port with a per-tenant
quota of 2 and drives the serving surface end to end:

  * POST /v1/batch admits a 2-dataset batch for one tenant in a single
    scheduler pass (smartml_scheduler_passes_total advances by exactly 1),
  * a further submission from the quota-filled tenant sheds with
    429 + Retry-After and the uniform error envelope,
  * GET /v1/runs/{id}/events streams SSE frames with at least one
    incumbent-improvement event before the terminal event,
  * GET /v1/runs lists the batch's runs under their tenant filter,
  * every response carries an X-Request-Id header, and the removed
    pre-versioning aliases answer with the structured 404 envelope,
  * a client that pipelines two requests and hangs up without reading
    leaves the server alive: /v1/health still answers 200,
  * GET /v1/algorithms lists the 15 learners in the paper's Table-3 order,
    each with its five fields.

Usage: scripts/api_conformance.py path/to/rest_server
"""

import json
import os
import re
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

CSV = "f1,f2,f3,label\n" + "\n".join(
    "%d,%d,%d,%s" % (i % 7, (i * 3) % 5, i % 2, "a" if i % 2 else "b")
    for i in range(40)
)

TENANT = "smoke-tenant"

# The paper's Table 3, in order: the ids /v1/algorithms must list.
TABLE3 = [
    "svm", "naive_bayes", "knn", "bagging", "part", "j48", "random_forest",
    "c50", "rpart", "lda", "plsda", "lmt", "rda", "neuralnet", "deepboost",
]

ALGORITHM_FIELDS = {
    "name": str,
    "paper_name": str,
    "paper_package": str,
    "categorical_params": int,
    "numerical_params": int,
}


def fetch(url, data=None, method=None, headers=None):
    """Returns (status, headers, body) without raising on 4xx/5xx."""
    request = urllib.request.Request(
        url, data=data, method=method, headers=headers or {}
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read().decode()


def counter(base, name):
    _, _, text = fetch(base + "/v1/metrics")
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


def wait_done(base, run_id):
    deadline = time.time() + 120
    while time.time() < deadline:
        _, _, body = fetch(base + "/v1/runs/" + run_id)
        state = json.loads(body)["state"]
        if state in ("done", "failed", "cancelled"):
            return state
        time.sleep(0.2)
    raise SystemExit("run %s never reached a terminal state" % run_id)


def check_algorithms(base):
    """The registry table, end to end: 15 rows in Table-3 order, each with
    exactly the five AlgorithmInfo fields."""
    status, _, body = fetch(base + "/v1/algorithms")
    if status != 200:
        raise SystemExit("algorithms: %d %s" % (status, body))
    entries = json.loads(body)
    names = [entry.get("name") for entry in entries]
    if names != TABLE3:
        raise SystemExit("algorithms out of Table-3 order: %r" % names)
    for entry in entries:
        if set(entry) != set(ALGORITHM_FIELDS):
            raise SystemExit("algorithm entry has wrong fields: %r" % entry)
        for field, kind in ALGORITHM_FIELDS.items():
            if not isinstance(entry[field], kind):
                raise SystemExit("algorithm field %s is not %s: %r"
                                 % (field, kind.__name__, entry))


def hang_up_mid_pipeline(port):
    """Pipelines two requests on one connection and closes without reading
    the responses; the server's writes then fail with EPIPE."""
    request = b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n"
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request * 2)


def main():
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    server = subprocess.Popen(
        [
            sys.argv[1],
            "--port", "0",
            "--workers", "2",
            "--job-workers", "1",
            "--max-jobs", "16",
            "--tenant-quota", "2",
            "--budget", "2",
            "--evals", "12",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        # Stretch every fold evaluation so the batch runs are still pending
        # when the quota check fires; without it the tiny dataset finishes in
        # milliseconds and the 429 assertion races run completion.
        env={**os.environ, "SMARTML_FAULT": "slow_train:100ms"},
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

        # A client hang-up must cost its connection, not the server.
        hang_up_mid_pipeline(int(match.group(1)))
        time.sleep(0.5)
        if server.poll() is not None:
            raise SystemExit(
                "server exited (status %s) after a client hung up mid-pipeline"
                % server.returncode
            )
        status, _, body = fetch(base + "/v1/health")
        if status != 200:
            raise SystemExit("health after hang-up: %d %s" % (status, body))

        # Request ids on every response; structured 404 for dropped aliases.
        status, headers, body = fetch(base + "/health")
        if status != 404:
            raise SystemExit("legacy /health should be 404, got %d" % status)
        envelope = json.loads(body)
        if envelope["error"]["code"] != "not_found":
            raise SystemExit("404 lacks the error envelope: %r" % body)
        if not headers.get("X-Request-Id"):
            raise SystemExit("response lacks X-Request-Id")

        check_algorithms(base)

        # A 2-dataset batch in exactly one scheduler pass.
        passes_before = counter(base, "smartml_scheduler_passes_total")
        batch_request = json.dumps(
            {"items": [{"name": "smoke_%d" % i, "csv": CSV} for i in range(2)]}
        )
        status, headers, body = fetch(
            base + "/v1/batch",
            data=batch_request.encode(),
            headers={"X-Tenant": TENANT},
        )
        if status != 202:
            raise SystemExit("batch submit failed (%d): %s" % (status, body))
        batch = json.loads(body)
        run_ids = [item["id"] for item in batch["items"]]
        if len(run_ids) != 2:
            raise SystemExit("batch admitted %d items, wanted 2" % len(run_ids))
        passes_after = counter(base, "smartml_scheduler_passes_total")
        if passes_after - passes_before != 1.0:
            raise SystemExit(
                "batch took %.0f scheduler passes, wanted 1"
                % (passes_after - passes_before)
            )

        # The tenant is at its quota of 2: the next submission sheds.
        status, headers, body = fetch(
            base + "/v1/runs", data=CSV.encode(), headers={"X-Tenant": TENANT}
        )
        if status != 429:
            raise SystemExit("expected 429 at quota, got %d: %s" % (status, body))
        if "Retry-After" not in headers:
            raise SystemExit("429 lacks Retry-After")
        if json.loads(body)["error"]["code"] != "resource_exhausted":
            raise SystemExit("429 lacks the error envelope: %r" % body)

        # Both runs finish and stream incumbent progress before terminal.
        for run_id in run_ids:
            state = wait_done(base, run_id)
            if state != "done":
                raise SystemExit("run %s finished as %s" % (run_id, state))
            status, headers, stream = fetch(
                base + "/v1/runs/" + run_id + "/events"
            )
            if "text/event-stream" not in headers.get("Content-Type", ""):
                raise SystemExit("events endpoint is not SSE: %r" % headers)
            incumbent = stream.find("event: incumbent")
            terminal = stream.find("event: terminal")
            if incumbent < 0 or terminal < 0 or incumbent > terminal:
                raise SystemExit(
                    "stream for %s lacks incumbent-before-terminal:\n%s"
                    % (run_id, stream)
                )

        # The list endpoint sees both runs under the tenant filter.
        _, _, body = fetch(base + "/v1/runs?tenant=" + TENANT + "&status=done")
        listed = {run["id"] for run in json.loads(body)["runs"]}
        if not set(run_ids) <= listed:
            raise SystemExit("list is missing batch runs: %r" % body)

        print("api conformance: OK (batch=%s runs=%s)" % (batch["id"], run_ids))
    finally:
        server.terminate()
        server.wait(timeout=10)


if __name__ == "__main__":
    main()
