#!/usr/bin/env python3
"""check_metrics_endpoint: CI-side validation of the live telemetry layer.

Launches a bench with ATMX_STATS_PORT=0, parses the stderr announcement
(`stats: serving http://127.0.0.1:<port>/metrics`) for the ephemeral
port, and then validates one of two contracts:

  scrape   /healthz answers ok, /metrics is well-formed OpenMetrics
           (TYPE lines, charset-clean names, cumulative histogram
           buckets ending in +Inf == _count), /metrics.json parses to a
           non-empty object whose keys mangle onto the OpenMetrics
           names, and an unknown route 404s. --require-metric NAME[=MIN]
           additionally polls /metrics.json until the named key reports
           a value >= MIN (counters a bench promises to bump; for
           histogram-valued keys such as estimator.err.* the floor is
           checked against the observation count).

  flight   once the process is busy and flight.refreshes has advanced
           twice (the recorder re-rendered its dump after the work
           began), a SIGSEGV must leave a parseable
           atmx_flight_<pid>.json containing the schema marker, the
           fatal signal number, a non-empty metrics snapshot, decision
           entries, and trace events.

Exit status 0 on success, 1 on a failed expectation (with a `FAIL:`
diagnostic on stderr), 2 on usage errors. The bench command follows
`--` verbatim; its arguments are not interpreted here.

Used by the observability CI job; runnable locally, e.g.:

  python3 tools/check_metrics_endpoint.py scrape -- \
      env ATMX_SCALE=0.01 ./build/bench/spmv_bench
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

PORT_RE = re.compile(r"stats: serving http://127\.0\.0\.1:(\d+)/metrics")

# One OpenMetrics sample line: name, optional {labels}, value. Names are
# restricted to the charset the exposition layer promises to emit.
SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")
TYPE_RE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (\w+)$")
LE_RE = re.compile(r'le="([^"]+)"')


class Fail(Exception):
    pass


def mangle(name: str) -> str:
    """Python mirror of atmx::obs::MangleMetricName."""
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


class Bench:
    """A bench subprocess whose stderr is watched for the port line."""

    def __init__(self, cmd: List[str], extra_env: Dict[str, str],
                 cwd: Optional[str] = None):
        env = dict(os.environ)
        env.update(extra_env)
        self.proc = subprocess.Popen(
            cmd, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        self.port: Optional[int] = None
        self.stderr_lines: List[str] = []
        self._port_seen = threading.Event()
        self._drainer = threading.Thread(target=self._drain, daemon=True)
        self._drainer.start()

    def _drain(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            self.stderr_lines.append(line)
            m = PORT_RE.search(line)
            if m and self.port is None:
                self.port = int(m.group(1))
                self._port_seen.set()
        self._port_seen.set()  # EOF: unblock waiters either way

    def wait_port(self, timeout: float) -> int:
        self._port_seen.wait(timeout)
        if self.port is None:
            raise Fail(
                "no stats announcement on stderr within "
                f"{timeout:.0f}s; stderr was:\n" + "".join(self.stderr_lines))
        return self.port

    def kill_and_reap(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def get(port: int, path: str, timeout: float = 5.0) -> str:
    with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=timeout) as resp:
        return resp.read().decode("utf-8")


def get_json(port: int, path: str = "/metrics.json") -> Dict[str, object]:
    body = get(port, path)
    try:
        doc = json.loads(body)
    except json.JSONDecodeError as e:
        raise Fail(f"{path} is not valid JSON ({e}); body:\n{body[:2000]}")
    if not isinstance(doc, dict):
        raise Fail(f"{path} did not parse to an object")
    return doc


# --------------------------------------------------------------------------
# OpenMetrics validation


def validate_openmetrics(text: str, min_families: int) -> Dict[str, str]:
    """Checks the exposition grammar; returns {family name: type}."""
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        raise Fail("/metrics does not end with '# EOF'")
    families: Dict[str, str] = {}
    samples: List[Tuple[str, Optional[str], float]] = []
    for lineno, line in enumerate(lines[:-1], start=1):
        if not line:
            raise Fail(f"/metrics line {lineno}: blank line")
        if line.startswith("#"):
            m = TYPE_RE.match(line)
            if not m:
                raise Fail(f"/metrics line {lineno}: unexpected comment "
                           f"{line!r} (only '# TYPE' and '# EOF' are "
                           "emitted)")
            name, family_type = m.groups()
            if family_type not in ("counter", "gauge", "histogram"):
                raise Fail(f"/metrics line {lineno}: unknown type "
                           f"{family_type!r}")
            if name in families:
                raise Fail(f"/metrics line {lineno}: duplicate TYPE for "
                           f"{name}")
            families[name] = family_type
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            raise Fail(f"/metrics line {lineno}: malformed sample {line!r}")
        name, labels, value_str = m.groups()
        try:
            value = float(value_str)
        except ValueError:
            raise Fail(f"/metrics line {lineno}: non-numeric value "
                       f"{value_str!r}")
        samples.append((name, labels, value))

    by_name: Dict[str, List[Tuple[Optional[str], float]]] = {}
    for name, labels, value in samples:
        by_name.setdefault(name, []).append((labels, value))

    def series(name: str) -> List[Tuple[Optional[str], float]]:
        if name not in by_name:
            raise Fail(f"/metrics: family declared but series {name} "
                       "missing")
        return by_name[name]

    claimed: set = set()
    for name, family_type in families.items():
        if family_type == "counter":
            (labels, value), = series(name + "_total")
            claimed.add(name + "_total")
            if labels or value < 0:
                raise Fail(f"/metrics: counter {name}_total must be a "
                           "label-free non-negative sample")
        elif family_type == "gauge":
            (labels, _), = series(name)
            claimed.add(name)
            if labels:
                raise Fail(f"/metrics: gauge {name} must be label-free")
        else:  # histogram
            buckets = series(name + "_bucket")
            (_, total_count), = series(name + "_count")
            (_, _sum), = series(name + "_sum")
            claimed.update((name + "_bucket", name + "_count", name + "_sum"))
            prev = -1.0
            les = []
            for labels, value in buckets:
                le = LE_RE.search(labels or "")
                if not le:
                    raise Fail(f"/metrics: {name}_bucket sample without an "
                               "le label")
                les.append(le.group(1))
                if value < prev:
                    raise Fail(f"/metrics: {name}_bucket series is not "
                               "cumulative")
                prev = value
            if les[-1] != "+Inf":
                raise Fail(f"/metrics: {name}_bucket does not end in +Inf")
            if prev != total_count:
                raise Fail(f"/metrics: {name} +Inf bucket {prev} != _count "
                           f"{total_count}")
    unclaimed = set(by_name) - claimed
    if unclaimed:
        raise Fail("/metrics: samples without a TYPE declaration: "
                   + ", ".join(sorted(unclaimed)))
    if len(families) < min_families:
        raise Fail(f"/metrics: only {len(families)} metric families; "
                   f"expected at least {min_families}")
    return families


# --------------------------------------------------------------------------
# Modes


def stats_env(args: argparse.Namespace) -> Dict[str, str]:
    return {
        "ATMX_STATS_PORT": "0",
        "ATMX_STATS_PERIOD_MS": str(args.period_ms),
        "ATMX_STATS_LINGER": str(args.linger),
    }


def mode_scrape(args: argparse.Namespace) -> None:
    bench = Bench(args.command, stats_env(args))
    try:
        port = bench.wait_port(args.timeout)
        if get(port, "/healthz") != "ok\n":
            raise Fail("/healthz did not answer 'ok'")
        # The registry fills as the bench works; keep scraping until the
        # family floor is met (the linger window keeps the server up even
        # after a short bench body finishes).
        deadline = time.monotonic() + args.timeout
        while True:
            metrics_text = get(port, "/metrics")
            try:
                families = validate_openmetrics(metrics_text,
                                                args.min_families)
                break
            except Fail:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.3)
        doc = get_json(port)
        if not doc:
            raise Fail("/metrics.json is empty")
        for key in doc:
            if mangle(key) not in families:
                raise Fail(f"/metrics.json key {key!r} has no OpenMetrics "
                           f"family {mangle(key)!r}")
        # Named-metric floors (--require-metric NAME[=MIN]): the registry
        # fills as the bench works, so keep re-scraping until every
        # required key exists with at least the requested value.
        # Histograms render as objects in /metrics.json; their floor is
        # checked against the observation count (estimator.err.* etc.).
        def metric_meets(value, floor: float) -> bool:
            if isinstance(value, dict):
                value = value.get("count")
            return isinstance(value, (int, float)) and value >= floor

        for name, floor in args.require_metric:
            while True:
                value = doc.get(name)
                if metric_meets(value, floor):
                    break
                if time.monotonic() >= deadline:
                    raise Fail(f"/metrics.json never reported {name!r} >= "
                               f"{floor:g} (last value: {value!r})")
                time.sleep(0.3)
                doc = get_json(port)
        try:
            get(port, "/no-such-route")
            raise Fail("unknown route did not 404")
        except urllib.error.HTTPError as e:
            if e.code != 404:
                raise Fail(f"unknown route answered {e.code}, wanted 404")
        print(f"scrape: ok ({len(families)} families, "
              f"{len(doc)} JSON metrics)")
    finally:
        bench.kill_and_reap()


def mode_flight(args: argparse.Namespace) -> None:
    workdir = tempfile.mkdtemp(prefix="atmx_flight_test_")
    env = stats_env(args)
    # Tracing also arms the audit ledger, so the dump carries both.
    env["ATMX_TRACE_OUT"] = os.path.join(workdir, "unused.trace.json")
    # The bench runs inside the scratch dir (the dump lands in the
    # process CWD); relative paths in the command must survive that.
    command = [os.path.abspath(tok) if os.path.exists(tok) else tok
               for tok in args.command]
    bench = Bench(command, env, cwd=workdir)
    try:
        port = bench.wait_port(args.timeout)
        # Wait until the process has observable work AND the recorder has
        # refreshed its dump at least twice since that work.
        deadline = time.monotonic() + args.timeout
        armed_refreshes = None
        while time.monotonic() < deadline:
            if bench.proc.poll() is not None:
                raise Fail("bench exited before the crash was injected; "
                           "increase --repeat on the bench command")
            doc = get_json(port)
            busy = any(not k.startswith("flight.")
                       and isinstance(v, (int, float)) and v > 0
                       for k, v in doc.items())
            refreshes = doc.get("flight.refreshes", 0)
            if busy and armed_refreshes is None:
                armed_refreshes = refreshes
            if (armed_refreshes is not None
                    and refreshes >= armed_refreshes + 2):
                break
            time.sleep(args.period_ms / 1000.0)
        else:
            raise Fail("bench never became busy enough to arm the crash")

        bench.proc.send_signal(signal.SIGSEGV)
        returncode = bench.proc.wait(timeout=30)
        if returncode != -signal.SIGSEGV:
            raise Fail(f"bench exit status {returncode}; the handler must "
                       "re-raise so the SIGSEGV death is preserved")
        path = os.path.join(workdir, f"atmx_flight_{bench.proc.pid}.json")
        if not os.path.exists(path):
            raise Fail(f"no flight dump at {path}")
        with open(path, "r", encoding="utf-8") as f:
            dump = json.load(f)
        if dump.get("flight_schema") != 1:
            raise Fail("flight dump missing flight_schema 1")
        if dump.get("signal") != int(signal.SIGSEGV):
            raise Fail(f"flight dump signal {dump.get('signal')} != "
                       f"{int(signal.SIGSEGV)}")
        if dump.get("pid") != bench.proc.pid:
            raise Fail("flight dump pid mismatch")
        metrics = dump.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            raise Fail("flight dump metrics snapshot empty")
        decisions = dump.get("decisions")
        if not isinstance(decisions, list) or not decisions:
            raise Fail("flight dump has no decision entries")
        events = dump.get("trace", {}).get("traceEvents")
        if not isinstance(events, list) or not events:
            raise Fail("flight dump has no trace events")
        if not isinstance(dump.get("mem_high_water_bytes"), (int, float)):
            raise Fail("flight dump missing mem_high_water_bytes")
        print(f"flight: ok ({len(metrics)} metrics, {len(decisions)} "
              f"decisions, {len(events)} trace events in {path})")
    finally:
        bench.kill_and_reap()


MODES = {"scrape": mode_scrape, "flight": mode_flight}


def parse_metric_floor(spec: str) -> Tuple[str, float]:
    """NAME or NAME=MIN (raw /metrics.json key, not the mangled form)."""
    name, sep, floor = spec.partition("=")
    if not name:
        raise argparse.ArgumentTypeError(f"empty metric name in {spec!r}")
    if not sep:
        return name, 1.0
    try:
        return name, float(floor)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"non-numeric floor {floor!r} in {spec!r}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        usage="%(prog)s {scrape,flight} [options] -- command ...")
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="seconds to wait for the stats announcement "
                             "and for mid-run states (default 60)")
    parser.add_argument("--period-ms", type=int, default=50,
                        help="ATMX_STATS_PERIOD_MS (flight refresh period) "
                             "for the child")
    parser.add_argument("--linger", type=int, default=5,
                        help="ATMX_STATS_LINGER for the child")
    parser.add_argument("--min-families", type=int, default=5,
                        help="scrape: minimum OpenMetrics families")
    parser.add_argument("--require-metric", action="append", default=[],
                        metavar="NAME[=MIN]", type=parse_metric_floor,
                        help="scrape: /metrics.json must report this key "
                             "with a value >= MIN (default 1); repeatable")
    # Split at "--" by hand: argparse's REMAINDER would swallow any
    # option written after the mode positional into the command.
    if argv is None:
        argv = sys.argv[1:]
    command: List[str] = []
    if "--" in argv:
        split = argv.index("--")
        command = argv[split + 1:]
        argv = argv[:split]
    args = parser.parse_args(argv)
    args.command = command

    if not args.command:
        parser.error("no bench command given after --")

    try:
        MODES[args.mode](args)
    except Fail as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
