"""Pure helpers of the dlsched benchmark: percentiles, span self time,
failure accounting and the metrics comparison.  No I/O, so the tests in
tests/ exercise them directly."""

import json
import math

# A percentile is reported only when at least this many samples lie
# strictly above it.
MIN_BEYOND = 10

TAIL_LEVELS = (0.99, 0.95, 0.90, 0.75, 0.50)


def quantile(values, q):
    """Linear interpolation between order statistics (the definition
    Obs.Registry uses for its histograms)."""
    if not values:
        raise ValueError("quantile of no samples")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def percentile(values, q):
    """{'value', 'n', 'beyond'} for the q-quantile of values, or None when
    fewer than MIN_BEYOND samples lie beyond it."""
    if not values:
        return None
    v = quantile(values, q)
    beyond = sum(1 for x in values if x > v)
    if beyond < MIN_BEYOND:
        return None
    return {"value": v, "n": len(values), "beyond": beyond}


def tail(values):
    """The highest of TAIL_LEVELS that the rule allows, as
    (level, percentile dict), or (None, None) when even the median is
    not reportable."""
    for q in TAIL_LEVELS:
        p = percentile(values, q)
        if p is not None:
            return q, p
    return None, None


def label(q):
    return "p%d" % round(q * 100)


# --- spans -----------------------------------------------------------------


def _covered(intervals):
    """Length of the union of [start, end] intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Map span id -> self time: its duration minus the part of its
    interval that its child spans cover (children clipped to the parent,
    overlapping children counted once)."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        p = s.get("parent")
        if p is not None and p in by_id:
            children.setdefault(p, []).append(s)
    out = {}
    for s in spans:
        start, end = s["start"], s["end"]
        kids = [(max(c["start"], start), min(c["end"], end)) for c in children.get(s["id"], [])]
        kids = [(a, b) for a, b in kids if b > a]
        out[s["id"]] = (end - start) - _covered(kids)
    return out


def roots(spans):
    ids = {s["id"] for s in spans}
    return [s for s in spans if s.get("parent") is None or s["parent"] not in ids]


def summary(spans, k=5):
    """Self-time table: one row per span name (count, total, self, tail
    percentile of durations) sorted by self time, plus the k slowest
    spans with their attributes."""
    selfs = self_times(spans)
    rows = {}
    for s in spans:
        r = rows.setdefault(s["name"], {"name": s["name"], "count": 0, "total_s": 0.0,
                                        "self_s": 0.0, "durations": []})
        d = s["end"] - s["start"]
        r["count"] += 1
        r["total_s"] += d
        r["self_s"] += selfs[s["id"]]
        r["durations"].append(d)
    table = []
    for r in rows.values():
        q, p = tail(r.pop("durations"))
        r["tail"] = None if q is None else {"level": label(q), "ms": p["value"] * 1e3,
                                             "n": p["n"], "beyond": p["beyond"]}
        table.append(r)
    table.sort(key=lambda r: -r["self_s"])
    slowest = sorted(spans, key=lambda s: s["start"] - s["end"])[:k]
    top = [{"name": s["name"], "ms": (s["end"] - s["start"]) * 1e3,
            "self_ms": selfs[s["id"]] * 1e3, "attrs": s.get("attrs", {})} for s in slowest]
    in_server = sum(s["end"] - s["start"] for s in roots(spans))
    return {"rows": table, "slowest": top, "root_s": in_server,
            "self_sum_s": sum(selfs.values())}


def format_summary(title, summ):
    lines = ["%s: %d span names, in-server (root) time %.4f s, sum of self times %.4f s"
             % (title, len(summ["rows"]), summ["root_s"], summ["self_sum_s"]),
             "  %-20s %8s %11s %11s  %s" % ("span", "count", "total_s", "self_s", "tail")]
    for r in summ["rows"]:
        t = r["tail"]
        tail_s = "n/a (%d samples)" % r["count"] if t is None else \
            "%s %.3f ms (n=%d, %d beyond)" % (t["level"], t["ms"], t["n"], t["beyond"])
        lines.append("  %-20s %8d %11.4f %11.4f  %s"
                     % (r["name"], r["count"], r["total_s"], r["self_s"], tail_s))
    lines.append("  slowest spans:")
    for s in summ["slowest"]:
        attrs = " ".join("%s=%s" % kv for kv in sorted(s["attrs"].items()))
        lines.append("    %-20s %10.3f ms (self %.3f)  %s" % (s["name"], s["ms"], s["self_ms"], attrs))
    return "\n".join(lines)


def parse_trace(lines):
    """Spans and events of a JSON-lines trace (Obs.Sink format)."""
    spans, events = [], []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        if rec.get("type") == "span":
            spans.append(rec)
        elif rec.get("type") == "event":
            events.append(rec)
    return spans, events


# --- correctness accounting ------------------------------------------------


def is_shed(reply):
    return reply.startswith("err shed")


def account(commands, replies, expected, incomplete, checks):
    """Failure accounting of one served episode.

    commands: the protocol commands sent; replies: the terminator line the
    daemon answered to each; expected: the in-process replay's answer to
    each; incomplete: accepted submits still incomplete after drain;
    checks: list of (name, ok) whole-episode checks (metrics equality,
    invariants, ...).

    Every command is one attempted operation and each check one more.  A
    command fails when it got an err reply other than shed, or when its
    reply disagrees with the replay; every incomplete request and every
    failed check is one more failure.  Sheds are refusals, not failures.
    Returns a dict with attempted, failed, shed, submits and reasons."""
    failed, shed, submits, reasons = 0, 0, 0, []
    if len(replies) != len(commands) or len(expected) != len(commands):
        reasons.append("reply count mismatch: %d commands, %d replies, %d expected"
                       % (len(commands), len(replies), len(expected)))
        failed += 1
    for cmd, got, want in zip(commands, replies, expected):
        is_submit = cmd.startswith("submit ")
        submits += is_submit
        if is_submit and is_shed(got):
            shed += 1
        bad = (got.startswith("err") and not is_shed(got)) or got != want
        if bad:
            failed += 1
            if len(reasons) < 5:
                reasons.append("%r -> %r (replay: %r)" % (cmd, got, want))
    failed += incomplete
    if incomplete:
        reasons.append("%d accepted requests incomplete after drain" % incomplete)
    for name, ok in checks:
        if not ok:
            failed += 1
            reasons.append("check failed: %s" % name)
    return {"attempted": len(commands) + len(checks), "failed": failed, "shed": shed,
            "submits": submits, "reasons": reasons}


# Wall-time instruments of the engine registry, excluded from the
# daemon-versus-replay comparison.
WALL_TIME_METRICS = ("lp_solve_seconds",)


def metrics_diff(daemon, replay):
    """Names of the counters, gauges and histograms on which two
    `metrics json` dumps disagree (wall-time instruments excluded)."""
    diffs = []
    for kind in ("counters", "gauges", "histograms"):
        a, b = daemon.get(kind, {}), replay.get(kind, {})
        for name in sorted(set(a) | set(b)):
            if name in WALL_TIME_METRICS:
                continue
            if a.get(name) != b.get(name):
                diffs.append("%s.%s" % (kind, name))
    return diffs
