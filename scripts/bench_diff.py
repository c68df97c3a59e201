#!/usr/bin/env python3
"""Compares fresh bench output against a committed BENCH_*.json file.

    python3 scripts/bench_diff.py FRESH.jsonl COMMITTED.json

Both files hold one JSON object per line, as the bench executables print
them with --json. A fresh row is matched to the committed row of the same
bench whose parameters are equal: the fields PARAMS names for that bench
(nodes, policy, child store, block size, ...). Every other field is a
result, compared between the matched rows:

  - rates, higher is better: names ending in `per_s` (mb_per_s,
    rebuild_mb_per_s, req_per_s), and floats named `speedup...`;
  - costs, lower is better: latencies and wall times (names ending in
    `_s`, `_ms` or `_us`) and every other float (peak_rss_mib,
    minflt_per_mib, bytes_per_lost_block, ...);
  - counts and host facts, which must repeat exactly: every other int,
    bool, string or list (rounds, lost, lost_blocks, survivor_bytes_total,
    recovered, degraded, hw_cores, selected kernel, ...);
  - self-checks (`ok`, `identical`), which must not be false in the
    fresh row;
  - `runs`, `reps` and `note`, which say how a committed row was
    aggregated and are ignored.

The script prints each rate and cost, committed -> fresh, with its
relative change, and flags a change larger than THRESHOLD as `<< worse`
or `<< better`. A count that differs, or a field found on one side only,
is flagged `<< differs`; a false self-check `<< failed`. Rows found on
one side only are listed. Exit status: 1 when anything is flagged worse,
differs or failed, or a row on either side is unmatched; 0 otherwise;
2 on bad input.
"""
import json
import math
import sys

THRESHOLD = 0.10

# Each bench's parameters: the fields that say what was measured.
PARAMS = {
    "archive_ingest": ("phase", "streamed", "threads", "store", "file_mib",
                       "block_size"),
    "codec_micro": ("phase", "op", "kernel", "buf_bytes"),
    "health_scan": ("mode", "damage_pct", "n_nodes"),
    "net_load": ("phase", "file_mib", "connections"),
    "node_rebuild": ("nodes", "policy", "child", "blocks", "block_size"),
    "read_throughput": ("phase", "damage", "window", "file_mib",
                        "block_size"),
    "repair_bandwidth": ("codec", "policy", "nodes", "blocks", "block_size"),
    "repair_throughput": ("params", "pattern", "backend", "threads"),
}
SELF_CHECKS = ("ok", "identical")
AGGREGATION = ("runs", "reps", "note")


def params(row):
    return ("bench", "schema_version") + PARAMS[row["bench"]]


def row_key(row):
    return tuple(json.dumps(row.get(k)) for k in params(row))


def label(row):
    return " ".join(f"{k}={row.get(k)}" for k in params(row)
                    if k != "schema_version")


def direction(name, value):
    """+1 when a larger value is better, -1 when smaller is, None when the
    value must repeat exactly."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if name.endswith("per_s"):
        return 1
    if name.endswith(("_s", "_ms", "_us")):
        return -1
    if isinstance(value, float):
        return 1 if name.startswith("speedup") else -1
    return None


def load(path):
    rows = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                raise SystemExit(f"{path}:{n}: not JSON: {e}") from None
            if not isinstance(row, dict) or "bench" not in row:
                continue
            if row["bench"] not in PARAMS:
                raise SystemExit(f"{path}:{n}: bench {row['bench']!r} has no "
                                 "entry in PARAMS")
            rows.append(row)
    return rows


def compare(fresh, base):
    """Prints each result of a matched pair; returns (worse, better,
    differs, failed) counts."""
    worse = better = differs = failed = 0
    names = list(fresh) + [k for k in base if k not in fresh]
    for name in names:
        if name in params(fresh) or name in AGGREGATION:
            continue
        if name in SELF_CHECKS:
            if fresh.get(name) is False:
                print(f"  {name}: false  << failed")
                failed += 1
            continue
        if name not in fresh or name not in base:
            side = "fresh" if name not in fresh else "committed"
            print(f"  {name}: missing from the {side} row  << differs")
            differs += 1
            continue
        old, new = base[name], fresh[name]
        sign = direction(name, new)
        if sign is None or direction(name, old) is None:
            if new != old:
                print(f"  {name}: {json.dumps(old)} -> {json.dumps(new)}"
                      "  << differs")
                differs += 1
            continue
        if old:
            change = (new - old) / abs(old)
        else:
            change = 0.0 if new == old else math.copysign(math.inf, new)
        flag = ""
        if abs(change) > THRESHOLD:
            if change * sign < 0:
                flag = "  << worse"
                worse += 1
            else:
                flag = "  << better"
                better += 1
        print(f"  {name}: {old:g} -> {new:g} ({change:+.1%}){flag}")
    return worse, better, differs, failed


def main():
    if len(sys.argv) != 3:
        print("usage: bench_diff.py FRESH.jsonl COMMITTED.json",
              file=sys.stderr)
        return 2
    try:
        fresh, committed = load(sys.argv[1]), load(sys.argv[2])
    except OSError as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2
    # Rows with equal parameters pair up in file order.
    pending = {}
    for row in committed:
        pending.setdefault(row_key(row), []).append(row)

    totals = [0, 0, 0, 0]
    unmatched = []
    for row in fresh:
        candidates = pending.get(row_key(row))
        if not candidates:
            unmatched.append(row)
            continue
        print(label(row))
        counts = compare(row, candidates.pop(0))
        totals = [t + c for t, c in zip(totals, counts)]

    for row in unmatched:
        print(f"no committed row: {label(row)}")
    left = [row for rows in pending.values() for row in rows]
    for row in left:
        print(f"no fresh row: {label(row)}")
    worse, better, differs, failed = totals
    print(f"{len(fresh) - len(unmatched)} rows matched, "
          f"{len(unmatched) + len(left)} unmatched, threshold "
          f"{THRESHOLD:.0%}: {worse} worse, {better} better, {differs} "
          f"differ, {failed} failed self-checks")
    return 1 if worse or differs or failed or unmatched or left else 0


if __name__ == "__main__":
    sys.exit(main())
