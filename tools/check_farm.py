#!/usr/bin/env python3
"""Validate the experiment-farm on-disk artifacts end to end.

Runs the `smoke` bench (path given as argv[1]) through three legs:

  1. Cold sweep with a fresh --cache-dir. Checks the cache directory
     schema: index.json carries {"version","stamp","shards"}, every
     shard line is a JSON object whose 16-hex "key" equals the FNV-1a/64
     hash of its "canon" string AND lands in the shard file it was found
     in, with the payload fields (mechanism/mix/metrics/stats) and the
     16-hex payload checksum "sum" present.
     Checks the JSONL + manifest schema: header pins {"farm","spec"},
     every entry's "line" hash matches the FNV-1a/64 of the positionally
     corresponding JSONL record line, and every record parses with the
     required fields.
  2. Warm rerun over the same cache. Must report "<N> hits, 0 misses"
     and emit byte-identical JSONL records.
  3. SIGKILL/resume. A slower sweep is killed once at least one point
     has been checkpointed, then rerun with resume; the resumed file
     must be byte-identical to an uninterrupted run of the same sweep.
     (If the kill loses the race and the sweep completes, the leg
     degrades to a warning — timing, not correctness.)

Exit code 0 means every check passed. Used as a ctest target
(farm_check); runnable standalone:

    python3 tools/check_farm.py build/bench/smoke [workdir]
"""

import json
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import time

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MASK = (1 << 64) - 1

_failures = []


def check(cond, msg):
    if not cond:
        _failures.append(msg)
        print(f"FAIL: {msg}", file=sys.stderr)


def fnv1a64(data: bytes) -> str:
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & MASK
    return f"{h:016x}"


def load_jsonl(path: pathlib.Path):
    """(raw_line, parsed) pairs; a parse failure is a check failure."""
    rows = []
    for i, line in enumerate(path.read_text().splitlines()):
        if not line:
            continue
        try:
            rows.append((line, json.loads(line)))
        except json.JSONDecodeError as e:
            check(False, f"{path.name} line {i + 1} is not JSON: {e}")
    return rows


def run(cmd, **kw):
    proc = subprocess.run(cmd, capture_output=True, text=True, **kw)
    check(proc.returncode == 0,
          f"{' '.join(map(str, cmd))} exited {proc.returncode}:\n"
          f"{proc.stderr[-2000:]}")
    return proc


def check_cache_dir(cache_dir: pathlib.Path):
    index = cache_dir / "index.json"
    check(index.is_file(), "cache dir has no index.json")
    if not index.is_file():
        return
    idx = json.loads(index.read_text())
    for field, kind in (("version", str), ("stamp", str),
                        ("shards", int)):
        check(isinstance(idx.get(field), kind),
              f"index.json field '{field}' missing or mistyped")
    shards = idx.get("shards", 0)

    entries = 0
    for shard_file in sorted(cache_dir.glob("shard_*.jsonl")):
        shard_no = int(shard_file.stem.split("_")[1], 16)
        for raw, row in load_jsonl(shard_file):
            entries += 1
            key = row.get("key")
            canon = row.get("canon")
            check(isinstance(key, str) and re.fullmatch(r"[0-9a-f]{16}",
                                                        key or ""),
                  f"{shard_file.name}: key is not 16 lowercase hex")
            check(isinstance(canon, str) and canon,
                  f"{shard_file.name}: canon missing")
            if isinstance(key, str) and isinstance(canon, str):
                check(key == fnv1a64(canon.encode()),
                      f"{shard_file.name}: key {key} != fnv(canon)")
                check(int(key, 16) % shards == shard_no,
                      f"{shard_file.name}: key {key} belongs in shard "
                      f"{int(key, 16) % shards}")
            check(isinstance(row.get("sum"), str) and
                  re.fullmatch(r"[0-9a-f]{16}", row["sum"]),
                  f"{shard_file.name}: payload checksum 'sum' missing")
            for field in ("mechanism", "mix", "metrics", "stats"):
                check(field in row,
                      f"{shard_file.name}: payload lacks '{field}'")
    check(entries > 0, "cache dir holds no entries after a cold sweep")
    return entries


def check_jsonl_and_manifest(jsonl: pathlib.Path):
    records = load_jsonl(jsonl)
    for raw, rec in records:
        for field in ("index", "experiment", "mechanism", "mix",
                      "metrics", "stats"):
            check(field in rec,
                  f"{jsonl.name}: record lacks '{field}': {raw[:80]}")

    manifest = jsonl.with_suffix(jsonl.suffix + ".manifest")
    check(manifest.is_file(), f"no manifest next to {jsonl.name}")
    if not manifest.is_file():
        return
    rows = load_jsonl(manifest)
    check(len(rows) >= 1, "manifest is empty")
    if not rows:
        return
    header = rows[0][1]
    check(isinstance(header.get("farm"), str),
          "manifest header lacks a 'farm' version string")
    check(isinstance(header.get("spec"), str) and
          re.fullmatch(r"[0-9a-f]{16}", header.get("spec", "")),
          "manifest header 'spec' is not a 16-hex sweep hash")
    check(len(rows) - 1 == len(records),
          f"manifest has {len(rows) - 1} entries for "
          f"{len(records)} records")
    seen = set()
    for pos, (_, entry) in enumerate(rows[1:]):
        idx = entry.get("index")
        check(isinstance(idx, int) and idx not in seen,
              f"manifest entry {pos}: bad or duplicate index {idx!r}")
        seen.add(idx)
        if pos < len(records):
            raw = records[pos][0]
            check(entry.get("line") == fnv1a64(raw.encode()),
                  f"manifest entry {pos}: line hash does not match "
                  f"record {pos}")


def kill_resume_leg(smoke: pathlib.Path, work: pathlib.Path):
    """Kill a sweep mid-flight, resume it, require byte-identity."""
    cache = work / "kill_cache"
    jsonl = work / "kill.jsonl"
    manifest = pathlib.Path(str(jsonl) + ".manifest")
    base = [str(smoke), "--jobs", "1", "--json", str(jsonl),
            "--cache-dir", str(cache)]

    killed = False
    measure = 2_000_000
    for attempt in range(3):
        shutil.rmtree(cache, ignore_errors=True)
        jsonl.unlink(missing_ok=True)
        manifest.unlink(missing_ok=True)
        cmd = base + ["--measure", str(measure)]
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        # Wait for at least one checkpointed point, then SIGKILL.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            if manifest.is_file() and \
                    len(manifest.read_text().splitlines()) >= 2:
                proc.kill()
                proc.wait()
                killed = True
                break
            time.sleep(0.01)
        else:
            proc.kill()
            proc.wait()
        if killed:
            break
        measure *= 2  # sweep finished before the kill landed; slow down

    if not killed:
        print("WARN: never caught the sweep mid-flight; resume leg "
              "degrades to a plain rerun", file=sys.stderr)

    done_before = max(0, len(manifest.read_text().splitlines()) - 1) \
        if manifest.is_file() else 0
    cmd = base + ["--measure", str(measure)]
    resume = run(cmd)
    if killed:
        check(done_before >= 1, "kill landed before any checkpoint")
        check(f"resumed" in resume.stderr,
              "resumed run did not report restored points")

    # Reference: the same sweep uninterrupted, fresh output, no cache
    # (forces recomputation through the simulator, not the cache).
    ref = work / "kill_ref.jsonl"
    run([str(smoke), "--jobs", "1", "--json", str(ref), "--no-cache",
         "--measure", str(measure), "--no-progress"])
    check(jsonl.read_bytes() == ref.read_bytes(),
          "resumed JSONL differs from the uninterrupted run")


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    smoke = pathlib.Path(sys.argv[1]).resolve()
    work = pathlib.Path(sys.argv[2] if len(sys.argv) > 2
                        else "farm_check").resolve()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    cache = work / "cache"
    golden = work / "golden.jsonl"

    # Leg 1: cold sweep, then schema checks on everything it wrote.
    run([str(smoke), "--jobs", "1", "--json", str(golden),
         "--cache-dir", str(cache)])
    entries = check_cache_dir(cache)
    check_jsonl_and_manifest(golden)
    n_records = len(load_jsonl(golden))
    check(entries == n_records,
          f"{entries} cache entries for {n_records} records")

    # Leg 2: warm rerun — all hits, zero misses, identical bytes.
    second = work / "second.jsonl"
    warm = run([str(smoke), "--jobs", "1", "--json", str(second),
                "--cache-dir", str(cache)])
    check(f"{n_records} hits, 0 misses" in warm.stderr,
          f"warm rerun was not all cache hits:\n{warm.stderr[-500:]}")
    check(golden.read_bytes() == second.read_bytes(),
          "warm rerun JSONL differs from the cold run")

    # Leg 3: SIGKILL mid-sweep, resume, byte-identity.
    kill_resume_leg(smoke, work)

    if _failures:
        print(f"\n{len(_failures)} farm check(s) failed",
              file=sys.stderr)
        return 1
    print("farm check: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
