#!/usr/bin/env python3
"""Check that perfbench's result digests match the committed ones.

    python3 tools/check_perfbench_digests.py PERFBENCH [DIGESTS_JSON]
    python3 tools/check_perfbench_digests.py PERFBENCH [DIGESTS_JSON] --write

PERFBENCH is a built perfbench binary (e.g. build-perfbench/perfbench);
DIGESTS_JSON defaults to tools/perfbench_digests.json. For every
workload and seed listed there, the binary runs untraced for one second
(--seconds 1 --trace 0, trace files in a temporary directory) and the
`digest` on its provenance line must equal the committed value. The
digest folds every checked simulation's statistics, so a change that
only makes the host faster leaves it identical; a change to the
simulated machine moves it and must regenerate the file with --write
and justify the diff, as it would the golden suites.

Exit status 0 means every run passed its own checks and every digest
matched.
"""

import json
import pathlib
import subprocess
import sys
import tempfile

DEFAULT_JSON = pathlib.Path(__file__).resolve().parent / \
    "perfbench_digests.json"


def run_digest(binary, workload, seed, trace_dir):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "0", "--trace-dir", trace_dir]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        return None
    for line in out.stdout.splitlines():
        if line.startswith("provenance "):
            return json.loads(line[len("provenance "):])["digest"]
    return None


def main(argv):
    args = [a for a in argv[1:] if a != "--write"]
    write = len(args) != len(argv) - 1
    if len(args) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    binary = args[0]
    path = pathlib.Path(args[1]) if len(args) == 2 else DEFAULT_JSON
    expected = json.loads(path.read_text())

    failures = 0
    actual = {}
    with tempfile.TemporaryDirectory() as trace_dir:
        for workload, seeds in expected.items():
            actual[workload] = {}
            for seed, want in seeds.items():
                got = run_digest(binary, workload, int(seed), trace_dir)
                actual[workload][seed] = got
                ok = got is not None and (write or got == want)
                print(f"{'ok  ' if ok else 'FAIL'} {workload} seed {seed}: "
                      f"{got} (committed {want})")
                failures += not ok

    if write and failures == 0:
        path.write_text(json.dumps(actual, indent=2) + "\n")
        print(f"wrote {path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
