"""Regenerate ``cap3_digests.json``: the local_cap3 pool's reference digests.

For every pool file this writes the SHA-256 of the generated FASTA input
and of the Cap3 output, assembled by ``Cap3Executable`` directly on one
thread (no framework, no store).  The benchmark checks every output the
framework uploads against these, for any seed.

Run from the repository root, only when the pool definition in
``workloads.py`` changes on purpose::

    python3 repobench/make_digests.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (after the path set-up)


def main() -> int:
    from repro.apps.executables import Cap3Executable
    from repro.apps.fasta import write_fasta

    executable = Cap3Executable()
    inputs, outputs = [], []
    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        source = Path(scratch) / "in.fa"
        target = Path(scratch) / "out.fa"
        for j in range(workloads.POOL_SIZE):
            write_fasta(workloads.pool_records(j), source)
            executable.run(source, target)
            inputs.append(workloads.sha256_file(source))
            outputs.append(workloads.sha256_file(target))
    document = {
        "pool_key": workloads.POOL_KEY,
        "reads_per_file": workloads.READS_PER_FILE,
        "read_length": workloads.READ_LENGTH,
        "inputs": inputs,
        "outputs": outputs,
    }
    workloads.DIGESTS_PATH.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {len(outputs)} digests to {workloads.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
