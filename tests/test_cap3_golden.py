"""Byte-identity golden for the Cap3 executable.

Eight seeded read files (both strands, soft-masked ends, varying read
counts and lengths) are assembled by ``Cap3Executable`` and the SHA-256
of every output file is compared against digests recorded before the
overlap pipeline was vectorized.  Any change to trimming, overlap
discovery, orientation, layout or consensus that alters a single output
byte fails here.

Regenerate (only on a deliberate output change) with::

    PYTHONPATH=src python tests/test_cap3_golden.py
"""

import hashlib

import numpy as np
import pytest

from repro.apps.executables import Cap3Executable
from repro.apps.fasta import write_fasta
from repro.workloads.genome import generate_read_records

# (input sha256, output sha256) per file index.
GOLDEN = [
    (
        "35389dfec9fd6448298e65f448660385924f70d953c5ccaf9cb318c5ecc981fd",
        "691d5d4c4278510298c0a4477e3de4e9911e9242ec8812c14c4979528695c468",
    ),
    (
        "e01cd20638e1ca0b5e01effb67f5a13a27e3e7aad5cff69f29d4bf53e7af8153",
        "d456d6cc0843d94cad31db074f80c49832790adb823e7e5753d566f3e6c2280d",
    ),
    (
        "5076e1ca0c1cdd15e2d9fd0228e92edd21600bbbd3bbd98c811b6ce82389c828",
        "c5d8dec4a3b01284dfc8708f6fb671e813cbf858870aace32da2b9ff8dce6575",
    ),
    (
        "8e46199a28eb0ed3573d82c777a5e0ac13bd9bb32002b75c7793778751979e51",
        "a6e388078d5969cbef51bdb66699bb0b5dda1c9714ae7281fd828e06885bff67",
    ),
    (
        "656438cf3507394bef71597eca0bae171549e0a7a509a8c08222e78c4004fef8",
        "811cadb729d0927e64b50155e435f6fbeceace2c001611cb308406ec51372b3a",
    ),
    (
        "50eefe388e93265c93bc6b659ff2df240178fba05b07367fb5c79abc535f4745",
        "f2bc7c3ea8fa77062e9a9992fd57a564626d14c8685ef2d007da69c1e0902f06",
    ),
    (
        "f6b882292676bb82055bb808b687b341f17a172b0407142b57c0f2b2899d4347",
        "b65c09476f4e9d1ba6c5dd09f40672303f01cbb3374360cc11351b5c39632fe4",
    ),
    (
        "42992e264c4cd48c727b9031188a05d36c8529785a504a578f47471d2de135db",
        "21c694b4f65e4567d1e972e9f27e4175442b04030e821ce7f07af525d349bb2e",
    ),
]


def _write_input(index, path):
    records = generate_read_records(
        24 + 8 * index,
        read_length=120 + 20 * index,
        poor_end_fraction=0.5,
        both_strands=True,
        rng=np.random.default_rng([2010, index]),
    )
    write_fasta(records, path)


def _digests(index, tmp_dir):
    source = tmp_dir / f"in{index}.fa"
    target = tmp_dir / f"out{index}.fa"
    _write_input(index, source)
    Cap3Executable().run(source, target)
    return tuple(
        hashlib.sha256(p.read_bytes()).hexdigest() for p in (source, target)
    )


@pytest.mark.parametrize("index", range(len(GOLDEN)))
def test_cap3_output_matches_golden(index, tmp_path):
    want_in, want_out = GOLDEN[index]
    got_in, got_out = _digests(index, tmp_path)
    assert got_in == want_in, "input generator drifted"
    assert got_out == want_out


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as scratch:
        for i in range(8):
            print(f"    {_digests(i, Path(scratch))!r},")
