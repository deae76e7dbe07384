"""Tests for the miniature CAP3 assembler."""

import numpy as np
import pytest

from repro.apps.cap3 import (
    AssemblyResult,
    Cap3Params,
    assemble,
    trim_read,
)
from repro.apps.fasta import FastaRecord


def make_reads_from_genome(genome, read_len=100, step=50, error_rate=0.0, seed=0):
    """Tile a genome with overlapping reads (50% overlap by default)."""
    rng = np.random.default_rng(seed)
    bases = "ACGT"
    reads = []
    for n, start in enumerate(range(0, len(genome) - read_len + 1, step)):
        seq = list(genome[start : start + read_len])
        if error_rate:
            for i in range(len(seq)):
                if rng.random() < error_rate:
                    seq[i] = bases[rng.integers(4)]
        reads.append(FastaRecord(id=f"read{n}", seq="".join(seq)))
    return reads


def random_genome(length, seed=0):
    rng = np.random.default_rng(seed)
    return "".join("ACGT"[i] for i in rng.integers(0, 4, size=length))


class TestTrimming:
    def test_trims_leading_and_trailing_ns(self):
        r = FastaRecord(id="x", seq="NNN" + "ACGT" * 15 + "NN")
        trimmed = trim_read(r, min_length=40)
        assert trimmed.seq == "ACGT" * 15

    def test_trims_lowercase_soft_masked_ends(self):
        r = FastaRecord(id="x", seq="acgt" + "ACGT" * 15 + "tt")
        trimmed = trim_read(r, min_length=40)
        assert trimmed.seq == "ACGT" * 15

    def test_interior_lowercase_kept_and_uppercased(self):
        core = "ACGT" * 10 + "acgt" + "ACGT" * 10
        r = FastaRecord(id="x", seq=core)
        trimmed = trim_read(r, min_length=40)
        assert trimmed.seq == core.upper()

    def test_too_short_after_trim_returns_none(self):
        r = FastaRecord(id="x", seq="NNNNACGTACGTNNNN")
        assert trim_read(r, min_length=40) is None

    def test_interior_unknown_bases_become_n(self):
        seq = "ACGT" * 10 + "X" + "ACGT" * 10
        r = FastaRecord(id="x", seq=seq)
        trimmed = trim_read(r, min_length=40)
        assert "X" not in trimmed.seq
        assert trimmed.seq.count("N") == 1


    @pytest.mark.parametrize(
        "core, expected",
        [
            # IUPAC ambiguity codes inside the read become N.
            ("RYKMSWBDHV", "NNNNNNNNNN"),
            # Soft-masked interior bases are uppercased, unknown ones
            # (lowercase IUPAC included) become N.
            ("acgtn", "ACGTN"),
            ("ryN-*.x", "NNNNNNN"),
            # Non-ASCII letters are not bases either.
            ("\u00c5\u00e9", "NN"),
        ],
    )
    def test_interior_codes_map_exactly(self, core, expected):
        flank = "ACGT" * 5
        r = FastaRecord(id="x", seq="nn" + flank + core + flank + "ac")
        trimmed = trim_read(r, min_length=10)
        assert trimmed.seq == flank + expected + flank

    def test_clean_read_is_passed_through_uppercased(self):
        r = FastaRecord(id="x", seq="ACGTNacgtnACGT", description="d")
        trimmed = trim_read(r, min_length=4)
        assert trimmed == FastaRecord(id="x", seq="ACGTNACGTNACGT", description="d")


class TestAssembly:
    def test_perfect_overlapping_reads_assemble_into_one_contig(self):
        genome = random_genome(500, seed=1)
        reads = make_reads_from_genome(genome, read_len=100, step=50)
        result = assemble(reads)
        assert len(result.contigs) == 1
        assert result.singletons == []
        # The consensus must reconstruct the genome exactly.
        assert result.contigs[0].seq == genome

    def test_reads_with_errors_still_assemble(self):
        genome = random_genome(600, seed=2)
        reads = make_reads_from_genome(
            genome, read_len=120, step=60, error_rate=0.01, seed=3
        )
        result = assemble(reads)
        assert len(result.contigs) == 1
        contig = result.contigs[0].seq
        assert len(contig) == len(genome)
        # Coverage-2 majority voting cannot fix every error, but the
        # consensus must be close.
        matches = sum(a == b for a, b in zip(contig, genome))
        assert matches / len(genome) > 0.98

    def test_disjoint_genomes_form_separate_contigs(self):
        genome_a = random_genome(400, seed=4)
        genome_b = random_genome(400, seed=5)
        reads = make_reads_from_genome(genome_a, seed=6)
        reads_b = make_reads_from_genome(genome_b, seed=7)
        reads_b = [
            FastaRecord(id=f"b_{r.id}", seq=r.seq) for r in reads_b
        ]
        result = assemble(reads + reads_b)
        assert len(result.contigs) == 2
        assembled = {c.seq for c in result.contigs}
        assert genome_a in assembled
        assert genome_b in assembled

    def test_unrelated_reads_stay_singletons(self):
        reads = [
            FastaRecord(id=f"r{i}", seq=random_genome(80, seed=100 + i))
            for i in range(5)
        ]
        result = assemble(reads)
        assert result.contigs == []
        assert len(result.singletons) == 5

    def test_contained_read_attaches_to_container(self):
        genome = random_genome(300, seed=8)
        container = FastaRecord(id="big", seq=genome[0:200])
        contained = FastaRecord(id="small", seq=genome[50:150])
        extender = FastaRecord(id="ext", seq=genome[150:300])
        result = assemble([container, contained, extender])
        placed = {rid for c in result.contigs for rid, _ in c.reads}
        assert "small" in placed
        assert result.singletons == []

    def test_layout_offsets_are_consistent(self):
        genome = random_genome(500, seed=9)
        reads = make_reads_from_genome(genome, read_len=100, step=50)
        result = assemble(reads)
        (contig,) = result.contigs
        for read_id, offset in contig.reads:
            idx = int(read_id.removeprefix("read"))
            assert offset == idx * 50

    def test_coverage_track(self):
        """50%-overlap tiling: depth 2 in the interior, 1 at the ends."""
        genome = random_genome(500, seed=15)
        reads = make_reads_from_genome(genome, read_len=100, step=50)
        (contig,) = assemble(reads).contigs
        assert len(contig.coverage) == len(contig.seq)
        assert contig.coverage[0] == 1  # only the first read covers pos 0
        assert contig.coverage[250] == 2  # interior: two reads deep
        assert contig.min_coverage() == 1
        assert 1.5 < contig.mean_coverage() < 2.0

    def test_stats_populated(self):
        genome = random_genome(400, seed=10)
        reads = make_reads_from_genome(genome)
        result = assemble(reads)
        stats = result.stats
        assert stats["reads_in"] == len(reads)
        assert stats["reads_after_trim"] == len(reads)
        assert stats["overlaps_accepted"] > 0
        assert stats["contigs"] == 1
        assert stats["contig_bases"] == len(genome)

    def test_empty_input(self):
        result = assemble([])
        assert result.contigs == []
        assert result.singletons == []
        assert result.stats["reads_in"] == 0

    def test_deterministic(self):
        genome = random_genome(500, seed=11)
        reads = make_reads_from_genome(genome, error_rate=0.01, seed=12)
        first = assemble(reads)
        second = assemble(reads)
        assert [c.seq for c in first.contigs] == [c.seq for c in second.contigs]
        assert [s.id for s in first.singletons] == [
            s.id for s in second.singletons
        ]

    def test_n50(self):
        result = AssemblyResult(
            contigs=[], singletons=[], stats={}
        )
        assert result.n50 == 0
        from repro.apps.cap3 import Contig

        result = AssemblyResult(
            contigs=[
                Contig(id="c1", seq="A" * 100),
                Contig(id="c2", seq="A" * 300),
                Contig(id="c3", seq="A" * 50),
            ],
            singletons=[],
        )
        # Total 450; half 225; longest (300) already covers it.
        assert result.n50 == 300


class TestParams:
    def test_min_overlap_vs_kmer_validation(self):
        with pytest.raises(ValueError):
            Cap3Params(min_overlap=8, kmer_size=12)

    def test_identity_bounds(self):
        with pytest.raises(ValueError):
            Cap3Params(min_identity=0.3)
        with pytest.raises(ValueError):
            Cap3Params(min_identity=1.1)

    def test_kmer_minimum(self):
        with pytest.raises(ValueError):
            Cap3Params(kmer_size=2, min_overlap=30)

    def test_stride_minimum(self):
        with pytest.raises(ValueError):
            Cap3Params(seed_stride=0)

    def test_higher_identity_threshold_rejects_noisy_overlaps(self):
        genome = random_genome(400, seed=13)
        reads = make_reads_from_genome(
            genome, read_len=100, step=50, error_rate=0.06, seed=14
        )
        strict = assemble(reads, Cap3Params(min_identity=0.99))
        lenient = assemble(reads, Cap3Params(min_identity=0.85))
        assert (
            strict.stats["overlaps_accepted"]
            <= lenient.stats["overlaps_accepted"]
        )
