"""A miniature CAP3-style DNA sequence assembler.

Implements the pipeline the paper describes for CAP3 (Huang & Madan 1999)
at reduced scale but with every stage real:

1. **poor-region trimming** — clip low-quality ends (``N`` runs and
   lowercase bases, the conventional soft-mask for poor quality);
2. **overlap computation** — k-mer seeded suffix/prefix overlap detection
   between all read pairs, verified by vectorized identity scoring;
3. **false-overlap removal** — overlaps below the identity/score
   thresholds are rejected;
4. **layout** — greedy merging of the highest-scoring overlaps into
   read chains (contigs), avoiding branches and cycles; contained reads
   attach inside their container;
5. **consensus** — per-column majority vote over the layout produces the
   contig sequence.

The run time is genuinely content-dependent (overlap-dense files take
longer), which is exactly the inhomogeneity property the paper's
load-balancing experiments rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.apps.fasta import FastaRecord

__all__ = [
    "AssemblyResult",
    "Cap3Params",
    "Contig",
    "Overlap",
    "assemble",
    "reverse_complement",
    "trim_read",
]

_BASES = "ACGTN"
_BASE_INDEX = {base: i for i, base in enumerate(_BASES)}
_BASE_SET = frozenset(_BASES)
_COMPLEMENT = str.maketrans("ACGTN", "TGCAN")
# Byte-level complement table for encoded arrays.
_COMPLEMENT_BYTES = np.arange(256, dtype=np.uint8)
for _src, _dst in zip(b"ACGTN", b"TGCAN"):
    _COMPLEMENT_BYTES[_src] = _dst


def reverse_complement(seq: str) -> str:
    """The reverse complement of a DNA sequence (N maps to N)."""
    return seq.translate(_COMPLEMENT)[::-1]


def _rc_array(arr: np.ndarray) -> np.ndarray:
    """Reverse complement of an encoded read."""
    return _COMPLEMENT_BYTES[arr][::-1]


@dataclass(frozen=True)
class Cap3Params:
    """Assembly thresholds (defaults loosely follow CAP3's)."""

    min_overlap: int = 30
    min_identity: float = 0.9
    kmer_size: int = 12
    seed_stride: int = 8  # spacing of seed probes along a read prefix
    max_seed_span: int = 64  # how deep into the prefix we look for seeds
    min_read_length: int = 40
    mismatch_penalty: float = 2.0
    handle_reverse_complements: bool = True

    def __post_init__(self) -> None:
        if self.min_overlap < self.kmer_size:
            raise ValueError("min_overlap must be >= kmer_size")
        if not 0.5 <= self.min_identity <= 1.0:
            raise ValueError("min_identity must be in [0.5, 1.0]")
        if self.kmer_size < 4:
            raise ValueError("kmer_size must be >= 4")
        if self.seed_stride < 1:
            raise ValueError("seed_stride must be >= 1")


@dataclass(frozen=True)
class Overlap:
    """A validated alignment of read ``b`` against read ``a``.

    ``a_start`` is the position in ``a`` where ``b`` begins.  When
    ``contained`` is True the whole of ``b`` lies within ``a``;
    otherwise this is a proper suffix(a)/prefix(b) overlap of
    ``length`` bases.
    """

    a: int
    b: int
    a_start: int
    length: int
    identity: float
    score: float
    contained: bool = False


@dataclass
class Contig:
    """An assembled contig: consensus plus its read layout.

    ``strands`` records each read's orientation in the layout: ``'+'``
    (as given) or ``'-'`` (reverse-complemented before placement).
    ``coverage`` is the per-consensus-position read depth.
    """

    id: str
    seq: str
    reads: list[tuple[str, int]] = field(default_factory=list)  # (read id, offset)
    strands: dict[str, str] = field(default_factory=dict)
    coverage: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int32))

    def __len__(self) -> int:
        return len(self.seq)

    def mean_coverage(self) -> float:
        """Average read depth over the consensus (0.0 if empty)."""
        return float(self.coverage.mean()) if len(self.coverage) else 0.0

    def min_coverage(self) -> int:
        """Weakest-link depth — 1 flags unconfirmed single-read spans."""
        return int(self.coverage.min()) if len(self.coverage) else 0


@dataclass
class AssemblyResult:
    """Output of :func:`assemble`."""

    contigs: list[Contig]
    singletons: list[FastaRecord]
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def n50(self) -> int:
        """Contig N50 (0 when there are no contigs)."""
        lengths = sorted((len(c) for c in self.contigs), reverse=True)
        if not lengths:
            return 0
        half = sum(lengths) / 2.0
        acc = 0
        for length in lengths:
            acc += length
            if acc >= half:
                return length
        return lengths[-1]


def trim_read(record: FastaRecord, min_length: int) -> FastaRecord | None:
    """Clip poor-quality ends; return None if too little survives.

    Poor quality is marked as ``N`` bases or lowercase (soft-masked)
    bases at either end of the read.  Interior soft-masked bases are
    uppercased and kept, matching CAP3's treatment of marginal calls;
    interior non-ACGT characters become ``N``.
    """
    seq = record.seq
    start, end = 0, len(seq)
    while start < end and (seq[start] in "Nn" or seq[start].islower()):
        start += 1
    while end > start and (seq[end - 1] in "Nn" or seq[end - 1].islower()):
        end -= 1
    trimmed = seq[start:end].upper()
    if len(trimmed) < min_length:
        return None
    if not _BASE_SET.issuperset(trimmed):
        trimmed = "".join(
            base if base in _BASE_INDEX else "N" for base in trimmed
        )
    return FastaRecord(id=record.id, seq=trimmed, description=record.description)


def _encode(seq: str) -> np.ndarray:
    """Sequence as a byte array for vectorized comparisons."""
    return np.frombuffer(seq.encode("ascii"), dtype=np.uint8)


# Base-5 digit per ACGTN byte, for packed k-mer codes.
_KMER_DIGIT = np.zeros(256, dtype=np.int64)
for _i, _b in enumerate(b"ACGTN"):
    _KMER_DIGIT[_b] = _i
# Largest k whose base-5 codes fit in an int64 (5**27 < 2**63).
_MAX_PACKED_K = 27
# Consensus column per byte: ACGTN in order, anything else counts as N.
_BASE_CODE = np.full(256, _BASE_INDEX["N"], dtype=np.int64)
for _base, _i in _BASE_INDEX.items():
    _BASE_CODE[ord(_base)] = _i


def _packed_codes(arr: np.ndarray, k: int) -> np.ndarray:
    """Base-5 int64 code of every k-window of ``arr`` (k <= 27)."""
    digits = _KMER_DIGIT[arr]
    n_windows = len(arr) - k + 1
    codes = np.zeros(n_windows, dtype=np.int64)
    for j in range(k):  # Horner's rule, one digit column at a time
        codes = codes * 5 + digits[j : j + n_windows]
    return codes


def _seed_keys(arr: np.ndarray, k: int) -> list:
    """Hashable key for every k-mer window of an encoded read.

    Windows are packed into base-5 integers in one vectorized matmul —
    injective for the post-trim ACGTN alphabet, so the codes stand in
    for the byte substrings the scalar version sliced out one by one.
    Falls back to byte slicing for k too large to pack into an int64.
    """
    if len(arr) < k:
        return []
    if k <= _MAX_PACKED_K:
        return _packed_codes(arr, k).tolist()
    seq_bytes = arr.tobytes()
    return [
        seq_bytes[pos : pos + k] for pos in range(len(seq_bytes) - k + 1)
    ]


def _window_ids(
    concat: np.ndarray, starts: np.ndarray, k: int
) -> np.ndarray:
    """An int64 id per k-window of ``concat`` beginning at ``starts``.

    Windows get equal ids exactly when :func:`_seed_keys` gives them
    equal keys: packed codes up to k = 27, dense ids from sorting the
    raw window bytes beyond.
    """
    if not len(starts):
        return np.zeros(0, dtype=np.int64)
    if k <= _MAX_PACKED_K:
        return _packed_codes(concat, k)[starts]
    windows = sliding_window_view(concat, k)[starts]
    return np.unique(windows, axis=0, return_inverse=True)[1].ravel()


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0..count-1 for each group, concatenated (the inverse of np.repeat)."""
    offsets = np.cumsum(counts) - counts
    return np.arange(counts.sum()) - np.repeat(offsets, counts)


def _first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Index of each distinct key's first occurrence, in input order."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    return np.sort(order[starts])


def _score(matches, length, params: Cap3Params):
    """(identity, score) of an ungapped placement; scalars or arrays."""
    identity = matches / length
    score = matches - params.mismatch_penalty * (length - matches)
    return identity, score


def _verify_overlap(
    a_idx: int,
    b_idx: int,
    a_arr: np.ndarray,
    b_arr: np.ndarray,
    a_start: int,
    params: Cap3Params,
) -> Overlap | None:
    """Score the alignment of ``b`` against ``a`` starting at ``a_start``."""
    length = min(len(a_arr) - a_start, len(b_arr))
    if length < params.min_overlap:
        return None
    a_slice = a_arr[a_start : a_start + length]
    b_slice = b_arr[:length]
    matches = int((a_slice == b_slice).sum())
    identity, score = _score(matches, length, params)
    if identity < params.min_identity:
        return None
    contained = (a_start + len(b_arr)) <= len(a_arr)
    return Overlap(
        a=a_idx,
        b=b_idx,
        a_start=a_start,
        length=length,
        identity=identity,
        score=score,
        contained=contained,
    )


def _placements(
    arrays: list[np.ndarray], params: Cap3Params, both_strands: bool
) -> tuple[int, tuple[np.ndarray, ...]]:
    """Every distinct seeded placement of one read on another, scored.

    One index holds every k-window of the forward reads, stably sorted
    by id so each k-mer's postings keep ``(read, position)`` order.
    Each read (and, with ``both_strands``, its reverse complement)
    probes it with the seeds ``s = 0, stride, …`` below
    ``max_seed_span``; a hit at ``a[a_pos]`` places it at ``a_start =
    a_pos - s``.  Self hits, ``a_start < 0`` in the forward-only pass
    and repeats of ``(a, a_start)`` per probe read are dropped.  All
    placements are scored in one gather over a padded read matrix.

    Returns the placement count and, for the accepted placements in
    probe order (read, forward before reverse complement, seed,
    posting), ``(a, b, a_start, same_strand, length, identity, score)``.
    """
    k = params.kmer_size
    n = len(arrays)
    seqs = list(arrays)
    if both_strands:
        seqs += [_rc_array(arr) for arr in arrays]  # row n + b is b's rc
    rows = np.arange(len(seqs))
    lengths = np.array([len(arr) for arr in seqs], dtype=np.int64)
    n_windows = np.maximum(lengths - k + 1, 0)
    first_window = np.cumsum(n_windows) - n_windows
    # The empty leading array keeps np.concatenate working with no reads.
    concat = np.concatenate([np.zeros(0, dtype=np.uint8), *seqs])
    window_row = np.repeat(rows, n_windows)
    window_pos = _ranks(n_windows)
    ids = _window_ids(
        concat, (np.cumsum(lengths) - lengths)[window_row] + window_pos, k
    )

    indexed = int(n_windows[:n].sum())  # the forward reads' windows
    postings = np.argsort(ids[:indexed], kind="stable")
    sorted_ids = ids[:indexed][postings]

    # Each read's forward row, then (both strands) its rc row.
    probe_rows = rows.reshape(-1, n).T.ravel() if n else rows
    span = np.minimum(n_windows[probe_rows], max(params.max_seed_span, 0))
    n_probes = -(-span // params.seed_stride)
    probe_row = np.repeat(probe_rows, n_probes)
    probe_s = _ranks(n_probes) * params.seed_stride
    probe_ids = ids[first_window[probe_row] + probe_s]
    lo = np.searchsorted(sorted_ids, probe_ids, side="left")
    hits = np.searchsorted(sorted_ids, probe_ids, side="right") - lo
    probe = np.repeat(np.arange(len(probe_row)), hits)
    posting = postings[lo[probe] + _ranks(hits)]

    b_row = probe_row[probe]
    b = np.where(b_row < n, b_row, b_row - n)
    a = window_row[posting]
    a_start = window_pos[posting] - probe_s[probe]
    keep = a != b
    if not both_strands:
        keep &= a_start >= 0
    b_row, b, a, a_start = b_row[keep], b[keep], a[keep], a_start[keep]
    reach = int(lengths.max(initial=0))
    distinct = _first_occurrences(
        (b_row * n + a) * (2 * reach + 1) + a_start + reach
    )
    b_row, b, a, a_start = (x[distinct] for x in (b_row, b, a, a_start))
    candidates = len(a)

    a_off = np.maximum(a_start, 0)
    b_off = a_off - a_start
    length = np.minimum(lengths[a] - a_off, lengths[b_row] - b_off)
    width = int(length.max(initial=1))
    padded = np.zeros((len(seqs), reach + width), dtype=np.uint8)
    padded[np.repeat(rows, lengths), _ranks(lengths)] = concat
    columns = sliding_window_view(padded, width, axis=1)
    agree = columns[a, a_off] == columns[b_row, b_off]
    agree &= np.arange(width) < length[:, None]
    matches = np.count_nonzero(agree, axis=1)
    identity, score = _score(matches, length, params)
    ok = (length >= params.min_overlap) & (identity >= params.min_identity)
    return candidates, tuple(
        x[ok] for x in (a, b, a_start, b_row < n, length, identity, score)
    )


def _find_overlaps(
    arrays: list[np.ndarray], params: Cap3Params
) -> tuple[list[Overlap], int]:
    """All accepted pairwise overlaps via k-mer seeding.

    Returns the best overlap per ordered read pair (highest score, the
    earliest placement among ties), ordered by each pair's first
    accepted placement, and the number of candidate placements examined
    (a work measure the performance-model calibration uses).
    """
    candidates, (a, b, a_start, _, length, identity, score) = _placements(
        arrays, params, both_strands=False
    )
    pair = a * len(arrays) + b
    ranked = np.lexsort((-score, pair))  # stable: ties keep probe order
    leaders = ranked[_first_occurrences(pair[ranked])]
    first_accepted = pair[_first_occurrences(pair)]
    best = leaders[np.searchsorted(pair[leaders], first_accepted)]
    lengths = np.array([len(arr) for arr in arrays], dtype=np.int64)
    contained = a_start + lengths[b] <= lengths[a]
    fields = (a, b, a_start, length, identity, score, contained)
    rows = zip(*(x[best].tolist() for x in fields))
    return [Overlap(*row) for row in rows], candidates


def _orientation_edges(
    arrays: list[np.ndarray], params: Cap3Params
) -> list[tuple[int, int, bool]]:
    """Pairwise orientation constraints from both-strand seeding.

    Probes each read's prefix in forward *and* reverse-complement
    orientation against the forward index; an accepted placement yields
    an edge ``(a, b, same_orientation)``.
    """
    _, (a, b, _, same, *_) = _placements(arrays, params, both_strands=True)
    return list(zip(a.tolist(), b.tolist(), same.tolist()))


def _resolve_orientations(
    n_reads: int, edges: list[tuple[int, int, bool]]
) -> tuple[list[bool], int]:
    """2-colour the parity graph: flip[i] says read i should be
    reverse-complemented.  Conflicting edges (odd cycles from chimeric
    overlaps) are counted and ignored."""
    adjacency: dict[int, list[tuple[int, bool]]] = {}
    for a, b, same in edges:
        adjacency.setdefault(a, []).append((b, same))
        adjacency.setdefault(b, []).append((a, same))
    flip = [False] * n_reads
    visited = [False] * n_reads
    conflicts = 0
    for start in range(n_reads):
        if visited[start]:
            continue
        visited[start] = True
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbour, same in adjacency.get(node, ()):  # noqa: B023
                wanted = flip[node] if same else not flip[node]
                if not visited[neighbour]:
                    visited[neighbour] = True
                    flip[neighbour] = wanted
                    frontier.append(neighbour)
                elif flip[neighbour] != wanted:
                    conflicts += 1
    return flip, conflicts


def _greedy_layout(
    read_lengths: list[int], overlaps: list[Overlap]
) -> tuple[list[list[tuple[int, int]]], set[int]]:
    """Chain reads through their best overlaps.

    Returns ``(chains, used)``: each chain is a list of ``(read index,
    offset)`` in layout coordinates, and ``used`` is the set of placed
    read indices (including contained reads attached in a second pass).
    """
    n_reads = len(read_lengths)
    ranked = sorted(overlaps, key=lambda o: (-o.score, o.a, o.b))

    right_of: dict[int, tuple[int, int]] = {}  # a -> (b, a_start of b)
    left_taken: set[int] = set()
    parent = list(range(n_reads))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ov in ranked:
        if ov.contained:
            continue
        if ov.a in right_of or ov.b in left_taken:
            continue
        if find(ov.a) == find(ov.b):
            continue  # would close a cycle
        right_of[ov.a] = (ov.b, ov.a_start)
        left_taken.add(ov.b)
        parent[find(ov.a)] = find(ov.b)

    chains: list[list[tuple[int, int]]] = []
    used: set[int] = set()
    offsets: dict[int, int] = {}
    chain_of: dict[int, int] = {}
    for head in range(n_reads):
        if head in left_taken or head not in right_of:
            continue
        chain: list[tuple[int, int]] = []
        offset = 0
        current: int | None = head
        while current is not None:
            chain.append((current, offset))
            used.add(current)
            offsets[current] = offset
            chain_of[current] = len(chains)
            nxt = right_of.get(current)
            if nxt is None:
                break
            successor, a_start = nxt
            offset += a_start
            current = successor
        chains.append(chain)

    # Second pass: attach contained reads inside their container.  A
    # container that joined no chain (e.g. identical duplicate reads,
    # pure-containment clusters) starts a fresh single-read chain first.
    for ov in ranked:
        if not ov.contained or ov.b in used:
            continue
        if ov.a not in used:
            if ov.a in left_taken or ov.a in right_of:
                continue  # shouldn't happen, but never split a chain
            chains.append([(ov.a, 0)])
            used.add(ov.a)
            offsets[ov.a] = 0
            chain_of[ov.a] = len(chains) - 1
        b_offset = offsets[ov.a] + ov.a_start
        chains[chain_of[ov.a]].append((ov.b, b_offset))
        used.add(ov.b)
        offsets[ov.b] = b_offset
        chain_of[ov.b] = chain_of[ov.a]
    return chains, used


def _consensus(
    chain: list[tuple[int, int]], arrays: list[np.ndarray]
) -> tuple[str, np.ndarray]:
    """Majority vote per column; returns (consensus, coverage depth)."""
    total_len = max(offset + len(arrays[idx]) for idx, offset in chain)
    columns = np.concatenate(
        [np.arange(offset, offset + len(arrays[idx])) for idx, offset in chain]
    )
    codes = _BASE_CODE[np.concatenate([arrays[idx] for idx, _ in chain])]
    counts = np.bincount(
        columns * len(_BASES) + codes, minlength=total_len * len(_BASES)
    ).reshape(total_len, len(_BASES))
    coverage = counts.sum(axis=1).astype(np.int32)
    # Real bases out-vote N wherever any read has coverage.
    counts[:, _BASE_INDEX["N"]] -= 1
    winners = counts.argmax(axis=1)
    consensus = (
        np.frombuffer(_BASES.encode("ascii"), dtype=np.uint8)[winners]
        .tobytes()
        .decode("ascii")
    )
    return consensus, coverage


def assemble(
    records: list[FastaRecord], params: Cap3Params | None = None
) -> AssemblyResult:
    """Assemble ``records`` into contigs.

    The full CAP3-style pipeline: trim, overlap, filter, layout,
    consensus.  Reads that join no contig are returned as singletons.
    """
    params = params or Cap3Params()
    stats: dict[str, float] = {"reads_in": len(records)}

    trimmed: list[FastaRecord] = []
    dropped = 0
    for record in records:
        kept = trim_read(record, params.min_read_length)
        if kept is None:
            dropped += 1
        else:
            trimmed.append(kept)
    stats["reads_dropped_in_trim"] = dropped
    stats["reads_after_trim"] = len(trimmed)

    arrays = [_encode(r.seq) for r in trimmed]

    # Orientation resolution: shotgun reads arrive on both strands.  A
    # 2-colouring of the overlap parity graph flips reads into one
    # consistent orientation before the forward-only pipeline runs.
    flips = [False] * len(arrays)
    if params.handle_reverse_complements and arrays:
        edges = _orientation_edges(arrays, params)
        flips, conflicts = _resolve_orientations(len(arrays), edges)
        stats["orientation_conflicts"] = conflicts
        stats["reads_flipped"] = sum(flips)
        arrays = [
            _rc_array(arr) if flipped else arr
            for arr, flipped in zip(arrays, flips)
        ]

    overlaps, candidates = _find_overlaps(arrays, params)
    stats["overlap_candidates"] = candidates
    stats["overlaps_accepted"] = len(overlaps)

    chains, used = _greedy_layout([len(a) for a in arrays], overlaps)

    contigs: list[Contig] = []
    for n, chain in enumerate(chains, start=1):
        seq, coverage = _consensus(chain, arrays)
        contigs.append(
            Contig(
                id=f"Contig{n}",
                seq=seq,
                reads=[(trimmed[idx].id, offset) for idx, offset in chain],
                strands={
                    trimmed[idx].id: "-" if flips[idx] else "+"
                    for idx, _ in chain
                },
                coverage=coverage,
            )
        )
    singletons = [trimmed[i] for i in range(len(trimmed)) if i not in used]
    stats["contigs"] = len(contigs)
    stats["singletons"] = len(singletons)
    stats["contig_bases"] = sum(len(c) for c in contigs)
    return AssemblyResult(contigs=contigs, singletons=singletons, stats=stats)
