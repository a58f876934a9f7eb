// Package sketch implements the Greenwald–Khanna (GK) quantile sketch used
// to propose candidate splits for histogram-based GBDT (Section 2.1.2 of
// the paper, reference [15]).
//
// The sketch supports streaming insertion, compression to O(1/eps * log(eps*n))
// space, rank queries with eps*n additive error, and merging — the operation
// the distributed sketching step of the horizontal-to-vertical
// transformation relies on (local per-worker sketches of one feature are
// merged into a global sketch, Section 4.2.1 step 1). Merging two sketches
// with errors eps1 and eps2 yields a sketch with error at most eps1+eps2.
//
// Two consumers drive the sketch:
//
//   - Canonical builds one sketch per feature by inserting values in
//     global row order, making candidate splits independent of how the
//     matrix is partitioned — the property every cross-quadrant
//     bit-identity guarantee in this repository rests on.
//   - internal/ingest sketches the columns of the parsed matrix in
//     parallel to derive the bin boundaries stored in a .vbin cache. A
//     summary depends only on the order of its own feature's values, and
//     a transposed column keeps global row order, so each column can be
//     sketched on its own (Column, which Canonical shares) and the
//     parallel pass reproduces Canonical's splits exactly.
//
// Flushing the insert buffer merges into a spare tuple slice that swaps
// with the live one, so a warm Add allocates nothing.
package sketch
