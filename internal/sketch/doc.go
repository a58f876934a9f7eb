// Package sketch implements the Greenwald–Khanna (GK) quantile sketch used
// to propose candidate splits for histogram-based GBDT (Section 2.1.2 of
// the paper, reference [15]).
//
// The sketch supports streaming insertion, compression to O(1/eps * log(eps*n))
// space and rank queries with eps*n additive error.
//
// Canonical is the one pass that derives candidate splits: one sketch
// per column of a column-major matrix, values inserted in global row
// order, which makes the splits independent of how the matrix is
// partitioned — the property every cross-quadrant bit-identity guarantee
// in this repository rests on. A summary depends only on the order of its
// own feature's values, so the columns are sketched in parallel. Cold
// ingestion (internal/ingest), the trainer's sketch phase
// (internal/core) and the horizontal-to-vertical transformation
// (internal/partition) all call it. Local builds a worker's per-feature
// sketches of its row range; the trainer and the transformation use
// their sizes to price the sketch exchange (Section 4.2.1 step 1).
//
// Flushing the insert buffer merges into a spare tuple slice that swaps
// with the live one, so a warm Add allocates nothing.
package sketch
