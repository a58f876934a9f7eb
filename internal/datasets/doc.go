// Package datasets provides the training data used across the
// reproduction: the paper's synthetic generator (Section 5.2), scaled-down
// simulacra of its public and industrial datasets (Table 2, Section 6),
// and a LibSVM writer.
//
// The paper generates synthetic data "from random linear regression
// models": a weight matrix W of size D x C with an informative fraction p
// of nonzero rows; each instance is a random D-dimensional vector with
// density phi, and its label is argmax(x^T W). The same process is
// reproduced here with deterministic seeding.
//
// A Dataset couples a sparse feature matrix (see package sparse) with
// labels. Datasets come from four sources:
//
//   - Synthetic / SyntheticRegression — the paper's generator;
//   - Load — a named simulacrum of one of the paper's datasets;
//   - package ingest — the one parser: chunked, parallel parsing of
//     LibSVM or CSV sources with an optional binned binary cache (.vbin).
//     The single-threaded LibSVM parser that used to live here is now
//     test code in ingest, the referee its parser is fuzzed against.
//
// WriteLibSVM writes a Dataset back out as LibSVM text.
//
// A Dataset optionally carries a Prebin: candidate split points and
// per-feature value counts derived during ingestion. The trainer adopts a
// matching Prebin instead of re-sketching, which is what lets a warm
// .vbin cache skip the parse and bin phases entirely while still growing
// bit-identical trees (see internal/ingest and docs/DATA.md).
package datasets
