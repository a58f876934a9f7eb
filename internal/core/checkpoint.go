package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"vero/internal/failpoint"
	"vero/internal/histogram"
	"vero/internal/tree"
)

// Training checkpoints make long boosting runs crash-safe: every
// Config.CheckpointEvery trees the trainer serializes everything needed
// to resume — the partial forest in the golden-pinned Encode format, the
// boosting round, a hash of the model-affecting configuration and a
// fingerprint of the dataset — into CheckpointDir, using the same atomic
// temp+rename + CRC-32C pattern as the .vbin cache writer. A later Train
// with a matching config and dataset resumes from the next round; the
// resumed run's model is byte-identical to an uninterrupted one, because
// resume replays each checkpointed tree through the engine's own index
// and prediction-update machinery (the exact float operations of the
// original run) instead of approximating the state.
//
// The file layout is "VCKP" | version u32 | crc32c u32 | JSON body. The
// CRC covers the body, so a torn or bit-flipped checkpoint is detected
// and rejected with a descriptive error rather than silently training
// from corrupt state.
const (
	ckptMagic      = "VCKP"
	ckptVersion    = 1
	ckptHeaderSize = 12
	// CheckpointFile is the file name a checkpoint occupies inside
	// Config.CheckpointDir.
	CheckpointFile = "train.vckp"
)

var ckptCRCTable = crc32.MakeTable(crc32.Castagnoli)

// Failpoint names of the checkpoint seams (see internal/failpoint).
const (
	// FailpointCheckpointSave fails a checkpoint write cleanly (ENOSPC
	// style): the temp file never lands, training continues.
	FailpointCheckpointSave = "checkpoint.save"
	// FailpointCheckpointTorn simulates a torn non-atomic write: a
	// truncated image is left at the final path.
	FailpointCheckpointTorn = "checkpoint.torn"
	// FailpointAfterTree fires after each boosting round's checkpoint
	// logic; arm it with "K*error" (or "K*exit") to crash deterministically
	// right after round K's checkpoint lands.
	FailpointAfterTree = "core.aftertree"
)

// checkpointBody is the JSON payload of a checkpoint file.
type checkpointBody struct {
	// Round is the number of completed boosting rounds (== trees in Model).
	Round int `json:"round"`
	// ConfigHash fingerprints every model-affecting Config field plus the
	// resolved objective; see configHash.
	ConfigHash string `json:"config_hash"`
	// DataFingerprint is the CRC-32C of the materialized dataset; see
	// datasetFingerprint.
	DataFingerprint string `json:"data_fingerprint"`
	// Model is the partial forest in the Encode format.
	Model json.RawMessage `json:"model"`
	// Rank, Workers and PeerFingerprint identify the deployment slot a
	// distributed rank's checkpoint belongs to (zero/empty on
	// single-process checkpoints). PeerFingerprint is Config.DistIdentity —
	// the rank/worker-count/peer-set triple — so a file from a reshaped or
	// reshuffled deployment is rejected with a precise error even before
	// the config hash is consulted.
	Rank            int    `json:"rank,omitempty"`
	Workers         int    `json:"workers,omitempty"`
	PeerFingerprint string `json:"peer_fingerprint,omitempty"`
}

// checkpoint is a decoded, validated checkpoint ready to resume from.
type checkpoint struct {
	round  int
	forest *tree.Forest
}

// checkpointPath returns the checkpoint file location for cfg, or "" when
// checkpointing is off.
func (c *Config) checkpointPath() string {
	if c.CheckpointDir == "" || c.CheckpointEvery <= 0 {
		return ""
	}
	return filepath.Join(c.CheckpointDir, CheckpointFile)
}

// checkpointPath returns this trainer's checkpoint file: the shared
// train.vckp for single-process runs, a per-rank train-rank<R>.vckp on a
// distributed cluster (every rank writes its own state; ranks sharing a
// CheckpointDir — the in-process test meshes do — must not clobber each
// other).
func (t *trainer) checkpointPath() string {
	base := t.cfg.checkpointPath()
	if base == "" || !t.cl.Distributed() {
		return base
	}
	return filepath.Join(t.cfg.CheckpointDir, fmt.Sprintf("train-rank%d.vckp", t.cl.Rank()))
}

// configHash digests the fields that determine the trained model's bits:
// hyper-parameters, quadrant policy and the resolved objective. Timing
// and observation knobs (network model, callbacks, checkpoint placement
// itself) stay out — changing them cannot change the model, so they must
// not invalidate a checkpoint.
func (t *trainer) configHash() string {
	c := t.cfg
	s := fmt.Sprintf("v%d|q%d|T%d|L%d|S%d|lr%v|la%v|ga%v|mh%v|obj:%s|c%d|agg%d|ci%d|fc%t|tc%d|eps%v|seed%d|w%d",
		ckptVersion, c.Quadrant, c.Trees, c.Layers, c.Splits,
		c.LearningRate, c.Lambda, c.Gamma, c.MinChildHess,
		t.obj.Name(), t.c, c.Aggregation, c.ColumnIndex, c.FullCopy,
		c.TransformCharge, c.SketchEps, c.Seed, t.w)
	if c.DistIdentity != "" {
		// Deployment identity (rank/workers@peers) folds in only when set,
		// keeping every pre-existing single-process hash unchanged.
		s += "|dist:" + c.DistIdentity
	}
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// datasetFingerprint digests the materialized training data: shape,
// labels and the sparse matrix, all bit-exact. Note it fingerprints the
// in-memory dataset, not the source file: a cold parse and a warm .vbin
// load of the same source materialize different value bytes (raw values
// vs bin representatives), so a resumed run must ingest the same way the
// crashed run did — docs/ROBUSTNESS.md spells this out.
func (t *trainer) datasetFingerprint() string {
	h := crc32.New(ckptCRCTable)
	le := binary.LittleEndian
	var scratch [8]byte
	writeU64 := func(v uint64) {
		le.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	writeU64(uint64(t.n))
	writeU64(uint64(t.d))
	writeU64(uint64(t.c))
	for _, y := range t.ds.Labels {
		writeU32(h, scratch[:4], math.Float32bits(y))
	}
	if t.ds.Shard != nil {
		// A shard materializes only its slice of the image; the backing
		// cache's fingerprint — identical at every rank — stands in for the
		// per-row walk, suffixed with the shard axis so a rows shard and a
		// cols shard of the same image fingerprint differently.
		h.Write([]byte(t.ds.Shard.Fingerprint))
		h.Write([]byte(t.ds.Shard.Kind))
		return fmt.Sprintf("%08x", h.Sum32())
	}
	if t.ds.OutOfCore() {
		// Out-of-core matrices stay on disk; the block source's
		// fingerprint (derived from the cache image's payload CRC) stands
		// in for the per-row walk.
		h.Write([]byte(t.ds.Blocks.Fingerprint()))
		return fmt.Sprintf("%08x", h.Sum32())
	}
	for i := 0; i < t.n; i++ {
		feats, vals := t.ds.X.Row(i)
		writeU64(uint64(len(feats)))
		for k, f := range feats {
			writeU32(h, scratch[:4], f)
			writeU32(h, scratch[:4], math.Float32bits(vals[k]))
		}
	}
	return fmt.Sprintf("%08x", h.Sum32())
}

// writeU32 feeds one little-endian uint32 into h via buf (len >= 4).
func writeU32(h hash.Hash32, buf []byte, v uint32) {
	binary.LittleEndian.PutUint32(buf, v)
	h.Write(buf[:4])
}

// saveCheckpoint writes the current training state atomically: temp file
// in CheckpointDir, CRC-32C over the body, then rename. round is the
// number of completed boosting rounds.
func (t *trainer) saveCheckpoint(path string, forest *tree.Forest, round int) error {
	model, err := forest.Encode()
	if err != nil {
		return fmt.Errorf("core: checkpoint encode: %w", err)
	}
	cb := checkpointBody{
		Round:           round,
		ConfigHash:      t.ckptConfigHash,
		DataFingerprint: t.ckptDataFP,
		Model:           model,
	}
	if t.cl.Distributed() {
		cb.Rank = t.cl.Rank()
		cb.Workers = t.w
		cb.PeerFingerprint = t.cfg.DistIdentity
	}
	body, err := json.Marshal(cb)
	if err != nil {
		return fmt.Errorf("core: checkpoint encode: %w", err)
	}
	header := make([]byte, ckptHeaderSize)
	copy(header, ckptMagic)
	binary.LittleEndian.PutUint32(header[4:], ckptVersion)
	binary.LittleEndian.PutUint32(header[8:], crc32.Checksum(body, ckptCRCTable))

	if err := failpoint.Inject(FailpointCheckpointTorn); err != nil {
		// Simulate the failure mode the atomic pattern exists to prevent: a
		// direct, partial write to the final path (a torn image), as a
		// non-atomic writer would leave after a crash mid-write.
		torn := append(append([]byte(nil), header...), body[:len(body)/2]...)
		_ = os.WriteFile(path, torn, 0o644)
		return fmt.Errorf("core: checkpoint write torn: %w", err)
	}
	if err := failpoint.Inject(FailpointCheckpointSave); err != nil {
		return fmt.Errorf("core: checkpoint write: %w", err)
	}

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("core: checkpoint write: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), CheckpointFile+".tmp*")
	if err != nil {
		return fmt.Errorf("core: checkpoint write: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(header); err != nil {
		tmp.Close()
		return fmt.Errorf("core: checkpoint write: %w", err)
	}
	if _, err := tmp.Write(body); err != nil {
		tmp.Close()
		return fmt.Errorf("core: checkpoint write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: checkpoint write: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: checkpoint write: %w", err)
	}
	return nil
}

// loadCheckpoint reads and validates the checkpoint at path. A missing
// file returns (nil, nil) — a fresh run. A structurally corrupt file, or
// one whose config hash or dataset fingerprint does not match the current
// run, is an error: resuming from it would silently produce a model that
// matches no uninterrupted run, so the caller must delete the checkpoint
// (or restore the matching config/data) explicitly.
func (t *trainer) loadCheckpoint(path string) (*checkpoint, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint read: %w", err)
	}
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("core: checkpoint %s is corrupt (%s); delete it to retrain from scratch",
			path, fmt.Sprintf(format, args...))
	}
	if len(data) < ckptHeaderSize || string(data[:4]) != ckptMagic {
		return nil, corrupt("bad magic")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != ckptVersion {
		return nil, fmt.Errorf("core: checkpoint %s has version %d, want %d; delete it to retrain from scratch", path, v, ckptVersion)
	}
	body := data[ckptHeaderSize:]
	if got, want := crc32.Checksum(body, ckptCRCTable), binary.LittleEndian.Uint32(data[8:]); got != want {
		return nil, corrupt("checksum %08x, want %08x — torn or bit-flipped write", got, want)
	}
	var cb checkpointBody
	if err := json.Unmarshal(body, &cb); err != nil {
		return nil, corrupt("body: %v", err)
	}
	if cb.ConfigHash != t.ckptConfigHash {
		return nil, fmt.Errorf("core: checkpoint %s was written under config %s but this run is %s — config changed; delete the checkpoint or retrain with the original configuration",
			path, cb.ConfigHash, t.ckptConfigHash)
	}
	if cb.DataFingerprint != t.ckptDataFP {
		return nil, fmt.Errorf("core: checkpoint %s was written for dataset %s but this run ingested %s — data changed (or the ingestion mode differs: a cold parse and a warm .vbin load materialize different bytes); delete the checkpoint or re-ingest the original data the original way",
			path, cb.DataFingerprint, t.ckptDataFP)
	}
	if t.cl.Distributed() {
		if cb.Workers != t.w || cb.Rank != t.cl.Rank() {
			return nil, fmt.Errorf("core: checkpoint %s belongs to rank %d of a %d-worker deployment but this process is rank %d of %d; delete the stale checkpoints to retrain from scratch",
				path, cb.Rank, cb.Workers, t.cl.Rank(), t.w)
		}
		if cb.PeerFingerprint != t.cfg.DistIdentity {
			return nil, fmt.Errorf("core: checkpoint %s was written under deployment %q but this run is %q — the peer set changed; delete the stale checkpoints to retrain from scratch",
				path, cb.PeerFingerprint, t.cfg.DistIdentity)
		}
	}
	forest, err := tree.DecodeForest(cb.Model)
	if err != nil {
		return nil, corrupt("model: %v", err)
	}
	if cb.Round != forest.NumTrees() {
		return nil, corrupt("round %d but %d trees", cb.Round, forest.NumTrees())
	}
	if cb.Round > t.cfg.Trees {
		// Trees is part of the config hash, so this only guards a
		// hand-edited body that still matched the CRC.
		return nil, corrupt("round %d exceeds configured trees %d", cb.Round, t.cfg.Trees)
	}
	return &checkpoint{round: cb.Round, forest: forest}, nil
}

// loadCheckpointDistributed resumes a distributed run: every rank loads
// and verifies its own per-rank checkpoint, then the mesh agrees on one
// common resume round via a min-reduction (an 8-byte all-gather) before
// any tree is replayed. A rank whose checkpoint is missing, corrupt or
// mismatched does not error out unilaterally — its peers would block in
// the agreement collective — it votes for round 0 instead, dragging the
// whole cluster to a fresh start. The outcome is always uniform: either
// every rank resumes from the same round (the minimum any rank can
// replay, forests truncated to match) or every rank starts from scratch;
// a mixed resume, where ranks disagree on the completed-round count and
// every subsequent collective desynchronizes, cannot happen.
func (t *trainer) loadCheckpointDistributed(path string) (*checkpoint, error) {
	ck, lerr := t.loadCheckpoint(path)
	if lerr == nil && ck != nil {
		lerr = t.verifyResume(ck.forest)
	}
	if lerr != nil {
		ck = nil
	}
	local := 0
	if ck != nil {
		local = ck.round
	}
	recs := make([][]byte, t.w)
	t.cl.ParallelLocal("ckpt.resume", func(w int) {
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, uint64(local))
		recs[w] = buf
	})
	for w := range recs {
		if recs[w] == nil {
			recs[w] = make([]byte, 8)
		}
	}
	t.cl.AllGatherFixed("ckpt.resume", recs)
	if err := t.cl.Err(); err != nil {
		return nil, fmt.Errorf("core: distributed resume agreement failed: %w", err)
	}
	common := local
	for _, r := range recs {
		if v := int(binary.LittleEndian.Uint64(r)); v < common {
			common = v
		}
	}
	if common == 0 || ck == nil {
		return nil, nil
	}
	if common < ck.round {
		// A peer checkpointed fewer rounds (it crashed before a later save
		// landed); replay only the common prefix so every rank regrows the
		// same trees from the same state.
		ck.forest.Trees = ck.forest.Trees[:common]
		ck.round = common
	}
	return ck, nil
}

// verifyResume cross-checks the decoded forest against the freshly
// prepared trainer: the candidate splits the checkpointed trees were
// grown against must be bit-identical to the ones this run derived, and
// the run geometry must agree. Any divergence means the config/data
// fingerprints lied (or the file was tampered with inside its CRC), so
// resuming would not be bit-identical — reject instead.
func (t *trainer) verifyResume(f *tree.Forest) error {
	mismatch := func(what string) error {
		return fmt.Errorf("core: checkpoint does not match this run (%s); delete the checkpoint or retrain with the original configuration and data", what)
	}
	if f.NumClass != t.c || f.NumFeature != t.d {
		return mismatch(fmt.Sprintf("model is %d-class over %d features, run is %d-class over %d", f.NumClass, f.NumFeature, t.c, t.d))
	}
	if f.LearningRate != t.cfg.LearningRate || f.Objective != t.obj.Name() {
		return mismatch("learning rate or objective differs")
	}
	if len(f.Splits) != len(t.binner.Splits) {
		return mismatch("candidate split tables differ")
	}
	for fi := range f.Splits {
		a, b := f.Splits[fi], t.binner.Splits[fi]
		if len(a) != len(b) {
			return mismatch(fmt.Sprintf("feature %d has %d candidate splits, run derived %d", fi, len(a), len(b)))
		}
		for k := range a {
			if math.Float32bits(a[k]) != math.Float32bits(b[k]) {
				return mismatch(fmt.Sprintf("feature %d candidate split %d differs", fi, k))
			}
		}
	}
	want := t.obj.InitScore(t.ds.Labels)
	if len(f.InitScore) != len(want) {
		return mismatch("init score differs")
	}
	for k := range want {
		if math.Float64bits(f.InitScore[k]) != math.Float64bits(want[k]) {
			return mismatch("init score differs")
		}
	}
	return nil
}

// replayTree re-routes every instance through one checkpointed tree and
// re-applies its prediction updates, using the engine's own applyLayer
// and updatePredictions — the identical index transitions and float
// operations the original run performed — so the trainer state after
// replaying k trees is bit-identical to having trained them.
func (t *trainer) replayTree(tr *tree.Tree) {
	t.eng.resetIndexes()
	frontier := []int32{tr.Root()}
	for len(frontier) > 0 {
		splits := make(map[int32]histogram.Split)
		children := make(map[int32][2]int32)
		var next []int32
		for _, id := range frontier {
			n := &tr.Nodes[id]
			if n.IsLeaf() {
				continue
			}
			splits[id] = histogram.Split{Feature: int(n.Feature), Bin: int(n.SplitBin),
				Gain: n.Gain, DefaultLeft: n.DefaultLeft, Valid: true}
			children[id] = [2]int32{n.Left, n.Right}
			next = append(next, n.Left, n.Right)
		}
		if len(children) == 0 {
			break
		}
		t.eng.applyLayer(splits, children)
		frontier = next
	}
	t.eng.updatePredictions(tr)
}

// resume replays every checkpointed tree, restoring the prediction state
// the original run had after round ck.round.
func (t *trainer) resume(ck *checkpoint) {
	for _, tr := range ck.forest.Trees {
		t.replayTree(tr)
	}
}
