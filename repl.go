package iva

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/sparsewide/iva/internal/core"
	"github.com/sparsewide/iva/internal/obs"
	"github.com/sparsewide/iva/internal/repl"
	"github.com/sparsewide/iva/internal/storage"
)

// Replication, primary side. A primary ships the store's synced prefix as
// log-shipped deltas: every successful Sync cuts one delta holding the byte
// ranges written since the previous Sync (recorded by the TrackDevice layer
// under every store file), CRC32C-covered per range and per blob. A bounded
// in-memory log retains recent deltas for followers to poll. A follower asks
// one question — what follows (epoch, gen)? — and ReplDeltas always answers
// with a batch: nothing, the retained deltas, or, for a cursor the log cannot
// continue (a rebuild replaced the files, the log moved on, a new replica),
// one Full delta carrying the files whole.

const (
	replPrimaryStateFile  = "repl-primary.json"
	replFollowerStateFile = "repl-state.json"
	replJournalFile       = "repl-journal.bin"

	// replSuperblockSize is the index file's page-atomic commit point: the
	// follower applies every other range first and this page last.
	replSuperblockSize = 4096

	// Retention bounds of the primary's in-memory delta log.
	replMaxLogDeltas = 64
	replMaxLogBytes  = 64 << 20
	// replMaxBatchBytes bounds one /v1/repl/deltas response (at least one
	// delta is always served, whatever its size).
	replMaxBatchBytes = 32 << 20
	// replFullChunk is the range granularity a Full delta's files are cut at.
	replFullChunk = 8 << 20
)

// ErrNotReplicating is returned by replication endpoints of a store that is
// neither a delta source nor a follower.
var ErrNotReplicating = errors.New("iva: store is not a replication source")

// replPrimary is the delta-shipping state of a primary store.
type replPrimary struct {
	mu         sync.Mutex
	epoch      uint64 // bumped whenever continuity with past followers breaks
	gen        uint64 // committed generation: one per delta-cutting Sync
	log        []replLogEntry
	logBytes   int64
	lastCatCRC uint32
	hasCat     bool

	cuts     *obs.Counter
	cutBytes *obs.Counter
	fulls    *obs.Counter
	resets   *obs.Counter
}

type replLogEntry struct {
	gen  uint64
	blob []byte
}

// replPrimaryState is the durable (epoch, gen) of the primary, plus the CRC
// of the index superblock page at the last cut: on restart the counter
// resumes only if the committed superblock still matches — otherwise the
// store advanced (or regressed) while replication was down, and a fresh
// epoch gets followers a Full delta rather than letting them diverge silently.
type replPrimaryState struct {
	Epoch uint64 `json:"epoch"`
	Gen   uint64 `json:"gen"`
	SBCRC uint32 `json:"sbcrc"`
}

// EnableReplSource turns the store into a replication primary: every Sync
// from now on cuts a delta, and ReplDeltas serves followers.
// Requires an on-disk store. Idempotent. A follower's directory — polled or
// plainly opened — returns ErrFollower: its bytes belong to its primary.
func (s *Store) EnableReplSource() error {
	if s.dir == "" {
		return fmt.Errorf("iva: replication source requires an on-disk store")
	}
	if s.followerReadOnly() {
		return ErrFollower
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.replP != nil {
		return nil
	}
	p := &replPrimary{epoch: 1}
	if st, err := loadReplPrimaryState(filepath.Join(s.dir, replPrimaryStateFile)); err == nil {
		if crc, cerr := s.replSuperblockCRC(); cerr == nil && crc == st.SBCRC {
			p.epoch, p.gen = st.Epoch, st.Gen
		} else {
			p.epoch = st.Epoch + 1
		}
	}
	p.cuts = s.reg.Counter("iva_repl_deltas_cut_total", "Replication deltas cut at sync boundaries.", nil)
	p.cutBytes = s.reg.Counter("iva_repl_delta_bytes_total", "Payload bytes carried by cut replication deltas.", nil)
	p.fulls = s.reg.Counter("iva_repl_snapshots_served_total", "Full deltas (whole files) served to followers whose cursor the log could not continue.", nil)
	p.resets = s.reg.Counter("iva_repl_log_resets_total", "Delta-log invalidations (rebuilds, cut failures): the next poll of every follower is answered with a Full delta.", nil)
	s.reg.GaugeFunc("iva_repl_generation", "Committed replication generation (primary: cut; follower: applied).", nil, func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return float64(p.gen)
	})
	s.reg.GaugeFunc("iva_repl_log_deltas", "Deltas currently retained in the primary's replication log.", nil, func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return float64(len(p.log))
	})
	s.replP = p
	s.replResetTrackers() // anything recorded before enabling is not ours
	return s.replSaveState()
}

// replResetTrackers arms the write trackers of the store's two files (a
// rebuild's new files arrive disarmed) and forgets what they hold.
func (s *Store) replResetTrackers() {
	for _, f := range []storeFile{s.tblFile, s.ixFile} {
		f.dev.Arm()
		f.dev.TakeDirty()
	}
}

func loadReplPrimaryState(path string) (replPrimaryState, error) {
	var st replPrimaryState
	blob, err := os.ReadFile(path)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(blob, &st); err != nil {
		return st, err
	}
	return st, nil
}

// replSuperblockCRC stamps the committed index superblock page. The stamp
// must exclude the page's embedded CRC trailer — CRC32C's linearity makes a
// whole-page hash identical for EVERY validly self-checksummed superblock
// (the trailer difference always cancels the payload difference), which
// would blind the epoch resume guard completely. core.SuperblockStamp does
// the exclusion.
func (s *Store) replSuperblockCRC() (uint32, error) {
	buf := make([]byte, replSuperblockSize)
	if err := s.ixFile.ReadAt(buf, 0); err != nil {
		return 0, err
	}
	return core.SuperblockStamp(buf), nil
}

// replSaveState persists the primary's (epoch, gen, superblock CRC)
// atomically. Caller holds s.mu.
func (s *Store) replSaveState() error {
	crc, err := s.replSuperblockCRC()
	if err != nil {
		return err
	}
	p := s.replP
	p.mu.Lock()
	st := replPrimaryState{Epoch: p.epoch, Gen: p.gen, SBCRC: crc}
	p.mu.Unlock()
	blob, _ := json.Marshal(st)
	return writeFileAtomic(filepath.Join(s.dir, replPrimaryStateFile), blob)
}

// writeFileAtomic writes path via a temp file + rename so a crash leaves
// either the old or the new content, never a torn mix.
func writeFileAtomic(path string, blob []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// replInvalidateLocked drops the retained delta log and advances the
// generation so every follower — including ones that believed themselves
// caught up — is answered with a Full delta. Called after rebuilds (the files
// were replaced wholesale) and failed cuts (the tracked ranges were
// consumed but not shipped). Caller holds s.mu.
func (s *Store) replInvalidateLocked() {
	p := s.replP
	// Whatever the trackers hold describes files we are no longer shipping
	// increments of.
	s.replResetTrackers()
	p.mu.Lock()
	p.log = nil
	p.logBytes = 0
	p.gen++
	p.hasCat = false
	p.mu.Unlock()
	p.resets.Inc()
	if err := s.replSaveState(); err != nil {
		// The durable counter is behind; a restart resumes a stale gen but
		// the superblock CRC guard catches it and bumps the epoch.
		_ = err
	}
}

// replCutLocked builds the delta of the Sync that just completed and appends
// it to the log. Caller holds s.mu; the store files are synced. Failures
// invalidate the log (never ship a partial cut).
func (s *Store) replCutLocked() {
	p := s.replP
	tblR := s.tblFile.dev.TakeDirty()
	ixR := s.ixFile.dev.TakeDirty()
	cat := s.cat.Encode()
	catCRC := storage.Checksum(cat)
	p.mu.Lock()
	catSame := p.hasCat && catCRC == p.lastCatCRC
	epoch, gen := p.epoch, p.gen
	p.mu.Unlock()
	if len(tblR) == 0 && len(ixR) == 0 && catSame {
		return // nothing committed since the last cut
	}
	d := &repl.Delta{Epoch: epoch, Gen: gen + 1}
	tfd, err := s.replFileDelta(repl.FileTable, s.tblFile.File, tblR)
	if err == nil {
		d.Files = append(d.Files, tfd)
		var ifd repl.FileDelta
		ifd, err = s.replFileDelta(repl.FileIndex, s.ixFile.File, splitSuperblockRanges(ixR))
		if err == nil {
			d.Files = append(d.Files, ifd)
		}
	}
	if err != nil {
		s.replInvalidateLocked()
		return
	}
	d.Files = append(d.Files, repl.FileDelta{
		ID: repl.FileCatalog, Size: int64(len(cat)),
		Ranges: []repl.Range{{Off: 0, CRC: catCRC, Data: cat}},
	})
	blob := d.Encode()
	p.mu.Lock()
	p.gen++
	p.lastCatCRC = catCRC
	p.hasCat = true
	p.log = append(p.log, replLogEntry{gen: p.gen, blob: blob})
	p.logBytes += int64(len(blob))
	for (len(p.log) > replMaxLogDeltas || p.logBytes > replMaxLogBytes) && len(p.log) > 1 {
		p.logBytes -= int64(len(p.log[0].blob))
		p.log = p.log[1:]
	}
	p.mu.Unlock()
	p.cuts.Inc()
	p.cutBytes.Add(d.Bytes())
	if err := s.replSaveState(); err != nil {
		_ = err // superblock CRC guard covers a stale durable counter
	}
}

// replFileDelta snapshots the bytes of the given ranges from a store file.
func (s *Store) replFileDelta(id uint8, f *storage.File, ranges []storage.Range) (repl.FileDelta, error) {
	fd := repl.FileDelta{ID: id, Size: f.Size()}
	for _, r := range ranges {
		buf := make([]byte, r.Len)
		if err := f.ReadAt(buf, r.Off); err != nil {
			return fd, err
		}
		fd.Ranges = append(fd.Ranges, repl.Range{Off: r.Off, CRC: storage.Checksum(buf), Data: buf})
	}
	return fd, nil
}

// splitSuperblockRanges splits any index range overlapping the superblock
// page out of the body ranges, so the follower can apply the commit point
// strictly last.
func splitSuperblockRanges(ranges []storage.Range) []storage.Range {
	var out []storage.Range
	for _, r := range ranges {
		if r.Off < replSuperblockSize && r.Off+r.Len > replSuperblockSize {
			out = append(out,
				storage.Range{Off: r.Off, Len: replSuperblockSize - r.Off},
				storage.Range{Off: replSuperblockSize, Len: r.Off + r.Len - replSuperblockSize})
			continue
		}
		out = append(out, r)
	}
	return out
}

// replFullLocked cuts a Full delta: the store is synced (which cuts any
// pending incremental delta first) and every file is shipped whole at the
// generation that leaves. It runs under s.mu because only there is "the bytes
// of both files and the catalog at generation g" one state: a write or a
// rebuild between the sync and the reads would ship a mix. A store with
// nothing written since the last cut is already that state, and is not synced:
// every Sync commits — the superblock ping-pongs — so each Full delta served
// would otherwise cut a generation, and a follower that asks again (a damaged
// primary's, say) would find the primary moved on. Caller holds s.mu.
func (s *Store) replFullLocked() (*repl.Delta, error) {
	p := s.replP
	catCRC := storage.Checksum(s.cat.Encode())
	p.mu.Lock()
	pending := !p.hasCat || catCRC != p.lastCatCRC
	p.mu.Unlock()
	if pending || s.tblFile.dev.Dirty() || s.ixFile.dev.Dirty() {
		if err := s.syncLocked(); err != nil {
			return nil, err
		}
	}
	p.mu.Lock()
	epoch, gen := p.epoch, p.gen
	p.mu.Unlock()
	d := &repl.Delta{Epoch: epoch, Gen: gen, Full: true}
	tfd, err := wholeFileDelta(repl.FileTable, s.tblFile.File)
	if err != nil {
		return nil, err
	}
	ifd, err := wholeFileDelta(repl.FileIndex, s.ixFile.File)
	if err != nil {
		return nil, err
	}
	cat := s.cat.Encode()
	d.Files = append(d.Files, tfd, ifd, repl.FileDelta{
		ID: repl.FileCatalog, Size: int64(len(cat)),
		Ranges: []repl.Range{{Off: 0, CRC: storage.Checksum(cat), Data: cat}},
	})
	p.fulls.Inc()
	return d, nil
}

func wholeFileDelta(id uint8, f *storage.File) (repl.FileDelta, error) {
	fd := repl.FileDelta{ID: id, Size: f.Size()}
	for off := int64(0); off < fd.Size; off += replFullChunk {
		n := fd.Size - off
		if n > replFullChunk {
			n = replFullChunk
		}
		buf := make([]byte, n)
		if err := f.ReadAt(buf, off); err != nil {
			return fd, err
		}
		fd.Ranges = append(fd.Ranges, repl.Range{Off: off, CRC: storage.Checksum(buf), Data: buf})
	}
	return fd, nil
}

// ReplDeltas answers a follower's one question — what follows generation
// `from` under `epoch`? — with an encoded batch, whatever the cursor:
//
//   - caught up (epoch matches, from is the primary's generation): no deltas;
//   - continuable (the log still holds from+1): the retained deltas, up to
//     replMaxBatchBytes;
//   - anything else — another epoch, from beyond the primary's generation,
//     from fallen off the log or the log reset by a rebuild or a failed cut,
//     the zero cursor of a new replica — one Full delta cut now.
func (s *Store) ReplDeltas(epoch, from uint64) ([]byte, error) {
	p := s.replP
	if p == nil {
		return nil, ErrNotReplicating
	}
	p.mu.Lock()
	if epoch == p.epoch && (from == p.gen || from < p.gen && len(p.log) > 0 && p.log[0].gen <= from+1) {
		var blobs [][]byte
		var total int64
		for _, e := range p.log {
			if e.gen <= from {
				continue
			}
			if len(blobs) > 0 && total+int64(len(e.blob)) > replMaxBatchBytes {
				break
			}
			blobs = append(blobs, e.blob)
			total += int64(len(e.blob))
		}
		batch := repl.EncodeBatchRaw(p.epoch, p.gen, blobs)
		p.mu.Unlock()
		return batch, nil
	}
	// p.mu is released before s.mu is taken: the order replCutLocked uses.
	p.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	d, err := s.replFullLocked()
	if err != nil {
		return nil, err
	}
	blob := d.Encode()
	if uint64(len(blob)) > math.MaxUint32 {
		return nil, fmt.Errorf("iva: store of %d bytes does not fit one Full delta (a batch frames each delta under a 32-bit length)", len(blob))
	}
	return repl.EncodeBatchRaw(d.Epoch, d.Gen, [][]byte{blob}), nil
}

// ReplStatus describes the store's replication role and progress.
type ReplStatus struct {
	// Role is "none", "primary" or "follower".
	Role string `json:"role"`
	// Epoch and Gen are the current replication epoch and the committed
	// (primary) or applied (follower) generation.
	Epoch uint64 `json:"epoch,omitempty"`
	Gen   uint64 `json:"gen,omitempty"`
	// PrimaryGen and LagGenerations are follower-side: the primary's
	// generation at the last successful poll and how far behind the applied
	// prefix is.
	PrimaryGen     uint64 `json:"primary_gen,omitempty"`
	LagGenerations uint64 `json:"lag_generations,omitempty"`
	// LogDeltas is primary-side: deltas currently retained for followers.
	LogDeltas int `json:"log_deltas,omitempty"`
	// LastError is the follower's most recent poll/apply error, "" when the
	// last round trip succeeded.
	LastError string `json:"last_error,omitempty"`
	// LastApplyAge is how long ago the follower last applied a delta or
	// confirmed itself caught up (0 before the first poll completes).
	LastApplyAge time.Duration `json:"last_apply_age,omitempty"`
}

// ReplStatus reports the store's replication role and progress.
func (s *Store) ReplStatus() ReplStatus {
	if p := s.replP; p != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		return ReplStatus{Role: "primary", Epoch: p.epoch, Gen: p.gen, LogDeltas: len(p.log)}
	}
	if f := s.fol; f != nil {
		return f.status()
	}
	// A replica directory opened without its poll loop (plain Open on a
	// follower's dir) still reports the durable cursor: the bytes are that
	// generation's synced prefix, and writes are refused accordingly.
	if cur := s.replicaCur; cur != nil {
		return ReplStatus{Role: "follower", Epoch: cur.Epoch, Gen: cur.Gen}
	}
	return ReplStatus{Role: "none"}
}
