package iva

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/sparsewide/iva/internal/obs"
	"github.com/sparsewide/iva/internal/repl"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
)

// Replication, follower side. A follower is a read-only replica that polls a
// primary for synced-prefix deltas and applies each one under the same
// crash-atomic discipline the store itself commits with: a durable redo
// journal first, then every non-superblock byte, fsync, read-back
// verification of every applied byte against the shipped CRCs, and only then
// the index superblock — the commit point — followed by the durable
// replication cursor. A crash at any boundary either replays the journal or
// re-polls; a verification failure never reaches the commit point, so the
// follower never serves bytes it could not verify.

// replSource is the follower's view of a primary: *repl.Client over HTTP in
// production, an in-process adapter in tests.
type replSource interface {
	Snapshot(ctx context.Context) (*repl.Delta, error)
	Deltas(ctx context.Context, epoch, from uint64) (*repl.Batch, error)
}

// FollowerOptions shape the follower's poll loop.
type FollowerOptions struct {
	// Poll is the idle poll interval once caught up (default 1s). Transport
	// errors back off exponentially with jitter on top of this.
	Poll time.Duration
	// RequestTimeout bounds each HTTP round trip (default 60s; snapshots of
	// large stores need headroom).
	RequestTimeout time.Duration
}

// followerState is the poll-loop state of a follower store.
type followerState struct {
	src  replSource
	poll time.Duration

	cancel context.CancelFunc
	done   chan struct{}

	mu         sync.Mutex
	epoch      uint64
	gen        uint64
	primaryGen uint64
	lastErr    string
	lastOK     time.Time

	applied      *obs.Counter
	appliedBytes *obs.Counter
	failures     *obs.Counter
	resyncs      *obs.Counter
	pollErrs     *obs.Counter
}

// followerDurableState is the follower's persisted replication cursor: the
// epoch and generation of the last fully verified, committed apply.
type followerDurableState struct {
	Epoch uint64 `json:"epoch"`
	Gen   uint64 `json:"gen"`
}

func saveFollowerState(dir string, epoch, gen uint64) error {
	blob, _ := json.Marshal(followerDurableState{Epoch: epoch, Gen: gen})
	return writeFileAtomic(filepath.Join(dir, replFollowerStateFile), blob)
}

func loadFollowerState(dir string) (followerDurableState, error) {
	var st followerDurableState
	blob, err := os.ReadFile(filepath.Join(dir, replFollowerStateFile))
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(blob, &st); err != nil {
		return st, err
	}
	return st, nil
}

// OpenFollower opens (bootstrapping or crash-recovering as needed) a
// follower replica of the primary serving at primaryURL, and starts the
// background poll loop. The store is read-only — writes return ErrFollower —
// and never syncs locally: its durable state advances only by applying
// verified deltas. The primary doubles as the read-repair peer.
func OpenFollower(dir, primaryURL string, fopts FollowerOptions, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("iva: a follower requires a directory")
	}
	timeout := fopts.RequestTimeout
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	c := repl.NewClient(primaryURL, timeout)
	s, err := openFollower(dir, c, fopts, opts)
	if err != nil {
		return nil, err
	}
	s.SetRepairPeer(c)
	return s, nil
}

// openFollower is OpenFollower over any replSource (test seam).
func openFollower(dir string, src replSource, fopts FollowerOptions, opts Options) (*Store, error) {
	if fopts.Poll <= 0 {
		fopts.Poll = time.Second
	}
	statePath := filepath.Join(dir, replFollowerStateFile)
	_, catErr := os.Stat(filepath.Join(dir, catalogFileName))
	_, stErr := os.Stat(statePath)
	switch {
	case stErr == nil && catErr == nil:
		if err := RecoverFollowerJournal(dir); err != nil {
			return nil, err
		}
		// An unreadable journal drops the cursor; fall through to a fresh
		// bootstrap in that case.
		if _, err := os.Stat(statePath); err != nil {
			if err := bootstrapFollower(context.Background(), dir, src); err != nil {
				return nil, err
			}
		}
	case catErr == nil:
		return nil, fmt.Errorf("iva: %s holds a store that is not a follower (no %s); refusing to overwrite it", dir, replFollowerStateFile)
	default:
		if err := bootstrapFollower(context.Background(), dir, src); err != nil {
			return nil, err
		}
	}
	cur, err := loadFollowerState(dir)
	if err != nil {
		return nil, fmt.Errorf("iva: follower state: %w", err)
	}
	s, err := Open(dir, opts)
	if err != nil {
		return nil, err
	}
	f := &followerState{
		src:   src,
		poll:  fopts.Poll,
		done:  make(chan struct{}),
		epoch: cur.Epoch,
		gen:   cur.Gen,
	}
	f.applied = s.reg.Counter("iva_repl_applied_total", "Replication deltas applied and committed.", nil)
	f.appliedBytes = s.reg.Counter("iva_repl_applied_bytes_total", "Payload bytes of applied replication deltas.", nil)
	f.failures = s.reg.Counter("iva_repl_apply_failures_total", "Delta applies abandoned before commit (verification or I/O failure).", nil)
	f.resyncs = s.reg.Counter("iva_repl_resyncs_total", "Full snapshot resyncs taken after losing incremental continuity.", nil)
	f.pollErrs = s.reg.Counter("iva_repl_poll_errors_total", "Failed poll round trips to the primary.", nil)
	s.reg.GaugeFunc("iva_repl_generation", "Committed replication generation (primary: cut; follower: applied).", nil, func() float64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		return float64(f.gen)
	})
	s.reg.GaugeFunc("iva_repl_lag_generations", "Generations the follower trails the primary by, as of the last successful poll.", nil, func() float64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.primaryGen > f.gen {
			return float64(f.primaryGen - f.gen)
		}
		return 0
	})
	s.fol = f
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	go s.runFollower(ctx)
	return s, nil
}

// stopFollower stops the poll loop and waits for it. Idempotent; no-op on
// non-followers.
func (s *Store) stopFollower() {
	f := s.fol
	if f == nil || f.cancel == nil {
		return
	}
	f.cancel()
	<-f.done
}

func (f *followerState) noteOK(primaryGen uint64) {
	f.mu.Lock()
	f.primaryGen = primaryGen
	f.lastErr = ""
	f.lastOK = time.Now()
	f.mu.Unlock()
}

func (f *followerState) noteErr(err error) {
	f.mu.Lock()
	f.lastErr = err.Error()
	f.mu.Unlock()
}

func (f *followerState) status() ReplStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := ReplStatus{Role: "follower", Epoch: f.epoch, Gen: f.gen, PrimaryGen: f.primaryGen, LastError: f.lastErr}
	if f.primaryGen > f.gen {
		st.LagGenerations = f.primaryGen - f.gen
	}
	if !f.lastOK.IsZero() {
		st.LastApplyAge = time.Since(f.lastOK)
	}
	return st
}

// runFollower is the poll loop: apply whatever the primary has, resync on
// lost continuity, back off with jitter on transport errors, idle-poll when
// caught up.
func (s *Store) runFollower(ctx context.Context) {
	f := s.fol
	defer close(f.done)
	bo := storage.NewBackoff(200*time.Millisecond, 10*time.Second, 0)
	fails := 0
	for ctx.Err() == nil {
		f.mu.Lock()
		epoch, gen := f.epoch, f.gen
		f.mu.Unlock()
		batch, err := f.src.Deltas(ctx, epoch, gen)
		switch {
		case ctx.Err() != nil:
			return
		case err == nil:
			fails = 0
			f.noteOK(batch.PrimaryGen)
			ok := true
			for _, d := range batch.Deltas {
				if aerr := s.ApplyReplDelta(d); aerr != nil {
					f.failures.Inc()
					f.noteErr(aerr)
					// The apply never reached its commit point; whatever went
					// wrong (local I/O, non-contiguous delta), a snapshot
					// re-establishes a verified state.
					ok = s.followerResync(ctx)
					break
				}
			}
			if !ok {
				fails++
				_ = bo.Wait(ctx, min(fails, 8))
			} else if len(batch.Deltas) == 0 {
				sleepCtx(ctx, f.poll)
			}
		case errors.Is(err, repl.ErrResync):
			if s.followerResync(ctx) {
				fails = 0
			} else {
				fails++
				_ = bo.Wait(ctx, min(fails, 8))
			}
		default:
			f.pollErrs.Inc()
			f.noteErr(err)
			_ = bo.Wait(ctx, min(fails, 8))
			fails++
		}
	}
}

// sleepCtx sleeps d, returning early on cancellation.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// followerResync fetches and applies a full snapshot.
func (s *Store) followerResync(ctx context.Context) bool {
	f := s.fol
	d, err := f.src.Snapshot(ctx)
	if err != nil {
		f.pollErrs.Inc()
		f.noteErr(err)
		return false
	}
	if err := s.ApplyReplDelta(d); err != nil {
		f.failures.Inc()
		f.noteErr(err)
		return false
	}
	f.resyncs.Inc()
	return true
}

// ApplyReplDelta applies one wire-verified delta to the follower with the
// store's crash-atomic commit discipline:
//
//  1. the encoded delta is journaled durably (redo on crash);
//  2. every table byte and every non-superblock index byte is written and
//     fsynced;
//  3. every applied byte is read back from the device — below the page
//     cache — and verified against the shipped CRCs;
//  4. only then the index superblock page (the commit point) is written,
//     fsynced and verified the same way;
//  5. the catalog and the durable replication cursor follow, the journal is
//     dropped, and the in-memory engines reopen over the new bytes.
//
// A failure anywhere before step 4 leaves the previous generation committed.
// Incremental deltas must continue the applied prefix exactly; Full deltas
// (snapshots) reset it.
func (s *Store) ApplyReplDelta(d *repl.Delta) error {
	f := s.fol
	if f == nil {
		return fmt.Errorf("iva: ApplyReplDelta on a non-follower store")
	}
	f.mu.Lock()
	epoch, gen := f.epoch, f.gen
	f.mu.Unlock()
	if !d.Full && (d.Epoch != epoch || d.Gen != gen+1) {
		return fmt.Errorf("iva: delta (epoch %d, gen %d) does not continue the applied prefix (epoch %d, gen %d)", d.Epoch, d.Gen, epoch, gen)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The engine lock is held for the whole apply: concurrent searches see
	// either the previous generation or the new one, never bytes in flight.
	s.engineMu.Lock()
	defer s.engineMu.Unlock()

	if err := writeFileAtomic(filepath.Join(s.dir, replJournalFile), d.Encode()); err != nil {
		return fmt.Errorf("iva: apply delta: journal: %w", err)
	}
	var catBlob []byte
	var sbRanges []repl.Range
	for _, fd := range d.Files {
		switch fd.ID {
		case repl.FileTable, repl.FileIndex:
			file := s.tblFile
			if fd.ID == repl.FileIndex {
				file = s.ixFile
			}
			if d.Full {
				if err := file.Truncate(0); err != nil {
					return fmt.Errorf("iva: apply delta: %w", err)
				}
			}
			for _, r := range fd.Ranges {
				if fd.ID == repl.FileIndex && r.Off < replSuperblockSize {
					sbRanges = append(sbRanges, r)
					continue
				}
				if err := file.WriteAt(r.Data, r.Off); err != nil {
					return fmt.Errorf("iva: apply delta: %w", err)
				}
			}
		case repl.FileCatalog:
			if len(fd.Ranges) != 1 || fd.Ranges[0].Off != 0 || int64(len(fd.Ranges[0].Data)) != fd.Size {
				return fmt.Errorf("iva: apply delta: catalog must ship as one whole range")
			}
			catBlob = fd.Ranges[0].Data
		default:
			return fmt.Errorf("iva: apply delta: unknown file id %d", fd.ID)
		}
	}
	if err := s.tblFile.Sync(); err != nil {
		return fmt.Errorf("iva: apply delta: %w", err)
	}
	if err := s.ixFile.Sync(); err != nil {
		return fmt.Errorf("iva: apply delta: %w", err)
	}
	if err := s.replVerifyApplied(d, false); err != nil {
		return err
	}
	// Commit point: the superblock page goes last, after everything it
	// references verified on disk.
	for _, r := range sbRanges {
		if err := s.ixFile.WriteAt(r.Data, r.Off); err != nil {
			return fmt.Errorf("iva: apply delta: superblock: %w", err)
		}
	}
	if len(sbRanges) > 0 {
		if err := s.ixFile.Sync(); err != nil {
			return fmt.Errorf("iva: apply delta: superblock: %w", err)
		}
		if err := s.replVerifyApplied(d, true); err != nil {
			return err
		}
	}
	if catBlob != nil {
		if err := writeFileAtomic(filepath.Join(s.dir, catalogFileName), catBlob); err != nil {
			return fmt.Errorf("iva: apply delta: catalog: %w", err)
		}
	}
	for _, fd := range d.Files {
		switch fd.ID {
		case repl.FileTable:
			s.tblFile.SetSize(fd.Size)
		case repl.FileIndex:
			s.ixFile.SetSize(fd.Size)
		}
	}
	if err := saveFollowerState(s.dir, d.Epoch, d.Gen); err != nil {
		return fmt.Errorf("iva: apply delta: %w", err)
	}
	_ = os.Remove(filepath.Join(s.dir, replJournalFile))
	if err := s.reopenEnginesLocked(catBlob); err != nil {
		return fmt.Errorf("iva: apply delta: reopen: %w", err)
	}
	f.mu.Lock()
	f.epoch, f.gen = d.Epoch, d.Gen
	f.lastOK = time.Now()
	f.mu.Unlock()
	f.applied.Inc()
	f.appliedBytes.Add(d.Bytes())
	return nil
}

// replVerifyApplied re-reads every applied range straight from the device —
// below the page pool, so the bytes the next open will see — and checks them
// against the shipped CRCs. sbOnly selects the superblock-page ranges
// (verified separately, after the body).
func (s *Store) replVerifyApplied(d *repl.Delta, sbOnly bool) error {
	for _, fd := range d.Files {
		if fd.ID == repl.FileCatalog {
			continue
		}
		td := s.tracker(repl.FileName(fd.ID))
		if td == nil {
			return fmt.Errorf("iva: apply delta: no device for %s", repl.FileName(fd.ID))
		}
		for _, r := range fd.Ranges {
			isSB := fd.ID == repl.FileIndex && r.Off < replSuperblockSize
			if isSB != sbOnly {
				continue
			}
			buf := make([]byte, len(r.Data))
			if _, err := td.ReadAt(buf, r.Off); err != nil {
				return fmt.Errorf("iva: apply delta: read back %s: %w", repl.FileName(fd.ID), err)
			}
			if storage.Checksum(buf) != r.CRC {
				return fmt.Errorf("iva: apply delta: %s range [%d,+%d) failed read-back verification; refusing to commit", repl.FileName(fd.ID), r.Off, len(r.Data))
			}
		}
	}
	return nil
}

// reopenEnginesLocked rebuilds the in-memory engines over the just-applied
// bytes. Caller holds s.mu and s.engineMu.
func (s *Store) reopenEnginesLocked(catBlob []byte) error {
	if catBlob != nil {
		cat, err := table.DecodeCatalog(catBlob)
		if err != nil {
			return err
		}
		s.cat = cat
	}
	return s.openEngines(false)
}

// bootstrapFollower materializes a fresh follower directory from a full
// snapshot: files first (each range verified after write), durable cursor
// last, so a crash mid-bootstrap re-bootstraps cleanly.
func bootstrapFollower(ctx context.Context, dir string, src replSource) error {
	d, err := src.Snapshot(ctx)
	if err != nil {
		return fmt.Errorf("iva: bootstrap follower: %w", err)
	}
	if !d.Full {
		return fmt.Errorf("iva: bootstrap follower: snapshot not marked full")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := applyDeltaToDir(dir, d); err != nil {
		return fmt.Errorf("iva: bootstrap follower: %w", err)
	}
	return saveFollowerState(dir, d.Epoch, d.Gen)
}

// RecoverFollowerJournal redoes an interrupted delta apply left in the
// follower directory's journal, before the store opens. Redo is idempotent:
// the journal holds the complete verified delta, and replaying it lands on
// exactly the generation the apply was committing. An unreadable journal
// (possible only through disk corruption — the journal is written atomically)
// drops the follower cursor so the next open re-bootstraps from a snapshot.
func RecoverFollowerJournal(dir string) error {
	jp := filepath.Join(dir, replJournalFile)
	blob, err := os.ReadFile(jp)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	d, derr := repl.DecodeDelta(blob)
	if derr != nil {
		_ = os.Remove(jp)
		_ = os.Remove(filepath.Join(dir, replFollowerStateFile))
		return nil
	}
	if err := applyDeltaToDir(dir, d); err != nil {
		return fmt.Errorf("iva: recover follower journal: %w", err)
	}
	if err := saveFollowerState(dir, d.Epoch, d.Gen); err != nil {
		return err
	}
	return os.Remove(jp)
}

// applyDeltaToDir applies a delta to raw store files — the path used before
// a Store exists (bootstrap) or can exist (journal redo). Non-superblock
// bytes are written, fsynced and read back verified, then the superblock
// page, mirroring the live apply's ordering.
func applyDeltaToDir(dir string, d *repl.Delta) error {
	for _, fd := range d.Files {
		name := repl.FileName(fd.ID)
		if name == "" {
			return fmt.Errorf("unknown file id %d", fd.ID)
		}
		path := filepath.Join(dir, name)
		if fd.ID == repl.FileCatalog {
			if len(fd.Ranges) != 1 || fd.Ranges[0].Off != 0 {
				return fmt.Errorf("catalog must ship as one whole range")
			}
			if err := writeFileAtomic(path, fd.Ranges[0].Data); err != nil {
				return err
			}
			continue
		}
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		err = func() error {
			if d.Full {
				if err := f.Truncate(0); err != nil {
					return err
				}
			}
			// Body first, superblock page last, with an fsync + read-back
			// verification barrier between.
			for pass := 0; pass < 2; pass++ {
				wroteAny := false
				for _, r := range fd.Ranges {
					isSB := fd.ID == repl.FileIndex && r.Off < replSuperblockSize
					if (pass == 1) != isSB {
						continue
					}
					if _, err := f.WriteAt(r.Data, r.Off); err != nil {
						return err
					}
					wroteAny = true
				}
				if !wroteAny {
					continue
				}
				if err := f.Sync(); err != nil {
					return err
				}
				for _, r := range fd.Ranges {
					isSB := fd.ID == repl.FileIndex && r.Off < replSuperblockSize
					if (pass == 1) != isSB {
						continue
					}
					buf := make([]byte, len(r.Data))
					if _, err := f.ReadAt(buf, r.Off); err != nil {
						return err
					}
					if storage.Checksum(buf) != r.CRC {
						return fmt.Errorf("%s range [%d,+%d) failed read-back verification", name, r.Off, len(r.Data))
					}
				}
			}
			return nil
		}()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ReadReplState reads the durable replication role of a store directory
// without opening the store — `ivatool stats` uses it to report offline.
func ReadReplState(dir string) (ReplStatus, bool) {
	if st, err := loadReplPrimaryState(filepath.Join(dir, replPrimaryStateFile)); err == nil {
		return ReplStatus{Role: "primary", Epoch: st.Epoch, Gen: st.Gen}, true
	}
	if st, err := loadFollowerState(dir); err == nil {
		return ReplStatus{Role: "follower", Epoch: st.Epoch, Gen: st.Gen}, true
	}
	return ReplStatus{Role: "none"}, false
}
