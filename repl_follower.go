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
// production, an in-process adapter in tests. Its one method asks what follows
// (epoch, from); the answer is always a batch — empty when caught up, the
// deltas that continue the cursor, or one Full delta when nothing can.
type replSource interface {
	Deltas(ctx context.Context, epoch, from uint64) (*repl.Batch, error)
}

// FollowerOptions shape the follower's poll loop.
type FollowerOptions struct {
	// Poll is the idle poll interval once caught up (default 1s). Transport
	// errors back off exponentially with jitter on top of this.
	Poll time.Duration
}

// followerRequestTimeout bounds each HTTP round trip of the poll loop: a Full
// delta of a large store needs headroom.
const followerRequestTimeout = 60 * time.Second

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
	// refetch makes the next poll ask with the zero cursor, which every
	// primary answers with a Full delta; the Full delta's install clears it.
	// A failed apply sets it, and so does damage (noteDamage), at most once
	// per applied generation: damageAt is the one it was last set for.
	refetch  bool
	damageAt followerDurableState

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
// verified deltas.
func OpenFollower(dir, primaryURL string, fopts FollowerOptions, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("iva: a follower requires a directory")
	}
	return openFollower(dir, repl.NewClient(primaryURL, followerRequestTimeout), fopts, opts)
}

// openFollower is OpenFollower over any replSource (test seam). A directory
// that holds no store becomes an empty replica with the zero cursor — which no
// primary's epoch matches, so the answer to it is a Full delta — and a replica
// at the zero cursor makes its first poll here, before it serves anything.
func openFollower(dir string, src replSource, fopts FollowerOptions, opts Options) (*Store, error) {
	if fopts.Poll <= 0 {
		fopts.Poll = time.Second
	}
	_, catErr := os.Stat(filepath.Join(dir, catalogFileName))
	_, stErr := os.Stat(filepath.Join(dir, replFollowerStateFile))
	switch {
	case catErr == nil && stErr != nil:
		return nil, fmt.Errorf("iva: %s holds a store that is not a follower (no %s); refusing to overwrite it", dir, replFollowerStateFile)
	case catErr != nil:
		// The cursor goes first: a crash before the empty store is whole
		// leaves a directory this case takes again.
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := saveFollowerState(dir, 0, 0); err != nil {
			return nil, err
		}
		empty, err := Create(dir, opts)
		if err != nil {
			return nil, err
		}
		if err := empty.Close(); err != nil {
			return nil, err
		}
	}
	s, err := Open(dir, opts)
	if err != nil {
		return nil, err
	}
	if s.replicaCur == nil {
		s.Close()
		return nil, fmt.Errorf("iva: follower state: %s is unreadable", replFollowerStateFile)
	}
	cur := *s.replicaCur
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
	f.resyncs = s.reg.Counter("iva_repl_resyncs_total", "Full deltas installed: a new replica's first, then one per poll the primary could not continue incrementally or the follower asked for whole (a failed apply, damage).", nil)
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
	if cur == (followerDurableState{}) {
		applied, err := s.pollOnce(ctx)
		if err == nil && applied == 0 {
			err = errors.New("the primary answered the zero cursor with no delta")
		}
		if err != nil {
			cancel()
			s.Close()
			return nil, fmt.Errorf("iva: bootstrap follower: %w", err)
		}
	}
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

// noteDamage is the follower's cure for damage to its own files — a query that
// degraded past a corrupt segment, a scrub that was not clean: the next poll
// fetches a Full delta, which install lands beside the live generation. It asks
// once per applied generation, because a primary whose own bytes are damaged
// ships them in the Full delta too, and asking again would only refetch them.
func (f *followerState) noteDamage() {
	f.mu.Lock()
	if at := (followerDurableState{Epoch: f.epoch, Gen: f.gen}); at != f.damageAt {
		f.damageAt, f.refetch = at, true
	}
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

// runFollower is the poll loop: ask, apply the answer, back off with jitter
// while asking or applying fails, idle-poll when caught up.
func (s *Store) runFollower(ctx context.Context) {
	f := s.fol
	defer close(f.done)
	bo := storage.Backoff{Base: 200 * time.Millisecond, Max: 10 * time.Second}
	fails := 0
	for ctx.Err() == nil {
		applied, err := s.pollOnce(ctx)
		switch {
		case err != nil:
			// The first retry is immediate: after a failed apply it fetches the
			// Full delta that makes the replica one generation again.
			if fails > 0 {
				sleepCtx(ctx, bo.Delay(min(fails-1, 8)))
			}
			fails++
		case applied == 0:
			fails = 0
			sleepCtx(ctx, f.poll)
		default:
			fails = 0
		}
	}
}

// pollOnce is the one way a follower is brought current: it asks the source
// what follows the cursor and applies the deltas of the answer in order,
// returning how many it committed. It asks with the applied cursor, or with
// the zero cursor while refetch is set — no primary's epoch is 0, so the answer
// is a Full delta, which re-establishes a verified state whatever went wrong
// (local I/O, a delta that does not continue the prefix, damaged bytes). An
// apply that fails sets refetch; the cursor itself moves only with a committed
// apply, so ReplStatus always reports the generation the files hold.
func (s *Store) pollOnce(ctx context.Context) (applied int, err error) {
	f := s.fol
	f.mu.Lock()
	epoch, gen := f.epoch, f.gen
	if f.refetch {
		epoch, gen = 0, 0
	}
	f.mu.Unlock()
	batch, err := f.src.Deltas(ctx, epoch, gen)
	if ctx.Err() != nil {
		return 0, ctx.Err()
	}
	if err != nil {
		f.pollErrs.Inc()
		f.noteErr(err)
		return 0, err
	}
	f.noteOK(batch.PrimaryGen)
	for _, d := range batch.Deltas {
		if err := s.ApplyReplDelta(d); err != nil {
			f.failures.Inc()
			f.mu.Lock()
			f.lastErr, f.refetch = err.Error(), true
			f.mu.Unlock()
			return applied, err
		}
		if d.Full {
			f.resyncs.Inc()
		}
		applied++
	}
	return applied, nil
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

// ApplyReplDelta applies one wire-verified delta to the follower with the
// store's crash-atomic commit discipline:
//
//  1. the encoded delta is journaled durably (Open redoes it after a crash);
//  2. its table and index ranges reach the files through applyRanges: every
//     byte but the index superblock page written, fsynced and read back from
//     the device against the shipped CRCs, and only then that page — the
//     commit point — the same way;
//  3. the engines open over the verified bytes and install swaps them in;
//  4. the catalog and the durable replication cursor follow, and the journal
//     is dropped.
//
// An incremental delta must continue the applied prefix exactly; it is
// written in place, over the live files, under the exclusive engine lock —
// searches see the previous generation or the new one, never bytes in flight,
// and keep their pool pages. A Full delta resets the prefix; it is written
// into a new pair of files beside the live one, which keeps answering until
// the swap. A failure anywhere before the commit point leaves
// the previous generation committed.
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
	if err := writeFileAtomic(filepath.Join(s.dir, replJournalFile), d.Encode()); err != nil {
		return fmt.Errorf("iva: apply delta: journal: %w", err)
	}
	if err := s.applyDelta(d); err != nil {
		return fmt.Errorf("iva: apply delta: %w", err)
	}
	f.mu.Lock()
	f.epoch, f.gen = d.Epoch, d.Gen
	f.lastOK = time.Now()
	if d.Full {
		f.refetch = false
	}
	f.mu.Unlock()
	f.applied.Inc()
	f.appliedBytes.Add(d.Bytes())
	return nil
}

// applyDelta is steps 2 to 4 of ApplyReplDelta, and what Open redoes a journal
// through: the delta is routed to one of the two ways bytes change under a
// store. Caller holds s.mu (Open: owns the store, which has no generation
// yet, so even an in-place delta finds no engines to lock out).
func (s *Store) applyDelta(d *repl.Delta) error {
	catFD := d.File(repl.FileCatalog)
	if catFD == nil || len(catFD.Ranges) != 1 || catFD.Ranges[0].Off != 0 || int64(len(catFD.Ranges[0].Data)) != catFD.Size {
		return fmt.Errorf("catalog must ship as one whole range")
	}
	cat, err := table.DecodeCatalog(catFD.Ranges[0].Data)
	if err != nil {
		return err
	}
	tblF, ixF := s.tblFile, s.ixFile
	switch {
	case d.Full:
		tblF, ixF, err = s.openPair(newSuffix)
	case s.tbl == nil:
		tblF, ixF, err = s.openPair("")
	default:
		s.engineMu.Lock()
		defer s.engineMu.Unlock()
	}
	if err != nil {
		return err
	}
	var g generation
	if err = applyRanges(tblF, ixF, d); err == nil {
		g, err = s.openEngines(cat, tblF, ixF, false)
	}
	if err != nil {
		if tblF.File != s.tblFile.File {
			s.discard(tblF, ixF)
		}
		return err
	}
	if err := s.install(g); err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(s.dir, catalogFileName), catFD.Ranges[0].Data); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	if err := saveFollowerState(s.dir, d.Epoch, d.Gen); err != nil {
		return err
	}
	return os.Remove(filepath.Join(s.dir, replJournalFile))
}

// applyRanges writes a delta's table and index ranges to a pair of files in
// two passes: every byte but the index superblock page, then that page — the
// commit point. A pass writes its ranges, fsyncs, and reads each range back
// through the device — below the page cache, so the bytes the next open will
// see — against the shipped CRC; the superblock is written only once all it
// references has verified. It is the one routine a delta's bytes reach a file
// through: the live pair for an incremental delta, a pair beside it for a
// Full one, either again when Open redoes a journal.
func applyRanges(tblF, ixF storeFile, d *repl.Delta) error {
	for _, superblock := range []bool{false, true} {
		pass := func(fn func(storeFile, repl.Range) error) error {
			for _, fd := range d.Files {
				f := tblF
				switch fd.ID {
				case repl.FileTable:
				case repl.FileIndex:
					f = ixF
				case repl.FileCatalog:
					continue
				default:
					return fmt.Errorf("unknown file id %d", fd.ID)
				}
				for _, r := range fd.Ranges {
					if (fd.ID == repl.FileIndex && r.Off < replSuperblockSize) != superblock {
						continue
					}
					if err := fn(f, r); err != nil {
						return fmt.Errorf("%s: %w", f.name, err)
					}
				}
			}
			return nil
		}
		err := pass(func(f storeFile, r repl.Range) error { return f.WriteAt(r.Data, r.Off) })
		if err == nil && !superblock {
			err = tblF.Sync()
		}
		if err == nil {
			err = ixF.Sync()
		}
		if err != nil {
			return err
		}
		err = pass(func(f storeFile, r repl.Range) error {
			buf := make([]byte, len(r.Data))
			if _, err := f.dev.ReadAt(buf, r.Off); err != nil {
				return fmt.Errorf("read back: %w", err)
			}
			if storage.Checksum(buf) != r.CRC {
				return fmt.Errorf("range [%d,+%d) failed read-back verification; refusing to commit", r.Off, len(r.Data))
			}
			return nil
		})
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
