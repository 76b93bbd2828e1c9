package iva

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sparsewide/iva/internal/repl"
	"github.com/sparsewide/iva/internal/storage"
)

// localSource drives a follower from an in-process primary Store, skipping
// HTTP but not the wire format: every delta round-trips through its encoded
// form exactly as it would over the network.
type localSource struct{ p *Store }

func (l localSource) Deltas(ctx context.Context, epoch, from uint64) (*repl.Batch, error) {
	blob, err := l.p.ReplDeltas(epoch, from)
	if err != nil {
		return nil, err
	}
	return repl.DecodeBatch(blob)
}

// fullDelta asks the primary the question of a new replica — what follows the
// zero cursor? — and returns the one Full delta of the answer.
func fullDelta(t *testing.T, p *Store) *repl.Delta {
	t.Helper()
	b, err := localSource{p}.Deltas(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Deltas) != 1 || !b.Deltas[0].Full {
		t.Fatalf("the zero cursor was answered with %d deltas, want one Full delta", len(b.Deltas))
	}
	return b.Deltas[0]
}

// gatedSource caps the generation served to the follower so tests can hold
// it at an exact synced generation and compare answers there. A Full delta
// passes the gate: it is the primary's synced state whenever it is cut.
type gatedSource struct {
	inner localSource
	mu    sync.Mutex
	max   uint64
}

func (g *gatedSource) allow(gen uint64) {
	g.mu.Lock()
	g.max = gen
	g.mu.Unlock()
}

func (g *gatedSource) Deltas(ctx context.Context, epoch, from uint64) (*repl.Batch, error) {
	b, err := g.inner.Deltas(ctx, epoch, from)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	max := g.max
	g.mu.Unlock()
	kept := b.Deltas[:0]
	for _, d := range b.Deltas {
		if d.Gen <= max || d.Full {
			kept = append(kept, d)
		}
	}
	b.Deltas = kept
	if b.PrimaryGen > max {
		b.PrimaryGen = max
	}
	return b, nil
}

// waitFollowerGen blocks until the follower's applied generation reaches
// want (under the given epoch, 0 = any).
func waitFollowerGen(t *testing.T, st *Store, want uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		rs := st.ReplStatus()
		if rs.Gen >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at gen %d (want %d), last error %q", rs.Gen, want, rs.LastError)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// bootstrapDir makes dir a follower replica at the source's current
// generation and leaves it closed.
func bootstrapDir(t *testing.T, dir string, src replSource) {
	t.Helper()
	fol, err := openFollower(dir, src, FollowerOptions{Poll: time.Hour}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fol.Close(); err != nil {
		t.Fatal(err)
	}
}

// replWorkload is a deterministic mixed workload: inserts, updates and
// deletes over a handful of numeric and text attributes.
type replWorkload struct {
	rng  *rand.Rand
	tids []TID
}

func (w *replWorkload) row(i int) Row {
	return Row{
		"num":   Num(float64(w.rng.Intn(500))),
		"score": Num(w.rng.Float64() * 100),
		"cat":   Strings(fmt.Sprintf("cat-%02d", w.rng.Intn(24))),
		"tag":   Strings(fmt.Sprintf("tag-%d", w.rng.Intn(8)), fmt.Sprintf("alt-%d", i%5)),
	}
}

func (w *replWorkload) step(t *testing.T, st *Store, i int) {
	t.Helper()
	switch {
	case len(w.tids) > 20 && w.rng.Intn(100) < 12:
		k := w.rng.Intn(len(w.tids))
		if err := st.Delete(w.tids[k]); err != nil {
			t.Fatal(err)
		}
		w.tids = append(w.tids[:k], w.tids[k+1:]...)
	case len(w.tids) > 20 && w.rng.Intn(100) < 12:
		k := w.rng.Intn(len(w.tids))
		tid, err := st.Update(w.tids[k], w.row(i))
		if err != nil {
			t.Fatal(err)
		}
		w.tids[k] = tid // updates re-key the tuple
	default:
		tid, err := st.Insert(w.row(i))
		if err != nil {
			t.Fatal(err)
		}
		w.tids = append(w.tids, tid)
	}
}

// replQueries is the comparison battery: a deterministic set of queries
// touching every attribute shape.
func replQueries(rng *rand.Rand) []*Query {
	qs := []*Query{
		NewQuery(10).WhereNum("num", 250),
		NewQuery(5).WhereText("cat", "cat-07").WhereNum("score", 50),
		NewQuery(20).WhereText("tag", "tag-3"),
		NewQuery(1).WhereNum("num", 0).WhereNum("score", 0),
		NewQuery(15).WhereText("cat", "cat-00").WhereText("tag", "alt-2").WhereNum("num", 100),
	}
	for i := 0; i < 5; i++ {
		qs = append(qs, NewQuery(1+rng.Intn(12)).
			WhereNum("num", float64(rng.Intn(500))).
			WhereText("cat", fmt.Sprintf("cat-%02d", rng.Intn(24))))
	}
	return qs
}

// assertSameAnswers runs the battery on both stores and requires identical
// results — TIDs, order, and exact distances.
func assertSameAnswers(t *testing.T, primary, follower *Store, queries []*Query, tag string) {
	t.Helper()
	for qi, q := range queries {
		pres, _, perr := primary.Search(q)
		fres, fstats, ferr := follower.Search(q)
		if (perr == nil) != (ferr == nil) {
			t.Fatalf("%s: query %d error mismatch: primary %v, follower %v", tag, qi, perr, ferr)
		}
		if perr != nil {
			continue
		}
		if len(pres) != len(fres) {
			t.Fatalf("%s: query %d: primary %d results, follower %d", tag, qi, len(pres), len(fres))
		}
		for i := range pres {
			if pres[i].TID != fres[i].TID || pres[i].Dist != fres[i].Dist {
				t.Fatalf("%s: query %d result %d: primary {%d %v}, follower {%d %v} (follower degraded segs: %d)",
					tag, qi, i, pres[i].TID, pres[i].Dist, fres[i].TID, fres[i].Dist, fstats.DegradedSegments)
			}
		}
	}
}

// TestReplFollowerDifferential is the seeded primary/follower differential:
// a follower held at each synced generation answers every query of the
// battery byte-identically to the primary, across deletes, updates, follower
// reopens, a primary rebuild (which the next poll crosses with a Full delta),
// and search parallelism 1 / 2 / GOMAXPROCS.
func TestReplFollowerDifferential(t *testing.T) {
	base := t.TempDir()
	pdir, fdir := filepath.Join(base, "primary"), filepath.Join(base, "follower")
	primary, err := Create(pdir, Options{SearchParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	rng := rand.New(rand.NewSource(0x1fa5eed))
	w := &replWorkload{rng: rng}
	for i := 0; i < 300; i++ {
		w.step(t, primary, i)
	}
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := primary.EnableReplSource(); err != nil {
		t.Fatal(err)
	}

	src := &gatedSource{inner: localSource{primary}}
	src.allow(primary.ReplStatus().Gen)
	follower, err := openFollower(fdir, src, FollowerOptions{Poll: 5 * time.Millisecond}, Options{SearchParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { follower.Close() }()
	queries := replQueries(rand.New(rand.NewSource(42)))
	waitFollowerGen(t, follower, primary.ReplStatus().Gen)
	assertSameAnswers(t, primary, follower, queries, "bootstrap")

	// Writes on the follower must refuse.
	if _, err := follower.Insert(Row{"num": Num(1)}); err != ErrFollower {
		t.Fatalf("follower Insert returned %v, want ErrFollower", err)
	}
	if err := follower.Rebuild(); err != ErrFollower {
		t.Fatalf("follower Rebuild returned %v, want ErrFollower", err)
	}
	attrs := follower.Stats().Attributes
	if err := follower.DefineAttr("rogue", Numeric); err != ErrFollower {
		t.Fatalf("follower DefineAttr returned %v, want ErrFollower", err)
	}
	if got := follower.Stats().Attributes; got != attrs {
		t.Fatalf("a refused DefineAttr took the follower's catalog from %d to %d attributes", attrs, got)
	}

	// Generation-by-generation: mutate, sync, release exactly one delta,
	// compare at that synced generation.
	for round := 0; round < 8; round++ {
		for i := 0; i < 40; i++ {
			w.step(t, primary, 1000+round*40+i)
		}
		if err := primary.Sync(); err != nil {
			t.Fatal(err)
		}
		gen := primary.ReplStatus().Gen
		src.allow(gen)
		waitFollowerGen(t, follower, gen)
		assertSameAnswers(t, primary, follower, queries, fmt.Sprintf("gen %d", gen))
	}

	// Follower reopen (crash-free restart): must resume from its durable
	// cursor, not take a Full delta.
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	follower, err = openFollower(fdir, src, FollowerOptions{Poll: 5 * time.Millisecond}, Options{SearchParallelism: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	resyncsBefore := follower.fol.resyncs.Value()
	waitFollowerGen(t, follower, primary.ReplStatus().Gen)
	assertSameAnswers(t, primary, follower, queries, "after follower reopen")
	if got := follower.fol.resyncs.Value(); got != resyncsBefore {
		t.Fatalf("clean reopen installed %d Full deltas, want none", got-resyncsBefore)
	}

	// A primary rebuild invalidates the delta log; the follower must land on
	// the rebuilt state through a Full delta and still answer identically.
	for i := 0; i < 40; i++ {
		w.step(t, primary, 2000+i)
	}
	if err := primary.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}
	src.allow(primary.ReplStatus().Gen)
	waitFollowerGen(t, follower, primary.ReplStatus().Gen)
	assertSameAnswers(t, primary, follower, queries, "after primary rebuild")
	if follower.fol.resyncs.Value() == resyncsBefore {
		t.Fatal("the follower crossed a primary rebuild without a Full delta")
	}
}

// TestReplPrimaryCrashEpochBump: a primary that advances past its recorded
// replication state while replication is down (crash after sync without a
// cut) must come back under a fresh epoch, which gets followers a Full delta
// rather than letting them diverge silently.
func TestReplPrimaryCrashEpochBump(t *testing.T) {
	base := t.TempDir()
	pdir, fdir := filepath.Join(base, "primary"), filepath.Join(base, "follower")
	primary, err := Create(pdir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := &replWorkload{rng: rand.New(rand.NewSource(7))}
	for i := 0; i < 120; i++ {
		w.step(t, primary, i)
	}
	if err := primary.EnableReplSource(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}
	src := &gatedSource{inner: localSource{primary}}
	src.allow(primary.ReplStatus().Gen)
	follower, err := openFollower(fdir, src, FollowerOptions{Poll: 5 * time.Millisecond}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitFollowerGen(t, follower, primary.ReplStatus().Gen)
	epoch1 := primary.ReplStatus().Epoch
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	// "Crash" the primary: abandon without Close, reopen, mutate and sync
	// WITHOUT replication enabled — the durable repl state is now stale.
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}
	primary = nil // abandoned
	p2, err := Open(pdir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	w2 := &replWorkload{rng: rand.New(rand.NewSource(8))}
	for i := 0; i < 60; i++ {
		w2.step(t, p2, i)
	}
	if err := p2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p2.EnableReplSource(); err != nil {
		t.Fatal(err)
	}
	rs := p2.ReplStatus()
	if rs.Epoch <= epoch1 {
		t.Fatalf("stale primary resumed epoch %d (was %d); divergence guard failed", rs.Epoch, epoch1)
	}
	// The old follower reattaches: epoch mismatch → Full delta → identical.
	if err := p2.Sync(); err != nil {
		t.Fatal(err)
	}
	src2 := &gatedSource{inner: localSource{p2}}
	src2.allow(p2.ReplStatus().Gen)
	follower, err = openFollower(fdir, src2, FollowerOptions{Poll: 5 * time.Millisecond}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	deadline := time.Now().Add(15 * time.Second)
	for follower.ReplStatus().Epoch != rs.Epoch || follower.ReplStatus().Gen < rs.Gen {
		if time.Now().After(deadline) {
			frs := follower.ReplStatus()
			t.Fatalf("follower stuck at epoch %d gen %d (want epoch %d gen %d), err %q",
				frs.Epoch, frs.Gen, rs.Epoch, rs.Gen, frs.LastError)
		}
		time.Sleep(2 * time.Millisecond)
	}
	assertSameAnswers(t, p2, follower, replQueries(rand.New(rand.NewSource(42))), "after epoch bump")
}

// TestReplFollowerCrashMidApply simulates a power cut at every interesting
// boundary of a delta apply, for both ways a delta's bytes reach a follower's
// files. In place (an incremental delta): journal written but nothing applied,
// partially applied, fully applied but journal not yet dropped. Wholesale (a
// Full delta): journaled with no new file yet, the new pair half written, the
// swap cut between its two renames, installed with the cursor and the journal
// still the old ones. Plain Open must redo the journal through
// applyRanges and land on exactly the delta's generation; a follower opened
// over the result answers identically to the primary and scrubs clean.
func TestReplFollowerCrashMidApply(t *testing.T) {
	base := t.TempDir()
	pdir := filepath.Join(base, "primary")
	// Growth and clean rebuilds pinned off: each rebuild invalidates the
	// delta log and bumps the generation, and this test needs exactly one
	// delta per Sync.
	primary, err := Create(pdir, Options{GrowthRebuildFactor: 1e9, CleanThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	w := &replWorkload{rng: rand.New(rand.NewSource(11))}
	for i := 0; i < 200; i++ {
		w.step(t, primary, i)
	}
	if err := primary.EnableReplSource(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}

	// Bootstrap a reference follower dir and cut exactly one incremental
	// delta past it. A step batch can trigger an internal layout rebuild,
	// which invalidates the delta log (gen jumps, no incremental available) —
	// retry from a fresh bootstrap until a batch stays rebuild-free.
	src := localSource{primary}
	fdir := filepath.Join(base, "follower")
	var gen0, gen1 uint64
	var delta *repl.Delta
	for attempt := 0; delta == nil; attempt++ {
		if attempt == 10 {
			t.Fatal("no rebuild-free delta window in 10 attempts")
		}
		if err := os.RemoveAll(fdir); err != nil {
			t.Fatal(err)
		}
		bootstrapDir(t, fdir, src)
		gen0 = primary.ReplStatus().Gen
		for i := 0; i < 30; i++ {
			w.step(t, primary, 500+attempt*30+i)
		}
		if err := primary.Sync(); err != nil {
			t.Fatal(err)
		}
		gen1 = primary.ReplStatus().Gen
		if gen1 != gen0+1 {
			continue // a rebuild invalidated the log mid-batch
		}
		batch, err := src.Deltas(context.Background(), primary.ReplStatus().Epoch, gen0)
		if err != nil || len(batch.Deltas) != 1 {
			t.Fatalf("deltas: %v (%d deltas)", err, len(batch.Deltas))
		}
		delta = batch.Deltas[0]
	}
	// Cutting a Full delta syncs, which may cut an incremental one first: it
	// is of the delta's generation or a later one, with the same rows.
	snap := fullDelta(t, primary)
	if snap.Gen < gen1 {
		t.Fatalf("Full delta at gen %d, want gen %d or later", snap.Gen, gen1)
	}
	queries := replQueries(rand.New(rand.NewSource(42)))

	// copyDir snapshots the bootstrapped follower dir so each crash scenario
	// starts from the same bytes.
	copyDir := func(dst string) {
		t.Helper()
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(fdir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			blob, err := os.ReadFile(filepath.Join(fdir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, e.Name()), blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write := func(dir, name string, blob []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// image is the whole file a Full delta ships under id.
	image := func(id uint8) []byte {
		var blob []byte
		for _, r := range snap.File(id).Ranges {
			blob = append(blob, r.Data...)
		}
		return blob
	}
	// applied runs d through the one apply path on a passively opened replica
	// and then puts back what a crash just before the cursor write would have
	// left: the cursor of gen0 and the journal.
	applied := func(dir string, d *repl.Delta) {
		t.Helper()
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cur := *st.replicaCur
		write(dir, replJournalFile, d.Encode())
		if err := st.applyDelta(d); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if err := saveFollowerState(dir, cur.Epoch, cur.Gen); err != nil {
			t.Fatal(err)
		}
		write(dir, replJournalFile, d.Encode())
	}

	scenarios := []struct {
		name    string
		wreck   func(dir string) // leaves the dir as a crash would
		openGen uint64           // generation plain Open must land on
	}{
		{"journal written, nothing applied", func(dir string) {
			write(dir, replJournalFile, delta.Encode())
		}, gen1},
		{"journal written, half the ranges applied", func(dir string) {
			write(dir, replJournalFile, delta.Encode())
			for _, fd := range delta.Files {
				if fd.ID == repl.FileCatalog {
					continue
				}
				f, err := os.OpenFile(filepath.Join(dir, repl.FileName(fd.ID)), os.O_RDWR, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				for j, r := range fd.Ranges {
					if j%2 == 1 || (fd.ID == repl.FileIndex && r.Off < replSuperblockSize) {
						continue // skip odd ranges and the superblock: torn mid-apply
					}
					if _, err := f.WriteAt(r.Data, r.Off); err != nil {
						t.Fatal(err)
					}
				}
				f.Close()
			}
		}, gen1},
		{"fully applied, journal not yet dropped", func(dir string) { applied(dir, delta) }, gen1},
		{"torn journal (crash during disk corruption)", func(dir string) {
			blob := delta.Encode()
			write(dir, replJournalFile, blob[:len(blob)/2])
		}, 0}, // unreadable journal → zero cursor → the next poll is answered with a Full delta
		{"Full delta journaled, nothing written", func(dir string) {
			write(dir, replJournalFile, snap.Encode())
		}, snap.Gen},
		{"Full delta journaled, new pair half written", func(dir string) {
			write(dir, replJournalFile, snap.Encode())
			write(dir, tableFileName+newSuffix, image(repl.FileTable))
			ix := image(repl.FileIndex)
			write(dir, indexFileName+newSuffix, ix[:len(ix)/2])
		}, snap.Gen},
		{"Full delta journaled, swap cut between its renames", func(dir string) {
			write(dir, replJournalFile, snap.Encode())
			write(dir, tableFileName, image(repl.FileTable))
			write(dir, indexFileName+newSuffix, image(repl.FileIndex))
		}, snap.Gen},
		{"Full delta installed, journal not yet dropped", func(dir string) { applied(dir, snap) }, snap.Gen},
	}
	for i, sc := range scenarios {
		dir := filepath.Join(base, fmt.Sprintf("crash-%d", i))
		copyDir(dir)
		sc.wreck(dir)
		// Plain Open is enough to recover: no poll loop, no primary.
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("%s: open: %v", sc.name, err)
		}
		if rs := st.ReplStatus(); rs.Role != "follower" || rs.Gen != sc.openGen {
			t.Fatalf("%s: plain Open landed on %+v, want a follower at gen %d", sc.name, rs, sc.openGen)
		}
		if sc.openGen != 0 {
			assertSameAnswers(t, primary, st, queries, sc.name+" (plain Open)")
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.Name() == replJournalFile || strings.HasSuffix(e.Name(), newSuffix) {
				t.Fatalf("%s: %s survived recovery", sc.name, e.Name())
			}
		}

		fol, err := openFollower(dir, src, FollowerOptions{Poll: 5 * time.Millisecond}, Options{})
		if err != nil {
			t.Fatalf("%s: reopen: %v", sc.name, err)
		}
		waitFollowerGen(t, fol, primary.ReplStatus().Gen)
		assertSameAnswers(t, primary, fol, queries, sc.name)
		rep, err := fol.Scrub()
		if err != nil {
			t.Fatalf("%s: scrub: %v", sc.name, err)
		}
		if !rep.Clean() {
			t.Fatalf("%s: recovered follower not clean: %v", sc.name, rep.Problems)
		}
		chk, err := fol.Check()
		if err != nil || !chk.Ok() {
			t.Fatalf("%s: check: %v %v", sc.name, err, chk.Problems)
		}
		fol.Close()
	}
}

// corruptingDevice flips a bit of every write beyond the superblock while
// armed — a disk that lies on the write path. The follower's read-back
// verification must catch it before the commit point. The switch is shared by
// every device of the disk: a Full delta is written to a new file.
type corruptingDevice struct {
	storage.Device
	armed *atomic.Bool
	hits  *atomic.Int64
}

func (d corruptingDevice) WriteAt(p []byte, off int64) (int, error) {
	if d.armed.Load() && off >= replSuperblockSize && len(p) > 0 {
		d.hits.Add(1)
		q := append([]byte(nil), p...)
		q[len(q)/2] ^= 0x10
		return d.Device.WriteAt(q, off)
	}
	return d.Device.WriteAt(p, off)
}

// TestReplFollowerNeverCommitsUnverified: with a lying disk under the
// follower's index file, nothing reaches a commit point through applyRanges —
// not an incremental delta written in place, not the Full delta the next poll
// is answered with, written beside, not the journal Open redoes after a restart:
// the durable cursor and the superblock stay where they were, nothing of the
// abandoned pair is left in the directory or the pool, and the follower heals
// once the disk behaves.
func TestReplFollowerNeverCommitsUnverified(t *testing.T) {
	base := t.TempDir()
	pdir, fdir := filepath.Join(base, "primary"), filepath.Join(base, "follower")
	primary, err := Create(pdir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	w := &replWorkload{rng: rand.New(rand.NewSource(21))}
	for i := 0; i < 150; i++ {
		w.step(t, primary, i)
	}
	if err := primary.EnableReplSource(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}

	var armed atomic.Bool
	var hits atomic.Int64
	opts := Options{deviceHook: func(name string, dev storage.Device) storage.Device {
		if strings.TrimSuffix(name, newSuffix) == indexFileName {
			return corruptingDevice{Device: dev, armed: &armed, hits: &hits}
		}
		return dev
	}}
	src := &gatedSource{inner: localSource{primary}}
	src.allow(primary.ReplStatus().Gen)
	follower, err := openFollower(fdir, src, FollowerOptions{Poll: 5 * time.Millisecond}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { follower.Close() }()
	waitFollowerGen(t, follower, primary.ReplStatus().Gen)
	genBefore := follower.ReplStatus().Gen
	sbBefore, err := follower.replSuperblockCRC()
	if err != nil {
		t.Fatal(err)
	}

	// Arm the lying disk, cut a delta, let the follower try to apply it: in
	// place first, and when that fails, the Full delta its next poll gets.
	armed.Store(true)
	for i := 0; i < 40; i++ {
		w.step(t, primary, 300+i)
	}
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}
	src.allow(primary.ReplStatus().Gen)
	deadline := time.Now().Add(15 * time.Second)
	for follower.fol.failures.Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("lying disk tripped %d apply failures, want the delta's and the Full delta's (hits %d)",
				follower.fol.failures.Value(), hits.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Neither commit point was reached: the durable cursor still names the old
	// generation, the store still runs on the old pair, and the pair that was
	// written beside it is gone from the directory and the pool.
	unchanged := func(stage string) {
		t.Helper()
		st, err := loadFollowerState(fdir)
		if err != nil {
			t.Fatal(err)
		}
		if st.Gen != genBefore {
			t.Fatalf("%s: durable cursor advanced to %d under a lying disk (was %d)", stage, st.Gen, genBefore)
		}
		for _, name := range []string{tableFileName + newSuffix, indexFileName + newSuffix} {
			if _, err := os.Stat(filepath.Join(fdir, name)); !os.IsNotExist(err) {
				t.Fatalf("%s: %s left behind (%v)", stage, name, err)
			}
		}
	}
	follower.mu.Lock() // between two applies
	unchanged("live")
	if sb, err := follower.replSuperblockCRC(); err != nil || sb != sbBefore {
		t.Fatalf("superblock changed under a lying disk (%v)", err)
	}
	if n, pins := follower.pool.Files(), follower.pool.PinnedFrames(); n != 2 || pins != 0 {
		t.Fatalf("after failed applies the pool holds %d files and %d pinned frames, want 2 and 0", n, pins)
	}
	follower.mu.Unlock()

	// A restart finds the journal of the last attempt; the redo goes through
	// the same routine and fails the same way, leaving the same state.
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(fdir, replJournalFile)); err != nil {
		t.Fatalf("no journal of the failed apply to redo: %v", err)
	}
	if _, err := openFollower(fdir, src, FollowerOptions{Poll: 5 * time.Millisecond}, opts); err == nil || !strings.Contains(err.Error(), "read-back verification") {
		t.Fatalf("redo over a lying disk: %v, want a read-back verification failure", err)
	}
	unchanged("redo")

	// Disk heals; the redo lands the follower on the journal's generation,
	// it converges and answers identically.
	armed.Store(false)
	follower, err = openFollower(fdir, src, FollowerOptions{Poll: 5 * time.Millisecond}, opts)
	if err != nil {
		t.Fatal(err)
	}
	waitFollowerGen(t, follower, primary.ReplStatus().Gen)
	assertSameAnswers(t, primary, follower, replQueries(rand.New(rand.NewSource(42))), "after disk healed")
	rep, err := follower.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("healed follower not clean: %v", rep.Problems)
	}
}

// TestReplWireCorruptionRejected: a bit-flipped batch on the wire is
// rejected at decode and never touches the follower's files; the follower
// converges once the wire heals.
func TestReplWireCorruptionRejected(t *testing.T) {
	base := t.TempDir()
	pdir, fdir := filepath.Join(base, "primary"), filepath.Join(base, "follower")
	primary, err := Create(pdir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	w := &replWorkload{rng: rand.New(rand.NewSource(31))}
	for i := 0; i < 100; i++ {
		w.step(t, primary, i)
	}
	if err := primary.EnableReplSource(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}
	flip := &flippingSource{p: primary}
	follower, err := openFollower(fdir, flip, FollowerOptions{Poll: 5 * time.Millisecond}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitFollowerGen(t, follower, primary.ReplStatus().Gen)
	genBefore := follower.ReplStatus().Gen

	flip.arm(true)
	for i := 0; i < 30; i++ {
		w.step(t, primary, 200+i)
	}
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for follower.fol.pollErrs.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flipped wire never produced a poll error")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := follower.ReplStatus().Gen; got != genBefore {
		t.Fatalf("follower advanced to gen %d on a corrupt wire (was %d)", got, genBefore)
	}
	flip.arm(false)
	waitFollowerGen(t, follower, primary.ReplStatus().Gen)
	assertSameAnswers(t, primary, follower, replQueries(rand.New(rand.NewSource(42))), "after wire healed")
}

// flippingSource serves deltas with one bit flipped while armed; decode must
// reject them (repl.ErrCorruptDelta), which the poll loop counts as a poll
// error.
type flippingSource struct {
	p     *Store
	mu    sync.Mutex
	flipy bool
}

func (f *flippingSource) arm(on bool) {
	f.mu.Lock()
	f.flipy = on
	f.mu.Unlock()
}

func (f *flippingSource) Deltas(ctx context.Context, epoch, from uint64) (*repl.Batch, error) {
	blob, err := f.p.ReplDeltas(epoch, from)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	flip := f.flipy
	f.mu.Unlock()
	if flip && len(blob) > 64 {
		blob = append([]byte(nil), blob...)
		blob[len(blob)/3] ^= 0x04
	}
	return repl.DecodeBatch(blob)
}

// chaosSource wraps the in-process source with the two nightly fault modes:
// partitions (every call fails) and wire bit flips (every payload is
// corrupted before decode). The soak flips between modes while the follower
// keeps polling.
type chaosSource struct {
	inner localSource
	mu    sync.Mutex
	mode  int // 0 clean, 1 partitioned, 2 flipping
}

func (c *chaosSource) set(mode int) {
	c.mu.Lock()
	c.mode = mode
	c.mu.Unlock()
}

func (c *chaosSource) now() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mode
}

func (c *chaosSource) Deltas(ctx context.Context, epoch, from uint64) (*repl.Batch, error) {
	if c.now() == 1 {
		return nil, fmt.Errorf("chaos: partitioned")
	}
	blob, err := c.inner.p.ReplDeltas(epoch, from)
	if err != nil {
		return nil, err
	}
	if c.now() == 2 && len(blob) > 64 {
		blob = append([]byte(nil), blob...)
		blob[len(blob)/2] ^= 0x20
	}
	return repl.DecodeBatch(blob)
}

// TestReplSoak is the nightly partition/bit-flip replication soak: a live
// workload on the primary while the wire cycles through clean, partitioned
// and corrupting regimes, with periodic follower restarts. After every healed
// round the follower must converge to the primary's generation and answer the
// battery identically; the soak ends with a clean scrub on both sides. Gated
// by IVA_REPL_SOAK (a duration, e.g. "60s").
func TestReplSoak(t *testing.T) {
	env := os.Getenv("IVA_REPL_SOAK")
	if env == "" {
		t.Skip("set IVA_REPL_SOAK=<duration> to run the replication soak")
	}
	dur, err := time.ParseDuration(env)
	if err != nil {
		dur = 2 * time.Second
	}
	base := t.TempDir()
	pdir, fdir := filepath.Join(base, "primary"), filepath.Join(base, "follower")
	primary, err := Create(pdir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	w := &replWorkload{rng: rand.New(rand.NewSource(61))}
	for i := 0; i < 150; i++ {
		w.step(t, primary, i)
	}
	if err := primary.EnableReplSource(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}
	chaos := &chaosSource{inner: localSource{primary}}
	follower, err := openFollower(fdir, chaos, FollowerOptions{Poll: 2 * time.Millisecond}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { follower.Close() }()
	waitFollowerGen(t, follower, primary.ReplStatus().Gen)

	rng := rand.New(rand.NewSource(62))
	deadline := time.Now().Add(dur)
	round := 0
	for time.Now().Before(deadline) {
		round++
		// Pick this round's regime, mutate and cut under it.
		chaos.set(rng.Intn(3))
		steps := 10 + rng.Intn(30)
		for i := 0; i < steps; i++ {
			w.step(t, primary, round*1000+i)
		}
		if err := primary.Sync(); err != nil {
			t.Fatalf("round %d: sync: %v", round, err)
		}
		time.Sleep(time.Duration(rng.Intn(20)) * time.Millisecond)
		// Occasionally restart the follower mid-regime.
		if rng.Intn(5) == 0 {
			if err := follower.Close(); err != nil {
				t.Fatalf("round %d: follower close: %v", round, err)
			}
			follower, err = openFollower(fdir, chaos, FollowerOptions{Poll: 2 * time.Millisecond}, Options{})
			if err != nil {
				t.Fatalf("round %d: follower reopen: %v", round, err)
			}
		}
		// Heal and require convergence with identical answers.
		chaos.set(0)
		waitFollowerGen(t, follower, primary.ReplStatus().Gen)
		assertSameAnswers(t, primary, follower, replQueries(rand.New(rand.NewSource(int64(round)))),
			fmt.Sprintf("soak round %d", round))
	}
	for name, st := range map[string]*Store{"primary": primary, "follower": follower} {
		rep, err := st.Scrub()
		if err != nil {
			t.Fatalf("%s scrub after soak: %v", name, err)
		}
		if !rep.Clean() {
			t.Fatalf("%s not clean after soak: %v", name, rep.Problems)
		}
	}
	t.Logf("replication soak: %d rounds in %v, follower at gen %d", round, dur, follower.ReplStatus().Gen)
}

// TestReplicaDirReadOnlyUnderPlainOpen: opening a follower's directory with
// plain Open (no poll loop — e.g. `ivatool insert` against a replica dir)
// must still refuse local mutations and skip Sync's superblock rewrite;
// either would fork the bytes from the generation the durable cursor names.
func TestReplicaDirReadOnlyUnderPlainOpen(t *testing.T) {
	base := t.TempDir()
	pdir, fdir := filepath.Join(base, "primary"), filepath.Join(base, "follower")
	primary, err := Create(pdir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	w := &replWorkload{rng: rand.New(rand.NewSource(71))}
	for i := 0; i < 80; i++ {
		w.step(t, primary, i)
	}
	if err := primary.EnableReplSource(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}
	bootstrapDir(t, fdir, localSource{primary})

	before, err := os.ReadFile(filepath.Join(fdir, indexFileName))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(fdir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rs := st.ReplStatus(); rs.Role != "follower" {
		t.Fatalf("passively opened replica reports role %q", rs.Role)
	}
	if _, err := st.Insert(Row{"num": Num(1)}); err != ErrFollower {
		t.Fatalf("Insert on passively opened replica returned %v, want ErrFollower", err)
	}
	if err := st.Delete(w.tids[0]); err != ErrFollower {
		t.Fatalf("Delete returned %v, want ErrFollower", err)
	}
	if _, err := st.Update(w.tids[0], Row{"num": Num(2)}); err != ErrFollower {
		t.Fatalf("Update returned %v, want ErrFollower", err)
	}
	if err := st.Rebuild(); err != ErrFollower {
		t.Fatalf("Rebuild returned %v, want ErrFollower", err)
	}
	if err := st.DefineAttr("rogue", Numeric); err != ErrFollower {
		t.Fatalf("DefineAttr returned %v, want ErrFollower", err)
	}
	// Nor may it become a replication source (`ivatool serve` without
	// -follow tries): that would write a primary state file the offline
	// role report reads first, and flip its status to primary.
	if err := st.EnableReplSource(); err == nil {
		t.Fatal("EnableReplSource on a passively opened replica succeeded")
	}
	if _, err := os.Stat(filepath.Join(fdir, replPrimaryStateFile)); !os.IsNotExist(err) {
		t.Fatalf("%s written into a replica directory (stat: %v)", replPrimaryStateFile, err)
	}
	if rs := st.ReplStatus(); rs.Role != "follower" {
		t.Fatalf("replica reports role %q after EnableReplSource", rs.Role)
	}
	if rs, ok := ReadReplState(fdir); !ok || rs.Role != "follower" {
		t.Fatalf("offline role of the replica directory: %+v, %v", rs, ok)
	}
	// Reads still work, and Close (which Syncs) must leave the bytes alone.
	if _, _, err := st.Search(NewQuery(5).WhereNum("num", 100)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(filepath.Join(fdir, indexFileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("index file length changed %d -> %d under a read-only open", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("index byte %d changed under a read-only open", i)
		}
	}
}
