package iva

import (
	"context"
	"errors"
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

// countingSource counts the requests a follower makes of its primary and
// keeps the cursor of the latest.
type countingSource struct {
	inner replSource
	n     atomic.Int64
	last  atomic.Pointer[followerDurableState]
}

func (c *countingSource) Deltas(ctx context.Context, epoch, from uint64) (*repl.Batch, error) {
	c.n.Add(1)
	c.last.Store(&followerDurableState{Epoch: epoch, Gen: from})
	return c.inner.Deltas(ctx, epoch, from)
}

// parkedFollower opens a follower of primary whose poll loop has made its
// first poll and sleeps for an hour: every later poll is the test's own call
// of pollOnce, so the requests it costs can be counted.
func parkedFollower(t *testing.T, dir string, primary *Store, opts Options) (*Store, *countingSource) {
	t.Helper()
	src := &countingSource{inner: localSource{primary}}
	// A new replica's bootstrap poll, then the loop's first, which finds
	// nothing new; a replica reopened at its cursor makes only the second.
	polls := int64(2)
	if _, err := loadFollowerState(dir); err == nil {
		polls = 1
	}
	fol, err := openFollower(dir, src, FollowerOptions{Poll: time.Hour}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fol.Close() })
	for deadline := time.Now().Add(15 * time.Second); src.n.Load() < polls; {
		if time.Now().After(deadline) {
			t.Fatalf("the poll loop made %d requests, want %d", src.n.Load(), polls)
		}
		time.Sleep(time.Millisecond)
	}
	waitFollowerGen(t, fol, primary.ReplStatus().Gen)
	return fol, src
}

// TestReplOneRequestAcrossRebuild: a rebuild on the primary — explicit, or the
// β-cleaning a run of deletes triggers (§IV-B) — is, for a follower, one more
// poll: one request, answered with a Full delta, no error recorded on the
// way, and the follower equal to the primary after it.
func TestReplOneRequestAcrossRebuild(t *testing.T) {
	base := t.TempDir()
	primary, err := Create(filepath.Join(base, "primary"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	w := &replWorkload{rng: rand.New(rand.NewSource(91))}
	for i := 0; i < 300; i++ {
		w.step(t, primary, i)
	}
	if err := primary.EnableReplSource(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}
	follower, src := parkedFollower(t, filepath.Join(base, "follower"), primary, Options{})
	queries := replQueries(rand.New(rand.NewSource(42)))

	cross := func(stage string) {
		t.Helper()
		requests, fulls := src.n.Load(), follower.fol.resyncs.Value()
		applied, err := follower.pollOnce(context.Background())
		if err != nil || applied != 1 {
			t.Fatalf("%s: the poll applied %d deltas (%v), want one", stage, applied, err)
		}
		if got := src.n.Load() - requests; got != 1 {
			t.Fatalf("%s: crossing took %d requests, want 1", stage, got)
		}
		if got := follower.fol.resyncs.Value() - fulls; got != 1 {
			t.Fatalf("%s: %d Full deltas installed, want 1", stage, got)
		}
		prs, frs := primary.ReplStatus(), follower.ReplStatus()
		if frs.LastError != "" || frs.Epoch != prs.Epoch || frs.Gen != prs.Gen {
			t.Fatalf("%s: follower at %+v, primary at %+v", stage, frs, prs)
		}
		if got := follower.fol.pollErrs.Value() + follower.fol.failures.Value(); got != 0 {
			t.Fatalf("%s: %d poll errors and apply failures counted", stage, got)
		}
		assertSameAnswers(t, primary, follower, queries, stage)
	}

	for i := 0; i < 40; i++ {
		w.step(t, primary, 1000+i)
	}
	if err := primary.Rebuild(); err != nil {
		t.Fatal(err)
	}
	cross("explicit rebuild")

	// Deletes until the deleted share reaches β and the store cleans itself.
	cleans := primary.Stats().RebuildsBy.Clean
	for primary.Stats().RebuildsBy.Clean == cleans {
		if len(w.tids) == 0 {
			t.Fatal("every tuple deleted and no cleaning rebuild")
		}
		if err := primary.Delete(w.tids[0]); err != nil {
			t.Fatal(err)
		}
		w.tids = w.tids[1:]
	}
	cross("β-cleaning")
}

// answerSource answers a follower's first request with a batch fetched
// earlier and passes the later ones on: a replica opened over it installs that
// batch.
type answerSource struct {
	first atomic.Pointer[repl.Batch]
	then  replSource
}

func (a *answerSource) Deltas(ctx context.Context, epoch, from uint64) (*repl.Batch, error) {
	if b := a.first.Swap(nil); b != nil {
		return b, nil
	}
	return a.then.Deltas(ctx, epoch, from)
}

// TestReplDeltasEveryCursor asks ReplDeltas the one question with every kind
// of cursor. The log continues two of them — caught up, and behind within the
// retained log; every other gets a batch of one Full delta at the primary's
// generation, and that delta is a synced state: a replica that installs it
// checks clean and answers as the primary does, writes the primary had not
// synced when it was asked included.
func TestReplDeltasEveryCursor(t *testing.T) {
	base := t.TempDir()
	// No automatic rebuilds: the log is reset only where a case says so.
	primary, err := Create(filepath.Join(base, "primary"), Options{GrowthRebuildFactor: 1e9, CleanThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	w := &replWorkload{rng: rand.New(rand.NewSource(93))}
	for i := 0; i < 150; i++ {
		w.step(t, primary, i)
	}
	if err := primary.EnableReplSource(); err != nil {
		t.Fatal(err)
	}
	step := 1000
	cut := func(n int) { // n more generations
		t.Helper()
		for ; n > 0; n-- {
			w.step(t, primary, step)
			step++
			if err := primary.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cut(replMaxLogDeltas + 6) // the log has dropped its first generations
	if rs := primary.ReplStatus(); rs.LogDeltas != replMaxLogDeltas || rs.Gen != replMaxLogDeltas+6 {
		t.Fatalf("primary at %+v, want %d generations cut and %d retained", rs, replMaxLogDeltas+6, replMaxLogDeltas)
	}
	queries := replQueries(rand.New(rand.NewSource(42)))

	const full = -1
	cases := []struct {
		name   string
		before func()                                   // the state change the case is about
		cursor func(rs ReplStatus) (epoch, from uint64) // from the primary's status
		deltas int                                      // incremental deltas expected, or full
	}{
		{"caught up", nil,
			func(rs ReplStatus) (uint64, uint64) { return rs.Epoch, rs.Gen }, 0},
		{"continuable", nil,
			func(rs ReplStatus) (uint64, uint64) { return rs.Epoch, rs.Gen - 3 }, 3},
		{"continuable from the oldest retained delta", nil,
			func(rs ReplStatus) (uint64, uint64) { return rs.Epoch, rs.Gen - replMaxLogDeltas }, replMaxLogDeltas},
		{"zero cursor", nil,
			func(ReplStatus) (uint64, uint64) { return 0, 0 }, full},
		{"wrong epoch", nil,
			func(rs ReplStatus) (uint64, uint64) { return rs.Epoch + 1, rs.Gen }, full},
		{"from beyond the primary's generation", nil,
			func(rs ReplStatus) (uint64, uint64) { return rs.Epoch, rs.Gen + 1 }, full},
		{"from fallen off the log", nil,
			func(rs ReplStatus) (uint64, uint64) { return rs.Epoch, rs.Gen - replMaxLogDeltas - 1 }, full},
		{"log reset by a rebuild, cursor behind", func() {
			if err := primary.Rebuild(); err != nil {
				t.Fatal(err)
			}
		}, func(rs ReplStatus) (uint64, uint64) { return rs.Epoch, rs.Gen - 2 }, full},
		{"log reset by a failed cut, cursor caught up before it", func() {
			cut(2)
			primary.mu.Lock()
			primary.replInvalidateLocked()
			primary.mu.Unlock()
		}, func(rs ReplStatus) (uint64, uint64) { return rs.Epoch, rs.Gen - 1 }, full},
	}
	for i, tc := range cases {
		if tc.before != nil {
			tc.before()
		}
		rs := primary.ReplStatus()
		epoch, from := tc.cursor(rs)
		src := localSource{primary}
		if tc.deltas != full {
			b, err := src.Deltas(context.Background(), epoch, from)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if b.Epoch != rs.Epoch || b.PrimaryGen != rs.Gen || len(b.Deltas) != tc.deltas {
				t.Fatalf("%s: batch (epoch %d, primary gen %d, %d deltas) from a primary at %+v", tc.name, b.Epoch, b.PrimaryGen, len(b.Deltas), rs)
			}
			for j, d := range b.Deltas {
				if d.Full || d.Epoch != rs.Epoch || d.Gen != from+1+uint64(j) {
					t.Fatalf("%s: delta %d is (epoch %d, gen %d, full %v), want the incremental one after gen %d", tc.name, j, d.Epoch, d.Gen, d.Full, from+uint64(j))
				}
			}
			if got := primary.ReplStatus(); got != rs {
				t.Fatalf("%s: answering from the log moved the primary from %+v to %+v", tc.name, rs, got)
			}
			continue
		}
		// Writes the primary has not synced: a Full answer carries them.
		for j := 0; j < 5; j++ {
			w.step(t, primary, step)
			step++
		}
		fulls := primary.replP.fulls.Value()
		b, err := src.Deltas(context.Background(), epoch, from)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rs = primary.ReplStatus()
		if len(b.Deltas) != 1 || b.Epoch != rs.Epoch || b.PrimaryGen != rs.Gen {
			t.Fatalf("%s: batch (epoch %d, primary gen %d, %d deltas) from a primary at %+v, want one delta", tc.name, b.Epoch, b.PrimaryGen, len(b.Deltas), rs)
		}
		if d := b.Deltas[0]; !d.Full || d.Epoch != rs.Epoch || d.Gen != rs.Gen {
			t.Fatalf("%s: delta (epoch %d, gen %d, full %v) from a primary at %+v, want a Full one there", tc.name, d.Epoch, d.Gen, d.Full, rs)
		}
		if got := primary.replP.fulls.Value() - fulls; got != 1 {
			t.Fatalf("%s: %d Full deltas counted as served, want 1", tc.name, got)
		}
		answer := &answerSource{then: src}
		answer.first.Store(b)
		replica, err := openFollower(filepath.Join(base, fmt.Sprintf("replica-%d", i)), answer, FollowerOptions{Poll: time.Hour}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if frs, prs := replica.ReplStatus(), primary.ReplStatus(); frs.Epoch != prs.Epoch || frs.Gen != prs.Gen {
			t.Fatalf("%s: replica at %+v, primary at %+v", tc.name, frs, prs)
		}
		assertSameAnswers(t, primary, replica, queries, tc.name)
		if chk, err := replica.Check(); err != nil || !chk.Ok() {
			t.Fatalf("%s: check of the replica: %v %v", tc.name, err, chk.Problems)
		}
		if err := replica.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplFailedApplyThenFull: an incremental apply that fails between two of
// its ranges leaves both cursors where they were and marks the follower for a
// refetch; the next poll — one request, with the zero cursor — is answered
// with a Full delta, and the follower equals the primary again.
func TestReplFailedApplyThenFull(t *testing.T) {
	base := t.TempDir()
	fdir := filepath.Join(base, "follower")
	primary, err := Create(filepath.Join(base, "primary"), Options{GrowthRebuildFactor: 1e9, CleanThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	w := &replWorkload{rng: rand.New(rand.NewSource(95))}
	for i := 0; i < 200; i++ {
		w.step(t, primary, i)
	}
	if err := primary.EnableReplSource(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}
	// The device under the live index: the last one opened under its name (it
	// arrived as a Full delta, beside the empty replica's).
	var liveIndex atomic.Pointer[storage.FaultDevice]
	follower, src := parkedFollower(t, fdir, primary, Options{
		deviceHook: func(name string, dev storage.Device) storage.Device {
			if strings.TrimSuffix(name, newSuffix) != indexFileName {
				return dev
			}
			fd := storage.NewFaultDevice(dev, -1)
			liveIndex.Store(fd)
			return fd
		},
	})
	queries := replQueries(rand.New(rand.NewSource(42)))
	committed := follower.ReplStatus()

	for i := 0; i < 60; i++ {
		w.step(t, primary, 1000+i)
	}
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}
	liveIndex.Load().Reset(1) // the index's first write lands, its second does not
	applied, err := follower.pollOnce(context.Background())
	if applied != 0 || !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("poll over a failing device applied %d deltas (%v), want the injected failure", applied, err)
	}
	liveIndex.Load().Reset(-1)
	// The status reports the generation the files hold — the failed apply
	// committed nothing — with the error beside it; the in-memory cursor is
	// the durable one. What asks for the cure is the refetch mark: the next
	// request carries the zero cursor, which no primary can continue.
	if rs := follower.ReplStatus(); rs.Epoch != committed.Epoch || rs.Gen != committed.Gen || rs.LastError == "" {
		t.Fatalf("after a failed apply the follower reports %+v, want (%d, %d) and the error", rs, committed.Epoch, committed.Gen)
	}
	if cur, err := loadFollowerState(fdir); err != nil || cur.Epoch != committed.Epoch || cur.Gen != committed.Gen {
		t.Fatalf("durable cursor %+v (%v) after a failed apply, want (%d, %d)", cur, err, committed.Epoch, committed.Gen)
	}

	requests, fulls := src.n.Load(), follower.fol.resyncs.Value()
	applied, err = follower.pollOnce(context.Background())
	if err != nil || applied != 1 {
		t.Fatalf("the poll after a failed apply applied %d deltas (%v), want one", applied, err)
	}
	if r, f := src.n.Load()-requests, follower.fol.resyncs.Value()-fulls; r != 1 || f != 1 {
		t.Fatalf("recovery took %d requests and %d Full deltas, want one of each", r, f)
	}
	if cur := *src.last.Load(); cur != (followerDurableState{}) {
		t.Fatalf("the poll after a failed apply asked from %+v, want the zero cursor", cur)
	}
	prs, frs := primary.ReplStatus(), follower.ReplStatus()
	if frs.LastError != "" || frs.Epoch != prs.Epoch || frs.Gen != prs.Gen {
		t.Fatalf("follower at %+v, primary at %+v", frs, prs)
	}
	assertSameAnswers(t, primary, follower, queries, "after the Full delta")
	if chk, err := follower.Check(); err != nil || !chk.Ok() {
		t.Fatalf("check: %v %v", err, chk.Problems)
	}
	if n := follower.pool.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames left pinned", n)
	}
}

// degradedSegments runs the battery on st and sums the corrupt segments its
// queries read past.
func degradedSegments(t *testing.T, st *Store, queries []*Query) (n int) {
	t.Helper()
	for _, q := range queries {
		_, qs, err := st.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		n += qs.DegradedSegments
	}
	return n
}

// refetchMarked reports whether the follower's next poll asks for a Full delta.
func refetchMarked(st *Store) bool {
	st.fol.mu.Lock()
	defer st.fol.mu.Unlock()
	return st.fol.refetch
}

// TestReplDamageHealsByFullDelta: a flipped committed vector byte in a
// follower's index is cured by the follower's next poll, whichever finds it —
// a query that degrades past the segment, or a Scrub. Before the heal the
// answers are exact and the damage shows in DegradedSegments. The heal is one
// request, with the zero cursor, and one Full delta, installed beside the live
// generation: queries racing it answer as the primary does, and the status
// never leaves the applied generation or records an error (either would turn
// serve's /healthz to 503). After it the Scrub is clean, no query degrades,
// and the next poll asks from the cursor again.
func TestReplDamageHealsByFullDelta(t *testing.T) {
	for _, trigger := range []string{"query", "scrub"} {
		t.Run(trigger, func(t *testing.T) {
			base := t.TempDir()
			fdir := filepath.Join(base, "follower")
			primary, err := Create(filepath.Join(base, "primary"), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer primary.Close()
			w := &replWorkload{rng: rand.New(rand.NewSource(51))}
			for i := 0; i < 400; i++ {
				w.step(t, primary, i)
			}
			if err := primary.EnableReplSource(); err != nil {
				t.Fatal(err)
			}
			if err := primary.Sync(); err != nil {
				t.Fatal(err)
			}
			queries := replQueries(rand.New(rand.NewSource(42)))
			want := make([][]Result, len(queries))
			for i, q := range queries {
				if want[i], _, err = primary.Search(q); err != nil {
					t.Fatal(err)
				}
			}

			// Damage at rest: a bit of a committed vector extent flipped on disk
			// while the replica is closed.
			fol, _ := parkedFollower(t, fdir, primary, Options{})
			exts := fol.ix.VectorExtents()
			if len(exts) == 0 {
				t.Fatal("no committed vector extents to corrupt")
			}
			ext := exts[len(exts)/2]
			if err := fol.Close(); err != nil {
				t.Fatal(err)
			}
			ixPath := filepath.Join(fdir, indexFileName)
			blob, err := os.ReadFile(ixPath)
			if err != nil {
				t.Fatal(err)
			}
			blob[ext.Offset+ext.Len/2] ^= 0x20
			if err := os.WriteFile(ixPath, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			follower, src := parkedFollower(t, fdir, primary, Options{})
			prs := primary.ReplStatus()

			if refetchMarked(follower) {
				t.Fatal("a refetch is marked before anything found the damage")
			}
			switch trigger {
			case "query":
				if n := degradedSegments(t, follower, queries); n < 1 {
					t.Fatal("no query degraded past the flipped segment")
				}
			case "scrub":
				rep, err := follower.Scrub()
				if err != nil {
					t.Fatal(err)
				}
				if rep.CorruptIndexSegments == 0 || rep.Clean() {
					t.Fatalf("the scrub missed the flipped segment: %+v", rep)
				}
			}
			if !refetchMarked(follower) {
				t.Fatalf("the %s found the damage and marked no refetch", trigger)
			}
			if n := degradedSegments(t, follower, queries); n < 1 {
				t.Fatal("no query degraded past the flipped segment")
			}
			assertSameAnswers(t, primary, follower, queries, "damaged")

			requests, fulls := src.n.Load(), metricValue(t, follower.MetricsText(), "iva_repl_resyncs_total")
			done := make(chan struct{})
			errCh := make(chan error, 2)
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if rs := follower.ReplStatus(); rs.Epoch != prs.Epoch || rs.Gen != prs.Gen || rs.LastError != "" {
						errCh <- fmt.Errorf("during the heal the follower reported %+v, primary at %+v", rs, prs)
						return
					}
					runtime.Gosched()
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					qi := i % len(queries)
					got, _, err := follower.Search(queries[qi])
					if err == nil && fmt.Sprint(got) != fmt.Sprint(want[qi]) {
						err = fmt.Errorf("query %d answered %v, primary %v", qi, got, want[qi])
					}
					if err != nil {
						errCh <- fmt.Errorf("during the heal: %w", err)
						return
					}
				}
			}()
			applied, err := follower.pollOnce(context.Background())
			close(done)
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
			if err != nil || applied != 1 {
				t.Fatalf("the heal applied %d deltas (%v), want one", applied, err)
			}
			if r, f := src.n.Load()-requests, metricValue(t, follower.MetricsText(), "iva_repl_resyncs_total")-fulls; r != 1 || f != 1 {
				t.Fatalf("the heal took %d requests and %g Full deltas, want one of each", r, f)
			}
			if cur := *src.last.Load(); cur != (followerDurableState{}) {
				t.Fatalf("the heal asked from %+v, want the zero cursor", cur)
			}

			rep, err := follower.Scrub()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Fatalf("scrub after the heal: %v", rep.Problems)
			}
			if n := degradedSegments(t, follower, queries); n != 0 {
				t.Fatalf("queries still degrade past %d segments after the heal", n)
			}
			assertSameAnswers(t, primary, follower, queries, "healed")
			if applied, err := follower.pollOnce(context.Background()); err != nil || applied != 0 {
				t.Fatalf("the poll after the heal applied %d deltas (%v), want none", applied, err)
			}
			if cur := *src.last.Load(); cur != (followerDurableState{Epoch: prs.Epoch, Gen: prs.Gen}) {
				t.Fatalf("the poll after the heal asked from %+v, want (%d, %d)", cur, prs.Epoch, prs.Gen)
			}
		})
	}
}

// flipDevice reads one byte of the device under it with a bit flipped: damage
// at rest that every reader of the file sees, the store's pool included.
type flipDevice struct {
	storage.Device
	off int64
}

func (d flipDevice) ReadAt(p []byte, off int64) (int, error) {
	n, err := d.Device.ReadAt(p, off)
	if i := d.off - off; i >= 0 && i < int64(n) {
		p[i] ^= 0x20
	}
	return n, err
}

// TestReplDamagedPrimaryBoundsRefetches: a primary whose own index holds a
// flipped committed byte ships it in every Full delta, so no follower heal can
// take. Damage asks for one Full delta per primary generation, not one per
// poll: across 24 polls at one primary generation — every query in between
// degrading, every Scrub failing — exactly one damage-driven Full delta is
// installed, and the answers stay the primary's throughout.
func TestReplDamagedPrimaryBoundsRefetches(t *testing.T) {
	base := t.TempDir()
	pdir := filepath.Join(base, "primary")
	primary, err := Create(pdir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := &replWorkload{rng: rand.New(rand.NewSource(53))}
	for i := 0; i < 300; i++ {
		w.step(t, primary, i)
	}
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}
	exts := primary.ix.VectorExtents()
	if len(exts) == 0 {
		t.Fatal("no committed vector extents to corrupt")
	}
	flip := exts[len(exts)/2].Offset + exts[len(exts)/2].Len/2
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	primary, err = Open(pdir, Options{deviceHook: func(name string, dev storage.Device) storage.Device {
		if name != indexFileName {
			return dev
		}
		return flipDevice{Device: dev, off: flip}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if err := primary.EnableReplSource(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}
	follower, src := parkedFollower(t, filepath.Join(base, "follower"), primary, Options{})
	queries := replQueries(rand.New(rand.NewSource(42)))
	prs := primary.ReplStatus()
	bootstrap := follower.fol.resyncs.Value()

	const polls = 24
	requests := src.n.Load()
	for i := 0; i < polls; i++ {
		if n := degradedSegments(t, follower, queries); n < 1 {
			t.Fatalf("poll %d: no query degraded — the primary's damage did not ship", i)
		}
		if rep, err := follower.Scrub(); err != nil || rep.Clean() {
			t.Fatalf("poll %d: the scrub came back clean (%v)", i, err)
		}
		assertSameAnswers(t, primary, follower, queries, fmt.Sprintf("poll %d", i))
		if _, err := follower.pollOnce(context.Background()); err != nil {
			t.Fatalf("poll %d: %v", i, err)
		}
	}
	if got := primary.ReplStatus(); got != prs {
		t.Fatalf("the primary moved from %+v to %+v; the polls were not at one generation", prs, got)
	}
	if got := src.n.Load() - requests; got != polls {
		t.Fatalf("%d requests for %d polls", got, polls)
	}
	if got := follower.fol.resyncs.Value() - bootstrap; got != 1 {
		t.Fatalf("%d damage-driven Full deltas installed across %d polls at one primary generation, want 1", got, polls)
	}
}
