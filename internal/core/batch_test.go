package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
)

// chainWords reads the first bits of a chain's logical stream, 64 at a time.
func chainWords(t *testing.T, ix *Index, c storage.ChainID, bits int64) []uint64 {
	t.Helper()
	r := storage.NewChainBitReader(ix.segs, c, bits)
	defer r.Close()
	words := make([]uint64, 0, (bits+63)/64)
	for rest := bits; rest > 0; rest -= 64 {
		w, err := r.ReadBits(int(min(rest, 64)))
		if err != nil {
			t.Fatal(err)
		}
		words = append(words, w<<(64-min(rest, 64)))
	}
	return words
}

// TestInsertBatchMatchesSingleInserts feeds the same rows to twin indexes, one
// in batches that end before, on and after stripe boundaries and one row by
// row, and requires the same index of both: tuple list and every vector list
// bit for bit, checkpoints, answers and the work they cost.
func TestInsertBatchMatchesSingleInserts(t *testing.T) {
	opts := Options{CheckpointEvery: 64}
	a := newFixture(t, 80, opts, 701)
	b := newFixture(t, 80, opts, 701) // identical twin
	a.ix.SetSearchParallelism(1)
	b.ix.SetSearchParallelism(1)

	next := model.TID(80)
	for _, size := range []int{1, 63, 64, 65, 200} {
		batch := make([]map[model.AttrID]model.Value, size)
		for i := range batch {
			batch[i] = a.randValues()
		}
		tids, err := a.ix.InsertBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(tids) != size || tids[0] != next || tids[size-1] != next+model.TID(size)-1 {
			t.Fatalf("batch of %d after tid %d: tids %v", size, next, tids)
		}
		next += model.TID(size)
		for _, vals := range batch {
			if _, err := b.ix.Insert(vals); err != nil {
				t.Fatal(err)
			}
		}
	}

	if a.ix.tupleBits != b.ix.tupleBits || !reflect.DeepEqual(a.ix.entries, b.ix.entries) {
		t.Fatalf("tuple lists: %d bits %d entries, row by row %d bits %d entries", a.ix.tupleBits, len(a.ix.entries), b.ix.tupleBits, len(b.ix.entries))
	}
	if !reflect.DeepEqual(chainWords(t, a.ix, a.ix.tupleChain, a.ix.tupleBits), chainWords(t, b.ix, b.ix.tupleChain, b.ix.tupleBits)) {
		t.Fatal("tuple lists differ")
	}
	for id := range a.ix.attrs {
		sa, sb := &a.ix.attrs[id], &b.ix.attrs[id]
		if sa.bitLen != sb.bitLen || sa.layout.Type != sb.layout.Type {
			t.Fatalf("attr %d: %v list of %d bits, row by row %v list of %d bits", id, sa.layout.Type, sa.bitLen, sb.layout.Type, sb.bitLen)
		}
		if !reflect.DeepEqual(chainWords(t, a.ix, sa.chain, sa.physBits()), chainWords(t, b.ix, sb.chain, sb.physBits())) {
			t.Fatalf("attr %d: vector lists differ", id)
		}
	}
	if len(a.ix.ckpts) != len(a.ix.entries)/64+1 || !reflect.DeepEqual(a.ix.ckpts, b.ix.ckpts) {
		t.Fatalf("checkpoints: %d for %d entries, row by row %d", len(a.ix.ckpts), len(a.ix.entries), len(b.ix.ckpts))
	}

	m := metric.Default()
	for trial := 0; trial < 12; trial++ {
		q := a.randQuery(t, 2, 8)
		ra, sa, err := a.ix.Search(q, m)
		if err != nil {
			t.Fatal(err)
		}
		rb, sb, err := b.ix.Search(q, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra, rb) || sa.Scanned != sb.Scanned || sa.TableAccesses != sb.TableAccesses {
			t.Fatalf("trial %d: batch and single inserts diverge\n%v scanned %d fetched %d\n%v scanned %d fetched %d",
				trial, ra, sa.Scanned, sa.TableAccesses, rb, sb.Scanned, sb.TableAccesses)
		}
	}
	// And the batched index passes its own fsck, as it stands and as a reopen
	// finds it.
	if err := a.tbl.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := a.ix.Sync(); err != nil {
		t.Fatal(err)
	}
	reopened, _, closeFiles := reopenFixture(t, a, opts)
	defer closeFiles()
	for _, ix := range []*Index{a.ix, reopened} {
		rep, err := ix.Check()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() || rep.Entries != int64(len(a.ix.entries)) {
			t.Fatalf("batched index inconsistent: %d entries, %v", rep.Entries, rep.Problems)
		}
	}
}

// TestFailedRunInsertsNothing fails a batch that crosses three stripe
// boundaries at every device operation of either file in turn (torn writes on
// odd budgets): after each error no tuple, catalog statistic or checkpoint has
// moved and the index passes its fsck; the first budget the batch fits in
// inserts all of it.
func TestFailedRunInsertsNothing(t *testing.T) {
	for _, target := range []string{"table", "index"} {
		t.Run(target, func(t *testing.T) {
			opts := Options{CheckpointEvery: 64}
			fx := newFixture(t, 100, opts, 705)
			if err := fx.tbl.Sync(); err != nil {
				t.Fatal(err)
			}
			// The fixture's images again, through devices that can be told to fail.
			pool := storage.NewPool(0, 10<<20)
			faulty := map[string]*storage.FaultDevice{
				"table": storage.NewFaultDevice(fx.tblDev, -1),
				"index": storage.NewFaultDevice(fx.idxDev, -1),
			}
			tbl, err := table.Open(storage.NewFile(pool, faulty["table"]), fx.tbl.Catalog())
			if err != nil {
				t.Fatal(err)
			}
			ix, err := Open(storage.NewFile(pool, faulty["index"]), tbl, opts)
			if err != nil {
				t.Fatal(err)
			}
			batch := make([]map[model.AttrID]model.Value, 3*64)
			for i := range batch {
				batch[i] = fx.randValues()
			}
			type state struct {
				entries, live, total int64
				next                 model.TID
				ckpts                int
				cat                  string
			}
			observe := func() state {
				return state{ix.Entries(), tbl.Live(), tbl.Total(), tbl.NextTID(), len(ix.ckpts), fmt.Sprint(tbl.Catalog().Attrs())}
			}
			before := observe()
			fd := faulty[target]
			failures := 0
			for budget := int64(0); ; budget++ {
				fd.Reset(budget)
				fd.SetTornWrites(budget%2 == 1)
				tids, err := ix.InsertBatch(batch)
				tripped := fd.Tripped()
				fd.Reset(-1)
				if err == nil {
					if tripped || len(tids) != len(batch) {
						t.Fatalf("budget %d: %d tids, tripped=%v", budget, len(tids), tripped)
					}
					break
				}
				if !errors.Is(err, storage.ErrInjected) {
					t.Fatalf("budget %d: %v", budget, err)
				}
				failures++
				if after := observe(); after != before {
					t.Fatalf("budget %d: a failed batch changed the index:\nbefore %+v\n after %+v", budget, before, after)
				}
				if rep, err := ix.Check(); err != nil || !rep.Ok() {
					t.Fatalf("budget %d: check after a failed batch: %v %v", budget, err, rep.Problems)
				}
			}
			t.Logf("%d budgets failed", failures)
			if failures < 2 {
				t.Fatalf("only %d budgets failed: the sweep did not reach into the batch", failures)
			}
			after := observe()
			if after.entries != before.entries+192 || after.live != before.live+192 || after.ckpts != before.ckpts+3 {
				t.Fatalf("after the batch that fit:\nbefore %+v\n after %+v", before, after)
			}
			if rep, err := ix.Check(); err != nil || !rep.Ok() {
				t.Fatalf("check after the batch: %v %v", err, rep.Problems)
			}
		})
	}
}

func TestInsertBatchEmptyAndErrors(t *testing.T) {
	fx := newFixture(t, 10, Options{}, 702)
	if tids, err := fx.ix.InsertBatch(nil); err != nil || tids != nil {
		t.Fatalf("empty batch: %v %v", tids, err)
	}
	if _, err := fx.ix.InsertBatch([]map[model.AttrID]model.Value{{}}); err == nil {
		t.Fatal("empty tuple accepted")
	}
	// Overflow reported with nothing inserted.
	small := newFixture(t, 10, Options{TIDHeadroom: 4}, 703)
	before := small.ix.Entries()
	var big []map[model.AttrID]model.Value
	for i := 0; i < 50; i++ {
		big = append(big, small.randValues())
	}
	if _, err := small.ix.InsertBatch(big); err != ErrNeedsRebuild {
		t.Fatalf("err = %v, want ErrNeedsRebuild", err)
	}
	if small.ix.Entries() != before {
		t.Fatal("failed batch mutated the index")
	}
}

func BenchmarkInsertBatch100(b *testing.B) {
	fx := newFixture(b, 100, Options{TIDHeadroom: 1 << 26}, 704)
	batch := make([]map[model.AttrID]model.Value, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = fx.randValues()
		}
		if _, err := fx.ix.InsertBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}
