package main

import (
	"math"
	"testing"
)

// readHash is the workload_hash of a read workload's inputs at a small size.
func readHash(seed int64) string {
	_, hash := newEnv(specs[0], scale{tuples: 300, queries: 50}, seed, 0, 1, "").readStream()
	return hash
}

func churnHash(seed int64) string {
	sp, _ := specByName("churn")
	_, _, _, hash := newEnv(sp, scale{churnTuples: 200}, seed, 0, 1, "").churnStart(nil)
	return hash
}

func TestWorkloadHash(t *testing.T) {
	for name, hash := range map[string]func(int64) string{"read": readHash, "churn": churnHash} {
		a, b, c := hash(7), hash(7), hash(8)
		if a != b {
			t.Errorf("%s: equal seeds gave hashes %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same hash %s", name, a)
		}
	}
}

// The generator must keep the paper's published statistics.
func TestGeneratorStatistics(t *testing.T) {
	g := newGenerator(3)
	numeric := 0
	for _, n := range g.numeric {
		if n {
			numeric++
		}
	}
	if len(g.names) != 1147 || numeric != 66 {
		t.Fatalf("%d attributes, %d numeric; want 1147 and 66", len(g.names), numeric)
	}
	rows := g.take(4000)
	var cells, strs, strBytes, multi, text float64
	for _, r := range rows {
		cells += float64(len(r.cells))
		for i, c := range r.cells {
			if i > 0 && r.cells[i-1].attr >= c.attr {
				t.Fatal("cells not sorted by distinct attribute")
			}
			if c.strs == nil {
				continue
			}
			text++
			if len(c.strs) > 1 {
				multi++
			}
			for _, s := range c.strs {
				strs++
				strBytes += float64(len(s))
			}
		}
	}
	if mean := cells / float64(len(rows)); math.Abs(mean-16.3) > 0.3 {
		t.Errorf("mean defined attributes %.2f, want ≈16.3", mean)
	}
	if mean := strBytes / strs; math.Abs(mean-16.8) > 0.5 {
		t.Errorf("mean string length %.2f, want ≈16.8", mean)
	}
	if share := multi / text; math.Abs(share-0.10) > 0.02 {
		t.Errorf("multi-string share %.3f, want ≈0.10", share)
	}
}

// A churn cycle deletes 60%, regrows to the same live count, syncs every 256
// writes, searches once per 8 deletes or inserts and updates once per 16
// inserts.
func TestChurnCycleShape(t *testing.T) {
	g := newGenerator(5)
	rows := g.take(1000)
	cs := newChurnStream(g, rows, 5)
	for cycle := 0; cycle < 2; cycle++ {
		count := map[opKind]int{}
		for _, o := range cs.cycle() {
			count[o.kind]++
		}
		writes := count[opDelete] + count[opInsert] + count[opUpdate]
		if count[opDelete] != 600 || count[opInsert] != 600 || count[opUpdate] != 600/16 {
			t.Errorf("cycle %d: %v", cycle, count)
		}
		if count[opSearch] != 2*(600/8) {
			t.Errorf("cycle %d: %d searches", cycle, count[opSearch])
		}
		if want := (cycle+1)*writes/churnSyncEvery - cycle*writes/churnSyncEvery; count[opSync] != want {
			t.Errorf("cycle %d: %d syncs for %d writes, want %d", cycle, count[opSync], writes, want)
		}
		if len(cs.live.handles) != 1000 {
			t.Errorf("cycle %d: %d live rows afterwards", cycle, len(cs.live.handles))
		}
	}
}
