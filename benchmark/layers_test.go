package main

import (
	"errors"
	"testing"
	"time"
)

var errTest = errors.New("test")

// A rebuild is attributed, whole, to the write call during which
// StoreStats.Rebuilds advanced.
func TestRebuildAttribution(t *testing.T) {
	epoch := time.Unix(0, 0)
	var recs []opRec
	at := time.Duration(0)
	add := func(kind opKind, d time.Duration, rebuilds int64) {
		recs = append(recs, opRec{kind: kind, start: epoch.Add(at), end: epoch.Add(at + d), sStart: epoch.Add(at), sEnd: epoch.Add(at + d), rebuilds: rebuilds})
		at += d
	}
	add(opDelete, 1*time.Millisecond, 0)
	add(opDelete, 40*time.Millisecond, 1) // a cleaning rebuild
	add(opInsert, 2*time.Millisecond, 0)
	add(opInsert, 90*time.Millisecond, 2) // overflow rebuild + growth rebuild in one call
	add(opUpdate, 3*time.Millisecond, 0)
	add(opSync, 4*time.Millisecond, 0)
	add(opSearch, 5*time.Millisecond, 0)

	out := newMetrics(perLayer)
	writeLayers(out, recs)
	want := map[string]float64{
		"core.rebuilds":             3,
		"core.rebuild_s_total":      0.130,
		"core.rebuild_ms_p50":       40,
		"core.rebuild_stall_ms_max": 90,
		"store.delete_ms_p50":       1,
		"store.insert_ms_p50":       2,
		"store.update_ms_p50":       3,
		"store.sync_ms_p50":         4,
		"store.write_ms_p50":        3,
		"store.writes_per_s":        5 / 0.140, // five writes in 136 ms of writes + 4 ms of Sync
	}
	for name, w := range want {
		if got := out.values[name]; got < w*(1-1e-9) || got > w*(1+1e-9) {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}

	tr := &tracer{}
	spansOf(tr, recs, epoch)
	rebuilds := 0
	for _, s := range tr.spans {
		if s.Name == "store.rebuild" {
			rebuilds++
			if parent := tr.spans[s.ParentID-1]; parent.Name != "store.delete" && parent.Name != "store.insert" {
				t.Errorf("store.rebuild under %s", parent.Name)
			}
		}
	}
	if rebuilds != 2 {
		t.Errorf("%d store.rebuild spans, want 2", rebuilds)
	}
}

func TestMetricsRejectUndeclared(t *testing.T) {
	m := newMetrics(endToEnd)
	m.set("setup_s", 1)
	for _, name := range []string{"setup_s", "no.such_metric"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("set(%q) did not panic", name)
				}
			}()
			m.set(name, 2)
		}()
	}
}
