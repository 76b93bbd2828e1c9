package bench

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/sparsewide/iva/internal/core"
	"github.com/sparsewide/iva/internal/invidx"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/table"
)

// updateCosts are the measured primitives of §V-C in model ms: td (per
// deletion), ti (per insertion) and tr (rebuilding the table file and the
// index file to clean deleted data). The paper's amortized costs follow as
// td + tr/(β·|T|), ti + tr/(β·|T|) and td + ti + tr/(β·|T|).
type updateCosts struct {
	td, ti, tr float64
	tuples     int64
}

func (u updateCosts) updateMS(beta float64) float64 {
	return u.td + u.ti + u.tr/(beta*float64(u.tuples))
}

// updater is one engine's mutation primitives: insert and delete, and the
// index build over a cleaned table (DST keeps no index).
type updater struct {
	insert func(map[model.AttrID]model.Value) (model.TID, error)
	delete func(model.TID) error
	build  func(*table.Table) error
}

// updaters are Fig. 17's three engines, iVA, SII and DST, each bound to a
// private environment.
var updaters = []func(e *Env) updater{
	func(e *Env) updater {
		return updater{e.IVA.Insert, e.IVA.Delete, func(tbl *table.Table) error {
			_, err := core.Build(tbl, e.memFile(), core.Options{Alpha: alpha, N: gramN})
			return err
		}}
	},
	func(e *Env) updater {
		return updater{e.SII.Insert, e.SII.Delete, func(tbl *table.Table) error {
			_, err := invidx.Build(tbl, e.memFile(), invidx.Options{})
			return err
		}}
	},
	func(e *Env) updater {
		return updater{e.DST.Insert, e.DST.Delete, func(*table.Table) error { return nil }}
	},
}

// TupleValues maps generated tuple i's rank-keyed values to catalog ids.
func (e *Env) TupleValues(i int) map[model.AttrID]model.Value {
	vals := e.Gen.Values(i)
	out := make(map[model.AttrID]model.Value, len(vals))
	for rank, v := range vals {
		out[e.IDs[rank]] = v
	}
	return out
}

// timed runs op n times and prices one call: the pool's I/O and the wall
// time of all n, through modelMS, over n.
func (e *Env) timed(n int, op func(i int) error) (float64, error) {
	pstats := e.Pool.Stats()
	before, start := pstats.Snapshot(), time.Now()
	for i := 0; i < n; i++ {
		if err := op(i); err != nil {
			return 0, err
		}
	}
	return modelMS(pstats.Snapshot().Sub(before), time.Since(start)) / float64(n), nil
}

// measureUpdates drives nOps deletions of random live tuples, nOps
// insertions of fresh ones, and one cleaning rebuild. It tracks the live
// set itself (the engines do not share deletions), so the rebuilt table
// keeps exactly the initial tuples less the deleted plus the inserted.
func measureUpdates(e *Env, u updater, nOps int) (updateCosts, error) {
	c := updateCosts{tuples: e.Tbl.Live()}
	initial := e.IVA.LiveTIDs()
	live := make(map[model.TID]bool, len(initial)+nOps)
	for _, tid := range initial {
		live[tid] = true
	}
	perm := rand.New(rand.NewSource(e.Cfg.Seed + 99)).Perm(len(initial))
	nOps = min(nOps, len(perm))
	var err error
	if c.td, err = e.timed(nOps, func(i int) error {
		delete(live, initial[perm[i]])
		return u.delete(initial[perm[i]])
	}); err != nil {
		return c, fmt.Errorf("delete: %w", err)
	}
	if c.ti, err = e.timed(nOps, func(i int) error {
		tid, err := u.insert(e.TupleValues(e.Cfg.Tuples + i))
		if err != nil {
			return err
		}
		live[tid] = true
		return nil
	}); err != nil {
		return c, fmt.Errorf("insert: %w", err)
	}
	// One full rebuild: the cleaning run amortized over β·|T| updates.
	if c.tr, err = e.timed(1, func(int) error {
		tbl, err := e.Tbl.Rebuild(e.memFile(), func(tid model.TID) bool { return live[tid] })
		if err != nil {
			return err
		}
		return u.build(tbl)
	}); err != nil {
		return c, fmt.Errorf("rebuild: %w", err)
	}
	return c, nil
}

// ExpFig17 reproduces Fig. 17: average update time under cleaning trigger
// thresholds β = 1%..5% for iVA, SII and DST. Each engine runs on a private
// environment so mutations do not interfere.
func ExpFig17(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	r := Result{
		Name:   "fig17",
		Title:  "Fig. 17: average update time vs. cleaning trigger threshold beta (model ms)",
		Header: []string{"beta", "iVA", "SII", "DST"},
	}
	var costs []updateCosts
	for _, on := range updaters {
		e, err := NewEnv(cfg)
		if err != nil {
			return r, err
		}
		c, err := measureUpdates(e, on(e), 300)
		if err != nil {
			return r, err
		}
		costs = append(costs, c)
	}
	row := func(label string, cell func(updateCosts) string) {
		cells := []string{label}
		for _, c := range costs {
			cells = append(cells, cell(c))
		}
		r.Rows = append(r.Rows, cells)
	}
	for _, beta := range []float64{0.01, 0.02, 0.03, 0.04, 0.05} {
		row(pct(beta), func(c updateCosts) string { return f2(c.updateMS(beta)) })
	}
	row("td (per delete)", func(c updateCosts) string { return f2(c.td) })
	row("ti (per insert)", func(c updateCosts) string { return f2(c.ti) })
	row("tr (rebuild)", func(c updateCosts) string { return f1(c.tr) })
	r.Notes = append(r.Notes,
		"Paper: update time falls as beta grows; the three methods stay close (iVA sacrifices little update speed) and updates are ~100x faster than queries.")
	return r, nil
}
