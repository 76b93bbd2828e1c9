package bench

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/sparsewide/iva/internal/core"
	"github.com/sparsewide/iva/internal/invidx"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
)

// updateCosts are the measured primitives of §V-C: td (per deletion), ti
// (per insertion) and tr (rebuilding the table file and the index file to
// clean deleted data). The paper's amortized costs follow as
// td + tr/(β·|T|), ti + tr/(β·|T|) and td + ti + tr/(β·|T|).
type updateCosts struct {
	tdModelMS, tdWallMS float64
	tiModelMS, tiWallMS float64
	trModelMS, trWallMS float64
	tuples              int64
}

func (u updateCosts) updateMS(beta float64, model bool) float64 {
	amort := u.trModelMS
	td, ti := u.tdModelMS, u.tiModelMS
	if !model {
		amort = u.trWallMS
		td, ti = u.tdWallMS, u.tiWallMS
	}
	return td + ti + amort/(beta*float64(u.tuples))
}

// updateOps abstracts the per-engine mutation primitives.
type updateOps struct {
	insert  func(map[model.AttrID]model.Value) error
	delete  func(model.TID) error
	rebuild func() error
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

// measureUpdates drives nOps deletions and insertions plus one rebuild.
func measureUpdates(e *Env, ops updateOps, live []model.TID, nOps int) (updateCosts, error) {
	var u updateCosts
	u.tuples = e.Tbl.Live()
	pstats := e.Pool.Stats()
	rng := rand.New(rand.NewSource(e.Cfg.Seed + 99))

	// Deletions of random live tuples.
	perm := rng.Perm(len(live))
	if nOps > len(perm) {
		nOps = len(perm)
	}
	before := pstats.Snapshot()
	start := time.Now()
	for i := 0; i < nOps; i++ {
		if err := ops.delete(live[perm[i]]); err != nil {
			return u, fmt.Errorf("delete: %w", err)
		}
	}
	u.tdWallMS = float64(time.Since(start).Microseconds()) / 1000 / float64(nOps)
	u.tdModelMS = (e.Disk.CostMS(pstats.Snapshot().Sub(before)))/float64(nOps) + CPUFactor*u.tdWallMS

	// Insertions of fresh tuples.
	before = pstats.Snapshot()
	start = time.Now()
	for i := 0; i < nOps; i++ {
		if err := ops.insert(e.TupleValues(e.Cfg.Tuples + i)); err != nil {
			return u, fmt.Errorf("insert: %w", err)
		}
	}
	u.tiWallMS = float64(time.Since(start).Microseconds()) / 1000 / float64(nOps)
	u.tiModelMS = (e.Disk.CostMS(pstats.Snapshot().Sub(before)))/float64(nOps) + CPUFactor*u.tiWallMS

	// One full rebuild (the cleaning run amortized over β·|T| updates).
	before = pstats.Snapshot()
	start = time.Now()
	if err := ops.rebuild(); err != nil {
		return u, fmt.Errorf("rebuild: %w", err)
	}
	u.trWallMS = float64(time.Since(start).Microseconds()) / 1000
	u.trModelMS = e.Disk.CostMS(pstats.Snapshot().Sub(before)) + CPUFactor*u.trWallMS
	return u, nil
}

func measureIVA(cfg Config, nOps int) (updateCosts, error) {
	e, err := NewEnv(cfg)
	if err != nil {
		return updateCosts{}, err
	}
	ops := updateOps{
		insert: func(v map[model.AttrID]model.Value) error { _, err := e.IVA.Insert(v); return err },
		delete: e.IVA.Delete,
		rebuild: func() error {
			newTbl, err := e.Tbl.Rebuild(storage.NewFile(e.Pool, storage.NewMemDevice()), e.IVA.Live)
			if err != nil {
				return err
			}
			_, err = core.Build(newTbl, storage.NewFile(e.Pool, storage.NewMemDevice()),
				core.Options{Alpha: cfg.Alpha, N: cfg.N})
			return err
		},
	}
	return measureUpdates(e, ops, e.IVA.LiveTIDs(), nOps)
}

func measureSII(cfg Config, nOps int) (updateCosts, error) {
	e, err := NewEnv(cfg)
	if err != nil {
		return updateCosts{}, err
	}
	live := e.IVA.LiveTIDs()
	ops := updateOps{
		insert: func(v map[model.AttrID]model.Value) error { _, err := e.SII.Insert(v); return err },
		delete: e.SII.Delete,
		rebuild: func() error {
			keep := make(map[model.TID]bool)
			for _, tid := range live {
				keep[tid] = true
			}
			newTbl, err := e.Tbl.Rebuild(storage.NewFile(e.Pool, storage.NewMemDevice()),
				func(t model.TID) bool { return keep[t] })
			if err != nil {
				return err
			}
			_, err = invidx.Build(newTbl, storage.NewFile(e.Pool, storage.NewMemDevice()), invidx.Options{})
			return err
		},
	}
	return measureUpdates(e, ops, live, nOps)
}

func measureDST(cfg Config, nOps int) (updateCosts, error) {
	e, err := NewEnv(cfg)
	if err != nil {
		return updateCosts{}, err
	}
	live := e.IVA.LiveTIDs()
	ops := updateOps{
		insert: func(v map[model.AttrID]model.Value) error { _, err := e.DST.Insert(v); return err },
		delete: e.DST.Delete,
		rebuild: func() error {
			// DST maintains no index: cleaning rebuilds only the table file.
			keep := make(map[model.TID]bool)
			for _, tid := range live {
				keep[tid] = true
			}
			_, err := e.Tbl.Rebuild(storage.NewFile(e.Pool, storage.NewMemDevice()),
				func(t model.TID) bool { return keep[t] })
			return err
		},
	}
	return measureUpdates(e, ops, live, nOps)
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
	const nOps = 300
	iva, err := measureIVA(cfg, nOps)
	if err != nil {
		return r, err
	}
	sii, err := measureSII(cfg, nOps)
	if err != nil {
		return r, err
	}
	dst, err := measureDST(cfg, nOps)
	if err != nil {
		return r, err
	}
	for _, beta := range []float64{0.01, 0.02, 0.03, 0.04, 0.05} {
		r.Rows = append(r.Rows, []string{
			pct(beta),
			f2(iva.updateMS(beta, true)),
			f2(sii.updateMS(beta, true)),
			f2(dst.updateMS(beta, true)),
		})
	}
	r.Rows = append(r.Rows,
		[]string{"td (per delete)", f2(iva.tdModelMS), f2(sii.tdModelMS), f2(dst.tdModelMS)},
		[]string{"ti (per insert)", f2(iva.tiModelMS), f2(sii.tiModelMS), f2(dst.tiModelMS)},
		[]string{"tr (rebuild)", f1(iva.trModelMS), f1(sii.trModelMS), f1(dst.trModelMS)},
	)
	r.Notes = append(r.Notes,
		"Paper: update time falls as beta grows; the three methods stay close (iVA sacrifices little update speed) and updates are ~100x faster than queries.")
	return r, nil
}
