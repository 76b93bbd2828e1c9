// Package scan implements DST, the paper's no-index baseline: answering a
// top-k structured similarity query by a direct sequential scan of the table
// file, computing every live tuple's exact distance. Its query time is
// essentially constant in all parameters (≈30 s per query on the paper's
// testbed) and serves as the floor the indexes are measured against; its
// update cost is the table-file append/tombstone alone, the cheapest of the
// three methods.
package scan

import (
	"sync"
	"time"

	"github.com/sparsewide/iva/internal/metric"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/table"
	"github.com/sparsewide/iva/internal/topk"
)

// Scanner answers queries by scanning tbl directly. It keeps its own
// tombstone set (DST has no index file; a deployment would persist deletions
// in the table header — here the set is rebuilt from the driving workload).
type Scanner struct {
	tbl *table.Table

	mu      sync.RWMutex
	deleted map[model.TID]bool
	values  map[model.TID]int64 // tid → ptr for delete/update bookkeeping
}

// New returns a scanner over tbl, registering the live tuples.
func New(tbl *table.Table) (*Scanner, error) {
	s := &Scanner{
		tbl:     tbl,
		deleted: make(map[model.TID]bool),
		values:  make(map[model.TID]int64),
	}
	err := tbl.Scan(func(ptr int64, tp *model.Tuple) error {
		s.values[tp.TID] = ptr
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Table returns the underlying table.
func (s *Scanner) Table() *table.Table { return s.tbl }

// SearchStats reports a DST query's work.
type SearchStats struct {
	Scanned int64
	Wall    time.Duration
}

// Total returns the query's wall time.
func (s SearchStats) Total() time.Duration { return s.Wall }

// Search computes the exact top-k by scanning the whole table file.
func (s *Scanner) Search(q *model.Query, m *metric.Metric) ([]model.Result, SearchStats, error) {
	var stats SearchStats
	if err := q.Validate(); err != nil {
		return nil, stats, err
	}
	if m == nil {
		m = metric.Default()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	start := time.Now()
	pool := topk.New(q.K)
	err := s.tbl.Scan(func(_ int64, tp *model.Tuple) error {
		if s.deleted[tp.TID] {
			return nil
		}
		stats.Scanned++
		pool.Insert(tp.TID, m.TupleDistance(q, tp))
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	stats.Wall = time.Since(start)
	return pool.Results(), stats, nil
}

// Insert appends a tuple to the table file.
func (s *Scanner) Insert(values map[model.AttrID]model.Value) (model.TID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tid, ptr, err := s.tbl.Append(values)
	if err != nil {
		return 0, err
	}
	s.values[tid] = ptr
	return tid, nil
}

// Delete tombstones a tuple.
func (s *Scanner) Delete(tid model.TID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ptr, ok := s.values[tid]
	if !ok || s.deleted[tid] {
		return table.ErrNotFound
	}
	tp, err := s.tbl.Fetch(ptr)
	if err != nil {
		return err
	}
	s.tbl.NoteDelete(tp.Values)
	s.deleted[tid] = true
	return nil
}

// MarkDeleted re-applies a tombstone after a reopen without touching the
// catalog statistics, which already account for the original Delete (the
// tombstone set is rebuilt from the driving workload; see the type comment).
func (s *Scanner) MarkDeleted(tid model.TID) {
	s.mu.Lock()
	s.deleted[tid] = true
	s.mu.Unlock()
}

// Update is delete + insert under a fresh tid.
func (s *Scanner) Update(tid model.TID, values map[model.AttrID]model.Value) (model.TID, error) {
	if err := s.Delete(tid); err != nil {
		return 0, err
	}
	return s.Insert(values)
}

// Deleted returns the tombstone count.
func (s *Scanner) Deleted() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int64(len(s.deleted))
}
