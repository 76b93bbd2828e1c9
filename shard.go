package iva

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"github.com/sparsewide/iva/internal/obs"
)

// Sharded is a horizontally partitioned store: rows hash across N
// independent shards, each with its own table and iVA-file, and queries run
// against all shards in parallel with their top-k pools merged. §VI of the
// paper points out that the iVA-file, being a flat non-hierarchical index,
// partitions this way with no coordination structure — this type is that
// observation made concrete (single-process here; each shard could equally
// live on its own node).
//
// Global ids are (shard, local tid) packed as shard*ShardStride + tid.
//
// All shards publish into one metrics registry under a shard="<i>" label,
// and into one slow-query log; the fan-out itself adds cross-shard
// aggregate metrics and traces each slow fan-out with per-shard child spans.
type Sharded struct {
	shards  []*Store
	reg     *obs.Registry
	slowLog *obs.QueryLog
	ring    *obs.TraceRing
	queries *obs.Counter
	slow    *obs.Counter
	dur     *obs.Histogram
}

// initObs builds the partition-level aggregates over the shared registry.
func (s *Sharded) initObs(reg *obs.Registry, log *obs.QueryLog, ring *obs.TraceRing) {
	s.reg, s.slowLog, s.ring = reg, log, ring
	s.queries = reg.Counter("iva_fanout_queries_total", "Cross-shard fan-out queries served.", nil)
	s.slow = reg.Counter("iva_fanout_slow_queries_total", "Fan-out queries at or above the slow-query threshold.", nil)
	s.dur = reg.Histogram("iva_fanout_query_duration_seconds", "End-to-end fan-out search latency.", nil, nil)
	reg.GaugeFunc("iva_shards", "Number of partitions.", nil, func() float64 { return float64(len(s.shards)) })
	registerBuildInfo(reg)
}

// shardOpts prepares shard i's options: its own subdirectory-independent
// settings plus the shared observability plumbing.
func shardOpts(opts Options, reg *obs.Registry, log *obs.QueryLog, ring *obs.TraceRing, i int) Options {
	opts.obsReg = reg
	opts.obsLog = log
	opts.obsRing = ring
	opts.obsLabels = obs.Labels{"shard": strconv.Itoa(i)}
	return opts
}

// ShardStride separates shard id spaces inside a global TID.
const ShardStride TID = 1 << 26

// CreateSharded makes n shards under dir (subdirectories shard-0 ... n-1),
// or an in-memory partition when dir is empty.
func CreateSharded(dir string, n int, opts Options) (*Sharded, error) {
	if n < 1 || TID(n) > (1<<31)/ShardStride {
		return nil, fmt.Errorf("iva: shard count %d out of range", n)
	}
	s := &Sharded{}
	reg := obs.NewRegistry()
	log := obs.NewQueryLog(opts.withDefaults().SlowQueryThreshold, opts.withDefaults().SlowQueryLogSize)
	ring := obs.NewTraceRing(opts.TraceRingSize, opts.TraceSampleEvery)
	for i := 0; i < n; i++ {
		sub := ""
		if dir != "" {
			sub = filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		}
		st, err := Create(sub, shardOpts(opts, reg, log, ring, i))
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, st)
	}
	s.initObs(reg, log, ring)
	return s, nil
}

// OpenSharded reopens a partition previously created with CreateSharded.
func OpenSharded(dir string, n int, opts Options) (*Sharded, error) {
	s := &Sharded{}
	reg := obs.NewRegistry()
	log := obs.NewQueryLog(opts.withDefaults().SlowQueryThreshold, opts.withDefaults().SlowQueryLogSize)
	ring := obs.NewTraceRing(opts.TraceRingSize, opts.TraceSampleEvery)
	for i := 0; i < n; i++ {
		st, err := Open(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), shardOpts(opts, reg, log, ring, i))
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, st)
	}
	s.initObs(reg, log, ring)
	return s, nil
}

// Shards returns the number of partitions.
func (s *Sharded) Shards() int { return len(s.shards) }

func (s *Sharded) split(global TID) (shard int, local TID, err error) {
	shard = int(global / ShardStride)
	if shard >= len(s.shards) {
		return 0, 0, ErrNotFound
	}
	return shard, global % ShardStride, nil
}

func (s *Sharded) join(shard int, local TID) TID {
	return TID(shard)*ShardStride + local
}

// nextShard balances inserts by current live count.
func (s *Sharded) nextShard() int {
	best, bestLive := 0, int64(1<<62)
	for i, st := range s.shards {
		if live := st.Stats().Tuples; live < bestLive {
			best, bestLive = i, live
		}
	}
	return best
}

// Insert stores a row on the least-loaded shard and returns its global id.
func (s *Sharded) Insert(row Row) (TID, error) {
	shard := s.nextShard()
	tid, err := s.shards[shard].Insert(row)
	if err != nil {
		return 0, err
	}
	if tid >= ShardStride {
		return 0, fmt.Errorf("iva: shard %d exceeded its id space", shard)
	}
	return s.join(shard, tid), nil
}

// Get returns a row by global id.
func (s *Sharded) Get(global TID) (Row, error) {
	shard, local, err := s.split(global)
	if err != nil {
		return nil, err
	}
	return s.shards[shard].Get(local)
}

// Delete removes a tuple by global id.
func (s *Sharded) Delete(global TID) error {
	shard, local, err := s.split(global)
	if err != nil {
		return err
	}
	return s.shards[shard].Delete(local)
}

// Update replaces a row, returning the new global id (possibly on another
// shard: updates re-balance like inserts, matching §IV-B's fresh-id rule).
func (s *Sharded) Update(global TID, row Row) (TID, error) {
	if err := s.Delete(global); err != nil {
		return 0, err
	}
	return s.Insert(row)
}

// Search runs the query on every shard in parallel and merges the per-shard
// top-k pools into the global top-k. Each shard's answer is exact, so the
// merge is exact too.
//
// The returned QueryStats aggregate the whole fan-out: work and I/O
// counters are summed, wall times are the slowest shard's (shards run
// concurrently, so the critical path is the maximum), and the per-shard
// breakdown is kept in QueryStats.Shards. A fan-out at or above the
// slow-query threshold is logged once, with one child span per shard.
func (s *Sharded) Search(q *Query) ([]Result, QueryStats, error) {
	return s.searchContext(context.Background(), q)
}

func (s *Sharded) searchContext(ctx context.Context, q *Query) ([]Result, QueryStats, error) {
	type shardOut struct {
		res   []Result
		stats QueryStats
		err   error
	}
	root := obs.StartSpan("fanout")
	root.SetInt("shards", int64(len(s.shards)))
	outs := make([]shardOut, len(s.shards))
	var wg sync.WaitGroup
	for i, st := range s.shards {
		wg.Add(1)
		go func(i int, st *Store) {
			defer wg.Done()
			// Queries are stateless request descriptions; shards share one.
			outs[i].res, outs[i].stats, outs[i].err = st.search(ctx, q, root)
		}(i, st)
	}
	wg.Wait()
	root.End()

	var agg QueryStats
	agg.Shards = make([]QueryStats, len(outs))
	agg.TraceID = root.TraceID()
	agg.Phase = &PhaseProfile{}
	var all []Result
	for i, o := range outs {
		if o.err != nil {
			return nil, QueryStats{}, fmt.Errorf("iva: shard %d: %w", i, o.err)
		}
		for _, r := range o.res {
			all = append(all, Result{TID: s.join(i, r.TID), Dist: r.Dist})
		}
		agg.Shards[i] = o.stats
		agg.Scanned += o.stats.Scanned
		agg.TableAccesses += o.stats.TableAccesses
		agg.CacheHits += o.stats.CacheHits
		agg.PhysReads += o.stats.PhysReads
		agg.DiskCostMS += o.stats.DiskCostMS
		agg.DegradedSegments += o.stats.DegradedSegments
		// Shards run concurrently: the critical path is the slowest shard.
		if o.stats.FilterTime > agg.FilterTime {
			agg.FilterTime = o.stats.FilterTime
		}
		if o.stats.RefineTime > agg.RefineTime {
			agg.RefineTime = o.stats.RefineTime
		}
		if o.stats.Workers > agg.Workers {
			agg.Workers = o.stats.Workers
		}
		if p := o.stats.Phase; p != nil {
			agg.Phase.StripesTotal += p.StripesTotal
			agg.Phase.StripesSkipped += p.StripesSkipped
			agg.Phase.StripesZoneChecked += p.StripesZoneChecked
			agg.Phase.StripesZonePruned += p.StripesZonePruned
			agg.Phase.Workers = append(agg.Phase.Workers, p.Workers...)
			if p.FilterTime > agg.Phase.FilterTime {
				agg.Phase.FilterTime = p.FilterTime
			}
			if p.RefineTime > agg.Phase.RefineTime {
				agg.Phase.RefineTime = p.RefineTime
			}
			if p.MergeTime > agg.Phase.MergeTime {
				agg.Phase.MergeTime = p.MergeTime
			}
		}
	}
	if total := agg.CacheHits + agg.PhysReads; total > 0 {
		agg.Phase.PoolHitRatio = float64(agg.CacheHits) / float64(total)
	}
	s.queries.Inc()
	s.dur.ObserveTrace(root.Duration().Seconds(), agg.TraceID)
	if s.slowLog.ObserveEntry(obs.LogEntry{
		Query:    q.describe(),
		Duration: root.Duration(),
		Trace:    root,
		Phases:   phaseBreakdown(agg),
	}) {
		s.slow.Inc()
		s.ring.Force(root)
	} else {
		s.ring.Offer(root)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].TID < all[j].TID
	})
	if len(all) > q.K() {
		all = all[:q.K()]
	}
	return all, agg, nil
}

// WriteMetrics serializes the partition's shared registry — every shard's
// series under its shard label plus the fan-out aggregates — in the
// Prometheus text exposition format.
func (s *Sharded) WriteMetrics(w io.Writer) error { return s.reg.WritePrometheus(w) }

// MetricsText returns WriteMetrics output as a string.
func (s *Sharded) MetricsText() string { return s.reg.Text() }

// WriteSlowQueries serializes the partition's slow-query log as JSON; a
// slow fan-out entry's trace holds one child span per shard.
func (s *Sharded) WriteSlowQueries(w io.Writer) error { return s.slowLog.WriteJSON(w) }

// WriteSlowQueriesText renders the partition's slow-query log one line per
// entry, newest first (see Store.WriteSlowQueriesText).
func (s *Sharded) WriteSlowQueriesText(w io.Writer) error { return s.slowLog.WriteText(w) }

// SlowQueryCount reports how many fan-out queries met the slow threshold.
func (s *Sharded) SlowQueryCount() int64 { return s.slowLog.Total() }

// Stats sums per-shard statistics.
func (s *Sharded) Stats() StoreStats {
	var agg StoreStats
	for i, st := range s.shards {
		ss := st.Stats()
		agg.Tuples += ss.Tuples
		agg.Deleted += ss.Deleted
		agg.TableBytes += ss.TableBytes
		agg.IndexBytes += ss.IndexBytes
		agg.Rebuilds += ss.Rebuilds
		agg.RebuildsBy.Clean += ss.RebuildsBy.Clean
		agg.RebuildsBy.Growth += ss.RebuildsBy.Growth
		agg.RebuildsBy.NeedsRebuild += ss.RebuildsBy.NeedsRebuild
		agg.RebuildsBy.Explicit += ss.RebuildsBy.Explicit
		agg.IO = agg.IO.Add(ss.IO)
		if ss.Attributes > agg.Attributes {
			agg.Attributes = ss.Attributes
		}
		agg.ZoneKnown += ss.ZoneKnown
		agg.ZoneSealed += ss.ZoneSealed
		agg.ZoneDropped += ss.ZoneDropped
		agg.ZoneChecked += ss.ZoneChecked
		agg.ZonePruned += ss.ZonePruned
		// Pruning is per-shard; report "on" only when every shard has it.
		if i == 0 {
			agg.ZoneMapsOn = ss.ZoneMapsOn
		} else {
			agg.ZoneMapsOn = agg.ZoneMapsOn && ss.ZoneMapsOn
		}
	}
	return agg
}

// SetZoneMaps toggles stripe zone-map pruning on every shard (see
// Store.SetZoneMaps). Results are identical either way.
func (s *Sharded) SetZoneMaps(enabled bool) {
	for _, st := range s.shards {
		st.SetZoneMaps(enabled)
	}
}

// Sync checkpoints every shard.
func (s *Sharded) Sync() error {
	for i, st := range s.shards {
		if err := st.Sync(); err != nil {
			return fmt.Errorf("iva: shard %d: %w", i, err)
		}
	}
	return nil
}

// Close releases every shard.
func (s *Sharded) Close() error {
	var first error
	for i, st := range s.shards {
		if err := st.Close(); err != nil && first == nil {
			first = fmt.Errorf("iva: shard %d: %w", i, err)
		}
	}
	return first
}
