package iva

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sparsewide/iva/internal/obs"
)

// ScrubberOptions configure the background scrub scheduler.
type ScrubberOptions struct {
	// Interval is the target period for revisiting every shard: the pause
	// between consecutive shard sweeps is Interval/shards (floored at
	// ShardPause). Default 10 minutes.
	Interval time.Duration
	// ShardPause is the minimum idle time between two shard sweeps, so a
	// small partition is not swept back-to-back. Default 1 second.
	ShardPause time.Duration
	// Throttle is the sleep injected into a sweep every ThrottleEvery
	// verified units (index segments, checkpoint records, table records),
	// bounding the sweep's I/O rate. The sweep holds the store's engine
	// read lock throughout — queries proceed (the lock is shared) but
	// rebuilds wait — so the throttle trades sweep I/O pressure against
	// rebuild latency. Default 200µs every 1024 units; a negative Throttle
	// disables throttling.
	Throttle      time.Duration
	ThrottleEvery int
	// ReportPath is where each completed sweep persists the partition's
	// scrub snapshot as JSON (read back by LoadScrubReport and `ivatool
	// stats`). Default <store dir>/scrub-report.json for on-disk stores;
	// empty disables persistence for in-memory stores.
	ReportPath string
}

func (o ScrubberOptions) withDefaults() ScrubberOptions {
	if o.Interval == 0 {
		o.Interval = 10 * time.Minute
	}
	if o.ShardPause == 0 {
		o.ShardPause = time.Second
	}
	if o.Throttle == 0 {
		o.Throttle = 200 * time.Microsecond
	}
	if o.ThrottleEvery <= 0 {
		o.ThrottleEvery = 1024
	}
	return o
}

// HealthState is the scrub scheduler's overall verdict, served by
// ServeHealthz (/healthz).
type HealthState int

const (
	// HealthOK: every sweep so far came back clean and queries report no
	// degradation.
	HealthOK HealthState = iota
	// HealthDegraded: assurance is reduced but nothing is confirmed broken —
	// queries degrading past corrupt segments not yet confirmed by a sweep,
	// or a sweep error.
	HealthDegraded
	// HealthDamaged: the last sweep of some shard found checksum failures.
	HealthDamaged
)

func (h HealthState) String() string {
	switch h {
	case HealthOK:
		return "ok"
	case HealthDegraded:
		return "degraded"
	default:
		return "damaged"
	}
}

// SweepRecord is one completed shard sweep.
type SweepRecord struct {
	Shard  int          `json:"shard"`
	Start  time.Time    `json:"start"`
	End    time.Time    `json:"end"`
	Report *ScrubReport `json:"report,omitempty"`
	Err    string       `json:"error,omitempty"`
}

// Scrubber is the observable background scrub scheduler: a single goroutine
// sweeping one shard at a time (so at most one sweep's I/O load exists at
// once), time-sliced and throttled through the scrub yield hook, prioritizing
// shards whose queries report degraded segments, and folding its findings
// into metrics (iva_scrub_*, iva_health_state) and /healthz.
type Scrubber struct {
	stores []*Store
	opts   ScrubberOptions
	reg    *obs.Registry

	mu          sync.Mutex
	lastSweep   []time.Time // per shard; zero = never swept
	lastCorrupt []int64     // corrupt-segment counter at last sweep end
	lastReport  []*ScrubReport
	lastErr     []string
	history     []SweepRecord // most recent last, capped
	sweeping    int           // shard currently sweeping, -1 idle

	sweepMu sync.Mutex // serializes sweeps between the loop and SweepNow

	units       atomic.Int64
	sweepsCtr   *obs.Counter
	errsCtr     *obs.Counter
	corruptCtr  *obs.Counter
	unitsCtr    *obs.Counter
	throttleCtr *obs.Counter

	stop chan struct{}
	done chan struct{}
}

const scrubReportFileName = "scrub-report.json"
const scrubHistoryCap = 64

// StartScrubber launches a background scrubber over the store. Stop it with
// Stop; a store may have at most one meaningfully running (metrics handles
// are shared, but sweeps of two scrubbers would contend).
func (s *Store) StartScrubber(opts ScrubberOptions) *Scrubber {
	sc := newScrubber([]*Store{s}, s.reg, s.dir, opts)
	go sc.run()
	return sc
}

// StartScrubber launches a background scrubber over every shard of the
// partition: per-shard sweeps are staggered — at most one shard sweeps at any
// moment — and prioritized by query-reported degraded segments.
func (s *Sharded) StartScrubber(opts ScrubberOptions) *Scrubber {
	dir := ""
	if len(s.shards) > 0 && s.shards[0].dir != "" {
		dir = filepath.Dir(s.shards[0].dir)
	}
	sc := newScrubber(s.shards, s.reg, dir, opts)
	go sc.run()
	return sc
}

func newScrubber(stores []*Store, reg *obs.Registry, dir string, opts ScrubberOptions) *Scrubber {
	opts = opts.withDefaults()
	if opts.ReportPath == "" && dir != "" {
		opts.ReportPath = filepath.Join(dir, scrubReportFileName)
	}
	sc := &Scrubber{
		stores:      stores,
		opts:        opts,
		reg:         reg,
		lastSweep:   make([]time.Time, len(stores)),
		lastCorrupt: make([]int64, len(stores)),
		lastReport:  make([]*ScrubReport, len(stores)),
		lastErr:     make([]string, len(stores)),
		sweeping:    -1,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	sc.sweepsCtr = reg.Counter("iva_scrub_sweeps_total", "Completed background shard sweeps.", nil)
	sc.errsCtr = reg.Counter("iva_scrub_errors_total", "Background sweeps that failed with an error.", nil)
	sc.corruptCtr = reg.Counter("iva_scrub_corrupt_found_total", "Corrupt structures (segments, checkpoints, table records) found by background sweeps.", nil)
	sc.unitsCtr = reg.Counter("iva_scrub_units_total", "Units (index segments, checkpoint records, table records) verified by background sweeps.", nil)
	sc.throttleCtr = reg.Counter("iva_scrub_throttle_sleeps_total", "Throttle pauses injected into background sweeps.", nil)
	reg.GaugeFunc("iva_scrub_throttle_seconds", "Configured throttle sleep per pause (0 when disabled).", nil, func() float64 {
		if sc.opts.Throttle < 0 {
			return 0
		}
		return sc.opts.Throttle.Seconds()
	})
	reg.GaugeFunc("iva_scrub_sweeping_shard", "Shard currently being swept (-1 when idle).", nil, func() float64 {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		return float64(sc.sweeping)
	})
	reg.GaugeFunc("iva_scrub_last_sweep_age_seconds", "Age of the stalest shard's last completed sweep (-1 until every shard has been swept once).", nil, func() float64 {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		var oldest time.Time
		for _, t := range sc.lastSweep {
			if t.IsZero() {
				return -1
			}
			if oldest.IsZero() || t.Before(oldest) {
				oldest = t
			}
		}
		return time.Since(oldest).Seconds()
	})
	reg.GaugeFunc("iva_health_state", "Scrub scheduler verdict: 0 ok, 1 degraded, 2 damaged.", nil, func() float64 {
		h, _ := sc.Health()
		return float64(h)
	})
	return sc
}

// pause returns the idle time between consecutive shard sweeps.
func (sc *Scrubber) pause() time.Duration {
	p := sc.opts.Interval / time.Duration(len(sc.stores))
	if p < sc.opts.ShardPause {
		p = sc.opts.ShardPause
	}
	return p
}

func (sc *Scrubber) run() {
	defer close(sc.done)
	t := time.NewTimer(sc.pause())
	defer t.Stop()
	for {
		select {
		case <-sc.stop:
			return
		case <-t.C:
		}
		sc.SweepNow()
		t.Reset(sc.pause())
	}
}

// Stop halts the scheduler and waits for any in-flight sweep to finish.
func (sc *Scrubber) Stop() {
	select {
	case <-sc.stop:
	default:
		close(sc.stop)
	}
	<-sc.done
}

// pickNext selects the shard to sweep: the one whose queries have degraded
// past the most corrupt segments since its last sweep; with no degradation
// reported anywhere, the least recently swept shard (never-swept first).
func (sc *Scrubber) pickNext() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	best, bestDelta := -1, int64(0)
	for i, st := range sc.stores {
		if d := st.om.corruptSegs.Value() - sc.lastCorrupt[i]; d > bestDelta {
			best, bestDelta = i, d
		}
	}
	if best >= 0 {
		return best
	}
	for i := range sc.stores {
		if best == -1 || sc.lastSweep[i].Before(sc.lastSweep[best]) {
			best = i
		}
	}
	return best
}

// SweepNow synchronously picks and sweeps one shard (the same selection the
// background loop makes) and returns its index. Sweeps are serialized: a call
// overlapping the background loop's sweep waits its turn.
func (sc *Scrubber) SweepNow() int {
	sc.sweepMu.Lock()
	defer sc.sweepMu.Unlock()
	i := sc.pickNext()
	sc.sweep(i)
	return i
}

func (sc *Scrubber) sweep(i int) {
	sc.mu.Lock()
	sc.sweeping = i
	sc.mu.Unlock()
	start := time.Now()
	var n int64
	yield := func() {
		n++
		sc.units.Add(1)
		sc.unitsCtr.Inc()
		if sc.opts.Throttle > 0 && n%int64(sc.opts.ThrottleEvery) == 0 {
			sc.throttleCtr.Inc()
			time.Sleep(sc.opts.Throttle)
		}
	}
	rep, err := sc.stores[i].scrubYield(yield)
	end := time.Now()

	rec := SweepRecord{Shard: i, Start: start, End: end, Report: rep}
	sc.sweepsCtr.Inc()
	if err != nil {
		rec.Err = err.Error()
		sc.errsCtr.Inc()
	} else if bad := int64(rep.CorruptIndexSegments + rep.CorruptCheckpoints + rep.CorruptTable); bad > 0 {
		sc.corruptCtr.Add(bad)
	}

	sc.mu.Lock()
	sc.sweeping = -1
	sc.lastSweep[i] = end
	sc.lastCorrupt[i] = sc.stores[i].om.corruptSegs.Value()
	sc.lastReport[i] = rep
	sc.lastErr[i] = rec.Err
	sc.history = append(sc.history, rec)
	if len(sc.history) > scrubHistoryCap {
		sc.history = sc.history[len(sc.history)-scrubHistoryCap:]
	}
	sc.mu.Unlock()

	if sc.opts.ReportPath != "" {
		_ = SaveScrubReport(sc.opts.ReportPath, sc.Snapshot())
	}
}

// Units reports how many units (index segments, checkpoint records, table
// records) the scrubber has verified over its lifetime — the progress
// counter behind iva_scrub_units_total.
func (sc *Scrubber) Units() int64 { return sc.units.Load() }

// History returns the most recent completed sweeps, oldest first.
func (sc *Scrubber) History() []SweepRecord {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return append([]SweepRecord(nil), sc.history...)
}

// Health computes the scheduler's verdict with a one-line reason. Shards
// never swept yet contribute nothing — the verdict covers what is known.
func (sc *Scrubber) Health() (HealthState, string) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	state, reason := HealthOK, ""
	worsen := func(s HealthState, r string) {
		if s > state {
			state, reason = s, r
		}
	}
	for i, st := range sc.stores {
		if rep := sc.lastReport[i]; rep != nil && !rep.Clean() {
			worsen(HealthDamaged, fmt.Sprintf("shard %d: scrub found damage", i))
			continue
		}
		if sc.lastErr[i] != "" {
			worsen(HealthDegraded, fmt.Sprintf("shard %d: sweep error: %s", i, sc.lastErr[i]))
		}
		if d := st.om.corruptSegs.Value() - sc.lastCorrupt[i]; d > 0 {
			worsen(HealthDegraded, fmt.Sprintf("shard %d: queries degraded past %d corrupt segment reads since last sweep", i, d))
		}
	}
	return state, reason
}

// ServeHealthz reports the scheduler's verdict over HTTP: 200 with
// {"status":"ok"} or {"status":"degraded",...}, 503 with
// {"status":"damaged",...}. Mount it at /healthz.
func (sc *Scrubber) ServeHealthz(w http.ResponseWriter, _ *http.Request) {
	state, reason := sc.Health()
	w.Header().Set("Content-Type", "application/json")
	if state == HealthDamaged {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	body := map[string]string{"status": state.String()}
	if reason != "" {
		body["reason"] = reason
	}
	_ = json.NewEncoder(w).Encode(body)
}

// ScrubSnapshot is the persisted cross-sweep state (scrub-report.json): the
// verdict plus each shard's last sweep. `ivatool stats` reads it to report
// scrub age and per-shard damage without re-sweeping.
type ScrubSnapshot struct {
	Time   time.Time          `json:"time"`
	Health string             `json:"health"`
	Reason string             `json:"reason,omitempty"`
	Shards []ShardScrubStatus `json:"shards"`
}

// ShardScrubStatus is one shard's entry in a ScrubSnapshot.
type ShardScrubStatus struct {
	Shard     int          `json:"shard"`
	LastSweep time.Time    `json:"last_sweep,omitempty"`
	Err       string       `json:"error,omitempty"`
	Report    *ScrubReport `json:"report,omitempty"`
}

// Snapshot captures the scrubber's current cross-sweep state.
func (sc *Scrubber) Snapshot() ScrubSnapshot {
	state, reason := sc.Health()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	snap := ScrubSnapshot{Time: time.Now(), Health: state.String(), Reason: reason}
	for i := range sc.stores {
		snap.Shards = append(snap.Shards, ShardScrubStatus{
			Shard:     i,
			LastSweep: sc.lastSweep[i],
			Err:       sc.lastErr[i],
			Report:    sc.lastReport[i],
		})
	}
	return snap
}

// SaveScrubReport atomically persists a snapshot as JSON at path.
func SaveScrubReport(path string, snap ScrubSnapshot) error {
	blob, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadScrubReport reads a snapshot persisted by SaveScrubReport (or by
// `ivatool scrub`); os.IsNotExist(err) distinguishes "never scrubbed".
func LoadScrubReport(path string) (*ScrubSnapshot, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap ScrubSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		return nil, fmt.Errorf("iva: %s: %w", path, err)
	}
	return &snap, nil
}
