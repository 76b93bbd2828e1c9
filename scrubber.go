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

// ScrubberOptions configure the background scrubber.
type ScrubberOptions struct {
	// Interval is the pause between the end of one sweep and the start of the
	// next. Default 10 minutes.
	Interval time.Duration
}

// A sweep sleeps scrubThrottle every scrubThrottleEvery verified units (index
// segments, table records), bounding its I/O rate. The sweep holds the
// store's engine read lock throughout — queries proceed (the lock is shared)
// but rebuilds wait — so the throttle trades sweep I/O pressure against
// rebuild latency.
const (
	scrubThrottle      = 200 * time.Microsecond
	scrubThrottleEvery = 1024
)

// HealthState is the scrubber's overall verdict, served by ServeHealthz
// (/healthz).
type HealthState int

const (
	// HealthOK: every sweep so far came back clean and queries report no
	// degradation.
	HealthOK HealthState = iota
	// HealthDegraded: assurance is reduced but nothing is confirmed broken —
	// queries degrading past corrupt segments not yet confirmed by a sweep,
	// or a sweep error.
	HealthDegraded
	// HealthDamaged: the last sweep found checksum failures.
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

// SweepRecord is one completed sweep.
type SweepRecord struct {
	Start  time.Time    `json:"start"`
	End    time.Time    `json:"end"`
	Report *ScrubReport `json:"report,omitempty"`
	Err    string       `json:"error,omitempty"`
}

// Scrubber is the observable background scrubber: a single goroutine
// sweeping the store every Interval, time-sliced and throttled through the
// scrub yield hook, and folding its findings into metrics (iva_scrub_*,
// iva_health_state) and /healthz.
type Scrubber struct {
	store    *Store
	interval time.Duration
	// reportPath is where each completed sweep persists the scrub snapshot as
	// JSON (read back by LoadScrubReport and `ivatool stats`):
	// <store dir>/scrub-report.json, "" (none) for an in-memory store.
	reportPath string

	mu          sync.Mutex
	lastSweep   time.Time // zero = never swept
	lastCorrupt int64     // corrupt-segment counter at last sweep end
	lastReport  *ScrubReport
	lastErr     string
	history     []SweepRecord // most recent last, capped

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
	sc := &Scrubber{
		store:    s,
		interval: opts.Interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if sc.interval == 0 {
		sc.interval = 10 * time.Minute
	}
	if s.dir != "" {
		sc.reportPath = filepath.Join(s.dir, scrubReportFileName)
	}
	reg := s.reg
	sc.sweepsCtr = reg.Counter("iva_scrub_sweeps_total", "Completed background sweeps.", nil)
	sc.errsCtr = reg.Counter("iva_scrub_errors_total", "Background sweeps that failed with an error or could not persist their report.", nil)
	sc.corruptCtr = reg.Counter("iva_scrub_corrupt_found_total", "Corrupt structures (index segments, table records) found by background sweeps.", nil)
	sc.unitsCtr = reg.Counter("iva_scrub_units_total", "Units (index segments, table records) verified by background sweeps.", nil)
	sc.throttleCtr = reg.Counter("iva_scrub_throttle_sleeps_total", "Throttle pauses injected into background sweeps.", nil)
	reg.GaugeFunc("iva_scrub_last_sweep_age_seconds", "Age of the last completed sweep (-1 until the first one).", nil, func() float64 {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		if sc.lastSweep.IsZero() {
			return -1
		}
		return time.Since(sc.lastSweep).Seconds()
	})
	reg.GaugeFunc("iva_health_state", "Scrubber verdict: 0 ok, 1 degraded, 2 damaged.", nil, func() float64 {
		h, _ := sc.Health()
		return float64(h)
	})
	go sc.run()
	return sc
}

func (sc *Scrubber) run() {
	defer close(sc.done)
	t := time.NewTimer(sc.interval)
	defer t.Stop()
	for {
		select {
		case <-sc.stop:
			return
		case <-t.C:
		}
		sc.SweepNow()
		t.Reset(sc.interval)
	}
}

// Stop halts the scrubber and waits for any in-flight sweep to finish.
func (sc *Scrubber) Stop() {
	select {
	case <-sc.stop:
	default:
		close(sc.stop)
	}
	<-sc.done
}

// SweepNow synchronously sweeps the store. Sweeps are serialized: a call
// overlapping the background loop's sweep waits its turn.
func (sc *Scrubber) SweepNow() {
	sc.sweepMu.Lock()
	defer sc.sweepMu.Unlock()
	start := time.Now()
	var n int64
	yield := func() {
		n++
		sc.units.Add(1)
		sc.unitsCtr.Inc()
		if n%scrubThrottleEvery == 0 {
			sc.throttleCtr.Inc()
			time.Sleep(scrubThrottle)
		}
	}
	rep, err := sc.store.scrubYield(yield)
	rec := SweepRecord{Start: start, End: time.Now(), Report: rep}
	sc.sweepsCtr.Inc()
	if err != nil {
		rec.Err = err.Error()
	} else if bad := int64(rep.CorruptIndexSegments + rep.CorruptTable); bad > 0 {
		sc.corruptCtr.Add(bad)
	}

	sc.mu.Lock()
	sc.lastSweep = rec.End
	sc.lastCorrupt = sc.store.om.corruptSegs.Value()
	sc.lastReport = rep
	sc.lastErr = rec.Err
	sc.history = append(sc.history, rec)
	if len(sc.history) > scrubHistoryCap {
		sc.history = sc.history[len(sc.history)-scrubHistoryCap:]
	}
	sc.mu.Unlock()

	// A report that cannot be written leaves `ivatool stats -strict` reading
	// the previous sweep's verdict, so it counts as this sweep's error.
	if sc.reportPath != "" {
		if err := SaveScrubReport(sc.reportPath, sc.Snapshot()); err != nil {
			sc.mu.Lock()
			if sc.lastErr != "" {
				sc.lastErr += "; "
			}
			sc.lastErr += "persist report: " + err.Error()
			rec.Err = sc.lastErr
			sc.history[len(sc.history)-1].Err = rec.Err
			sc.mu.Unlock()
		}
	}
	if rec.Err != "" {
		sc.errsCtr.Inc()
	}
}

// Units reports how many units (index segments, table records) the scrubber
// has verified over its lifetime — the progress counter behind
// iva_scrub_units_total.
func (sc *Scrubber) Units() int64 { return sc.units.Load() }

// History returns the most recent completed sweeps, oldest first.
func (sc *Scrubber) History() []SweepRecord {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return append([]SweepRecord(nil), sc.history...)
}

// Health computes the scrubber's verdict with a one-line reason. Before the
// first sweep the verdict covers only what queries have reported.
func (sc *Scrubber) Health() (HealthState, string) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if rep := sc.lastReport; rep != nil && !rep.Clean() {
		return HealthDamaged, "scrub found damage"
	}
	if sc.lastErr != "" {
		return HealthDegraded, "sweep error: " + sc.lastErr
	}
	if d := sc.store.om.corruptSegs.Value() - sc.lastCorrupt; d > 0 {
		return HealthDegraded, fmt.Sprintf("queries degraded past %d corrupt segment reads since last sweep", d)
	}
	return HealthOK, ""
}

// ServeHealthz reports the scrubber's verdict over HTTP: 200 with
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
// verdict plus the last sweep. `ivatool stats` reads it to report scrub age
// and damage without re-sweeping. A snapshot with no Report and no Err has
// not been swept yet.
type ScrubSnapshot struct {
	Time      time.Time    `json:"time"`
	Health    string       `json:"health"`
	Reason    string       `json:"reason,omitempty"`
	LastSweep time.Time    `json:"last_sweep"`
	Err       string       `json:"error,omitempty"`
	Report    *ScrubReport `json:"report,omitempty"`
}

// Snapshot captures the scrubber's current cross-sweep state.
func (sc *Scrubber) Snapshot() ScrubSnapshot {
	state, reason := sc.Health()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return ScrubSnapshot{
		Time: time.Now(), Health: state.String(), Reason: reason,
		LastSweep: sc.lastSweep, Err: sc.lastErr, Report: sc.lastReport,
	}
}

// SaveScrubReport atomically persists a snapshot as JSON at path.
func SaveScrubReport(path string, snap ScrubSnapshot) error {
	blob, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(blob, '\n'))
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
