package storage

import "sync"

// Range is one byte span of a device, [Off, Off+Len).
type Range struct {
	Off int64
	Len int64
}

// TrackDevice wraps a Device and records which byte ranges have been written
// since the last TakeDirty, coalescing adjacent and overlapping spans. The
// replication primary wraps its store devices with it: the set of ranges
// written between two Syncs, read back after the second Sync commits, IS the
// synced-prefix delta the crash-atomic format makes well-defined.
// Tracking is disarmed until Arm is called, so non-replicating stores pay
// only an atomic load per write.
type TrackDevice struct {
	inner Device

	mu     sync.Mutex
	armed  bool
	ranges []Range // sorted by Off, non-overlapping, non-adjacent
}

// NewTrackDevice wraps inner with (disarmed) write tracking.
func NewTrackDevice(inner Device) *TrackDevice { return &TrackDevice{inner: inner} }

// Arm starts recording writes. Idempotent.
func (d *TrackDevice) Arm() {
	d.mu.Lock()
	d.armed = true
	d.mu.Unlock()
}

// TakeDirty returns the coalesced ranges written since the last call and
// resets the set. The caller snapshots range contents from the device itself
// (write-through caching keeps device bytes current).
func (d *TrackDevice) TakeDirty() []Range {
	d.mu.Lock()
	out := d.ranges
	d.ranges = nil
	d.mu.Unlock()
	return out
}

// Dirty reports whether any range was written since the last TakeDirty.
func (d *TrackDevice) Dirty() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.ranges) > 0
}

// record merges [off, off+n) into the sorted range set.
func (d *TrackDevice) record(off, n int64) {
	if n <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.armed {
		return
	}
	end := off + n
	// Binary search for the first range that could touch [off, end).
	lo, hi := 0, len(d.ranges)
	for lo < hi {
		mid := (lo + hi) / 2
		if d.ranges[mid].Off+d.ranges[mid].Len < off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// Merge every range overlapping or adjacent to the new span.
	j := lo
	for j < len(d.ranges) && d.ranges[j].Off <= end {
		if d.ranges[j].Off < off {
			off = d.ranges[j].Off
		}
		if e := d.ranges[j].Off + d.ranges[j].Len; e > end {
			end = e
		}
		j++
	}
	merged := Range{Off: off, Len: end - off}
	d.ranges = append(d.ranges[:lo], append([]Range{merged}, d.ranges[j:]...)...)
}

// ReadAt implements Device.
func (d *TrackDevice) ReadAt(p []byte, off int64) (int, error) { return d.inner.ReadAt(p, off) }

// WriteAt implements Device.
func (d *TrackDevice) WriteAt(p []byte, off int64) (int, error) {
	n, err := d.inner.WriteAt(p, off)
	if n > 0 {
		d.record(off, int64(n))
	}
	return n, err
}

// Size implements Device.
func (d *TrackDevice) Size() int64 { return d.inner.Size() }

// Truncate implements Device. A shrink drops tracked ranges beyond the new
// size (those bytes no longer exist to ship); the new size itself travels in
// the delta header, not as a range.
func (d *TrackDevice) Truncate(size int64) error {
	if err := d.inner.Truncate(size); err != nil {
		return err
	}
	d.mu.Lock()
	if d.armed {
		out := d.ranges[:0]
		for _, r := range d.ranges {
			if r.Off >= size {
				continue
			}
			if r.Off+r.Len > size {
				r.Len = size - r.Off
			}
			out = append(out, r)
		}
		d.ranges = out
	}
	d.mu.Unlock()
	return nil
}

// Sync implements Device.
func (d *TrackDevice) Sync() error { return d.inner.Sync() }

// Close implements Device.
func (d *TrackDevice) Close() error { return d.inner.Close() }
