package storage

import (
	"errors"
	"sync"
)

// ErrInjected is the error produced by a tripped FaultDevice.
var ErrInjected = errors.New("storage: injected fault")

// FaultDevice wraps a Device and starts failing every operation after a
// configurable number of successful calls. It exists for failure-injection
// tests: upper layers must propagate storage errors instead of corrupting
// state or panicking.
type FaultDevice struct {
	inner Device

	mu        sync.Mutex
	remaining int64 // successful ops left; <0 means unlimited
	tripped   bool
	torn      bool // when tripping on a WriteAt, persist a prefix first
}

// NewFaultDevice wraps inner, allowing `ops` successful operations before
// every subsequent call fails with ErrInjected.
func NewFaultDevice(inner Device, ops int64) *FaultDevice {
	return &FaultDevice{inner: inner, remaining: ops}
}

// Trip makes every subsequent operation fail immediately.
func (d *FaultDevice) Trip() {
	d.mu.Lock()
	d.tripped = true
	d.mu.Unlock()
}

// Tripped reports whether the device has started injecting failures. A
// fault-sweep driver uses it to detect that a budget exceeded the script's
// total operation count, i.e. the sweep is complete.
func (d *FaultDevice) Tripped() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tripped
}

// Reset re-arms the device with a fresh budget.
func (d *FaultDevice) Reset(ops int64) {
	d.mu.Lock()
	d.remaining, d.tripped = ops, false
	d.mu.Unlock()
}

// SetTornWrites toggles torn-write mode: when the budget trips on a WriteAt,
// the first half of the buffer is persisted before the call fails. This
// models a power cut mid-write — the failure the checksums must
// detect rather than a clean all-or-nothing device error.
func (d *FaultDevice) SetTornWrites(on bool) {
	d.mu.Lock()
	d.torn = on
	d.mu.Unlock()
}

func (d *FaultDevice) step() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.tripped {
		return ErrInjected
	}
	if d.remaining == 0 {
		d.tripped = true
		return ErrInjected
	}
	if d.remaining > 0 {
		d.remaining--
	}
	return nil
}

// ReadAt implements Device.
func (d *FaultDevice) ReadAt(p []byte, off int64) (int, error) {
	if err := d.step(); err != nil {
		return 0, err
	}
	return d.inner.ReadAt(p, off)
}

// WriteAt implements Device.
func (d *FaultDevice) WriteAt(p []byte, off int64) (int, error) {
	if err := d.step(); err != nil {
		d.mu.Lock()
		torn := d.torn
		d.mu.Unlock()
		if torn && len(p) > 1 {
			d.inner.WriteAt(p[:len(p)/2], off)
		}
		return 0, err
	}
	return d.inner.WriteAt(p, off)
}

// Size implements Device.
func (d *FaultDevice) Size() int64 { return d.inner.Size() }

// Truncate implements Device.
func (d *FaultDevice) Truncate(size int64) error {
	if err := d.step(); err != nil {
		return err
	}
	return d.inner.Truncate(size)
}

// Sync implements Device.
func (d *FaultDevice) Sync() error {
	if err := d.step(); err != nil {
		return err
	}
	return d.inner.Sync()
}

// Close implements Device.
func (d *FaultDevice) Close() error { return d.inner.Close() }
