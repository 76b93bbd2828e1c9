// Package table implements the sparse-wide-table storage substrate the
// iVA-file indexes: a catalog of attributes and a row-wise heap file in the
// interpreted-schema style of Beckmann et al. (the paper's assumed layout).
// A record stores only its defined (attribute id, value) pairs — ids
// gap-coded, kinds left to the catalog — so a tuple with 16 of 1,147
// attributes costs 16 cells, not 1,147.
package table

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
)

// AttrInfo is the catalog entry of one attribute. DF, Str and the numeric
// relative domain drive vector-list type selection and quantizer
// construction in the index layer.
type AttrInfo struct {
	Name string
	Kind model.Kind

	DF      int64 // number of live tuples defining the attribute
	Str     int64 // total number of strings over all live tuples (text only)
	MaxStrs int64 // largest string count in one value ever seen (text only)

	// Relative numeric domain (§III-C). The domain only widens between
	// rebuilds; Rebuild re-derives it from live data.
	HasDomain bool
	Min, Max  float64
}

// Catalog maps attribute names to dense ids and maintains per-attribute
// statistics. It is safe for concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	attrs  []AttrInfo
	byName map[string]model.AttrID

	// kinds holds the attributes' kinds by id — what a record walk reads
	// instead of a kind byte per field. Every registration publishes a longer
	// slice; an id's kind never changes and a published prefix is never
	// written, so a snapshot is read without the lock.
	kinds atomic.Pointer[[]model.Kind]
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	c := &Catalog{byName: make(map[string]model.AttrID)}
	c.kinds.Store(new([]model.Kind))
	return c
}

// add registers a new attribute. Caller holds mu, or owns c.
func (c *Catalog) add(a AttrInfo) model.AttrID {
	id := model.AttrID(len(c.attrs))
	c.attrs = append(c.attrs, a)
	c.byName[a.Name] = id
	kinds := append(*c.kinds.Load(), a.Kind)
	c.kinds.Store(&kinds)
	return id
}

// Kinds returns the kind of every registered attribute, indexed by AttrID. The
// slice is a snapshot: it covers every attribute registered before the call,
// and the caller must not modify it.
func (c *Catalog) Kinds() []model.Kind { return *c.kinds.Load() }

// AddAttr registers an attribute, returning its id. Registering an existing
// name with the same kind returns the existing id; a kind conflict errors.
func (c *Catalog) AddAttr(name string, kind model.Kind) (model.AttrID, error) {
	if name == "" {
		return 0, fmt.Errorf("table: empty attribute name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if id, ok := c.byName[name]; ok {
		if c.attrs[id].Kind != kind {
			return 0, fmt.Errorf("table: attribute %q is %v, not %v", name, c.attrs[id].Kind, kind)
		}
		return id, nil
	}
	return c.add(AttrInfo{Name: name, Kind: kind}), nil
}

// Lookup returns the id of a named attribute.
func (c *Catalog) Lookup(name string) (model.AttrID, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	id, ok := c.byName[name]
	return id, ok
}

// Info returns a copy of the catalog entry for id.
func (c *Catalog) Info(id model.AttrID) (AttrInfo, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if int(id) >= len(c.attrs) {
		return AttrInfo{}, fmt.Errorf("table: unknown attribute %d", id)
	}
	return c.attrs[id], nil
}

// NumAttrs returns the number of registered attributes.
func (c *Catalog) NumAttrs() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.attrs)
}

// check reports whether every value of a tuple sits on a registered attribute
// of its kind.
func (c *Catalog) check(values map[model.AttrID]model.Value) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for id, v := range values {
		if int(id) >= len(c.attrs) {
			return fmt.Errorf("table: unknown attribute %d", id)
		}
		if a := &c.attrs[id]; a.Kind != v.Kind {
			return fmt.Errorf("table: attribute %q is %v, value is %v", a.Name, a.Kind, v.Kind)
		}
	}
	return nil
}

// note folds a tuple's values into the statistics (sign=+1 on insert, −1 on
// delete). A value check refuses has no statistics: no append admitted it.
func (c *Catalog) note(values map[model.AttrID]model.Value, sign int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, v := range values {
		if int(id) < len(c.attrs) && c.attrs[id].Kind == v.Kind {
			c.attrs[id].note(int64(len(v.Strs)), v.Num, sign)
		}
	}
}

// note folds one value of the entry's kind — nstr strings, or the number
// num — into its statistics. Numeric deletes do not shrink the domain;
// Rebuild does.
func (a *AttrInfo) note(nstr int64, num float64, sign int64) {
	a.DF += sign
	switch a.Kind {
	case model.KindText:
		a.Str += sign * nstr
		if sign > 0 && nstr > a.MaxStrs {
			a.MaxStrs = nstr
		}
	case model.KindNumeric:
		if sign > 0 {
			if !a.HasDomain {
				a.HasDomain, a.Min, a.Max = true, num, num
			} else {
				if num < a.Min {
					a.Min = num
				}
				if num > a.Max {
					a.Max = num
				}
			}
		}
	}
}

// setStats replaces the statistics of the first len(stats) attributes (a
// rebuild's count of what survived it); names and kinds stay.
func (c *Catalog) setStats(stats []AttrInfo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, st := range stats {
		st.Name, st.Kind = c.attrs[i].Name, c.attrs[i].Kind
		c.attrs[i] = st
	}
}

// Encode serializes the catalog to a self-describing binary blob ending in
// a CRC32C trailer over everything before it (magic "CTL4").
func (c *Catalog) Encode() []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, catalogCTL4)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.attrs)))
	for _, a := range c.attrs {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(a.Name)))
		buf = append(buf, a.Name...)
		buf = append(buf, byte(a.Kind))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(a.DF))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(a.Str))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(a.MaxStrs))
		flag := byte(0)
		if a.HasDomain {
			flag = 1
		}
		buf = append(buf, flag)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.Min))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.Max))
	}
	return binary.LittleEndian.AppendUint32(buf, storage.Checksum(buf))
}

// catalogCTL4 is the catalog's format word. A format change picks a new one;
// DecodeCatalog refuses every other value (FORMAT.md § Format policy).
const catalogCTL4 = 0x43544C34 // "CTL4"

// DecodeCatalog parses a blob produced by Encode, verifying it against its
// CRC32C trailer before any entry is read.
func DecodeCatalog(buf []byte) (*Catalog, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("table: truncated catalog")
	}
	if magic := binary.LittleEndian.Uint32(buf); magic != catalogCTL4 {
		return nil, fmt.Errorf("table: catalog format word %#x unsupported: this build reads only %#x (\"CTL4\")", magic, uint32(catalogCTL4))
	}
	if len(buf) < 12 {
		return nil, fmt.Errorf("table: truncated catalog")
	}
	buf, trailer := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if storage.Checksum(buf) != trailer {
		return nil, &storage.CorruptionError{File: "catalog.bin", Offset: 0,
			Segment: storage.NoCorruptSegment, Detail: "catalog checksum mismatch"}
	}
	n := int(binary.LittleEndian.Uint32(buf[4:]))
	p := 8
	c := NewCatalog()
	for i := 0; i < n; i++ {
		if p+2 > len(buf) {
			return nil, fmt.Errorf("table: truncated catalog")
		}
		nameLen := int(binary.LittleEndian.Uint16(buf[p:]))
		p += 2
		if p+nameLen+1+8+8+8+1+16 > len(buf) {
			return nil, fmt.Errorf("table: truncated catalog entry %d", i)
		}
		a := AttrInfo{Name: string(buf[p : p+nameLen])}
		p += nameLen
		a.Kind = model.Kind(buf[p])
		p++
		a.DF = int64(binary.LittleEndian.Uint64(buf[p:]))
		p += 8
		a.Str = int64(binary.LittleEndian.Uint64(buf[p:]))
		p += 8
		a.MaxStrs = int64(binary.LittleEndian.Uint64(buf[p:]))
		p += 8
		a.HasDomain = buf[p] == 1
		p++
		a.Min = math.Float64frombits(binary.LittleEndian.Uint64(buf[p:]))
		p += 8
		a.Max = math.Float64frombits(binary.LittleEndian.Uint64(buf[p:]))
		p += 8
		c.add(a)
	}
	return c, nil
}

// Attrs returns a copy of all catalog entries, indexed by AttrID.
func (c *Catalog) Attrs() []AttrInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]AttrInfo, len(c.attrs))
	copy(out, c.attrs)
	return out
}
