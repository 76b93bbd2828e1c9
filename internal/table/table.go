package table

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/storage"
)

// ErrNotFound is returned by lookups for tuple ids that are not live.
var ErrNotFound = errors.New("table: tuple not found")

// Table is the sparse wide table: a catalog plus a row-wise heap file of
// records read against it. The paper's indexes point into it with byte
// offsets (the ptr of a tuple-list element), and its random-access fetch
// count is the "table file accesses" metric of Fig. 8.
type Table struct {
	f   *storage.File
	cat *Catalog

	mu       sync.Mutex
	nextTID  model.TID
	live     int64        // live (non-deleted) tuples
	total    int64        // records present in the file, incl. deleted
	dataEnd  int64        // next append offset
	accesses atomic.Int64 // random tuple fetches (Fig. 8 metric)

	// rebuilt holds the statistics Rebuild counted over this table's records
	// until PublishStats hands them to the catalog; nil otherwise.
	rebuilt []AttrInfo
}

const (
	tableMagic   = 0x53575442 // "SWTB"
	headerSize   = 64
	headerCRCOff = 44 // the header's CRC32C covers [0, headerCRCOff)
	maxRecordLen = 1 << 24
	maxLenWord   = 4 // uvarint bytes of a length up to maxRecordLen

	// tableFormat with a watermark of headerSize is the header's format word:
	// bit 0, every record ends in a CRC32C trailer; bit 1, records gap-code
	// their attribute ids and take kinds from the catalog, and the header
	// carries its own CRC. Open refuses any other value (FORMAT.md § Format
	// policy).
	tableFormat = 0x3

	recordTrailerLen = 4

	// rebuildChunk is how many bytes of records Rebuild gathers before
	// writing them: a page reaches the device once (twice where two chunks
	// meet) instead of once per record in it.
	rebuildChunk = 256 << 10
)

// New creates an empty table over f. Existing file contents are discarded.
func New(f *storage.File, cat *Catalog) (*Table, error) {
	if err := f.Truncate(0); err != nil {
		return nil, err
	}
	t := &Table{f: f, cat: cat, dataEnd: headerSize}
	if err := t.writeHeader(); err != nil {
		return nil, err
	}
	return t, nil
}

// Open attaches to a table previously written to f with the given catalog.
func Open(f *storage.File, cat *Catalog) (*Table, error) {
	var hdr [headerSize]byte
	if err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != tableMagic {
		return nil, fmt.Errorf("table: bad magic")
	}
	// The format word gates everything, the header checksum included: a file
	// of another format is refused by name, not reported as damaged.
	flags, mark := binary.LittleEndian.Uint32(hdr[32:36]), binary.LittleEndian.Uint64(hdr[36:44])
	if flags != tableFormat || mark != headerSize {
		return nil, fmt.Errorf("table: header format (flags %#x, record-checksum watermark %d) unsupported: this build reads only flags %#x with watermark %d", flags, mark, tableFormat, headerSize)
	}
	if storage.Checksum(hdr[:headerCRCOff]) != binary.LittleEndian.Uint32(hdr[headerCRCOff:]) {
		return nil, &storage.CorruptionError{File: "table.swt", Offset: 0,
			Segment: storage.NoCorruptSegment, Detail: "header checksum mismatch"}
	}
	t := &Table{
		f:       f,
		cat:     cat,
		nextTID: model.TID(binary.LittleEndian.Uint32(hdr[4:8])),
		live:    int64(binary.LittleEndian.Uint64(hdr[8:16])),
		total:   int64(binary.LittleEndian.Uint64(hdr[16:24])),
		dataEnd: int64(binary.LittleEndian.Uint64(hdr[24:32])),
	}
	return t, nil
}

func (t *Table) writeHeader() error {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], tableMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(t.nextTID))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(t.live))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(t.total))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(t.dataEnd))
	binary.LittleEndian.PutUint32(hdr[32:36], tableFormat)
	binary.LittleEndian.PutUint64(hdr[36:44], headerSize)
	binary.LittleEndian.PutUint32(hdr[headerCRCOff:], storage.Checksum(hdr[:headerCRCOff]))
	return t.f.WriteAt(hdr[:], 0)
}

// Sync persists the header and flushes the device.
func (t *Table) Sync() error {
	t.mu.Lock()
	err := t.writeHeader()
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return t.f.Sync()
}

// Catalog returns the table's catalog.
func (t *Table) Catalog() *Catalog { return t.cat }

// Attrs returns the catalog entries describing this table's records, indexed
// by AttrID: the catalog's own, or — for a table Rebuild has written and
// nobody has published yet — the catalog's names with the statistics of the
// rebuilt records.
func (t *Table) Attrs() []AttrInfo {
	t.mu.Lock()
	rebuilt := t.rebuilt
	t.mu.Unlock()
	infos := t.cat.Attrs()
	copy(infos, rebuilt) // attributes registered since then have no records yet
	return infos
}

// PublishStats commits a rebuild: the statistics of the rebuilt records
// replace the catalog's. The caller does it once the new table (and the index
// built over it) takes over from the old one, and before writing to it.
func (t *Table) PublishStats() {
	t.mu.Lock()
	rebuilt := t.rebuilt
	t.rebuilt = nil
	t.mu.Unlock()
	if rebuilt != nil {
		t.cat.setStats(rebuilt)
	}
}

// Live returns the number of live tuples (|T| in the paper).
func (t *Table) Live() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.live
}

// Total returns the number of records in the file including deleted ones.
func (t *Table) Total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// NextTID returns the id the next inserted tuple will receive.
func (t *Table) NextTID() model.TID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nextTID
}

// Bytes returns the table file's logical size.
func (t *Table) Bytes() int64 { return t.f.Size() }

// IOStats returns the I/O counters of the table's file. Query plans take
// per-file deltas around the refine phase so that table-file I/O is
// attributed exactly even when several workers fetch concurrently.
func (t *Table) IOStats() *storage.Stats { return t.f.IOStats() }

// Accesses returns the number of random tuple fetches since the last reset.
func (t *Table) Accesses() int64 { return t.accesses.Load() }

// recordCRC returns the trailer value for a record (length word + body) at
// ptr. The offset is mixed in so a record read from the wrong place — a
// misdirected I/O — fails verification even if its bytes are intact.
func recordCRC(rec []byte, ptr int64) uint32 {
	return storage.ChecksumUpdateUint64(storage.Checksum(rec), uint64(ptr))
}

// lenReserve is the room encodeRecord leaves for a record's length word: the
// uvarint of any body from 128 B to 16 KiB, which is nearly every record. A
// length of another size moves the body once.
const lenReserve = 2

// encodeRecord appends a tuple's length word and body to buf (FORMAT.md §
// table.swt):
//
//	uvarint bodyLen | uvarint tid | uvarint nattrs |
//	repeat, ids ascending: uvarint (gap<<1 | multi), payload
//	  gap = id − previous id − 1, with −1 before the first id
//	  numeric payload:         f64 bits (little-endian; multi = 0)
//	  text payload, multi = 0: u8 len, bytes
//	  text payload, multi = 1: u8 nstrs, nstrs × (u8 len, bytes)
//
// A field carries no kind: it is its attribute's in the catalog.
func encodeRecord(buf []byte, tid model.TID, values map[model.AttrID]model.Value) ([]byte, error) {
	start := len(buf)
	buf = append(buf, make([]byte, lenReserve)...)
	buf = binary.AppendUvarint(buf, uint64(tid))
	buf = binary.AppendUvarint(buf, uint64(len(values)))
	next := model.AttrID(0) // the smallest id the next field can carry
	for _, a := range sortedAttrs(values) {
		v := values[a]
		if err := v.Validate(); err != nil {
			return nil, err
		}
		multi := uint64(0)
		if len(v.Strs) > 1 {
			multi = 1
		}
		buf = binary.AppendUvarint(buf, uint64(a-next)<<1|multi)
		next = a + 1
		switch v.Kind {
		case model.KindNumeric:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Num))
		case model.KindText:
			if len(v.Strs) > 255 {
				return nil, fmt.Errorf("table: text value with %d strings exceeds 255", len(v.Strs))
			}
			if multi == 1 {
				buf = append(buf, byte(len(v.Strs)))
			}
			for _, s := range v.Strs {
				buf = append(buf, byte(len(s)))
				buf = append(buf, s...)
			}
		}
	}
	n := len(buf) - start - lenReserve
	if n > maxRecordLen {
		return nil, fmt.Errorf("table: record of %d bytes exceeds %d", n, maxRecordLen)
	}
	var word [maxLenWord]byte
	w := binary.PutUvarint(word[:], uint64(n))
	if w != lenReserve {
		if w > lenReserve {
			buf = append(buf, word[:w-lenReserve]...)
		}
		copy(buf[start+w:], buf[start+lenReserve:start+lenReserve+n])
		buf = buf[:start+w+n]
	}
	copy(buf[start:], word[:w])
	return buf, nil
}

func sortedAttrs(values map[model.AttrID]model.Value) []model.AttrID {
	t := model.Tuple{Values: values}
	return t.Attrs()
}

// Field is one attribute value of a record as stored: a number decoded, a
// text value left as its payload bytes.
type Field struct {
	Attr model.AttrID
	Kind model.Kind // the attribute's, from the catalog
	Num  float64    // KindNumeric
	NStr int        // KindText: number of strings
	Strs []byte     // KindText: NStr × (u8 len, bytes), bounds already checked
}

// CutString splits the first string off a Field's Strs.
func CutString(strs []byte) (s, rest []byte) {
	n := 1 + int(strs[0])
	return strs[1:n], strs[n:]
}

// Walker steps through the grammar of a record body (see encodeRecord)
// without materialising values. It is the only parser of the record format:
// decodeRecord walks every field into a tuple, a search's refine step walks
// the same fields and keeps the queried ones. Ids come out strictly ascending
// — a gap is never negative — and each with its catalog kind.
type Walker struct {
	TID   model.TID
	buf   []byte
	kinds []model.Kind
	p     int
	i, n  int    // attributes walked, attributes in the record
	next  uint64 // the smallest id the next field can carry
	err   error
}

// Walk starts a walk over a record body. kinds is a Catalog.Kinds snapshot
// taken after the record was appended, so it covers every attribute the record
// defines; an id at or past its end is a walk error.
func Walk(body []byte, kinds []model.Kind) Walker {
	w := Walker{buf: body, kinds: kinds}
	tid, k := binary.Uvarint(body)
	if k <= 0 || tid > math.MaxUint32 {
		w.err = fmt.Errorf("table: bad tuple id")
		return w
	}
	n, kn := binary.Uvarint(body[k:])
	if kn <= 0 || n > uint64(len(body)) {
		w.err = fmt.Errorf("table: bad attribute count")
		return w
	}
	w.TID, w.p, w.n = model.TID(tid), k+kn, int(n)
	return w
}

// Err reports what stopped the walk short of the record's last attribute.
func (w *Walker) Err() error { return w.err }

func (w *Walker) fail(format string, args ...interface{}) bool {
	w.err = fmt.Errorf(format, args...)
	return false
}

// Next walks one attribute into f, returning false at the end of the record
// or at malformed bytes (see Err).
func (w *Walker) Next(f *Field) bool {
	if w.err != nil || w.i == w.n {
		return false
	}
	buf, p := w.buf, w.p
	var x uint64 // gap<<1 | multi
	if p < len(buf) && buf[p] < 0x80 {
		x = uint64(buf[p])
		p++
	} else {
		var k int
		if x, k = binary.Uvarint(buf[p:]); k <= 0 {
			return w.fail("table: truncated attribute %d", w.i)
		}
		p += k
	}
	id := w.next + x>>1
	if id >= uint64(len(w.kinds)) {
		return w.fail("table: unregistered attribute %d (the catalog holds %d)", id, len(w.kinds))
	}
	f.Attr, f.Kind = model.AttrID(id), w.kinds[id]
	w.next = id + 1
	switch f.Kind {
	case model.KindNumeric:
		if x&1 != 0 {
			return w.fail("table: numeric attribute %d marked multi-string", id)
		}
		if p+8 > len(buf) {
			return w.fail("table: truncated numeric value")
		}
		f.Num = math.Float64frombits(binary.LittleEndian.Uint64(buf[p:]))
		p += 8
	case model.KindText:
		f.NStr = 1
		if x&1 != 0 {
			if p >= len(buf) {
				return w.fail("table: truncated text value")
			}
			f.NStr = int(buf[p])
			p++
		}
		start := p
		for j := 0; j < f.NStr; j++ {
			if p >= len(buf) {
				return w.fail("table: truncated string header")
			}
			if p += 1 + int(buf[p]); p > len(buf) {
				return w.fail("table: truncated string body")
			}
		}
		f.Strs = buf[start:p]
	default:
		return w.fail("table: attribute %d has unknown kind %d", id, f.Kind)
	}
	w.p = p
	w.i++
	return true
}

// decodeRecord walks every field of a record into a tuple.
func decodeRecord(w Walker) (*model.Tuple, error) {
	tp := model.NewTuple(w.TID)
	var f Field
	for w.Next(&f) {
		if f.Kind == model.KindNumeric {
			tp.Set(f.Attr, model.Num(f.Num))
			continue
		}
		strs := make([]string, 0, f.NStr)
		for rest := f.Strs; len(rest) > 0; {
			var s []byte
			s, rest = CutString(rest)
			strs = append(strs, string(s))
		}
		tp.Set(f.Attr, model.Text(strs...))
	}
	if w.err != nil {
		return nil, w.err
	}
	return tp, nil
}

// Run is a run of tuples encoded as the records that follow the table's last
// one: tuple i sits at Ptrs[i].
type Run struct {
	Ptrs []int64

	first model.TID // tuple i gets tid first+i
	batch []map[model.AttrID]model.Value
	at    int64  // where the first record sits
	buf   []byte // the records, trailers included
}

// EncodeRun encodes one record per tuple of batch, numbered from first — the
// table's next tid, or a later one — after checking every value against the
// catalog. Nothing is written. A run is good for the table as it stands: the
// caller keeps other appends out until it has committed or dropped the run (an
// index's write lock does).
func (t *Table) EncodeRun(first model.TID, batch []map[model.AttrID]model.Value) (*Run, error) {
	r := &Run{Ptrs: make([]int64, len(batch)), first: first, batch: batch}
	t.mu.Lock()
	r.at = t.dataEnd
	t.mu.Unlock()
	for i, values := range batch {
		if len(values) == 0 {
			return nil, fmt.Errorf("table: empty tuple")
		}
		if err := t.cat.check(values); err != nil {
			return nil, err
		}
		start := len(r.buf)
		buf, err := encodeRecord(r.buf, first+model.TID(i), values)
		if err != nil {
			return nil, err
		}
		r.Ptrs[i] = r.at + int64(start)
		r.buf = binary.LittleEndian.AppendUint32(buf, recordCRC(buf[start:], r.Ptrs[i]))
	}
	return r, nil
}

// AppendRun writes the run's records behind the table's last one. They
// become part of the table at CommitRun; until then nothing refers to them and
// the next append overwrites them, so a failed AppendRun, or a run dropped
// after it, leaves the table as it was found.
func (t *Table) AppendRun(r *Run) error { return t.f.WriteAt(r.buf, r.at) }

// CommitRun makes a written run part of the table: the tuples are live, their
// values are in the catalog statistics, and the next tid follows the run's last.
func (t *Table) CommitRun(r *Run) {
	for _, values := range r.batch {
		t.cat.note(values, +1)
	}
	n := int64(len(r.Ptrs))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dataEnd = r.at + int64(len(r.buf))
	t.total += n
	t.live += n
	t.nextTID = max(t.nextTID, r.first+model.TID(n))
}

// Append inserts a tuple, assigning it the next tid, and returns the tid and
// the record's byte offset (the tuple-list ptr). Catalog statistics are
// updated.
func (t *Table) Append(values map[model.AttrID]model.Value) (model.TID, int64, error) {
	tid := t.NextTID()
	ptr, err := t.AppendWithTID(tid, values)
	return tid, ptr, err
}

// AppendWithTID inserts a tuple with an explicit tid (a reference rebuild
// preserves ids with it). The table's next tid advances past it.
func (t *Table) AppendWithTID(tid model.TID, values map[model.AttrID]model.Value) (int64, error) {
	r, err := t.EncodeRun(tid, []map[model.AttrID]model.Value{values})
	if err != nil {
		return 0, err
	}
	if err := t.AppendRun(r); err != nil {
		return 0, err
	}
	t.CommitRun(r)
	return r.Ptrs[0], nil
}

// NoteDelete subtracts a deleted tuple's values — as Fetch returned them —
// from the catalog statistics and decrements the live count. The record itself
// stays until Rebuild.
func (t *Table) NoteDelete(values map[model.AttrID]model.Value) {
	t.cat.note(values, -1)
	t.mu.Lock()
	t.live--
	t.mu.Unlock()
}

// Record holds one verified record at a time, and the pin on the table page
// it lies in: Body aliases that page unless the record runs past the page end.
// Reusing one across reads makes them allocation-free, and a read from the
// page already pinned does not enter the buffer pool. A pinned page is a
// snapshot: Release the Record before the table is written to.
type Record struct {
	Body []byte // of the record last read: Walk it; gone at the next read or Release
	buf  []byte // a record that runs past its page: length word | body | trailer
	next int64  // offset of the record behind this one

	fr   *storage.Frame // the pinned page, or nil
	page int64          // fr's offset in the file
}

// Release drops the Record's page pin, and with it Body.
func (r *Record) Release() {
	if r.fr != nil {
		r.fr.Release()
	}
	r.fr, r.Body = nil, nil
}

// window returns the size bytes at ptr: in place where head — what ptr's page
// holds from ptr on — has them all, else assembled in r's own buffer from head
// and the pages behind it.
func (r *Record) window(f *storage.File, head []byte, ptr int64, size int) ([]byte, error) {
	if len(head) >= size {
		return head[:size], nil
	}
	if cap(r.buf) < size {
		r.buf = make([]byte, 2*size)
	}
	n := copy(r.buf[:size], head)
	return r.buf[:size], f.ReadAt(r.buf[n:size], ptr+int64(n))
}

// read is the one record reader: it pins the record's page unless r holds it
// already, takes the length word, then verifies checksum and offset over the
// page's own bytes — over a copy only where the record runs past the page end
// — before any body byte is interpreted.
func (t *Table) read(ptr int64, r *Record) error {
	if ps := int64(t.f.Pool().PageSize()); r.fr == nil || ptr < r.page || ptr >= r.page+ps {
		r.Release()
		fr, _, err := t.f.PinPage(ptr)
		if err != nil {
			return err
		}
		r.fr, r.page = fr, ptr-ptr%ps
	}
	head := r.fr.Data()[ptr-r.page:]
	n, k := binary.Uvarint(head)
	if k == 0 && len(head) < maxLenWord { // the length word runs past the page end
		word, err := r.window(t.f, head, ptr, maxLenWord)
		if err != nil {
			return err
		}
		n, k = binary.Uvarint(word)
	}
	if k <= 0 || n == 0 || n > maxRecordLen {
		return &storage.CorruptionError{File: "table.swt", Offset: ptr,
			Segment: storage.NoCorruptSegment, Detail: fmt.Sprintf("bad record length %d", n)}
	}
	end := k + int(n) // of the CRC-covered bytes
	rec, err := r.window(t.f, head, ptr, end+recordTrailerLen)
	if err != nil {
		return err
	}
	if recordCRC(rec[:end], ptr) != binary.LittleEndian.Uint32(rec[end:]) {
		return &storage.CorruptionError{File: "table.swt", Offset: ptr,
			Segment: storage.NoCorruptSegment, Detail: "record checksum mismatch"}
	}
	r.Body, r.next = rec[k:end], ptr+int64(len(rec))
	return nil
}

// FetchRecord reads the record stored at ptr into r, verified but not
// decoded; the caller Releases r when done with it. Like Fetch it counts as
// one random table-file access.
func (t *Table) FetchRecord(ptr int64, r *Record) error {
	t.accesses.Add(1)
	return t.read(ptr, r)
}

// Fetch reads the tuple stored at ptr. Every call counts as one random
// table-file access.
func (t *Table) Fetch(ptr int64) (*model.Tuple, error) {
	var r Record
	defer r.Release()
	if err := t.FetchRecord(ptr, &r); err != nil {
		return nil, err
	}
	return decodeRecord(Walk(r.Body, t.cat.Kinds()))
}

// ScanRecords iterates the verified body of every record in file order
// (including records of deleted tuples; the caller filters with its tombstone
// set), handing fn a walk over it. The walk is valid until fn returns.
// Scanning is sequential and does not count as random table accesses.
func (t *Table) ScanRecords(fn func(ptr int64, w Walker) error) error {
	t.mu.Lock()
	end := t.dataEnd
	t.mu.Unlock()
	// Every record before end was appended after the attributes it defines
	// were registered, so one snapshot taken now covers the whole pass.
	kinds := t.cat.Kinds()
	var r Record
	defer r.Release()
	for ptr := int64(headerSize); ptr < end; ptr = r.next {
		if err := t.read(ptr, &r); err != nil {
			return err
		}
		if err := fn(ptr, Walk(r.Body, kinds)); err != nil {
			return err
		}
	}
	return nil
}

// Scan is ScanRecords with every record decoded into a tuple.
func (t *Table) Scan(fn func(ptr int64, tp *model.Tuple) error) error {
	return t.ScanRecords(func(ptr int64, w Walker) error {
		tp, err := decodeRecord(w)
		if err != nil {
			return err
		}
		return fn(ptr, tp)
	})
}

// ScrubReport summarizes a table checksum sweep.
type ScrubReport struct {
	Records int // records swept
	Corrupt int // records whose trailer or structure failed verification
	// Problems holds the message of the corrupt record, if any.
	Problems []string
}

// Clean reports whether the sweep found no corruption.
func (r *ScrubReport) Clean() bool { return r.Corrupt == 0 }

// Scrub sweeps every record up to the committed dataEnd, verifying the
// CRC32C trailer and decodability of each. A corrupt record ends the sweep
// for the rest of the file (record framing cannot be trusted past it).
func (t *Table) Scrub() ScrubReport { return t.ScrubYield(nil) }

// ScrubYield is Scrub with a pacing hook: a non-nil yield is called once per
// swept record, letting a background scrubber time-slice and I/O-throttle
// the sweep (see the iva package's scrub scheduler).
func (t *Table) ScrubYield(yield func()) ScrubReport {
	var rep ScrubReport
	err := t.ScanRecords(func(_ int64, w Walker) error {
		if _, err := decodeRecord(w); err != nil {
			return err
		}
		rep.Records++
		if yield != nil {
			yield()
		}
		return nil
	})
	if err != nil {
		rep.Corrupt++
		rep.Problems = append(rep.Problems, err.Error())
	}
	return rep
}

// Rebuild rewrites the table into dst keeping only tuples for which keep
// returns true, preserving tids. Each surviving record is copied as its
// verified bytes — length word and body as they are, the trailer recomputed
// for the new offset — so the new file is what re-inserting the survivors
// would have written. Their statistics (including numeric relative domains,
// as §III-C and §IV-B prescribe) are counted from the same bytes into the new
// table, not into the catalog the two tables share: the old table keeps
// serving under the catalog as it is until the caller commits the rebuild
// with PublishStats, and a failed rebuild leaves no trace in it. The caller
// keeps appends out while it runs (the store's write lock does).
func (t *Table) Rebuild(dst *storage.File, keep func(model.TID) bool) (*Table, error) {
	nt, err := New(dst, t.cat)
	if err != nil {
		return nil, err
	}
	stats := t.cat.Attrs()
	for i := range stats {
		stats[i] = AttrInfo{Name: stats[i].Name, Kind: stats[i].Kind}
	}
	chunk, chunkOff := make([]byte, 0, rebuildChunk), nt.dataEnd
	flush := func() error {
		err := dst.WriteAt(chunk, chunkOff)
		chunk, chunkOff = chunk[:0], nt.dataEnd
		return err
	}
	var f Field
	err = t.ScanRecords(func(ptr int64, w Walker) error {
		if w.err != nil || !keep(w.TID) {
			return w.err
		}
		// No append ran since stats was taken, so every id the walk admits has
		// an entry.
		for w.Next(&f) {
			stats[f.Attr].note(int64(f.NStr), f.Num, +1)
		}
		if w.err != nil {
			return fmt.Errorf("table: record %d at %d: %w", w.TID, ptr, w.err)
		}
		body := w.buf
		if len(chunk)+maxLenWord+len(body)+recordTrailerLen > rebuildChunk && len(chunk) > 0 {
			if err := flush(); err != nil {
				return err
			}
		}
		start := len(chunk)
		chunk = binary.AppendUvarint(chunk, uint64(len(body)))
		chunk = append(chunk, body...)
		chunk = binary.LittleEndian.AppendUint32(chunk, recordCRC(chunk[start:], nt.dataEnd))
		nt.dataEnd = chunkOff + int64(len(chunk))
		nt.total++
		nt.nextTID = max(nt.nextTID, w.TID+1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	nt.live = nt.total
	// Keep the id space monotone across rebuilds.
	nt.nextTID = max(nt.nextTID, t.NextTID())
	nt.rebuilt = stats
	if err := nt.Sync(); err != nil {
		return nil, err
	}
	return nt, nil
}
