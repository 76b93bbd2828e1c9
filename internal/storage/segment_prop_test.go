package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// TestSegAtMatchesTheRule holds SegAt to the rule written out: the k-th
// segment of a chain is min(128<<k, 4096) bytes, eight of them header.
func TestSegAtMatchesTheRule(t *testing.T) {
	var off int64
	for k := 0; k < 40; k++ {
		pay := int64(min(128<<k, 4096)) - 8
		if segStart(k) != off {
			t.Fatalf("segStart(%d) = %d, rule says %d", k, segStart(k), off)
		}
		for _, in := range []int64{0, 1, pay / 2, pay - 1} {
			if gk, gin, gpay := SegAt(off + in); gk != k || gin != in || gpay != pay {
				t.Fatalf("SegAt(%d) = (%d, %d, %d), rule says (%d, %d, %d)", off+in, gk, gin, gpay, k, in, pay)
			}
		}
		off += pay
	}
}

// segModel is what the property test holds a SegStore to: the logical bytes
// of every chain, in memory.
type segModel struct {
	ids  []ChainID
	data map[ChainID][]byte
}

// check reads every chain back through s and walks the file's pages; opens is
// the number of SegStores that have allocated in the file so far.
func (m *segModel) check(t *testing.T, s *SegStore, f *File, step, opens int) {
	t.Helper()
	var ruleBytes int64 // Σ over chains of the sizes the rule gives their segments
	owner := make(map[int64]int)
	for _, c := range m.ids {
		want := m.data[c]
		got := make([]byte, len(want))
		if err := s.ReadAt(c, got, 0); err != nil {
			t.Fatalf("step %d: chain %d: %v", step, c, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d: chain %d reads differently from the model", step, c)
		}
		ids, err := s.ChainSegments(c)
		if err != nil {
			t.Fatal(err)
		}
		if need, _, _ := SegAt(int64(max(len(want), 1)) - 1); len(ids) != need+1 {
			t.Fatalf("step %d: chain %d of %d bytes has %d segments, the rule needs %d", step, c, len(want), len(ids), need+1)
		}
		for k, id := range ids {
			size := int64(min(segGranule<<k, segPage))
			ruleBytes += size
			at := s.SegmentOffset(id)
			if at/segPage != (at+size-1)/segPage {
				t.Fatalf("step %d: segment %d (%d bytes at %d) crosses a page", step, id, size, at)
			}
			if prev, ok := owner[at/segPage]; ok && prev != int(size) {
				t.Fatalf("step %d: page %d holds segments of %d and %d bytes", step, at/segPage, prev, size)
			}
			owner[at/segPage] = int(size)
		}
	}
	if limit := ruleBytes + int64(opens)*segClasses*segPage; f.Size() > limit {
		t.Fatalf("step %d: file is %d bytes, chains need %d by the rule (+ one open page per size and open = %d)", step, f.Size(), ruleBytes, limit)
	}
}

// TestSegStoreProperty drives random interleaved appends and in-place
// overwrites to a few hundred chains against an in-memory model, reopening the
// store from the file part-way (allocation resumes at the next whole page):
// logical streams equal the model, no segment crosses a page, every page holds
// one size, and the file is no larger than the rule's sizes plus one open page
// per sub-page size for each store that has allocated in it.
func TestSegStoreProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	pool := NewPool(0, 1<<20) // smaller than the file: pages come and go
	f := NewFile(pool, NewMemDevice())
	s := NewSegStore(f, segPage)
	m := &segModel{data: make(map[ChainID][]byte)}
	const steps = 6000
	opens := 1
	for step := 0; step < steps; step++ {
		switch {
		case len(m.ids) < 300 && (len(m.ids) < 8 || rng.Intn(10) == 0):
			c, err := s.Create()
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := m.data[c]; dup {
				t.Fatalf("step %d: chain %d handed out twice", step, c)
			}
			m.ids, m.data[c] = append(m.ids, c), []byte{}
		case rng.Intn(8) == 0: // overwrite in place, as an attribute-list slot does
			c := m.ids[rng.Intn(len(m.ids))]
			if len(m.data[c]) == 0 {
				continue
			}
			off := rng.Intn(len(m.data[c]))
			p := make([]byte, 1+rng.Intn(min(16, len(m.data[c])-off)))
			rng.Read(p)
			if err := s.WriteAt(c, p, int64(off)); err != nil {
				t.Fatal(err)
			}
			copy(m.data[c][off:], p)
		default: // append: mostly a few bytes, sometimes pages
			c := m.ids[rng.Intn(len(m.ids))]
			n := 1 + rng.Intn(40)
			if rng.Intn(50) == 0 {
				n = rng.Intn(3 * segPage)
			}
			p := make([]byte, n)
			rng.Read(p)
			if err := s.WriteAt(c, p, int64(len(m.data[c]))); err != nil {
				t.Fatal(err)
			}
			m.data[c] = append(m.data[c], p...)
		}
		if step%1500 == 1499 {
			m.check(t, s, f, step, opens)
			s = NewSegStore(f, segPage) // reopen from the file
			opens++
		}
	}
	m.check(t, s, f, steps, opens)
}

// TestSegStoreRefusesWrongSizeLinks redirects a next pointer onto segments a
// chain's position does not allow — into the payload of a page-size segment,
// onto a segment of another size, past the file — and requires the walk to
// refuse each.
func TestSegStoreRefusesWrongSizeLinks(t *testing.T) {
	pool := NewPool(0, 1<<20)
	f := NewFile(pool, NewMemDevice())
	s := NewSegStore(f, 0)
	a, _ := s.Create()
	b, _ := s.Create()
	for _, c := range []ChainID{a, b} {
		if err := s.WriteAt(c, bytes.Repeat([]byte{0xAB}, int(segStart(segClasses+2))), 0); err != nil {
			t.Fatal(err)
		}
	}
	as, _ := s.ChainSegments(a)
	bs, _ := s.ChainSegments(b)
	for _, tc := range []struct {
		name string
		k    int // a's k-th segment gets the new next pointer
		to   SegID
	}{
		{"into a page-size payload, unaligned", segClasses, bs[segClasses+1] + 3},
		{"into a page-size payload, aligned for the position", 1, bs[segClasses+1] + 4},
		{"onto a smaller segment", 2, bs[2]},
		{"onto a larger segment", 1, bs[3]},
		{"past the file", 3, SegID(s.alloc.pages * granulesPerPage)},
	} {
		var hdr [SegHeaderLen]byte
		putSegHeader(hdr[:], tc.to, segClass(tc.k))
		if err := f.WriteAt(hdr[:], s.SegmentOffset(as[tc.k])); err != nil {
			t.Fatal(err)
		}
		if _, err := NewSegStore(f, 0).ChainSegments(a); err == nil {
			t.Errorf("%s: the walk followed the link", tc.name)
		}
		putSegHeader(hdr[:], as[tc.k+1], segClass(tc.k))
		if err := f.WriteAt(hdr[:], s.SegmentOffset(as[tc.k])); err != nil {
			t.Fatal(err)
		}
	}
	if ids, err := NewSegStore(f, 0).ChainSegments(a); err != nil || len(ids) != len(as) {
		t.Fatalf("restored chain: %v, %v", ids, err)
	}
}

// TestSegStoreGrowthFailsWhole fails every device operation, in turn, of an
// append that grows a chain through slab pages other chains have bytes in.
// Whatever the point of failure, the store goes on as if the append had not
// been tried — the same store retries it successfully — and a store opened on
// the device as the failure left it walks every chain and reads every byte
// that was there before: the chain on the device is the old one until the one
// write that links the new segments in.
func TestSegStoreGrowthFailsWhole(t *testing.T) {
	for fail := int64(0); ; fail++ {
		mem := NewMemDevice()
		dev := NewFaultDevice(mem, -1)
		f := NewFile(NewPool(0, 1<<20), dev)
		s := NewSegStore(f, 0)
		var ids []ChainID
		for len(ids) < 3 {
			c, err := s.Create()
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, c)
		}
		before := make(map[ChainID][]byte)
		for i, c := range ids {
			before[c] = bytes.Repeat([]byte{byte(0x11 * (i + 1))}, 100+150*i) // one, two and two segments
			if err := s.WriteAt(c, before[c], 0); err != nil {
				t.Fatal(err)
			}
		}
		grow := bytes.Repeat([]byte{0xEE}, int(segStart(segClasses+1))) // into every size class
		dev.Reset(fail)
		err := s.WriteAt(ids[0], grow, int64(len(before[ids[0]])))
		dev.Reset(-1)
		if err == nil {
			if fail == 0 {
				t.Fatal("the append made no device operation")
			}
			return // every operation of the append has been failed once
		}
		if !errors.Is(err, ErrInjected) {
			t.Fatal(err)
		}
		reopened := NewSegStore(NewFile(NewPool(0, 1<<20), mem), 0)
		for _, view := range []*SegStore{s, reopened} {
			for c, want := range before {
				got := make([]byte, len(want))
				if err := view.ReadAt(c, got, 0); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("op %d failed: chain %d no longer reads as before (%v)", fail, c, err)
				}
			}
		}
		if err := s.WriteAt(ids[0], grow, int64(len(before[ids[0]]))); err != nil {
			t.Fatalf("op %d failed: retry: %v", fail, err)
		}
		got := make([]byte, len(grow))
		if err := s.ReadAt(ids[0], got, int64(len(before[ids[0]]))); err != nil || !bytes.Equal(got, grow) {
			t.Fatalf("op %d failed: retried append reads back wrong (%v)", fail, err)
		}
		for _, c := range ids[1:] {
			got := make([]byte, len(before[c]))
			if err := s.ReadAt(c, got, 0); err != nil || !bytes.Equal(got, before[c]) {
				t.Fatalf("op %d failed: the retry disturbed chain %d (%v)", fail, c, err)
			}
		}
	}
}
