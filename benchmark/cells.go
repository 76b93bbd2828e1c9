package main

// Micro-cells: kernel timings of single layers, each a call into the layer's
// exported functions on inputs taken from the workload's own data — its bit
// widths, list layouts, strings and codes — not on synthetic constants.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/sparsewide/iva"
	"github.com/sparsewide/iva/internal/bitio"
	"github.com/sparsewide/iva/internal/gram"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/signature"
	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
	"github.com/sparsewide/iva/internal/topk"
	"github.com/sparsewide/iva/internal/vaq"
	"github.com/sparsewide/iva/internal/vector"
)

const (
	cellReps      = 5                    // timings per cell; the median is reported
	cellMinTime   = 4 * time.Millisecond // a timing repeats its loop until this long
	cellStripe    = 2048                 // core's default stripe width (CheckpointEvery)
	cellAlpha     = 0.20                 // engine defaults the lists are laid out with
	cellGramN     = 2
	cellVecBits   = 16 // 8·⌈α·8⌉
	cellPageSize  = 4096
	cellPoolPages = 1 << 14
)

// sink keeps the compiler from removing a timed call.
var sink float64

// timeCellErr reports the median over cellReps timings of ns per unit, where
// one call of pass performs units units of work; it stops at pass's first
// error.
func timeCellErr(units int, pass func() error) (float64, error) {
	if units == 0 {
		return 0, nil
	}
	samples := make([]float64, cellReps)
	for i := range samples {
		n := 0
		start := time.Now()
		for time.Since(start) < cellMinTime || n == 0 {
			if err := pass(); err != nil {
				return 0, err
			}
			n++
		}
		samples[i] = float64(time.Since(start).Nanoseconds()) / float64(n*units)
	}
	return median(samples), nil
}

// timeCell is timeCellErr for a pass that cannot fail.
func timeCell(units int, pass func()) float64 {
	ns, _ := timeCellErr(units, func() error { pass(); return nil })
	return ns
}

// cellData is what the cells measure on: the run's own rows and the layout
// facts of its store.
type cellData struct {
	e     *env
	rows  []*row
	codec *signature.Codec
	ltid  int
	lay   map[string]attrLayout // what the store chose per attribute
	tmp   string
}

// popular returns the most popular attribute (lowest rank) of the kind that
// the store laid out as the given type, or failing that the most popular of
// the kind.
func (c *cellData) popular(typ string, numeric bool) int {
	fallback := -1
	for r, name := range c.e.g.names {
		if c.e.g.numeric[r] != numeric {
			continue
		}
		if fallback < 0 {
			fallback = r
		}
		if c.lay[name].typ == typ {
			return r
		}
	}
	return fallback
}

// list is one attribute's vector list built with vector.Encoder.
type list struct {
	rank    int // the attribute
	lay     vector.Layout
	buf     []byte
	nbits   int
	defined int // positions that define the attribute
	sigs    [][]signature.Sig
	codes   []uint64
	quant   *vaq.Quantizer
}

// layout derives the attribute's layout the way core.Build does.
func (c *cellData) layout(rank int, typ vector.ListType) (vector.Layout, *vaq.Quantizer, error) {
	if !c.e.g.numeric[rank] {
		maxStrs := 1
		for _, r := range c.rows {
			if cl := r.find(rank); cl != nil && len(cl.strs) > maxStrs {
				maxStrs = len(cl.strs)
			}
		}
		lnum := bitio.BitsFor(uint64(maxStrs)) + 1
		if lnum < 2 {
			lnum = 2
		}
		return vector.Layout{Type: typ, Kind: model.KindText, LTid: c.ltid, LNum: lnum, Codec: c.codec}, nil, nil
	}
	first := true
	var lo, hi float64
	for _, r := range c.rows {
		if cl := r.find(rank); cl != nil {
			if first || cl.num < lo {
				lo = cl.num
			}
			if first || cl.num > hi {
				hi = cl.num
			}
			first = false
		}
	}
	q, err := vaq.New(lo, hi, cellVecBits)
	if err != nil {
		return vector.Layout{}, nil, err
	}
	return vector.Layout{Type: typ, Kind: model.KindNumeric, LTid: c.ltid, VecBits: cellVecBits, NDFCode: q.NDFReserved()}, q, nil
}

// encodeRange appends positions [lo,hi) of the attribute's list to w.
func (l *list) encodeRange(enc *vector.Encoder, w *bitio.Writer, lo, hi int) error {
	for pos := lo; pos < hi; pos++ {
		var err error
		if l.lay.Kind == model.KindText {
			err = enc.EncodeText(w, model.TID(pos), l.sigs[pos])
		} else {
			err = enc.EncodeNumeric(w, model.TID(pos), l.codes[pos], l.sigs[pos] == nil)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// buildList encodes attribute rank as a list of the given type; tuple ids
// are the row positions.
func (c *cellData) buildList(rank int, typ vector.ListType) (*list, error) {
	lay, quant, err := c.layout(rank, typ)
	if err != nil {
		return nil, err
	}
	l := &list{rank: rank, lay: lay, quant: quant, sigs: make([][]signature.Sig, len(c.rows)), codes: make([]uint64, len(c.rows))}
	for pos, r := range c.rows {
		cl := r.find(rank)
		if cl == nil {
			continue
		}
		l.defined++
		if quant != nil {
			l.codes[pos] = quant.Encode(cl.num)
			l.sigs[pos] = []signature.Sig{} // non-nil marks "defined"
			continue
		}
		for _, s := range cl.strs {
			l.sigs[pos] = append(l.sigs[pos], c.codec.Encode(s))
		}
	}
	enc, err := vector.NewEncoder(lay)
	if err != nil {
		return nil, err
	}
	var w bitio.Writer
	if err := l.encodeRange(enc, &w, 0, len(c.rows)); err != nil {
		return nil, err
	}
	l.buf, l.nbits = w.Bytes(), w.Len()
	return l, nil
}

// scan is the synchronized scan of §IV-A over the whole list: one MoveTo per
// tuple-list position, scratch arena on as in the engine's plans.
func (l *list) scan(src vector.BitSource, n int) error {
	cur, err := vector.NewCursor(l.lay, src)
	if err != nil {
		return err
	}
	cur.EnableScratch()
	for pos := 0; pos < n; pos++ {
		e, err := cur.MoveTo(model.TID(pos), int64(pos))
		if err != nil {
			return err
		}
		sink += float64(e.Code)
	}
	return nil
}

// packed re-stores a Type I/II list the way codec 1 does — one sealed block
// per stripe, the last partial stripe as the raw tail — and returns a
// function that opens a fresh BlockSource over it.
func (c *cellData) packed(l *list) (func() vector.BitSource, error) {
	enc, err := vector.NewEncoder(l.lay)
	if err != nil {
		return nil, err
	}
	var phys bitio.Writer
	var codedWords, logical int64
	n := len(c.rows)
	sealed := n / cellStripe * cellStripe
	for lo := 0; lo < sealed; lo += cellStripe {
		var w bitio.Writer
		if err := l.encodeRange(enc, &w, lo, lo+cellStripe); err != nil {
			return nil, err
		}
		words, err := vector.Packed.Seal(l.lay, w.Bytes(), int64(w.Len()))
		if err != nil {
			return nil, err
		}
		for _, word := range words {
			phys.WriteBits(word, 64)
		}
		codedWords += int64(len(words))
		logical += int64(w.Len())
	}
	var tail bitio.Writer
	if err := l.encodeRange(enc, &tail, sealed, n); err != nil {
		return nil, err
	}
	for i, bits := 0, tail.Len(); bits > 0; i, bits = i+1, bits-8 {
		take := min(bits, 8)
		phys.WriteBits(uint64(tail.Bytes()[i])>>(8-uint(take)), take)
	}
	logical += int64(tail.Len())
	open := func() vector.MemSource { return vector.MemSource{R: bitio.NewReader(phys.Bytes(), phys.Len())} }
	dir, _, err := vector.WalkBlocks(open(), codedWords)
	if err != nil {
		return nil, err
	}
	return func() vector.BitSource { return vector.NewBlockSource(l.lay, open(), dir, codedWords, logical) }, nil
}

// kernelCells holds the per-call kernel timings the filter model uses.
type kernelCells struct {
	moveto  map[string]float64 // list type ("I".."IV") → ns per MoveTo
	est     float64
	mindist float64
}

// runCells times every micro-cell and sets the kernel metrics.
func runCells(out *metrics, c *cellData, sampleQuery *query) (*kernelCells, error) {
	k := &kernelCells{moveto: make(map[string]float64)}
	n := len(c.rows)
	lists := make(map[vector.ListType]*list)
	for _, t := range []struct {
		typ     vector.ListType
		numeric bool
		metric  string
	}{
		{vector.TypeI, false, "vector.moveto_ns.type1"},
		{vector.TypeII, false, "vector.moveto_ns.type2"},
		{vector.TypeIII, false, "vector.moveto_ns.type3"},
		{vector.TypeIV, true, "vector.moveto_ns.type4"},
	} {
		l, err := c.buildList(c.popular(t.typ.String(), t.numeric), t.typ)
		if err == nil {
			k.moveto[t.typ.String()], err = timeCellErr(n, func() error {
				return l.scan(vector.MemSource{R: bitio.NewReader(l.buf, l.nbits)}, n)
			})
		}
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", t.metric, err)
		}
		out.set(t.metric, k.moveto[t.typ.String()])
		lists[t.typ] = l
	}
	typeI, numList := lists[vector.TypeI], lists[vector.TypeIV]

	// The Type I list again through codec 1: Seal per stripe, BlockSource.
	openPacked, err := c.packed(typeI)
	if err != nil {
		return nil, fmt.Errorf("cell vector.moveto_ns.packed: %w", err)
	}
	ns, err := timeCellErr(n, func() error { return typeI.scan(openPacked(), n) })
	if err != nil {
		return nil, fmt.Errorf("cell vector.moveto_ns.packed: %w", err)
	}
	out.set("vector.moveto_ns.packed", ns)

	enc, err := vector.NewEncoder(typeI.lay)
	if err != nil {
		return nil, err
	}
	ns, err = timeCellErr(typeI.defined, func() error {
		var w bitio.Writer
		return typeI.encodeRange(enc, &w, 0, n)
	})
	if err != nil {
		return nil, fmt.Errorf("cell vector.encode_ns: %w", err)
	}
	out.set("vector.encode_ns", ns)

	// bitio over the Type I list's own bytes, at its own field widths.
	reads := typeI.nbits / typeI.lay.LTid
	out.set("bitio.readbits_ns", timeCell(reads, func() {
		r := bitio.NewReader(typeI.buf, typeI.nbits)
		for i := 0; i < reads; i++ {
			v, _ := r.ReadBits(typeI.lay.LTid)
			sink += float64(v)
		}
	}))

	// The strings, signatures and codes of the most popular attributes.
	var strs []string
	var sigs []signature.Sig
	for pos, r := range c.rows {
		if cl := r.find(typeI.rank); cl != nil {
			strs = append(strs, cl.strs...)
			sigs = append(sigs, typeI.sigs[pos]...)
		}
	}
	if len(strs) == 0 {
		return nil, fmt.Errorf("cells: attribute %s has no strings", c.e.g.names[typeI.rank])
	}
	meanLen := 0
	for _, s := range strs {
		meanLen += len(s)
	}
	sigBits := c.codec.SigBits(meanLen / len(strs))
	words := make([]uint64, (sigBits+63)/64)
	wordReads := typeI.nbits / sigBits
	out.set("bitio.readwords_ns_per_word", timeCell(wordReads*len(words), func() {
		r := bitio.NewReader(typeI.buf, typeI.nbits)
		for i := 0; i < wordReads; i++ {
			_ = r.ReadWords(words, sigBits)
		}
		sink += float64(words[0])
	}))

	qstr := typo(newRNG(c.e.seed, 5), strs[0])
	for _, t := range sampleQuery.terms {
		if t.str != "" {
			qstr = t.str
			break
		}
	}
	qs := c.codec.NewQueryString(qstr)
	k.est = timeCell(len(sigs), func() {
		for _, s := range sigs {
			sink += qs.Est(s)
		}
	})
	out.set("signature.est_ns", k.est)
	out.set("signature.encode_ns", timeCell(len(strs), func() {
		for _, s := range strs {
			sink += float64(c.codec.Encode(s).Len)
		}
	}))
	out.set("gram.editdistance_ns", timeCell(len(strs), func() {
		for _, s := range strs {
			sink += float64(gram.EditDistance(qstr, s))
		}
	}))

	var codes []uint64
	var qnum float64
	for pos, r := range c.rows {
		if cl := r.find(numList.rank); cl != nil {
			codes = append(codes, numList.codes[pos])
			qnum = cl.num
		}
	}
	k.mindist = timeCell(len(codes), func() {
		for _, code := range codes {
			sink += numList.quant.MinDist(qnum, code)
		}
	})
	out.set("vaq.mindist_ns", k.mindist)

	// metric and topk on one stream query's real per-term differences.
	terms := modelTerms(sampleQuery)
	diffs := make([][]float64, n)
	dists := make([]float64, n)
	for i, r := range c.rows {
		diffs[i] = make([]float64, len(terms))
		dists[i] = c.e.met.distance(sampleQuery, r, terms, diffs[i])
	}
	out.set("metric.distance_ns", timeCell(n, func() {
		for _, d := range diffs {
			sink += c.e.met.m.Distance(terms, d)
		}
	}))
	out.set("topk.insert_ns", timeCell(n, func() {
		p := topk.New(queryK)
		for i, d := range dists {
			p.Insert(model.TID(i), d)
		}
		sink += p.MaxDist()
	}))

	if err := c.storageCells(out); err != nil {
		return nil, err
	}
	return k, nil
}

// storageCells times the buffer pool and the table file. The pool cells
// cover as many pages as the run's table has: a hit pool that holds them
// all over a MemDevice, a miss pool of the cold workload's share over a
// FileDevice.
func (c *cellData) storageCells(out *metrics) error {
	var userBytes int
	for _, r := range c.rows {
		userBytes += r.userBytes
	}
	pages := userBytes/cellPageSize + 1
	page := make([]byte, cellPageSize)
	order := make([]int64, 4096)
	r := newRNG(c.e.seed, 6)
	for i := range order {
		order[i] = int64(r.intn(pages))
	}
	poolCell := func(dev storage.Device, capBytes int64) (float64, error) {
		for p := 0; p < pages; p++ {
			if _, err := dev.WriteAt(page, int64(p)*cellPageSize); err != nil {
				return 0, err
			}
		}
		pool := storage.NewPool(cellPageSize, capBytes)
		id := pool.Register(dev)
		defer pool.Unregister(id)
		pass := func() error {
			for _, p := range order {
				fr, err := pool.Get(id, p)
				if err != nil {
					return err
				}
				sink += float64(fr.Data()[0])
				fr.Release()
			}
			return nil
		}
		if err := pass(); err != nil { // fill the pool
			return 0, err
		}
		return timeCellErr(len(order), pass)
	}
	hit, err := poolCell(storage.NewMemDevice(), int64(cellPoolPages)*cellPageSize)
	if err != nil {
		return fmt.Errorf("cell storage.pool_hit_ns: %w", err)
	}
	out.set("storage.pool_hit_ns", hit)
	if err := os.MkdirAll(c.tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(c.tmp, "cell-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fd, err := storage.OpenFileDevice(filepath.Join(dir, "pages"))
	if err != nil {
		return err
	}
	miss, err := poolCell(fd, coldCacheBytes(int64(pages)*cellPageSize, coldCacheShare))
	fd.Close()
	if err != nil {
		return fmt.Errorf("cell storage.pool_miss_ns: %w", err)
	}
	out.set("storage.pool_miss_ns", miss)

	// Random Table.Fetch on a warm pool, over a table holding the run's rows.
	pool := storage.NewPool(cellPageSize, int64(cellPoolPages)*cellPageSize)
	cat := table.NewCatalog()
	for rank, name := range c.e.g.names {
		kind := model.KindText
		if c.e.g.numeric[rank] {
			kind = model.KindNumeric
		}
		if _, err := cat.AddAttr(name, kind); err != nil {
			return err
		}
	}
	tbl, err := table.New(storage.NewFile(pool, storage.NewMemDevice()), cat)
	if err != nil {
		return err
	}
	ptrs := make([]int64, len(c.rows))
	for i, rw := range c.rows {
		vals := make(map[model.AttrID]model.Value, len(rw.cells))
		for _, cl := range rw.cells {
			if cl.strs != nil {
				vals[model.AttrID(cl.attr)] = model.Text(cl.strs...)
			} else {
				vals[model.AttrID(cl.attr)] = model.Num(cl.num)
			}
		}
		if _, ptrs[i], err = tbl.Append(vals); err != nil {
			return err
		}
	}
	fetch := make([]int64, 2048)
	for i := range fetch {
		fetch[i] = ptrs[r.intn(len(ptrs))]
	}
	ns, err := timeCellErr(len(fetch), func() error {
		for _, p := range fetch {
			tp, err := tbl.Fetch(p)
			if err != nil {
				return err
			}
			sink += float64(tp.TID)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cell table.fetch_us: %w", err)
	}
	out.set("table.fetch_us", ns/1e3)
	return nil
}

// attrLayout is what the store reports about one attribute's list.
type attrLayout struct {
	typ      string  // "I".."IV"
	perTuple float64 // vectors per live tuple: strings (text) or values (numeric) ÷ tuples
}

// attrLayouts maps attribute name → layout from the store's own report.
func attrLayouts(st *iva.Store) map[string]attrLayout {
	tuples := float64(st.Stats().Tuples)
	out := make(map[string]attrLayout)
	for _, a := range st.Attrs() {
		n := a.DF
		if a.Kind == iva.Text {
			n = a.Strings
		}
		out[a.Name] = attrLayout{typ: a.ListType, perTuple: ratio(float64(n), tuples)}
	}
	return out
}

// filterModel is what the kernels alone predict for the filter, in ns: per
// scanned tuple and query term one MoveTo on a list of the term's type, plus
// one lower-bound estimate per vector the attribute holds, summed over the
// traced searches.
func filterModel(k *kernelCells, e *env, lay map[string]attrLayout, recs []opRec, queryAt func(i int) *query) float64 {
	total := 0.0
	for i := range recs {
		r := &recs[i]
		q := queryAt(i)
		if r.kind != opSearch || r.err != nil || q == nil {
			continue
		}
		perTuple := 0.0
		for _, t := range q.terms {
			a := lay[e.g.names[t.attr]]
			bound := k.mindist
			if t.str != "" {
				bound = k.est
			}
			perTuple += k.moveto[a.typ] + bound*a.perTuple
		}
		total += perTuple * float64(r.qs.Scanned)
	}
	return total
}
