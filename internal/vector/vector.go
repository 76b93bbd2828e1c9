// Package vector implements the vector lists of §III-D: the per-attribute
// sequences of approximation vectors that make up the bulk of an iVA-file.
//
// Four bit-packed organizations are provided, chosen per attribute by the
// paper's size formulas:
//
//	Type I   <tid, vector>            text or numeric; ndf tuples absent
//	Type II  <tid, num, vector...>    text; ndf tuples absent
//	Type III <num, vector...>         text; one element per tuple-list entry
//	Type IV  <vector>                 numeric; one element per entry,
//	                                  a reserved code denotes ndf
//
// Types I/II are tid-addressed and sorted by tid; Types III/IV are
// positional — the i-th element belongs to the i-th tuple-list entry.
// Cursors implement the synchronized MoveTo scan of §IV-A, including the
// freeze behavior when a tid-addressed list has no element for the current
// tuple.
package vector

import (
	"fmt"

	"github.com/sparsewide/iva/internal/bitio"
	"github.com/sparsewide/iva/internal/model"
	"github.com/sparsewide/iva/internal/signature"
)

// ListType identifies a vector-list organization.
type ListType uint8

// The four organizations of §III-D.
const (
	TypeI ListType = iota + 1
	TypeII
	TypeIII
	TypeIV
)

func (t ListType) String() string {
	switch t {
	case TypeI:
		return "I"
	case TypeII:
		return "II"
	case TypeIII:
		return "III"
	case TypeIV:
		return "IV"
	default:
		return fmt.Sprintf("ListType(%d)", uint8(t))
	}
}

// Layout carries the bit widths and codec needed to encode or decode one
// attribute's vector list.
type Layout struct {
	Type ListType
	Kind model.Kind

	LTid    int    // bits per tuple id (Types I, II)
	LNum    int    // bits per string count (Types II, III)
	VecBits int    // numeric code width (numeric attributes)
	NDFCode uint64 // reserved numeric code for ndf (Type IV)

	Codec *signature.Codec // text signature sizing (text attributes)
}

// Validate reports whether the layout is internally consistent.
func (l Layout) Validate() error {
	switch l.Type {
	case TypeI:
	case TypeII, TypeIII:
		if l.Kind != model.KindText {
			return fmt.Errorf("vector: type %v requires a text attribute", l.Type)
		}
	case TypeIV:
		if l.Kind != model.KindNumeric {
			return fmt.Errorf("vector: type IV requires a numeric attribute")
		}
	default:
		return fmt.Errorf("vector: invalid list type %d", l.Type)
	}
	if l.Kind == model.KindText && l.Codec == nil {
		return fmt.Errorf("vector: text layout without codec")
	}
	if l.Kind == model.KindNumeric && (l.VecBits < 1 || l.VecBits > 63) {
		return fmt.Errorf("vector: numeric layout with VecBits=%d", l.VecBits)
	}
	if (l.Type == TypeI || l.Type == TypeII) && (l.LTid < 1 || l.LTid > 32) {
		return fmt.Errorf("vector: LTid=%d", l.LTid)
	}
	if (l.Type == TypeII || l.Type == TypeIII) && (l.LNum < 1 || l.LNum > 16) {
		return fmt.Errorf("vector: LNum=%d", l.LNum)
	}
	return nil
}

// ChooseText picks the smallest of the three text organizations given the
// attribute's statistics (the paper's L_I/L_II/L_III formulas): ltid and
// lnum are the id/count widths, df the defining-tuple count, str the string
// count, tupleEntries the tuple-list length |T|, and vecBits the total
// signature bits L (including the cL bytes). Ties prefer the lower type.
func ChooseText(ltid, lnum int, df, str, tupleEntries, vecBits int64) ListType {
	li := int64(ltid)*str + vecBits
	lii := int64(ltid+lnum)*df + vecBits
	liii := int64(lnum)*tupleEntries + vecBits
	best, bt := li, TypeI
	if lii < best {
		best, bt = lii, TypeII
	}
	if liii < best {
		bt = TypeIII
	}
	return bt
}

// ChooseNumeric picks Type I or IV for a numeric attribute.
func ChooseNumeric(ltid, vecBits int, df, tupleEntries int64) ListType {
	li := int64(ltid+vecBits) * df
	liv := int64(vecBits) * tupleEntries
	if li <= liv {
		return TypeI
	}
	return TypeIV
}

// Entry is a decoded vector-list element for one tuple: either ndf, a set of
// string signatures (text), or a numeric code.
type Entry struct {
	NDF  bool
	Sigs []signature.Sig // text attributes
	Code uint64          // numeric attributes
}

// Encoder serializes elements of one list into a bit writer.
type Encoder struct {
	L Layout
}

// NewEncoder returns an encoder after validating the layout.
func NewEncoder(l Layout) (*Encoder, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return &Encoder{L: l}, nil
}

// maxNum returns the largest string count representable in LNum bits.
func (e *Encoder) maxNum() int { return 1<<uint(e.L.LNum) - 1 }

// maxTid returns the largest tuple id representable in LTid bits.
func (e *Encoder) maxTid() model.TID { return model.TID(1<<uint(e.L.LTid) - 1) }

// ErrWidthOverflow is returned when a tid or string count no longer fits the
// list's bit widths; the caller must rebuild the index with wider fields.
var ErrWidthOverflow = fmt.Errorf("vector: field width overflow, rebuild required")

// EncodeText appends the element(s) for one tuple's text value. For Types I
// and II, an ndf tuple (sigs == nil) writes nothing; for Type III it writes
// a zero-count element. Multi-string values become consecutive Type I
// elements sharing the tid, exactly as in the paper's Fig. 6.
func (e *Encoder) EncodeText(w *bitio.Writer, tid model.TID, sigs []signature.Sig) error {
	if e.L.Kind != model.KindText {
		return fmt.Errorf("vector: EncodeText on %v layout", e.L.Kind)
	}
	switch e.L.Type {
	case TypeI:
		if tid > e.maxTid() && len(sigs) > 0 {
			return ErrWidthOverflow
		}
		for _, s := range sigs {
			w.WriteBits(uint64(tid), e.L.LTid)
			e.writeSig(w, s)
		}
	case TypeII:
		if len(sigs) == 0 {
			return nil
		}
		if tid > e.maxTid() {
			return ErrWidthOverflow
		}
		if len(sigs) > e.maxNum() {
			return ErrWidthOverflow
		}
		w.WriteBits(uint64(tid), e.L.LTid)
		w.WriteBits(uint64(len(sigs)), e.L.LNum)
		for _, s := range sigs {
			e.writeSig(w, s)
		}
	case TypeIII:
		if len(sigs) > e.maxNum() {
			return ErrWidthOverflow
		}
		w.WriteBits(uint64(len(sigs)), e.L.LNum)
		for _, s := range sigs {
			e.writeSig(w, s)
		}
	default:
		return fmt.Errorf("vector: text element on type %v list", e.L.Type)
	}
	return nil
}

// EncodeNumeric appends the element for one tuple's numeric value. For Type
// I an ndf tuple writes nothing; for Type IV it writes the reserved code.
func (e *Encoder) EncodeNumeric(w *bitio.Writer, tid model.TID, code uint64, ndf bool) error {
	if e.L.Kind != model.KindNumeric {
		return fmt.Errorf("vector: EncodeNumeric on %v layout", e.L.Kind)
	}
	switch e.L.Type {
	case TypeI:
		if ndf {
			return nil
		}
		if tid > e.maxTid() {
			return ErrWidthOverflow
		}
		w.WriteBits(uint64(tid), e.L.LTid)
		w.WriteBits(code, e.L.VecBits)
	case TypeIV:
		if ndf {
			code = e.L.NDFCode
		}
		w.WriteBits(code, e.L.VecBits)
	default:
		return fmt.Errorf("vector: numeric element on type %v list", e.L.Type)
	}
	return nil
}

func (e *Encoder) writeSig(w *bitio.Writer, s signature.Sig) {
	w.WriteBits(uint64(s.Len), signature.LenBits)
	w.WriteWords(s.H, e.L.Codec.SigBits(s.Len))
}

// BitSource abstracts the bit stream a cursor scans: either an in-memory
// bitio.Reader (via MemSource) or a storage.ChainBitReader.
type BitSource interface {
	ReadBits(width int) (uint64, error)
	SeekBit(off int64) error
	Remaining() int64
	// Peek returns bytes the source holds at hand, for decoding in place
	// without moving the position: a view whose first bit is stream bit
	// base and which holds bit offset off, if off is inside the stream. The
	// view is valid until the source's next call, and its bits past the end
	// of the stream are not the stream's.
	Peek(off int64) (view []byte, base int64, err error)
}

// MemSource adapts a bitio.Reader to BitSource for tests and in-memory use.
type MemSource struct {
	R *bitio.Reader
}

// ReadBits implements BitSource.
func (m MemSource) ReadBits(width int) (uint64, error) { return m.R.ReadBits(width) }

// SeekBit implements BitSource.
func (m MemSource) SeekBit(off int64) error { return m.R.Seek(int(off)) }

// Remaining implements BitSource.
func (m MemSource) Remaining() int64 { return int64(m.R.Remaining()) }

// Peek implements BitSource: the view is the reader's whole buffer.
func (m MemSource) Peek(int64) ([]byte, int64, error) { return m.R.Bytes(), 0, nil }
