package iva

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/sparsewide/iva/internal/storage"
	"github.com/sparsewide/iva/internal/table"
)

// CorruptionError is the typed error every checksum mismatch surfaces as;
// match it with errors.As. File names the damaged store file, Offset the
// byte position of the damaged structure, and Segment the index segment id
// when the damage is segment-scoped.
type CorruptionError = storage.CorruptionError

// ScrubReport is the machine-readable outcome of one Store.Scrub pass.
type ScrubReport struct {
	// Index segment sweep: segments covered by the committed checksum map
	// and how many failed their CRC32C word. Problems names each failing
	// segment.
	IndexSegments        int
	CorruptIndexSegments int

	// DroppedCheckpoints counts the committed checkpoint records discarded
	// when the index was opened.
	DroppedCheckpoints int

	// SuperblockOK reports the index superblock trailer check; MapDropped
	// that the committed checksum map itself was unreadable and segment
	// coverage is degraded until the next Sync.
	SuperblockOK bool
	MapDropped   bool

	// Table record sweep: records swept and records that failed
	// verification.
	TableRecords int
	CorruptTable int
	// CatalogOK reports that the catalog file re-decoded cleanly (always
	// true for in-memory stores, which have no catalog file).
	CatalogOK bool

	// Problems holds one line per damaged structure, prefixed with the file
	// it lives in.
	Problems []string
}

// Clean reports whether the scrub found no damage.
func (r *ScrubReport) Clean() bool {
	return r.CorruptIndexSegments == 0 && r.DroppedCheckpoints == 0 &&
		r.SuperblockOK && !r.MapDropped &&
		r.CorruptTable == 0 && r.CatalogOK
}

// Scrub sweeps every file of the store verifying every committed checksum:
// the index superblock, each covered index segment, each table record, and
// the catalog. Unlike query-time verification it re-reads every covered byte
// (the first-touch cache is ignored) and never degrades — damage is reported,
// not worked around. Read-only and safe on a live store; pair it with Rebuild
// to repair a damaged index from a clean table. On a follower, damage instead
// makes the next poll fetch a Full delta.
func (s *Store) Scrub() (*ScrubReport, error) { return s.scrubYield(nil) }

// scrubYield is Scrub with a pacing hook: a non-nil yield is invoked once per
// verified unit (index segment, table record), which the background Scrubber
// uses to time-slice and throttle the sweep. The engine read lock is held for
// the whole pass, so yields must stay short.
func (s *Store) scrubYield(yield func()) (*ScrubReport, error) {
	s.engineMu.RLock()
	defer s.engineMu.RUnlock()
	ixRep, err := s.ix.ScrubYield(yield)
	if err != nil {
		return nil, err
	}
	rep := &ScrubReport{
		IndexSegments:        ixRep.Segments,
		CorruptIndexSegments: ixRep.CorruptSegments,
		DroppedCheckpoints:   ixRep.DroppedCheckpoints,
		SuperblockOK:         ixRep.SuperblockOK,
		MapDropped:           ixRep.MapDropped,
		CatalogOK:            true,
	}
	for _, p := range ixRep.Problems {
		rep.Problems = append(rep.Problems, "iva.idx: "+p)
	}

	tblRep := s.tbl.ScrubYield(yield)
	rep.TableRecords = tblRep.Records
	rep.CorruptTable = tblRep.Corrupt
	for _, p := range tblRep.Problems {
		rep.Problems = append(rep.Problems, "table.swt: "+p)
	}

	if s.dir != "" {
		blob, err := os.ReadFile(filepath.Join(s.dir, catalogFileName))
		if err != nil {
			rep.CatalogOK = false
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: %v", catalogFileName, err))
		} else if _, err := table.DecodeCatalog(blob); err != nil {
			rep.CatalogOK = false
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: %v", catalogFileName, err))
		}
	}
	// A follower's damage is cured by its next poll, like a degraded query's.
	if !rep.Clean() && s.fol != nil {
		s.fol.noteDamage()
	}
	return rep, nil
}
