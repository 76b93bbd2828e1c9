package main

import (
	"flag"
	"fmt"
	"path/filepath"
	"time"

	"github.com/sparsewide/iva"
)

// Scrub exit codes beyond the generic 0 (clean) and 1 (damage found, no
// -repair asked): monitoring distinguishes "the store healed itself" from
// "restore from backup".
const (
	exitScrubRepaired     = 3 // -repair rebuilt the index from a clean table; now clean
	exitScrubUnrepairable = 4 // -repair could not produce a clean store
)

// scrub runs the store-wide checksum sweep and, with -repair, rebuilds the
// index from the table when the damage is index-only (a rebuild rewrites
// both files from the surviving table records, so it requires the table and
// catalog to verify clean). It emits machine-readable `scrub: status=...`
// sweep lines plus one final `scrub: result=...` line, and exits:
//
//	0  clean (result=clean)
//	1  damage found without -repair (result=damaged)
//	3  -repair rebuilt from a clean table and the re-sweep is clean
//	   (result=repaired)
//	4  -repair could not help: the table or catalog is damaged, or damage
//	   survived the rebuild (result=unrepairable)
//
// Damage that prevents Open itself (superblock or tuple-list corruption)
// surfaces as the open error before scrub runs and is not repairable here:
// liveness — which rows were deleted — is recorded only in the index's
// tuple list, so rebuilding from the table alone could resurrect deleted
// rows. Recovery there means restoring the index from a backup or replica.
func scrub(st *iva.Store, dir string, args []string) error {
	fs := flag.NewFlagSet("scrub", flag.ContinueOnError)
	repair := fs.Bool("repair", false, "rebuild the index from the table if only the index is damaged")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := st.Scrub()
	if err != nil {
		return err
	}
	printScrub(rep)
	persistScrub(dir, rep)
	if rep.Clean() {
		fmt.Println("scrub: result=clean")
		return nil
	}
	if !*repair {
		fmt.Println("scrub: result=damaged")
		return fmt.Errorf("%d problems found (re-run with -repair to rebuild the index from a clean table)", len(rep.Problems))
	}
	if rep.CorruptTable > 0 || !rep.CatalogOK {
		fmt.Println("scrub: result=unrepairable")
		return &exitCodeError{code: exitScrubUnrepairable,
			err: fmt.Errorf("cannot repair: the table or catalog is damaged, and the index can only be rebuilt from clean table records")}
	}
	fmt.Println("scrub: repairing — rebuilding table and index files")
	unrepairable := func(err error) error {
		fmt.Println("scrub: result=unrepairable")
		return &exitCodeError{code: exitScrubUnrepairable, err: err}
	}
	if err := st.Rebuild(); err != nil {
		return unrepairable(fmt.Errorf("repair rebuild: %w", err))
	}
	if err := st.Sync(); err != nil {
		return unrepairable(err)
	}
	if rep, err = st.Scrub(); err != nil {
		return unrepairable(err)
	}
	printScrub(rep)
	persistScrub(dir, rep)
	if !rep.Clean() {
		return unrepairable(fmt.Errorf("repair left %d problems", len(rep.Problems)))
	}
	fmt.Println("scrub: result=repaired")
	return &exitCodeError{code: exitScrubRepaired,
		err: fmt.Errorf("scrub repaired the index from a clean table (exit %d distinguishes a heal from a clean sweep)", exitScrubRepaired)}
}

// persistScrub records the sweep outcome in <dir>/scrub-report.json, the
// same snapshot the background scrubber maintains, so a later `ivatool
// stats` (or `stats -strict`) reports scrub age and damage without
// re-sweeping.
func persistScrub(dir string, rep *iva.ScrubReport) {
	health := "ok"
	if !rep.Clean() {
		health = "damaged"
	}
	now := time.Now()
	snap := iva.ScrubSnapshot{Time: now, Health: health, LastSweep: now, Report: rep}
	if err := iva.SaveScrubReport(filepath.Join(dir, "scrub-report.json"), snap); err != nil {
		fmt.Printf("scrub: warning: could not persist report: %v\n", err)
	}
}

func printScrub(rep *iva.ScrubReport) {
	status := "ok"
	if !rep.Clean() {
		status = "fail"
	}
	fmt.Printf("scrub: status=%s segments=%d corrupt=%d ckpt_dropped=%d table_records=%d table_corrupt=%d superblock_ok=%v catalog_ok=%v problems=%d\n",
		status, rep.IndexSegments, rep.CorruptIndexSegments,
		rep.DroppedCheckpoints, rep.TableRecords, rep.CorruptTable,
		rep.SuperblockOK, rep.CatalogOK, len(rep.Problems))
	for _, p := range rep.Problems {
		fmt.Printf("PROBLEM: %s\n", p)
	}
}
