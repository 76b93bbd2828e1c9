package server

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"github.com/sparsewide/iva"
)

// ReplSource is the store surface the replication endpoint serves from;
// *iva.Store satisfies it. Every response body is already CRC-framed by the
// store, so the handler moves opaque bytes and maps errors to status codes —
// nothing more.
type ReplSource interface {
	ReplDeltas(epoch, from uint64) ([]byte, error)
}

// RegisterRepl mounts the replication endpoint on mux:
//
//	GET /v1/repl/deltas?epoch=E&from=G  — encoded batch: what follows (E, G)
//
// Replication traffic bypasses tenant admission (it is peer traffic, not
// query traffic) and keeps flowing through a drain, like /v1/stats, so a
// primary being rolled does not stall its followers. Every cursor gets a 200
// batch — empty when caught up, the deltas that continue it, or one Full delta
// (whole files) when nothing can.
func (s *Server) RegisterRepl(mux *http.ServeMux, src ReplSource) {
	mux.HandleFunc("/v1/repl/deltas", func(w http.ResponseWriter, r *http.Request) {
		const ep = "repl"
		start := time.Now()
		defer func() { s.dur[ep].Observe(time.Since(start).Seconds()) }()
		if r.Method != http.MethodGet {
			s.writeError(w, ep, http.StatusMethodNotAllowed, "", "GET required")
			return
		}
		epoch, err1 := strconv.ParseUint(r.URL.Query().Get("epoch"), 10, 64)
		from, err2 := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		if err1 != nil || err2 != nil {
			s.writeError(w, ep, http.StatusBadRequest, "", "epoch and from must be unsigned integers")
			return
		}
		blob, err := src.ReplDeltas(epoch, from)
		if err != nil {
			if errors.Is(err, iva.ErrNotReplicating) {
				s.writeError(w, ep, http.StatusServiceUnavailable, "not_replicating", err.Error())
			} else {
				s.writeError(w, ep, http.StatusInternalServerError, "", err.Error())
			}
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
		_, _ = w.Write(blob)
		s.countRequest(ep, http.StatusOK)
	})
}
