package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/sparsewide/iva"
	"github.com/sparsewide/iva/internal/server"
)

// opHeader carries the stream position of a request, so the server-side
// span boundaries can be joined to the client's.
const opHeader = "X-Bench-Op"

type opKey struct{}

// serverSide is what the benchmark's wrappers observe inside the server for
// one request.
type serverSide struct {
	hStart, hEnd time.Time // around the whole handler
	sStart, sEnd time.Time // around Backend.SearchContext
	qs           iva.QueryStats
}

// harness is internal/server over a store on a loopback listener. With
// tracing on, a middleware times the handler and a timing Backend wrapper
// times the store call; with tracing off the server runs over the bare
// store, as `ivatool serve` mounts it.
type harness struct {
	url    string
	client *http.Client
	hs     *http.Server
	served chan error

	mu   sync.Mutex
	side map[int]*serverSide
}

// timingBackend wraps the store for the traced pass.
type timingBackend struct {
	*iva.Store
	h *harness
}

func (t timingBackend) SearchContext(ctx context.Context, q *iva.Query) ([]iva.Result, iva.QueryStats, error) {
	start := time.Now()
	res, qs, err := t.Store.SearchContext(ctx, q)
	end := time.Now()
	if id, ok := ctx.Value(opKey{}).(int); ok {
		t.h.mu.Lock()
		if s := t.h.side[id]; s != nil {
			s.sStart, s.sEnd, s.qs = start, end, qs
		}
		t.h.mu.Unlock()
	}
	return res, qs, err
}

func startHarness(st *iva.Store, traced bool, clients int) (*harness, error) {
	h := &harness{served: make(chan error, 1), side: make(map[int]*serverSide)}
	var be server.Backend = st
	if traced {
		be = timingBackend{st, h}
	}
	mux := http.NewServeMux()
	server.New(be, nil, server.Config{}).Register(mux)
	var handler http.Handler = mux
	if traced {
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id, err := strconv.Atoi(r.Header.Get(opHeader))
			if err != nil {
				mux.ServeHTTP(w, r)
				return
			}
			s := &serverSide{hStart: time.Now()}
			h.mu.Lock()
			h.side[id] = s
			h.mu.Unlock()
			mux.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), opKey{}, id)))
			end := time.Now()
			h.mu.Lock()
			s.hEnd = end
			h.mu.Unlock()
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h.url = "http://" + ln.Addr().String() + "/v1/search"
	h.hs = &http.Server{Handler: handler}
	go func() { h.served <- h.hs.Serve(ln) }()
	h.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	return h, nil
}

// stop shuts the server down and waits for its goroutine to end.
func (h *harness) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	h.client.CloseIdleConnections()
	return err
}

// httpSearcher is one closed-loop HTTP client's view of the harness.
type httpSearcher struct {
	e *env
	h *harness
}

func (s httpSearcher) search(id int, q *query, traced bool, rec *opRec) []iva.Result {
	req := server.SearchRequest{K: queryK, Terms: make([]server.SearchTerm, len(q.terms))}
	for i := range q.terms {
		t := &q.terms[i]
		req.Terms[i].Attr = s.e.g.names[t.attr]
		if t.str != "" {
			req.Terms[i].Text = &t.str
		} else {
			req.Terms[i].Num = &t.num
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		rec.err = err
		return nil
	}
	hr, err := http.NewRequest(http.MethodPost, s.h.url, bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return nil
	}
	hr.Header.Set("Content-Type", "application/json")
	if traced {
		hr.Header.Set(opHeader, strconv.Itoa(id))
	}
	resp, err := s.h.client.Do(hr)
	if err != nil {
		rec.err = err
		return nil
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		rec.err = err
		return nil
	}
	rec.respBytes = len(payload)
	if resp.StatusCode != http.StatusOK {
		rec.shed = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
		rec.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
		return nil
	}
	var sr server.SearchResponse
	if err := json.Unmarshal(payload, &sr); err != nil {
		rec.err = err
		return nil
	}
	out := make([]iva.Result, len(sr.Results))
	for i, r := range sr.Results {
		out[i] = iva.Result{TID: r.TID, Dist: r.Dist}
	}
	rec.results = len(out)
	if traced {
		s.h.mu.Lock()
		if side := s.h.side[id]; side != nil {
			rec.hStart, rec.hEnd = side.hStart, side.hEnd
			rec.sStart, rec.sEnd, rec.qs = side.sStart, side.sEnd, side.qs
			delete(s.h.side, id)
		}
		s.h.mu.Unlock()
	}
	return out
}
