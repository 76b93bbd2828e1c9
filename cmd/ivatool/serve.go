package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/sparsewide/iva"
	"github.com/sparsewide/iva/internal/server"
)

// serveMux mounts the query API and the store's observability endpoints:
//
//	/v1/search       POST, JSON top-k search (see internal/server); admission-
//	/v1/get          controlled per tenant (X-Iva-Tenant header)
//	/v1/stats        store + server shape as JSON
//	/metrics         Prometheus text exposition (text/plain; version=0.0.4);
//	                 store families followed by iva_server_* families
//	/healthz         the scrubber's verdict (ok/degraded/damaged) as JSON,
//	                 then the replication line; sc must not be nil
//	/debug/querylog  the slow-query log: JSON (default) or ?format=text
//	/debug/trace     the sampled trace ring and each latency bucket's exemplar
//	                 (read from the ring) as JSON; ?id=<trace_id> fetches one trace
//	/debug/pprof     the runtime profiler, only when enablePprof is set
func serveMux(st *iva.Store, sc *iva.Scrubber, api *server.Server, enablePprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	if api != nil {
		api.Register(mux)
		// Replication plane: delta serving (primaries).
		api.RegisterRepl(mux, st)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := st.WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		// The server keeps its own registry; its families are disjoint from
		// the store's, so the expositions concatenate into one valid page.
		if api != nil {
			if err := api.WriteMetrics(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Replication verdict first: a follower that cannot reach its primary
		// or trails it badly is degraded regardless of local integrity.
		rs := st.ReplStatus()
		if rs.Role == "follower" && (rs.LastError != "" || rs.LagGenerations > replLagDegraded) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "degraded")
			writeReplLine(w, rs)
			return
		}
		sc.ServeHealthz(w, r)
		writeReplLine(w, rs)
	})
	mux.HandleFunc("/debug/querylog", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("format") {
		case "text":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if err := st.WriteSlowQueriesText(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		case "", "json":
			w.Header().Set("Content-Type", "application/json")
			if err := st.WriteSlowQueries(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		default:
			http.Error(w, "unknown format (want json or text)", http.StatusBadRequest)
		}
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if id := r.URL.Query().Get("id"); id != "" {
			switch found, err := st.WriteTrace(w, id); {
			case err != nil:
				http.Error(w, err.Error(), http.StatusInternalServerError)
			case !found:
				http.Error(w, "trace not retained", http.StatusNotFound)
			}
			return
		}
		if err := st.WriteTraces(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	if enablePprof {
		// Registered by hand on the private mux: importing net/http/pprof
		// only touches http.DefaultServeMux, which is never served here, so
		// the profiler is reachable solely behind the -pprof flag.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// replLagDegraded is the generation lag beyond which a follower's /healthz
// reports degraded.
const replLagDegraded = 8

// writeReplLine appends the replication verdict line to a healthz body.
func writeReplLine(w http.ResponseWriter, rs iva.ReplStatus) {
	if rs.Role == "none" {
		return
	}
	fmt.Fprintf(w, "replication: role=%s epoch=%d gen=%d", rs.Role, rs.Epoch, rs.Gen)
	if rs.Role == "follower" {
		fmt.Fprintf(w, " primary_gen=%d lag=%d", rs.PrimaryGen, rs.LagGenerations)
		if rs.LastError != "" {
			fmt.Fprintf(w, " last_error=%q", rs.LastError)
		}
	}
	fmt.Fprintln(w)
}

// gracefulServe serves hs on ln until a signal arrives, then drains the query
// service — in-flight searches finish, new arrivals shed with 503 — and shuts
// the listener down. Split from serve so tests can drive the drain with their
// own listener and signal channel.
func gracefulServe(hs *http.Server, ln net.Listener, api *server.Server, drainTimeout time.Duration, sig <-chan os.Signal) error {
	idle := make(chan struct{})
	go func() {
		defer close(idle)
		if _, ok := <-sig; !ok {
			return // channel closed without a signal: plain shutdown elsewhere
		}
		fmt.Fprintf(os.Stderr, "ivatool: signal received, draining (timeout %v)\n", drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := api.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "ivatool: %v\n", err)
		}
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
	}()
	err := hs.Serve(ln)
	if err == http.ErrServerClosed {
		<-idle
		return nil
	}
	return err
}

// serve runs the query service plus observability endpoints until SIGTERM or
// SIGINT, then drains gracefully. The background scrubber runs for the
// server's lifetime: its verdict is /healthz.
func serve(st *iva.Store, sv serveOpts) error {
	if sv.follow == "" {
		// Any served store is a potential primary: cut synced-prefix deltas
		// so followers can attach at will. A replica's directory served
		// without -follow stays read-only and ships nothing.
		if err := st.EnableReplSource(); err != nil && !errors.Is(err, iva.ErrFollower) {
			return err
		}
	}
	sc := st.StartScrubber(iva.ScrubberOptions{Interval: sv.scrubEvery})
	defer sc.Stop()
	api := server.New(st, nil, server.Config{
		QPS:            sv.qps,
		Burst:          sv.burst,
		MaxConcurrent:  sv.maxConcurrent,
		MaxQueue:       sv.maxQueue,
		DefaultTimeout: sv.reqTimeout,
	})
	ln, err := net.Listen("tcp", sv.addr)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sig)
	endpoints := "/v1/search, /v1/get, /v1/stats, /v1/repl/deltas, /metrics, /healthz, /debug/querylog, /debug/trace"
	if sv.pprof {
		endpoints += ", /debug/pprof"
	}
	fmt.Printf("serving %s on %s\n", endpoints, ln.Addr())
	hs := &http.Server{Handler: serveMux(st, sc, api, sv.pprof)}
	return gracefulServe(hs, ln, api, sv.drainTimeout, sig)
}
