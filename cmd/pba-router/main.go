// Command pba-router is the cluster front of the allocation service: it
// spreads /allocate and /release over a set of pba-serve replicas
// (started with -cluster) while keeping the whole cluster
// fingerprint-identical to a single process running the same topology.
//
// Usage:
//
//	pba-serve -cluster -n 512 -shards 6 -seed 1 -addr 127.0.0.1:9101 &
//	pba-serve -cluster -n 512 -shards 6 -seed 1 -addr 127.0.0.1:9102 &
//	pba-router -n 512 -cells 6 -seed 1 -addr 127.0.0.1:9100 \
//	           -upstreams http://127.0.0.1:9101,http://127.0.0.1:9102
//
// The router draws each request's multinomial split itself and forwards
// every replica its hosted cells' shares as cell-addressed binary
// allocates through one group-commit writer per replica, which coalesces
// concurrent requests into multi-request batch frames. Each writer owns
// one connection to its replica, upgraded at dial with GET /frames
// (Upgrade: pba-frames) to carry bare wire frames, so the data plane
// parses no HTTP; a replica built without the frame protocol refuses the
// upgrade with 404 and every forward to it fails. Clients see the
// byte-identical /allocate, /release, /stats, /healthz, /metrics
// protocol a single replica serves (JSON and binary alike). Cells are
// the unit of placement: on startup the router adopts whatever cells
// the replicas already host and attaches the rest; at runtime cells
// migrate live between replicas under the admin API, the optional load
// rebalancer (-rebalance-every), or a departing replica's evacuation
// request. Migration is two-phase — snapshot and ship while the cell
// keeps serving, then a per-cell pause covering only the delta cut,
// chain-verified replay, and table flip — so the data-plane stall is
// O(traffic during the copy), not O(balls in the cell).
//
// pba-bench drives a router as it drives a single replica. -serve soaks
// it and adds the per-upstream group-commit table to its report; -check
// asserts the fingerprint identity against an in-process replay of a
// fresh router's trace, with -migrate-every moving cells mid-trace.
//
// Admin endpoints (JSON):
//
//	GET  /admin/table                     cell -> replica assignment
//	POST /admin/migrate {"cell","to"}     move one cell ("to" is an
//	                                      upstream URL or index); the
//	                                      reply reports pause_seconds
//	POST /admin/evacuate {"upstream"}     drain every cell off a replica
//	                                      (pba-serve posts this on SIGTERM)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

const shutdownGrace = 10 * time.Second

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:9100", "listen address (port 0 picks a free port)")
		upstreams = flag.String("upstreams", "", "comma-separated replica base URLs (required)")
		n         = flag.Int("n", 512, "total number of bins; must match the replicas")
		cells     = flag.Int("cells", 4, "global cell count (the replicas' -shards)")
		alg       = flag.String("alg", "aheavy", "per-epoch algorithm; must match the replicas")
		seed      = flag.Uint64("seed", 1, "determinism seed; must match the replicas")
		selfURL   = flag.String("self", "", "router base URL as replicas can reach it (default http://<addr>)")
		rebEvery  = flag.Duration("rebalance-every", 0, "load-rebalance check period (0 disables)")
		rebRatio  = flag.Float64("rebalance-ratio", 2, "migrate when the busiest replica's live count exceeds ratio x the least busy")
		rebGap    = flag.Int64("rebalance-gap", 256, "minimum live-ball gap before rebalancing (keeps near-empty clusters still)")
		verbose   = flag.Bool("v", false, "log per-request progress to stderr")
	)
	flag.Parse()
	if err := run(routerConfig{
		addr: *addr, upstreams: *upstreams, n: *n, cells: *cells, alg: *alg,
		seed: *seed, selfURL: *selfURL,
		rebEvery: *rebEvery, rebRatio: *rebRatio, rebGap: *rebGap,
		verbose: *verbose,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "pba-router: %v\n", err)
		os.Exit(1)
	}
}

// routerConfig carries the parsed flags into run.
type routerConfig struct {
	addr, upstreams string
	n, cells        int
	alg             string
	seed            uint64
	selfURL         string
	rebEvery        time.Duration
	rebRatio        float64
	rebGap          int64
	verbose         bool
}

func run(rc routerConfig) error {
	if rc.upstreams == "" {
		return fmt.Errorf("-upstreams is required")
	}
	ln, err := net.Listen("tcp", rc.addr)
	if err != nil {
		return err
	}
	if rc.selfURL == "" {
		rc.selfURL = "http://" + ln.Addr().String()
	}
	r, err := cluster.New(cluster.Config{
		N: rc.n, Cells: rc.cells, Alg: rc.alg, Seed: rc.seed,
		Upstreams: strings.Split(rc.upstreams, ","),
		SelfURL:   rc.selfURL,
		Terse:     false,
		Logf: func(format string, args ...any) {
			fmt.Printf("pba-router: "+format+"\n", args...)
		},
	})
	if err != nil {
		_ = ln.Close()
		return err
	}
	defer r.Close()
	// Signals are caught before the banner announces the address, so a
	// caller that signals as soon as it has seen the banner always gets
	// the graceful drain below, never the default kill.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("pba-router: listening on %s (n=%d cells=%d alg=%s seed=%d upstreams=%d)\n",
		ln.Addr(), r.N(), r.Cells(), r.Alg(), r.Seed(), len(strings.Split(rc.upstreams, ",")))

	mux := serve.NewBackendHandler(r, r.Metrics(), serve.HandlerConfig{Verbose: rc.verbose})
	mountAdmin(mux, r)
	srv := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	stopReb := make(chan struct{})
	if rc.rebEvery > 0 {
		go func() {
			t := time.NewTicker(rc.rebEvery)
			defer t.Stop()
			for {
				select {
				case <-stopReb:
					return
				case <-t.C:
					moved, err := r.RebalanceOnce(rc.rebRatio, rc.rebGap)
					if err != nil {
						fmt.Printf("pba-router: rebalance: %v\n", err)
					} else if moved {
						fmt.Printf("pba-router: rebalanced one cell\n")
					}
				}
			}
		}()
	}

	select {
	case err := <-errc:
		close(stopReb)
		return err
	case sig := <-sigc:
		fmt.Printf("pba-router: %v: draining\n", sig)
		close(stopReb)
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return nil
	}
}

// mountAdmin adds the migration-control endpoints to the data-plane mux.
func mountAdmin(mux *http.ServeMux, r *cluster.Router) {
	mux.HandleFunc("/admin/table", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			adminError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeAdmin(w, map[string]any{"cells": r.Table()})
	})
	mux.HandleFunc("/admin/migrate", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			adminError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var body struct {
			Cell int             `json:"cell"`
			To   json.RawMessage `json:"to"`
		}
		if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
			adminError(w, http.StatusBadRequest, "bad JSON: %v", err)
			return
		}
		dst, err := resolveUpstream(r, body.To)
		if err != nil {
			adminError(w, http.StatusBadRequest, "%v", err)
			return
		}
		pause, err := r.MigrateTimed(body.Cell, dst)
		if err != nil {
			adminError(w, http.StatusConflict, "%v", err)
			return
		}
		fmt.Printf("pba-router: migrated cell %d to upstream %d (pause %.6fs)\n", body.Cell, dst, pause.Seconds())
		writeAdmin(w, map[string]any{"cell": body.Cell, "to": dst, "pause_seconds": pause.Seconds()})
	})
	mux.HandleFunc("/admin/evacuate", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			adminError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var body struct {
			Upstream json.RawMessage `json:"upstream"`
		}
		if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
			adminError(w, http.StatusBadRequest, "bad JSON: %v", err)
			return
		}
		src, err := resolveUpstream(r, body.Upstream)
		if err != nil {
			adminError(w, http.StatusBadRequest, "%v", err)
			return
		}
		moved, err := r.Evacuate(src)
		if err != nil {
			adminError(w, http.StatusConflict, "moved %d: %v", moved, err)
			return
		}
		fmt.Printf("pba-router: evacuated %d cell(s) from upstream %d\n", moved, src)
		writeAdmin(w, map[string]any{"upstream": src, "moved": moved})
	})
}

// resolveUpstream accepts an upstream reference as either a JSON number
// (the index) or a JSON string (the base URL).
func resolveUpstream(r *cluster.Router, raw json.RawMessage) (int, error) {
	if len(raw) == 0 {
		return 0, fmt.Errorf("missing upstream reference")
	}
	var s string
	if json.Unmarshal(raw, &s) == nil {
		return r.UpstreamIndex(s)
	}
	var idx int
	if json.Unmarshal(raw, &idx) == nil {
		return idx, nil
	}
	return 0, fmt.Errorf("upstream must be an index or a base URL, got %s", strconv.Quote(string(raw)))
}

func writeAdmin(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func adminError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
