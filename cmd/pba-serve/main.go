// Command pba-serve exposes the sharded allocation service
// (internal/serve) as an HTTP/JSON placement oracle: a fleet scheduler
// calls it to spread jobs over servers with the paper's O(1) excess
// guarantee, under continuous arrivals and departures, at a throughput
// that scales with -shards instead of serializing on one allocator lock.
//
// Usage:
//
//	pba-serve -n 512 -shards 4 -alg aheavy -seed 1 -addr 127.0.0.1:8380 \
//	          -snapshot state.json [-snapshot-proto binary]
//
// Endpoints (JSON everywhere; POST /allocate and /release also speak the
// compact binary wire framing of internal/wire when the request
// Content-Type is application/x-pba-wire — see DESIGN.md for both
// schemas):
//
//	POST /allocate {"count": k}   admit k balls; the response carries the
//	                              granted ID spans and (unless "terse")
//	                              the per-ball placements
//	POST /release  {"ids": [..]}  depart balls, freeing capacity
//	GET  /stats                   aggregated O(1) snapshot (counters, load
//	                              extremes, per-cell chain fingerprints);
//	                              ?fingerprint=1 adds the O(live) full-state
//	                              fingerprints + the combined service hash
//	GET  /snapshot                versioned service snapshot document
//	GET  /healthz                 readiness probe: uptime, restore
//	                              provenance, per-cell liveness
//	GET  /metrics                 Prometheus text exposition (stage timing
//	                              histograms, per-cell counters, runtime
//	                              gauges); recording is allocation-free
//
// GET /frames (Upgrade: pba-frames) is not a client endpoint: it is the
// connection a pba-router upgrades to bare wire frames for its data plane
// (see DESIGN.md's cluster tier).
//
// With -pprof the net/http/pprof profile endpoints are mounted under
// /debug/pprof/ on the same listener (off by default: profiling handlers
// do not belong on an unguarded production port).
//
// On SIGINT/SIGTERM the server drains in-flight requests via
// http.Server.Shutdown and, when -snapshot is set, writes the final state
// there atomically — as readable JSON or, with -snapshot-proto binary, the
// compact columnar "PBAB" format; loading sniffs either. Restarting with
// the same -snapshot path restores it and the stream continues
// placement-for-placement. The service is
// deterministic: a fixed (seed, request sequence, shard count) replayed
// sequentially produces bit-identical placements at any -workers.
// pba-bench drives it: -serve soaks it with concurrent clients, and
// -check replays a fresh server's trace in process to assert exactly
// that contract, grant by grant.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// shutdownGrace bounds the drain of in-flight requests on SIGINT/SIGTERM.
const shutdownGrace = 10 * time.Second

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8380", "listen address (port 0 picks a free port)")
		n         = flag.Int("n", 512, "total number of bins (servers)")
		shards    = flag.Int("shards", 1, "independent allocator cells the bins are partitioned into")
		alg       = flag.String("alg", "aheavy", "per-epoch algorithm: aheavy[:beta], adaptive[:slack], greedy[:d], oneshot")
		seed      = flag.Uint64("seed", 1, "determinism seed; fixed (seed, request sequence, shards) reproduces placements")
		workers   = flag.Int("workers", 0, "per-epoch parallelism inside one cell (0 = GOMAXPROCS); never affects results")
		snapPath  = flag.String("snapshot", "", "snapshot file: restored on start when present, written on graceful shutdown")
		snapProto = flag.String("snapshot-proto", "json", `snapshot file format written on shutdown: "json" or "binary" (loading sniffs either)`)
		cluster   = flag.Bool("cluster", false, "run as a cluster replica: host no cells until a pba-router attaches them")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the service listener")
		verbose   = flag.Bool("v", false, "log per-request progress to stderr")
	)
	flag.Parse()
	if err := run(*addr, *n, *shards, *alg, *seed, *workers, *snapPath, *snapProto, *cluster, *pprofOn, *verbose); err != nil {
		fmt.Fprintf(os.Stderr, "pba-serve: %v\n", err)
		os.Exit(1)
	}
}

func run(addr string, n, shards int, alg string, seed uint64, workers int, snapPath, snapProto string, cluster, pprofOn, verbose bool) error {
	cfg := serve.Config{N: n, Shards: shards, Alg: alg, Seed: seed, Workers: workers}
	if snapProto != "json" && snapProto != "binary" {
		return fmt.Errorf("-snapshot-proto must be json or binary, got %q", snapProto)
	}
	if cluster {
		if snapPath != "" {
			return fmt.Errorf("-snapshot is incompatible with -cluster: replicas snapshot per cell via the router")
		}
		// Empty non-nil Host selects cluster mode with no cells hosted yet;
		// the router attaches fresh cells over /cells/attach and migrates
		// live ones in over /cells/stage.
		cfg.Host = []int{}
	}
	svc, restored, err := open(cfg, snapPath)
	if err != nil {
		return err
	}
	defer svc.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The resolved address goes to stdout first so scripts (and the smoke
	// test) can scrape the port when -addr uses :0.
	fmt.Printf("pba-serve: listening on %s (n=%d shards=%d alg=%s seed=%d%s)\n",
		ln.Addr(), svc.N(), svc.Shards(), svc.Alg(), svc.Seed(), restored)

	var handler http.Handler = serve.NewHandler(svc, serve.HandlerConfig{Verbose: verbose})
	if pprofOn {
		// Outer mux: the profile endpoints ride alongside the service API
		// on the same listener; everything else falls through to it.
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", handler)
		handler = outer
		fmt.Printf("pba-serve: pprof mounted at /debug/pprof/\n")
	}
	srv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("pba-serve: %v: draining\n", sig)
		if cluster {
			evacuate(svc)
		}
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		svc.Close()
		if snapPath != "" {
			if err := svc.SaveSnapshotProto(snapPath, snapProto); err != nil {
				return fmt.Errorf("writing snapshot: %w", err)
			}
			fmt.Printf("pba-serve: %s snapshot written to %s\n", snapProto, snapPath)
		}
		return nil
	}
}

// evacuate asks the router that owns this replica's cells to migrate
// them elsewhere before the process drains — the graceful-departure
// half of live cell migration. The router's base URL and this replica's
// upstream URL were learned from the X-PBA-Router / X-PBA-Self headers
// on cell attach; without them (no router ever attached here) there is
// nothing to evacuate. Failures are reported but never block shutdown.
func evacuate(svc *serve.Service) {
	routerURL, selfURL := svc.Evacuation()
	if routerURL == "" || selfURL == "" {
		if len(svc.HostedCells()) > 0 {
			fmt.Printf("pba-serve: no router coordinates; %d hosted cells depart unsaved\n", len(svc.HostedCells()))
		}
		return
	}
	fmt.Printf("pba-serve: asking %s to evacuate %s\n", routerURL, selfURL)
	body := fmt.Sprintf(`{"upstream":%q}`, selfURL)
	res, err := http.Post(routerURL+"/admin/evacuate", "application/json", strings.NewReader(body))
	if err != nil {
		fmt.Printf("pba-serve: evacuation failed: %v\n", err)
		return
	}
	defer res.Body.Close()
	var reply struct {
		Moved int    `json:"moved"`
		Error string `json:"error"`
	}
	_ = json.NewDecoder(res.Body).Decode(&reply)
	if res.StatusCode != http.StatusOK {
		fmt.Printf("pba-serve: evacuation failed: %s (%s)\n", res.Status, reply.Error)
		return
	}
	fmt.Printf("pba-serve: evacuated %d cell(s)\n", reply.Moved)
}

// open builds the service: restored from snapPath when the file exists,
// fresh otherwise. Explicitly set topology flags must agree with a
// restored snapshot; unset ones inherit from it.
func open(cfg serve.Config, snapPath string) (*serve.Service, string, error) {
	if snapPath != "" {
		if _, err := os.Stat(snapPath); err == nil {
			snap, err := serve.LoadSnapshot(snapPath)
			if err != nil {
				return nil, "", err
			}
			// Only flags the user actually passed constrain the restore;
			// defaults defer to the snapshot's topology.
			ask := serve.Config{Workers: cfg.Workers}
			flag.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "n":
					ask.N = cfg.N
				case "shards":
					ask.Shards = cfg.Shards
				case "alg":
					ask.Alg = cfg.Alg
				case "seed":
					ask.Seed = cfg.Seed
				}
			})
			svc, err := serve.Restore(snap, ask)
			if err != nil {
				return nil, "", err
			}
			return svc, fmt.Sprintf(", restored %s", snapPath), nil
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, "", err
		}
	}
	svc, err := serve.New(cfg)
	return svc, "", err
}
