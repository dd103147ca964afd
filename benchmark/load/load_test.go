package load

import (
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestDrivers plays both drivers in both encodings against a real
// service: every step is recorded in order with its timestamps, the
// clients' balls are conserved through the churn, and draining empties
// the service.
func TestDrivers(t *testing.T) {
	// Enough balls that the open loop's 300 steps fit in flight even if
	// the server stalls for the whole run (as it can under -race).
	const owned = 2048
	for _, proto := range []Proto{JSON, Binary} {
		for _, open := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/open=%v", proto, open), func(t *testing.T) {
				svc, err := serve.New(serve.Config{N: 64, Shards: 2, Alg: "aheavy", Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				defer svc.Close()
				srv := httptest.NewServer(serve.NewHandler(svc, serve.HandlerConfig{}))
				defer srv.Close()

				base := time.Now()
				c, err := Dial(strings.TrimPrefix(srv.URL, "http://"), proto, 0, 3, owned, base)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				var traced atomic.Bool
				traced.Store(true) // keep every step's full record
				c.Tracing = &traced
				if ids, err := c.Grow(owned); err != nil || len(ids) != owned {
					t.Fatalf("grow: %d ids, %v", len(ids), err)
				}
				deadline := time.Now().Add(300 * time.Millisecond)
				if open {
					err = c.RunOpen(deadline, 1000, 4)
				} else {
					err = c.RunClosed(deadline, 4)
				}
				if err != nil {
					t.Fatal(err)
				}
				n := len(c.Steps)
				if n < 100 || c.Hist.Count() != uint64(n) || c.Replies != int64(n) || len(c.LatTraced) != n || c.Balls != 4*int64(n) {
					t.Fatalf("%d steps, %d histogram samples, %d replies, %d latencies, %d balls",
						n, c.Hist.Count(), c.Replies, len(c.LatTraced), c.Balls)
				}
				for i, st := range c.Steps {
					if st.Due > st.Sent || st.Sent > st.Done || st.Balls != 4 || (i > 0 && st.ID <= c.Steps[i-1].ID) {
						t.Fatalf("step %d: %+v", i, st)
					}
				}
				if got := svc.StatsLite().Live; c.Live() != owned || got != owned {
					t.Fatalf("after the run the client owns %d balls and the service holds %d, want %d", c.Live(), got, owned)
				}
				if err := c.Drain(500); err != nil {
					t.Fatal(err)
				}
				if got := svc.StatsLite().Live; c.Live() != 0 || got != 0 {
					t.Fatalf("after draining the client owns %d balls and the service holds %d", c.Live(), got)
				}
			})
		}
	}
}

// TestPacer: the open loop's sleep lands within a small slack of its
// target, where time.Sleep can overshoot a sub-millisecond wait by most
// of a millisecond.
func TestPacer(t *testing.T) {
	p, err := newPacer()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	const want = 300 * time.Microsecond
	var late []time.Duration
	for i := 0; i < 50; i++ {
		start := time.Now()
		if err := p.sleep(want); err != nil {
			t.Fatal(err)
		}
		got := time.Since(start)
		if got < want {
			t.Fatalf("slept %v, want at least %v", got, want)
		}
		late = append(late, got-want)
	}
	// The median lateness, so a descheduled test process does not flake.
	slices.Sort(late)
	if med := late[len(late)/2]; med > 500*time.Microsecond {
		t.Errorf("median lateness %v", med)
	}
}
