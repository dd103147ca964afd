package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// The router's data plane is one upgraded connection per upstream, dialed
// and owned by that upstream's group-commit writer (batch.go). The dial
// sends one GET /frames with "Upgrade: pba-frames" and reads the 101 with
// http.ReadResponse; after that the connection carries bare wire frames,
// stop-and-wait: one batch request frame out, one batch reply frame back,
// each delimited by its own u32 length. No HTTP is parsed after the dial,
// and the frame and reply buffers are reused, so a warm forward adds zero
// allocations on top of what the replica itself does.

const (
	// dialTimeout bounds one upstream connection attempt, upgrade
	// included.
	dialTimeout = 5 * time.Second
	// maxReplyFrame is a sanity cap on one reply frame: replies scale with
	// placements, so it is far above serve.MaxBody, but a corrupt length
	// cannot make the router allocate without bound.
	maxReplyFrame = 1 << 30
)

// upstream is one replica as the router sees it: its address and its
// health word.
type upstream struct {
	base string // normalized base URL, e.g. http://127.0.0.1:9100
	host string // host:port for the Host header and dialing

	// healthy is flipped by the health loop (and by forward errors); the
	// data path keeps using an unhealthy upstream — its cells live nowhere
	// else — but /healthz surfaces the state and the rebalancer skips it
	// as a migration target.
	healthy atomic.Bool

	forwards *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

func newUpstream(raw string, met *metrics) (*upstream, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("cluster: upstream %q: %w", raw, err)
	}
	if u.Scheme != "http" {
		return nil, fmt.Errorf("cluster: upstream %q: upstream connections speak plain http only", raw)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("cluster: upstream %q: missing host", raw)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	up := &upstream{
		base:     "http://" + u.Host,
		host:     host,
		forwards: met.reg.Counter("pba_router_forwards_total", "Data-plane requests forwarded, by upstream.", obs.L("upstream", u.Host)),
		errors:   met.reg.Counter("pba_router_forward_errors_total", "Forward failures (transport or HTTP), by upstream.", obs.L("upstream", u.Host)),
		latency:  met.reg.DurationHistogram("pba_router_upstream_seconds", "Upstream round-trip time: request write to reply decoded.", obs.L("upstream", u.Host)),
	}
	up.healthy.Store(true)
	return up, nil
}

// dial opens a fresh connection to the upstream and upgrades it to the
// frame protocol.
func (u *upstream) dial() (*conn, error) {
	nc, err := net.DialTimeout("tcp", u.host, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dialing %s: %w", u.base, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	c := &conn{nc: nc, br: bufio.NewReaderSize(nc, 1<<16)}
	if err := c.upgrade(u.base); err != nil {
		_ = nc.Close()
		return nil, fmt.Errorf("cluster: upgrading %s to %s: %w", u.base, serve.FramesProtocol, err)
	}
	return c, nil
}

// conn is one upgraded upstream connection plus its reusable buffers:
// frame for the outgoing batch request, reply for the incoming one.
type conn struct {
	nc    net.Conn
	br    *bufio.Reader
	frame []byte
	reply []byte
}

// upgrade sends GET /frames and reads the replica's 101. A replica that
// answers anything else — 404 from one built without the frame
// protocol — fails the dial with its status and error text.
func (c *conn) upgrade(base string) error {
	req, err := http.NewRequest(http.MethodGet, base+"/frames", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", serve.FramesProtocol)
	_ = c.nc.SetDeadline(time.Now().Add(dialTimeout))
	if err := req.Write(c.nc); err != nil {
		return err
	}
	res, err := http.ReadResponse(c.br, req)
	if err != nil {
		return err
	}
	if res.StatusCode != http.StatusSwitchingProtocols {
		defer res.Body.Close()
		return errors.New(readError(res.Body, res.Status))
	}
	return c.nc.SetDeadline(time.Time{})
}

// roundTrip writes one request frame and reads the one reply frame: one
// write, the u32 length, io.ReadFull. The reply aliases c.reply until the
// next call. An error leaves the stream out of sync; the caller closes
// the connection.
func (c *conn) roundTrip(frame []byte) ([]byte, error) {
	if _, err := c.nc.Write(frame); err != nil {
		return nil, err
	}
	reply, err := wire.ReadFrame(c.br, c.reply, maxReplyFrame)
	if err != nil {
		return nil, err
	}
	c.reply = reply
	return reply, nil
}
