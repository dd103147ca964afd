package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// The router's data plane speaks hand-assembled HTTP/1.1 over persistent
// per-upstream TCP connections, exactly like pba-bench's pipelined
// loadgen plane but allocation-free in steady state: request lines,
// headers, and binary frames are appended into per-connection buffers,
// responses are parsed with a reusable bufio.Reader into a reusable body
// buffer, and each upstream's group-commit writer (batch.go) dials and
// owns exactly one connection. A warm forward therefore adds zero
// allocations on top of what the replica's own handler does.

// dialTimeout bounds one upstream connection attempt.
const dialTimeout = 5 * time.Second

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
		return nil, fmt.Errorf("cluster: upstream %q: pipelined upstream connections speak plain http only", raw)
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

// dial opens a fresh connection to the upstream.
func (u *upstream) dial() (*conn, error) {
	nc, err := net.DialTimeout("tcp", u.host, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dialing %s: %w", u.base, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return &conn{nc: nc, br: bufio.NewReaderSize(nc, 1<<16)}, nil
}

// conn is one persistent upstream connection plus its reusable buffers:
// frame for the outgoing binary body, wbuf for the assembled HTTP
// request, body for the decoded response payload.
type conn struct {
	nc      net.Conn
	br      *bufio.Reader
	frame   []byte
	wbuf    []byte
	body    []byte
	vecArr  [2][]byte   // backing array for vec; survives WriteTo consuming the slice
	vec     net.Buffers // reusable iovec pair for vectored writes, resliced from vecArr
	closing bool        // the current response ends the connection (Connection: close, or an EOF-framed body)
}

// writeRequestVectored assembles one POST's headers into c.wbuf and
// hands headers+frame to the kernel as one vectored write (writev on
// platforms that have it), skipping a copy of the potentially large
// batch frame into the write buffer. The iovec pair is reused across
// calls.
func (c *conn) writeRequestVectored(host, path string, frame []byte) error {
	b := c.wbuf[:0]
	b = append(b, "POST "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	b = append(b, "\r\nContent-Type: "...)
	b = append(b, wire.ContentType...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(frame)), 10)
	b = append(b, "\r\n\r\n"...)
	c.wbuf = b
	// WriteTo consumes its receiver by reslicing it forward, so rebuild
	// the iovec from the fixed backing array each call — an append into
	// the consumed slice would reallocate every time.
	c.vecArr[0], c.vecArr[1] = b, frame
	c.vec = net.Buffers(c.vecArr[:])
	_, err := c.vec.WriteTo(c.nc)
	c.vecArr[0], c.vecArr[1] = nil, nil
	return err
}

// httpError is a non-200 upstream reply, decoded from the JSON error
// shape every error path of the serve protocol uses. Spans carries the
// partially-granted IDs of a partial allocate failure so the router can
// propagate the replica's partial-failure contract cluster-wide.
type httpError struct {
	Status int
	Msg    string
	Spans  []serve.Span
}

func (e *httpError) Error() string {
	return fmt.Sprintf("upstream HTTP %d: %s", e.Status, e.Msg)
}

// readResponse reads the next in-order response off the connection into
// c.body and returns the body. Non-200 responses come back as *httpError
// (transport intact, connection reusable unless c.closing); transport
// failures return the underlying error and the caller must discard the
// connection.
func (c *conn) readResponse() ([]byte, error) {
	line, err := c.readLine()
	if err != nil {
		return nil, fmt.Errorf("reading status line: %w", err)
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return nil, fmt.Errorf("malformed status line %q", line)
	}
	status := 0
	for _, d := range line[9:12] {
		if d < '0' || d > '9' {
			return nil, fmt.Errorf("malformed status line %q", line)
		}
		status = status*10 + int(d-'0')
	}

	contentLen := -1
	chunked := false
	c.closing = false
	for {
		line, err = c.readLine()
		if err != nil {
			return nil, fmt.Errorf("reading header: %w", err)
		}
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			continue
		}
		key, val := line[:colon], trimSpace(line[colon+1:])
		switch {
		case headerIs(key, "content-length"):
			n, ok := parseDecimal(val)
			if !ok {
				return nil, fmt.Errorf("bad Content-Length %q", val)
			}
			contentLen = n
		case headerIs(key, "transfer-encoding"):
			chunked = headerIs(val, "chunked")
		case headerIs(key, "connection"):
			if headerIs(val, "close") {
				c.closing = true
			}
		}
	}

	switch {
	case chunked:
		if err := c.readChunked(); err != nil {
			return nil, err
		}
	case contentLen >= 0:
		c.grow(contentLen)
		if _, err := io.ReadFull(c.br, c.body); err != nil {
			return nil, fmt.Errorf("reading body: %w", err)
		}
	default:
		// No length framing: the body runs to connection close (an HTTP/1.0
		// style reply). Slurp and retire the connection.
		c.closing = true
		c.body = c.body[:0]
		buf := bytes.NewBuffer(c.body)
		if _, err := buf.ReadFrom(c.br); err != nil {
			return nil, fmt.Errorf("reading body: %w", err)
		}
		c.body = buf.Bytes()
	}

	if status != 200 {
		he := &httpError{Status: status}
		var doc struct {
			Error string       `json:"error"`
			Spans []serve.Span `json:"spans"`
		}
		if json.Unmarshal(c.body, &doc) == nil {
			he.Msg, he.Spans = doc.Error, doc.Spans
		} else {
			he.Msg = string(c.body)
		}
		return nil, he
	}
	return c.body, nil
}

// readChunked decodes a chunked body into c.body.
func (c *conn) readChunked() error {
	c.body = c.body[:0]
	for {
		line, err := c.readLine()
		if err != nil {
			return fmt.Errorf("reading chunk size: %w", err)
		}
		// Ignore chunk extensions (";...") — the Go server never sends them,
		// but the grammar allows them.
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		size, ok := parseHex(trimSpace(line))
		if !ok {
			return fmt.Errorf("bad chunk size %q", line)
		}
		if size == 0 {
			// Trailer section: lines until the terminating empty line.
			for {
				line, err = c.readLine()
				if err != nil {
					return fmt.Errorf("reading trailer: %w", err)
				}
				if len(line) == 0 {
					return nil
				}
			}
		}
		n := len(c.body)
		c.growTo(n + int(size))
		if _, err := io.ReadFull(c.br, c.body[n:]); err != nil {
			return fmt.Errorf("reading chunk: %w", err)
		}
		crlf := make([]byte, 2)
		if _, err := io.ReadFull(c.br, crlf); err != nil || crlf[0] != '\r' || crlf[1] != '\n' {
			return fmt.Errorf("bad chunk terminator")
		}
	}
}

// grow sizes c.body to exactly n bytes, reusing capacity.
func (c *conn) grow(n int) {
	if cap(c.body) < n {
		c.body = make([]byte, n)
		return
	}
	c.body = c.body[:n]
}

// growTo extends c.body to length n, preserving its contents.
func (c *conn) growTo(n int) {
	if cap(c.body) >= n {
		c.body = c.body[:n]
		return
	}
	nb := make([]byte, n, n+n/2)
	copy(nb, c.body)
	c.body = nb
}

// readLine returns the next CRLF-terminated line, sans terminator. The
// slice aliases the bufio buffer and is valid until the next read.
func (c *conn) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// headerIs reports whether the byte slice equals the (lower-case) key,
// ASCII case-insensitively, without allocating.
func headerIs(b []byte, key string) bool {
	if len(b) != len(key) {
		return false
	}
	for i := 0; i < len(b); i++ {
		ch := b[i]
		if 'A' <= ch && ch <= 'Z' {
			ch += 'a' - 'A'
		}
		if ch != key[i] {
			return false
		}
	}
	return true
}

// parseDecimal parses a non-negative base-10 int without allocating
// (strconv.Atoi would force a string conversion of the byte slice).
func parseDecimal(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 10 {
		return 0, false
	}
	n := 0
	for _, d := range b {
		if d < '0' || d > '9' {
			return 0, false
		}
		n = n*10 + int(d-'0')
	}
	return n, true
}

// parseHex parses a chunk-size hex number without allocating.
func parseHex(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 7 {
		return 0, false
	}
	n := 0
	for _, d := range b {
		switch {
		case '0' <= d && d <= '9':
			n = n<<4 | int(d-'0')
		case 'a' <= d && d <= 'f':
			n = n<<4 | int(d-'a'+10)
		case 'A' <= d && d <= 'F':
			n = n<<4 | int(d-'A'+10)
		default:
			return 0, false
		}
	}
	return n, true
}

func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}
