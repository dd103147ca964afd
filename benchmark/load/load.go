// Package load is the benchmark's client for the serving protocol: one
// persistent TCP connection per client, speaking JSON or the binary wire
// format, with each step's release and allocate pipelined in one write.
// A client owns the ball IDs its allocates were granted and releases only
// those, so a run conserves balls by construction and any shortfall in a
// release reply is a server error.
//
// Two drivers: RunClosed sends the next step only after the previous
// reply (callers that wait), RunOpen sends steps on a Poisson schedule
// regardless of replies (independent users), timing each step from the
// moment it was due so a server stall shows up as latency rather than as
// lost load.
package load

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/wire"
)

// Proto selects the data-plane encoding of /allocate and /release.
type Proto int

const (
	JSON Proto = iota
	Binary
)

func (p Proto) String() string {
	if p == Binary {
		return "binary"
	}
	return "json"
}

// StepHeader carries a traced step's ID on its requests, so spans the
// server side records can be joined to the client step that caused them.
const StepHeader = "X-Bench-Step"

// Step is the record of one client step: a pipelined release of the
// client's own IDs followed by an allocate. Times are nanoseconds since
// the client's Base.
type Step struct {
	ID      uint64 // client index << 40 | sequence number
	Due     int64  // when the step was due: its schedule slot (open loop) or its send time (closed loop)
	Sent    int64  // request bytes written
	Done    int64  // allocate reply parsed
	ParseNs int64  // client time spent parsing the allocate reply and expanding its IDs
	Balls   int32  // balls the allocate granted
	Traced  bool   // the requests carried StepHeader
}

// Latency is the step's time from due to done.
func (s *Step) Latency() int64 { return s.Done - s.Due }

// Client is one connection and the live ball IDs it owns. It is not safe
// for concurrent use, except that RunOpen runs its own writer and reader.
type Client struct {
	Index int
	// Base is the time origin of Step timestamps.
	Base time.Time
	// Tracing, when non-nil and set at a step's start, makes that step
	// carry StepHeader and marks it Traced.
	Tracing *atomic.Bool

	// Everything below covers the steps since the last Reset. Hist holds
	// every step's latency; Lat and LatTraced hold them again, untraced
	// and traced apart, for exact quantiles, and Ends the untraced steps'
	// Done times, in step with Lat; Steps keeps the whole record of traced
	// steps only, for joining server spans to them.
	Hist      obs.Histogram
	Lat       []int64
	Ends      []int64
	LatTraced []int64
	Steps     []Step
	Balls     int64 // balls granted
	ParseNs   int64 // sum of Step.ParseNs
	Replies   int64 // allocate replies
	ExcessSum int64 // sum of Report.Excess over replies
	RoundsSum int64 // sum of Report.Rounds over replies

	conn  net.Conn
	br    *bufio.Reader
	host  string
	proto Proto
	rnd   *rng.Rand
	seq   uint64

	mu   sync.Mutex // guards live while RunOpen's writer and reader share it
	live []int64

	wbuf []byte
	body []byte
	fbuf bytes.Buffer
	rep  wire.Report
}

// Dial connects client index to the serving endpoint at addr (host:port).
// seed fixes which IDs the client releases; capacity presizes the live
// set.
func Dial(addr string, proto Proto, index int, seed uint64, capacity int, base time.Time) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("load: dial %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return &Client{
		Index: index,
		Base:  base,
		conn:  conn,
		br:    bufio.NewReaderSize(conn, 1<<16),
		host:  addr,
		proto: proto,
		rnd:   rng.New(rng.Mix64(seed ^ (uint64(index)+1)*0x1F83D9ABFB41BD6B)),
		live:  make([]int64, 0, capacity),
	}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Live returns how many balls the client currently owns.
func (c *Client) Live() int { return len(c.live) }

// Reset clears the step records, the latency histogram and the tallies.
func (c *Client) Reset() {
	c.Hist = obs.Histogram{}
	c.Lat, c.Ends, c.LatTraced, c.Steps = c.Lat[:0], c.Ends[:0], c.LatTraced[:0], c.Steps[:0]
	c.Balls, c.ParseNs, c.Replies, c.ExcessSum, c.RoundsSum = 0, 0, 0, 0, 0
}

// Grow allocates k balls in one unrecorded request and returns the IDs
// granted, ascending; the slice is valid until the client's next call.
func (c *Client) Grow(k int) ([]int64, error) {
	c.wbuf = c.appendAllocate(c.wbuf[:0], k, 0)
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return nil, fmt.Errorf("load: client %d: %w", c.Index, err)
	}
	n := len(c.live)
	if err := c.readAllocate(); err != nil {
		return nil, err
	}
	if c.rep.Admitted != k {
		return nil, fmt.Errorf("load: client %d: asked for %d balls, granted %d", c.Index, k, c.rep.Admitted)
	}
	c.live = c.rep.AppendIDs(c.live)
	return c.live[n:], nil
}

// Drain releases every live ball in requests of at most chunk IDs,
// failing if any release reply counts fewer balls than were sent.
func (c *Client) Drain(chunk int) error {
	for len(c.live) > 0 {
		k := min(chunk, len(c.live))
		ids := c.live[len(c.live)-k:]
		c.wbuf = c.appendRelease(c.wbuf[:0], ids, 0)
		if _, err := c.conn.Write(c.wbuf); err != nil {
			return fmt.Errorf("load: client %d: %w", c.Index, err)
		}
		if err := c.readRelease(k); err != nil {
			return err
		}
		c.live = c.live[:len(c.live)-k]
	}
	return nil
}

// pick moves batch uniformly chosen live IDs to the tail of the live set
// and returns that tail; the caller truncates it once sent.
func (c *Client) pick(batch int) []int64 {
	n := len(c.live)
	for j := 0; j < batch; j++ {
		x := c.rnd.Intn(n - j)
		c.live[x], c.live[n-1-j] = c.live[n-1-j], c.live[x]
	}
	return c.live[n-batch:]
}

// newStep starts the next step's record.
func (c *Client) newStep() Step {
	c.seq++
	return Step{
		ID:     uint64(c.Index)<<40 | c.seq,
		Traced: c.Tracing != nil && c.Tracing.Load(),
	}
}

func (c *Client) now() int64 { return int64(time.Since(c.Base)) }

// finish records a completed step.
func (c *Client) finish(st Step) {
	c.Hist.Observe(st.Latency())
	if st.Traced {
		c.LatTraced = append(c.LatTraced, st.Latency())
		c.Steps = append(c.Steps, st)
	} else {
		c.Lat = append(c.Lat, st.Latency())
		c.Ends = append(c.Ends, st.Done)
	}
	c.Balls += int64(st.Balls)
	c.ParseNs += st.ParseNs
}

// RunClosed plays closed-loop steps until deadline: each step releases
// batch of the client's own IDs and allocates batch fresh balls, so the
// client's live count stays constant. It needs at least batch live balls.
func (c *Client) RunClosed(deadline time.Time, batch int) error {
	if len(c.live) < batch {
		return fmt.Errorf("load: client %d owns %d balls, a step releases %d", c.Index, len(c.live), batch)
	}
	for time.Now().Before(deadline) {
		st := c.newStep()
		tag := uint64(0)
		if st.Traced {
			tag = st.ID
		}
		ids := c.pick(batch)
		c.wbuf = c.appendRelease(c.wbuf[:0], ids, tag)
		c.wbuf = c.appendAllocate(c.wbuf, batch, tag)
		c.live = c.live[:len(c.live)-batch]
		st.Sent = c.now()
		st.Due = st.Sent
		if _, err := c.conn.Write(c.wbuf); err != nil {
			return fmt.Errorf("load: client %d: %w", c.Index, err)
		}
		if err := c.readRelease(batch); err != nil {
			return err
		}
		if err := c.readStep(&st, batch); err != nil {
			return err
		}
		c.finish(st)
	}
	return nil
}

// RunOpen plays open-loop steps until deadline: step arrivals form a
// Poisson process of the given rate (steps per second), and each step is
// written when due whether or not earlier replies have arrived. A reader
// goroutine collects replies in order; released IDs come from the balls
// whose allocate replies have already been read.
func (c *Client) RunOpen(deadline time.Time, rate float64, batch int) error {
	if len(c.live) < batch {
		return fmt.Errorf("load: client %d owns %d balls, a step releases %d", c.Index, len(c.live), batch)
	}
	pace, err := newPacer()
	if err != nil {
		return fmt.Errorf("load: client %d: %w", c.Index, err)
	}
	defer pace.close()
	// Bounds the steps in flight on the connection. A server that falls
	// this far behind blocks the writer, which then shows as generator lag.
	inflight := make(chan Step, 1024)
	readErr := make(chan error, 1)
	go func() {
		var err error
		for st := range inflight {
			if err != nil {
				continue // drain so the writer never blocks on a dead reader
			}
			if err = c.readRelease(batch); err == nil {
				err = c.readStep(&st, batch)
			}
			if err == nil {
				c.finish(st)
			}
		}
		readErr <- err
	}()

	var werr error
	due := c.now()
	end := int64(deadline.Sub(c.Base))
	for {
		due += int64(-math.Log(1-c.rnd.Float64()) / rate * 1e9)
		if due >= end {
			break
		}
		if wait := time.Duration(due - c.now()); wait > 0 {
			if werr = pace.sleep(wait); werr != nil {
				werr = fmt.Errorf("load: client %d: %w", c.Index, werr)
				break
			}
		}
		st := c.newStep()
		st.Due = due
		tag := uint64(0)
		if st.Traced {
			tag = st.ID
		}
		c.mu.Lock()
		if len(c.live) < batch {
			c.mu.Unlock()
			werr = fmt.Errorf("load: client %d: %d steps in flight hold all its balls; the server fell behind", c.Index, len(inflight))
			break
		}
		ids := c.pick(batch)
		c.wbuf = c.appendRelease(c.wbuf[:0], ids, tag)
		c.live = c.live[:len(c.live)-batch]
		c.mu.Unlock()
		c.wbuf = c.appendAllocate(c.wbuf, batch, tag)
		st.Sent = c.now()
		if _, werr = c.conn.Write(c.wbuf); werr != nil {
			werr = fmt.Errorf("load: client %d: %w", c.Index, werr)
			break
		}
		inflight <- st
	}
	close(inflight)
	if err := <-readErr; err != nil {
		return err
	}
	return werr
}

// readStep reads one allocate reply of want balls into the step record
// and adds the granted IDs to the live set.
func (c *Client) readStep(st *Step, want int) error {
	if err := c.readBody("/allocate"); err != nil {
		return err
	}
	t0 := time.Now()
	if err := c.parseAllocate(); err != nil {
		return err
	}
	if c.rep.Admitted != want {
		return fmt.Errorf("load: client %d: asked for %d balls, granted %d", c.Index, want, c.rep.Admitted)
	}
	c.mu.Lock()
	c.live = c.rep.AppendIDs(c.live)
	c.mu.Unlock()
	st.ParseNs = int64(time.Since(t0))
	st.Done = c.now()
	st.Balls = int32(c.rep.Admitted)
	c.Replies++
	c.ExcessSum += c.rep.Excess
	c.RoundsSum += int64(c.rep.Rounds)
	return nil
}

func (c *Client) readAllocate() error {
	if err := c.readBody("/allocate"); err != nil {
		return err
	}
	return c.parseAllocate()
}

func (c *Client) parseAllocate() error {
	if c.proto == Binary {
		if err := wire.ParseReport(c.fbuf.Bytes(), &c.rep); err != nil {
			return fmt.Errorf("load: client %d: /allocate reply: %w", c.Index, err)
		}
		return nil
	}
	c.rep.Reset()
	if err := json.Unmarshal(c.fbuf.Bytes(), &c.rep); err != nil {
		return fmt.Errorf("load: client %d: /allocate reply: %w", c.Index, err)
	}
	return nil
}

// readRelease reads one release reply and checks it released want balls.
func (c *Client) readRelease(want int) error {
	if err := c.readBody("/release"); err != nil {
		return err
	}
	var got int
	if c.proto == Binary {
		n, err := wire.ParseReleaseReply(c.fbuf.Bytes())
		if err != nil {
			return fmt.Errorf("load: client %d: /release reply: %w", c.Index, err)
		}
		got = n
	} else {
		var rel struct {
			Released int `json:"released"`
		}
		if err := json.Unmarshal(c.fbuf.Bytes(), &rel); err != nil {
			return fmt.Errorf("load: client %d: /release reply: %w", c.Index, err)
		}
		got = rel.Released
	}
	if got != want {
		return fmt.Errorf("load: client %d: released %d of %d owned balls", c.Index, got, want)
	}
	return nil
}

// readBody reads the next in-order response into fbuf, failing on any
// status but 200.
func (c *Client) readBody(path string) error {
	res, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return fmt.Errorf("load: client %d: %s: %w", c.Index, path, err)
	}
	c.fbuf.Reset()
	_, err = c.fbuf.ReadFrom(res.Body)
	res.Body.Close()
	if err != nil {
		return fmt.Errorf("load: client %d: %s: %w", c.Index, path, err)
	}
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("load: client %d: %s: %s: %s", c.Index, path, res.Status, bytes.TrimSpace(c.fbuf.Bytes()))
	}
	return nil
}

func (c *Client) contentType() string {
	if c.proto == Binary {
		return wire.ContentType
	}
	return "application/json"
}

// appendRequest appends one HTTP/1.1 POST carrying body, tagged with
// StepHeader when tag is non-zero.
func (c *Client) appendRequest(dst []byte, path string, body []byte, tag uint64) []byte {
	dst = append(dst, "POST "...)
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(dst, c.host...)
	dst = append(dst, "\r\nContent-Type: "...)
	dst = append(dst, c.contentType()...)
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	if tag != 0 {
		dst = append(dst, "\r\n"+StepHeader+": "...)
		dst = strconv.AppendUint(dst, tag, 10)
	}
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}

func (c *Client) appendRelease(dst []byte, ids []int64, tag uint64) []byte {
	if c.proto == Binary {
		c.body = wire.AppendReleaseRequest(c.body[:0], ids)
	} else {
		c.body = append(c.body[:0], `{"ids":[`...)
		for i, id := range ids {
			if i > 0 {
				c.body = append(c.body, ',')
			}
			c.body = strconv.AppendInt(c.body, id, 10)
		}
		c.body = append(c.body, "]}"...)
	}
	return c.appendRequest(dst, "/release", c.body, tag)
}

func (c *Client) appendAllocate(dst []byte, k int, tag uint64) []byte {
	if c.proto == Binary {
		c.body = wire.AppendAllocateRequest(c.body[:0], k, true)
	} else {
		c.body = append(c.body[:0], `{"count":`...)
		c.body = strconv.AppendInt(c.body, int64(k), 10)
		c.body = append(c.body, `,"terse":true}`...)
	}
	return c.appendRequest(dst, "/allocate", c.body, tag)
}
