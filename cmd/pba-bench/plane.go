package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"time"

	"repro/internal/serve"
	"repro/internal/wire"
)

// The two data-plane encodings of POST /allocate and /release.
const (
	protoJSON   = "json"
	protoBinary = "binary"
)

// plane is one client's data plane: a persistent TCP connection, each
// step's release and allocate hand-assembled as HTTP/1.1 requests in one
// buffer and flushed with a single write; both responses are then read
// back in order. The Go HTTP server executes a connection's requests
// sequentially and replies in order, so pipelining preserves the client's
// release-before-allocate trace while saving a round trip per batch. A
// plane reuses its buffers across steps and is not safe for concurrent
// use.
type plane struct {
	conn  net.Conn
	br    *bufio.Reader
	host  string
	proto string
	raw   []byte       // binary request frames
	wbuf  bytes.Buffer // the step's pipelined requests
	rbuf  bytes.Buffer // the reply body being decoded
}

func dialPlane(base, proto string) (*plane, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, err
	}
	if u.Scheme != "http" {
		return nil, fmt.Errorf("the data plane speaks plain http only, got %q", u.Scheme)
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &plane{conn: conn, br: bufio.NewReaderSize(conn, 1<<16), host: u.Host, proto: proto}, nil
}

func (p *plane) Close() error { return p.conn.Close() }

// step releases ids (skipped when empty) and allocates count fresh balls
// into rep. latency is the allocate round trip, flush to reply decoded;
// the preceding release shares the flush, so its server time is
// overlapped, not added.
func (p *plane) step(ids []int64, count int, rep *serve.Report) (released int, latency time.Duration, err error) {
	p.wbuf.Reset()
	if len(ids) > 0 {
		body, err := p.encodeRelease(ids)
		if err != nil {
			return 0, 0, err
		}
		p.write("/release", body)
	}
	body, err := p.encodeAllocate(count)
	if err != nil {
		return 0, 0, err
	}
	p.write("/allocate", body)
	start := time.Now()
	if _, err := p.conn.Write(p.wbuf.Bytes()); err != nil {
		return 0, 0, err
	}
	if len(ids) > 0 {
		body, err := p.read("/release")
		if err == nil {
			released, err = p.decodeRelease(body)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if body, err = p.read("/allocate"); err == nil {
		err = p.decodeAllocate(body, rep)
	}
	return released, time.Since(start), err
}

func (p *plane) write(path string, body []byte) {
	ct := "application/json"
	if p.proto == protoBinary {
		ct = wire.ContentType
	}
	fmt.Fprintf(&p.wbuf, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		path, p.host, ct, len(body))
	p.wbuf.Write(body)
}

// read reads the next in-order response's body in full, so the next
// pipelined response starts cleanly. The body is valid until the next
// read.
func (p *plane) read(path string) ([]byte, error) {
	res, err := http.ReadResponse(p.br, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: reading pipelined response: %w", path, err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return nil, httpFailure(path, res)
	}
	p.rbuf.Reset()
	_, err = p.rbuf.ReadFrom(res.Body)
	return p.rbuf.Bytes(), err
}

func (p *plane) encodeAllocate(count int) ([]byte, error) {
	if p.proto == protoBinary {
		p.raw = wire.AppendAllocateRequest(p.raw[:0], count, true)
		return p.raw, nil
	}
	return json.Marshal(struct {
		Count int  `json:"count"`
		Terse bool `json:"terse"`
	}{count, true})
}

func (p *plane) encodeRelease(ids []int64) ([]byte, error) {
	if p.proto == protoBinary {
		p.raw = wire.AppendReleaseRequest(p.raw[:0], ids)
		return p.raw, nil
	}
	return json.Marshal(struct {
		IDs []int64 `json:"ids"`
	}{ids})
}

// decodeAllocate decodes one 200 /allocate reply into rep. The server
// answers in the request's protocol; errors come back as JSON with a
// non-200 status and never reach here.
func (p *plane) decodeAllocate(body []byte, rep *serve.Report) error {
	if p.proto == protoBinary {
		return wire.ParseReport(body, rep)
	}
	rep.Reset()
	return json.Unmarshal(body, rep)
}

func (p *plane) decodeRelease(body []byte) (int, error) {
	if p.proto == protoBinary {
		return wire.ParseReleaseReply(body)
	}
	var rel struct {
		Released int `json:"released"`
	}
	err := json.Unmarshal(body, &rel)
	return rel.Released, err
}

// httpFailure turns a non-200 response into an error carrying the JSON
// error shape.
func httpFailure(path string, res *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(res.Body).Decode(&e)
	return fmt.Errorf("%s: %s (%s)", path, res.Status, e.Error)
}
