package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/wire"
)

// TestCellsVerbsHTTP pins the status codes and content types of the seven
// POST /cells verbs on cluster replicas: 405 on GET, 400 on a malformed
// JSON body or frame, 409 on a topology conflict, and 200 with a wire
// frame from begin and cut and JSON from the rest.
func TestCellsVerbsHTTP(t *testing.T) {
	const n, cells, seed = 40, 4, 31
	mk := func(host []int) http.Handler {
		s, err := New(Config{N: n, Shards: cells, Alg: "aheavy", Seed: seed, Workers: 1, Host: host})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return NewHandler(s, HandlerConfig{})
	}
	src, dst := mk([]int{0, 1}), mk([]int{})
	do := func(h http.Handler, method, path, ct string, body []byte) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(method, path, strings.NewReader(string(body)))
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	expect := func(w *httptest.ResponseRecorder, what string, code int, ct string) []byte {
		t.Helper()
		if w.Code != code {
			t.Fatalf("%s: status %d, want %d (body %q)", what, w.Code, code, w.Body.String())
		}
		if got := w.Header().Get("Content-Type"); got != ct {
			t.Fatalf("%s: Content-Type %q, want %q", what, got, ct)
		}
		return w.Body.Bytes()
	}
	const js = "application/json"
	jsonVerbs := []string{"/cells/attach", "/cells/detach", "/cells/migrate/begin", "/cells/migrate/cut", "/cells/migrate/abort"}
	frameVerbs := []string{"/cells/stage", "/cells/commit"}

	for _, path := range append(append([]string(nil), jsonVerbs...), frameVerbs...) {
		expect(do(src, http.MethodGet, path, "", nil), "GET "+path, http.StatusMethodNotAllowed, js)
	}
	for _, path := range jsonVerbs {
		expect(do(src, http.MethodPost, path, js, []byte(`{bad`)), "malformed "+path, http.StatusBadRequest, js)
	}
	for _, path := range frameVerbs {
		expect(do(dst, http.MethodPost, path, wire.ContentType, []byte{0xFF, 0x01, 0x02}), "malformed "+path, http.StatusBadRequest, js)
	}

	// Conflicts: a hosted cell cannot attach again, an unstaged cell
	// cannot commit, and a cell with no armed log cannot cut.
	expect(do(src, http.MethodPost, "/cells/attach", js, []byte(`{"cell":0}`)), "attach hosted", http.StatusConflict, js)
	unstaged := wire.AppendCellDelta(nil, 3, make([]byte, 32), nil)
	expect(do(dst, http.MethodPost, "/cells/commit", wire.ContentType, unstaged), "commit unstaged", http.StatusConflict, js)
	expect(do(src, http.MethodPost, "/cells/migrate/cut", js, []byte(`{"cell":0}`)), "cut without log", http.StatusConflict, js)

	// The successful path of every verb: attach a fresh cell, move cell 1
	// from src to dst, and abort a begun migration and a staged copy.
	expect(do(dst, http.MethodPost, "/cells/attach", js, []byte(`{"cell":2}`)), "attach", http.StatusOK, js)
	snap := expect(do(src, http.MethodPost, "/cells/migrate/begin", js, []byte(`{"cell":1}`)), "begin", http.StatusOK, wire.ContentType)
	expect(do(dst, http.MethodPost, "/cells/stage", wire.ContentType, snap), "stage", http.StatusOK, js)
	delta := expect(do(src, http.MethodPost, "/cells/migrate/cut", js, []byte(`{"cell":1}`)), "cut", http.StatusOK, wire.ContentType)
	expect(do(dst, http.MethodPost, "/cells/commit", wire.ContentType, delta), "commit", http.StatusOK, js)
	expect(do(src, http.MethodPost, "/cells/detach", js, []byte(`{"cell":1}`)), "detach", http.StatusOK, js)
	snap = expect(do(src, http.MethodPost, "/cells/migrate/begin", js, []byte(`{"cell":0}`)), "begin", http.StatusOK, wire.ContentType)
	expect(do(src, http.MethodPost, "/cells/migrate/abort", js, []byte(`{"cell":0}`)), "abort", http.StatusOK, js)
	expect(do(dst, http.MethodPost, "/cells/stage", wire.ContentType, snap), "stage", http.StatusOK, js)
	expect(do(dst, http.MethodPost, "/cells/migrate/abort", js, []byte(`{"cell":0,"staged":true}`)), "abort staged", http.StatusOK, js)
}
