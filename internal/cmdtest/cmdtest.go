// Package cmdtest builds and executes the repo's command binaries for
// smoke tests: every cmd/* package compiles, runs on a tiny instance, and
// exits 0 with parseable output, so flag and output-format regressions
// fail in CI instead of in users' shells.
package cmdtest

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// Build compiles the command package (e.g. "repro/cmd/pba-run") into the
// test's temp dir and returns the binary path. Requires the go tool,
// which the tests and CI environments always have.
func Build(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// Run executes the binary and returns stdout, stderr, and the exit code.
func Run(t *testing.T, bin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var so, se strings.Builder
	cmd.Stdout, cmd.Stderr = &so, &se
	err := cmd.Run()
	code = 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %s: %v", bin, strings.Join(args, " "), err)
		}
		code = ee.ExitCode()
	}
	return so.String(), se.String(), code
}

// MustRun is Run asserting exit 0; it returns stdout.
func MustRun(t *testing.T, bin string, args ...string) string {
	t.Helper()
	stdout, stderr, code := Run(t, bin, args...)
	if code != 0 {
		t.Fatalf("%s %s: exit %d\nstdout:\n%s\nstderr:\n%s",
			bin, strings.Join(args, " "), code, stdout, stderr)
	}
	return stdout
}

// Proc is a long-running binary under test (e.g. a server). It is killed
// at test cleanup unless the test has already observed it exit.
type Proc struct {
	t    *testing.T
	cmd  *exec.Cmd
	out  *bufio.Reader
	wait chan error // buffered; receives the cmd.Wait result once
}

// StartProc launches a long-running binary and scans its stdout until a
// line matches banner, returning the process handle and the banner's
// first submatch (the whole match when banner has no groups). Servers use
// this to hand tests their resolved listen address.
//
// The test owns the read end of the stdout pipe, so it reads every line
// up to EOF whenever the child exits. cmd.StdoutPipe would hand the pipe
// to cmd.Wait, which closes it as soon as the child exits and loses any
// line the test has not read yet (a final "check: OK", say).
func StartProc(t *testing.T, bin string, banner *regexp.Regexp, args ...string) (*Proc, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = w
	cmd.Stderr = os.Stderr
	err = cmd.Start()
	w.Close() // the child holds its own copy; EOF follows its exit
	if err != nil {
		stdout.Close()
		t.Fatal(err)
	}
	p := &Proc{t: t, cmd: cmd, out: bufio.NewReader(stdout), wait: make(chan error, 1)}
	go func() { p.wait <- cmd.Wait() }()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		<-p.wait
		stdout.Close()
	})
	line := p.ExpectLine(banner)
	m := banner.FindStringSubmatch(line)
	if len(m) > 1 {
		return p, m[1]
	}
	return p, m[0]
}

// ExpectLine reads stdout lines until one matches re (failing the test at
// EOF) and returns the matching line.
func (p *Proc) ExpectLine(re *regexp.Regexp) string {
	p.t.Helper()
	for {
		line, err := p.out.ReadString('\n')
		if re.MatchString(line) {
			return line
		}
		if err != nil {
			p.t.Fatalf("no line matching %v before stdout closed (last %q, err %v)", re, line, err)
		}
	}
}

// Signal sends sig to the process.
func (p *Proc) Signal(sig os.Signal) {
	p.t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil {
		p.t.Fatalf("signaling %s: %v", filepath.Base(p.cmd.Path), err)
	}
}

// WaitExit blocks until the process exits and returns its exit code.
func (p *Proc) WaitExit() int {
	p.t.Helper()
	err := <-p.wait
	p.wait <- err // keep the channel answered for the cleanup drain
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	p.t.Fatalf("waiting for %s: %v", filepath.Base(p.cmd.Path), err)
	return -1
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("cmdtest: no go.mod above working directory")
		}
		dir = parent
	}
}
