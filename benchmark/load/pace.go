//go:build linux

package load

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps precisely enough to schedule sub-millisecond arrival
// gaps, without holding a scheduler slot while it waits. time.Sleep is
// not precise enough: while the process idles, Go's timers fire from the
// network poller, whose wait has millisecond resolution, so a 300µs sleep
// overshoots by most of a millisecond. A blocking nanosleep is precise
// but keeps its P until sysmon retakes it, which can stall the server's
// goroutines for milliseconds on a two-core machine. A timerfd read
// through the network poller is both: the goroutine parks, and the
// poller wakes on the fd's expiry with microsecond precision.
type pacer struct {
	fd int
	f  *os.File
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	// A non-blocking fd makes the File pollable, so Read parks the goroutine.
	return &pacer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleep waits d.
func (p *pacer) sleep(d time.Duration) error {
	// struct itimerspec: it_interval {0, 0}, then it_value {sec, nsec}.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := p.f.Read(expirations[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }
