package deadline

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerfd is the time.Timer source plus a Linux timerfd on CLOCK_MONOTONIC
// armed to the same instant. Nothing reads the timerfd: it is registered
// with the netpoller, so its expiry ends the epoll_wait of an idle process,
// which would otherwise sleep to the next whole millisecond, and the
// runtime, awake, finds the time.Timer due and fires it. A busy process
// checks its timers each time it schedules a goroutine, so the time.Timer
// is on time there by itself; a timerfd read alone would wait there for the
// netpoller's next poll.
type timerfd struct {
	*timerSource
	fd   int      // for timerfd_settime: (*os.File).Fd would make it blocking
	file *os.File // keeps the descriptor open and registered with the netpoller
}

// newSource is a timerfd, or a time.Timer alone where the kernel refuses one.
func newSource() source {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return newTimerSource()
	}
	return &timerfd{timerSource: newTimerSource(), fd: int(fd), file: os.NewFile(fd, "deadline-timerfd")}
}

// arm sets both wakes d from now: the time.Timer first, so that when the
// timerfd expires (at least 1 ns: zero would disarm it) the timer is due.
func (s *timerfd) arm(d time.Duration) {
	s.timerSource.arm(d)
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(max(d, 1)))}
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(s.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
}
