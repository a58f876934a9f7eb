package main

import (
	"syscall"
	"time"
)

// osSleep blocks the calling thread in the kernel, which wakes it within
// tens of microseconds of the deadline; the runtime's own timers round a
// sub-millisecond sleep on an idle processor up to a millisecond.
func osSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only ends early; the caller spins to the deadline
}
