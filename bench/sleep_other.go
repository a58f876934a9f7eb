//go:build !linux

package main

import "time"

// osSleep falls back to the runtime's timers where there is no nanosleep;
// the open loop's reported lateness then shows their millisecond rounding.
func osSleep(d time.Duration) { time.Sleep(d) }
