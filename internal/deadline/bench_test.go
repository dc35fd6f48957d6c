//go:build linux

package deadline

import (
	"fmt"
	"sort"
	"syscall"
	"testing"
	"time"
)

// BenchmarkDeadline is the timer table of docs/PERFORMANCE.md: how late a
// timer of each length fires on an otherwise idle process, as a time.Timer
// and as a Timer of this scheduler, and the process CPU each wait costs.
// Waits are 3 ms apart, so each starts from an idle process. Run with
//
//	go test -run=NONE -bench BenchmarkDeadline -benchtime=40x ./internal/deadline
func BenchmarkDeadline(b *testing.B) {
	for _, d := range []time.Duration{100 * time.Microsecond, 500 * time.Microsecond,
		time.Millisecond, 2400 * time.Microsecond, 37500 * time.Microsecond} {
		name := fmt.Sprintf("%dus", d.Microseconds())
		b.Run("time/"+name, func(b *testing.B) {
			measureLate(b, d, func(d time.Duration) <-chan time.Time { return time.NewTimer(d).C })
		})
		b.Run("deadline/"+name, func(b *testing.B) {
			measureLate(b, d, func(d time.Duration) <-chan time.Time { return NewTimer(d).C })
		})
	}
}

func measureLate(b *testing.B, d time.Duration, arm func(time.Duration) <-chan time.Time) {
	late := make([]time.Duration, 0, b.N)
	var cpu time.Duration
	for i := 0; i < b.N; i++ {
		time.Sleep(3 * time.Millisecond)
		c0 := processCPU(b)
		start := time.Now()
		<-arm(d)
		late = append(late, time.Since(start)-d)
		cpu += processCPU(b) - c0
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	at := func(q float64) float64 { return float64(late[int(q*float64(len(late)-1))].Nanoseconds()) / 1e3 }
	b.ReportMetric(at(0.5), "late_p50_us")
	b.ReportMetric(at(0.9), "late_p90_us")
	b.ReportMetric(float64(cpu.Nanoseconds())/1e3/float64(b.N), "cpu_us/wait")
	b.ReportMetric(0, "ns/op")
}

// processCPU is the user and system CPU the process has used.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
