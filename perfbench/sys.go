package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostSample is one reading of the process and host counters a run turns
// into per-op and per-second figures.
type hostSample struct {
	wall       time.Time
	cpu        time.Duration // process user+sys
	steal, all uint64        // host /proc/stat jiffies
	mallocs    uint64
	allocBytes uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, as the Go runtime accounts it
}

var rtMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleHost() hostSample {
	s := hostSample{wall: time.Now(), cpu: processCPU()}
	s.steal, s.all = readSteal()
	metrics.Read(rtMetrics)
	s.mallocs = rtMetrics[0].Value.Uint64()
	s.allocBytes = rtMetrics[1].Value.Uint64()
	s.gcCPU = rtMetrics[2].Value.Float64()
	s.totalCPU = rtMetrics[3].Value.Float64()
	return s
}

// hostDelta is what happened between two samples.
type hostDelta struct {
	wall, cpu  time.Duration
	stealPct   float64
	mallocs    uint64
	allocBytes uint64
	gcFraction float64
}

func (a hostSample) to(b hostSample) hostDelta {
	d := hostDelta{
		wall:       b.wall.Sub(a.wall),
		cpu:        b.cpu - a.cpu,
		mallocs:    b.mallocs - a.mallocs,
		allocBytes: b.allocBytes - a.allocBytes,
	}
	if b.all > a.all {
		d.stealPct = 100 * float64(b.steal-a.steal) / float64(b.all-a.all)
	}
	if t := b.totalCPU - a.totalCPU; t > 0 {
		d.gcFraction = (b.gcCPU - a.gcCPU) / t
	}
	return d
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readSteal returns the host's stolen and total CPU jiffies from the first
// line of /proc/stat; zeros where that file is unreadable.
func readSteal() (steal, all uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0, 0
	}
	fields := strings.Fields(line)
	for i, s := range fields[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		all += v
		if i == 7 {
			steal = v
		}
	}
	return steal, all
}

// peakRSSMiB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// stamp describes the host and build a run measured on, so runs are only
// compared like with like.
func stamp(steal float64) string {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return fmt.Sprintf("steal_pct=%.2f nproc=%d gomaxprocs=%d go=%s rev=%s",
		steal, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev)
}

// releaseMemory returns a finished set-up's garbage to the OS so the next
// set-up's peak RSS does not stack on top of it.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}
