package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTick = 100

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, i := range []int{11, 12} { // utime, stime
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTick, nil
}

// procHWM returns a process's peak resident set size (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// hostCPU is the aggregate line of /proc/stat: total and steal jiffies.
type hostCPU struct{ total, steal float64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var h hostCPU
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already inside user, so only the first eight add up.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h
}

// stealPct is the share of host CPU time stolen by the hypervisor between
// two readings, in percent.
func stealPct(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * (b.steal - a.steal) / (b.total - a.total)
}

// loadAvg returns the 1-, 5- and 15-minute load averages.
func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	f := strings.Fields(string(b))
	return strings.Join(f[:min(3, len(f))], " ")
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quietSteal, quietProbe and quietWait gate the timed phase on a quiet
// host.
const (
	quietSteal = 3.0
	quietProbe = 500 * time.Millisecond
	quietWait  = 15 * time.Second
)

// waitQuiet holds the timed phase back while the host is noisy: noisy
// neighbours come and go over seconds to minutes, and a phase that starts
// in a quiet spell is less likely to be slowed by them. It probes with GET
// /healthz in a closed loop, which loads the host like the workloads do
// without changing any server state, until hypervisor steal over a probe
// is at most quietSteal% or the deadline has passed. It returns the steal
// of each probe.
func waitQuiet(addr string, deadline time.Time) []float64 {
	c := newConn(addr)
	defer c.close()
	req := []byte("GET /healthz HTTP/1.1\r\nHost: cardpi\r\n\r\n")
	var steal []float64
	for {
		h := readHostCPU()
		for t := time.Now(); time.Since(t) < quietProbe; {
			if _, _, err := c.do(req); err != nil {
				break
			}
		}
		steal = append(steal, stealPct(h, readHostCPU()))
		if steal[len(steal)-1] <= quietSteal || time.Now().After(deadline) {
			return steal
		}
	}
}
