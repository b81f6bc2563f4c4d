package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	rt "repro/internal/runtime"
)

// rusage is the process's user+system CPU time so far.
type rusage struct{ cpu time.Duration }

func (r *rusage) read() {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return // leaves 0: cpu_ms_per_commit then reads 0 and the run fails its gate
	}
	r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memStats is the slice of runtime.MemStats the rt.* metrics difference.
type memStats struct {
	numGC      uint32
	pause      time.Duration
	totalAlloc uint64
}

func (m *memStats) read() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.numGC, m.pause, m.totalAlloc = ms.NumGC, time.Duration(ms.PauseTotalNs), ms.TotalAlloc
}

// liveHeap forces a collection and returns the bytes still reachable. It
// collects twice: a sync.Pool hands its contents to a victim cache that
// survives one collection, and the pooled wire readers and buffers moved
// live-open's 6 MB by 2 MB from run to run.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// alarm wakes its owner at a point on the benchmark clock, precisely and
// without holding a scheduler slot while it waits.
//
// time.Sleep cannot do the first: a Go timer that fires while the process is
// idle is served by epoll_wait, whose timeout is whole milliseconds, so it
// ran 0.56 ms late at the median here - a quarter of live-open's commit
// latency. A nanosleep syscall cannot do the second: the sleeping goroutine
// keeps its P, and with two sleepers on two cores the network poller is only
// run by sysmon every 10 ms. A timerfd read through the runtime's poller
// does both: the kernel's high-resolution timer makes the descriptor
// readable and epoll_wait returns at once (0.08 ms late at the median).
type alarm struct {
	f  *os.File // nil when the kernel offers no timerfd: fall back to time.Sleep
	fd uintptr  // kept apart: File.Fd can put a descriptor back into blocking mode
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

func newAlarm() *alarm {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return &alarm{}
	}
	return &alarm{f: os.NewFile(fd, "timerfd"), fd: fd}
}

func (a *alarm) close() {
	if a.f != nil {
		a.f.Close()
	}
}

// until blocks until the benchmark clock reads t.
func (a *alarm) until(t time.Duration) {
	d := t - now()
	if d <= 0 {
		return
	}
	if a.f == nil {
		time.Sleep(d)
		return
	}
	// struct itimerspec: it_interval (zero: one shot), then it_value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	var expirations [8]byte
	if _, err := a.f.Read(expirations[:]); err != nil {
		time.Sleep(t - now())
	}
}

// freeAddrs picks n loopback addresses for replicas to listen on. The fabric
// opens its own listener from an address book every node must know up
// front, so a port has to be chosen before it is bound. Ports come from
// below the kernel's ephemeral range (32768 and up): a port the kernel hands
// out for ":0" is also one it may give the next outgoing connection, and one
// run in sixty died on "address already in use" that way.
func freeAddrs(n int) (map[rt.NodeID]string, error) {
	addrs := make(map[rt.NodeID]string, n)
	taken := make(map[int]bool, n)
	for tries := 0; len(addrs) < n; tries++ {
		if tries > 100*n {
			return nil, errors.New("no free loopback port between 20000 and 32000")
		}
		port := 20000 + portPick.Intn(12000)
		if taken[port] {
			continue
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		ln.Close()
		taken[port] = true
		addrs[rt.NodeID(len(addrs)+1)] = addr
	}
	return addrs, nil
}

// portPick is seeded from the clock, not from the workload seed: two
// benchmark processes on one machine must not walk the same ports.
var portPick = rand.New(rand.NewSource(time.Now().UnixNano()))
