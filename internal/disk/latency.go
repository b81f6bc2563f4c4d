package disk

import "time"

// WithSyncLatency wraps b so every File.Sync really sleeps d before
// returning — a wall-clock model of a storage device's fsync cost on top
// of any backend. Mem's injectable SyncDelay only *accounts* latency (it
// feeds the DES clock); this wrapper *spends* it, which is what a live
// throughput measurement needs: the benchmark's live-durable workload runs
// real nodes against Mem+WithSyncLatency to measure commits/sec on a
// modelled NVMe without touching a physical disk.
func WithSyncLatency(b Backend, d time.Duration) Backend {
	if d <= 0 {
		return b
	}
	return &latencyBackend{Backend: b, d: d}
}

type latencyBackend struct {
	Backend
	d time.Duration
}

func (lb *latencyBackend) Create(name string) (File, error) {
	f, err := lb.Backend.Create(name)
	if err != nil {
		return nil, err
	}
	return &latencyFile{File: f, d: lb.d}, nil
}

func (lb *latencyBackend) Append(name string) (File, error) {
	f, err := lb.Backend.Append(name)
	if err != nil {
		return nil, err
	}
	return &latencyFile{File: f, d: lb.d}, nil
}

// Stats forwards the StatsSource capability of the wrapped backend.
func (lb *latencyBackend) Stats() Stats {
	if src, ok := lb.Backend.(StatsSource); ok {
		return src.Stats()
	}
	return Stats{}
}

// Crash forwards the Crasher capability of the wrapped backend.
func (lb *latencyBackend) Crash() {
	if cr, ok := lb.Backend.(Crasher); ok {
		cr.Crash()
	}
}

type latencyFile struct {
	File
	d time.Duration
}

func (lf *latencyFile) Sync() error {
	time.Sleep(lf.d)
	return lf.File.Sync()
}
