//go:build !race

// The race detector makes sync.Pool drop items at random, so allocation
// counts mean nothing under it.

package wire_test

import (
	"testing"

	"repro/internal/replica"
	"repro/internal/wire"
)

// TestSizeAllocatesNothing: pricing a message encodes it into a pooled
// buffer, so charging a NACK with its locking information costs no
// allocation.
func TestSizeAllocatesNothing(t *testing.T) {
	var nack *replica.AckMsg
	for _, m := range corpusMessages() {
		if a, ok := m.(*replica.AckMsg); ok && a.Info != nil {
			nack = a
		}
	}
	if nack == nil {
		t.Fatal("the corpus has no NACK carrying a LockInfo")
	}
	if allocs := testing.AllocsPerRun(100, func() { wire.Size(nack) }); allocs != 0 {
		t.Fatalf("wire.Size allocates %.1f times per NACK", allocs)
	}
}
