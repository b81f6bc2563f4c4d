// Package wal implements the segmented write-ahead log under a replica's
// durable state (DESIGN.md §9).
//
// The log is a sequence of CRC-framed records spread over numbered segment
// files, plus at most one installed snapshot that supersedes every earlier
// record. Layout on the disk.Backend:
//
//	snap-<gen>.snap            installed state snapshot (atomic rename)
//	wal-<gen>-<k>.seg          record segments written after that snapshot
//
// Every snapshot starts a new generation: segments of older generations
// are garbage from the moment the snapshot's rename lands, so a crash
// between "install snapshot" and "delete old segments" is harmless — Open
// ignores (and deletes) segments whose generation does not match the
// newest valid snapshot.
//
// Record frame: 4-byte little-endian payload length, 4-byte CRC-32C over
// type+payload, 1 type byte, payload. A torn tail — a partial or
// CRC-corrupt frame at the end of the *last* segment — is tolerated on
// replay: it is exactly what a crash mid-append leaves behind. Open
// truncates the segment back to its valid prefix (so the garbage can never
// be mistaken for mid-log corruption by a later Open, after this segment is
// no longer last) and resumes writing in a fresh segment. The same damage
// anywhere else is real corruption and fails Open.
//
// Fsync policy is configurable per the classic durability/throughput
// trade-off: every append, only at commit barriers, or never (the OS page
// cache decides). The policy is honest on both backends: disk.Mem drops
// unsynced bytes on Crash, so a simulated power cut under PolicyNone loses
// exactly what a real one would.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/disk"
)

// Policy selects when appends reach stable storage.
type Policy int

const (
	// PolicyCommit fsyncs only on records marked as commit barriers (and
	// on explicit Sync/Close). The default: uncommitted tail records may
	// be lost in a crash, acknowledged commits may not.
	PolicyCommit Policy = iota
	// PolicyAlways fsyncs every append.
	PolicyAlways
	// PolicyNone never fsyncs on the append path; only Sync/Close do.
	PolicyNone
)

// ParsePolicy maps the -fsync flag spellings to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "commit", "":
		return PolicyCommit, nil
	case "always":
		return PolicyAlways, nil
	case "none":
		return PolicyNone, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, commit, or none)", s)
}

func (p Policy) String() string {
	switch p {
	case PolicyAlways:
		return "always"
	case PolicyNone:
		return "none"
	default:
		return "commit"
	}
}

// Record is one logged entry. Type is owned by the caller (internal/durable
// defines the replica's vocabulary); the WAL only frames and checksums.
type Record struct {
	Type byte
	Data []byte
}

// Options tunes a log.
type Options struct {
	// Policy is the fsync policy (default PolicyCommit).
	Policy Policy
	// SegmentBytes rotates to a new segment once the current one reaches
	// this size (default 1 MiB).
	SegmentBytes int
	// GroupCommitDelay enables group commit under PolicyCommit: an
	// AppendBarrier parks its completion callback instead of fsyncing
	// immediately, and after at most this delay one fsync covers every
	// barrier that accumulated (200µs is a good starting point). Zero — the
	// default — keeps the synchronous fsync-per-barrier path.
	GroupCommitDelay time.Duration
	// Scheduler runs fn after d, for the group-commit flush. Nil uses
	// time.AfterFunc; tests inject a manual scheduler to pump flushes
	// deterministically.
	Scheduler func(d time.Duration, fn func())
	// OnSync, if non-nil, observes the wall-clock duration of every
	// successful segment fsync (the ops plane feeds these into the
	// marp.wal.fsync_seconds histogram). Called with the log's lock held;
	// the observer must not call back into the log.
	OnSync func(d time.Duration)
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.Scheduler == nil {
		o.Scheduler = func(d time.Duration, fn func()) { time.AfterFunc(d, fn) }
	}
	return o
}

// Stats counts the log's work.
type Stats struct {
	Appends       int
	AppendedBytes int
	Syncs         int
	Rotations     int
	Snapshots     int
	// Replayed is the number of records decoded by Open.
	Replayed int
	// TailDropped is the number of torn-tail bytes Open tolerated.
	TailDropped int
	// GroupBatches counts fsyncs that covered parked group-commit barriers;
	// GroupBarriers counts the barriers covered. Their ratio is the mean
	// coalescing factor.
	GroupBatches  int
	GroupBarriers int
}

// ErrCorrupt reports a damaged record before the tail — data the log once
// acknowledged and can no longer produce.
var ErrCorrupt = errors.New("wal: corrupt record before log tail")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const frameHeader = 9 // 4 len + 4 crc + 1 type

// Log is an open write-ahead log. Safe for concurrent use: the owner
// drives it from the engine's single execution context, but with group
// commit enabled the flush also fires from a scheduler goroutine, so every
// entry point takes the log's mutex.
type Log struct {
	mu      sync.Mutex
	b       disk.Backend
	opts    Options
	gen     uint64
	seg     int // index of the open segment within gen
	segSize int
	out     disk.File
	dirty   bool // bytes appended since the last sync
	stats   Stats

	// Group-commit state: parked completion callbacks, whether a flush is
	// scheduled, and the sticky error that — once a covering fsync has
	// failed — guarantees no parked caller is ever told its record is
	// durable.
	parked   []func()
	armed    bool
	groupErr error
}

// Open replays the log on b and returns the handle, the newest installed
// snapshot (nil if none), and the records appended after it, in order. A
// torn tail is tolerated and dropped; corruption anywhere else fails.
func Open(b disk.Backend, opts Options) (*Log, []byte, []Record, error) {
	l := &Log{b: b, opts: opts.withDefaults()}
	names, err := b.List()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("wal: listing backend: %w", err)
	}
	snap, gen, stale, err := newestSnapshot(b, names)
	if err != nil {
		return nil, nil, nil, err
	}
	l.gen = gen
	segs := segments(names, gen)
	for _, name := range names {
		var g uint64
		var k int
		if parseSeg(name, &g, &k) && g != gen {
			stale = append(stale, name) // superseded generation's segments
		}
	}
	var records []Record
	for i, s := range segs {
		recs, valid, dropped, err := readSegment(b, s.name, i == len(segs)-1)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("wal: %s: %w", s.name, err)
		}
		records = append(records, recs...)
		if dropped > 0 {
			// Cut the torn bytes off durably: on the next Open this segment
			// is no longer last, and an un-truncated tail would read as real
			// corruption and permanently refuse to start.
			if err := b.Truncate(s.name, valid); err != nil {
				return nil, nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", s.name, err)
			}
		}
		l.stats.TailDropped += dropped
	}
	l.stats.Replayed = len(records)
	// Writes resume in a fresh segment: a tolerated torn tail stays dead.
	l.seg = nextSegIndex(segs)
	if err := l.openSegment(); err != nil {
		return nil, nil, nil, err
	}
	// Stale generations and superseded snapshots are garbage from before
	// a crash interrupted compaction; finish the job.
	for _, name := range stale {
		if err := b.Remove(name); err != nil {
			return nil, nil, nil, fmt.Errorf("wal: removing stale %s: %w", name, err)
		}
	}
	return l, snap, records, nil
}

// Append frames and writes rec. commit marks a durability barrier: under
// PolicyCommit the write (and everything before it) is fsynced.
func (l *Log) Append(rec Record, commit bool) error {
	l.mu.Lock()
	cbs, err := l.appendLocked(rec, commit, nil)
	l.mu.Unlock()
	fire(cbs)
	return err
}

// AppendBarrier is Append for a commit barrier whose caller can defer its
// side effects: done fires exactly when the record is covered by an fsync
// (given the policy — under PolicyNone "covered" is the policy's usual
// fiction and done fires immediately). With group commit enabled, done
// parks and one later fsync covers every parked barrier; a nil return then
// means "accepted", not "durable". If the covering fsync fails, done never
// fires and every subsequent append returns the sticky error — a parked
// caller is never told a record the fsync didn't cover is safe.
func (l *Log) AppendBarrier(rec Record, commit bool, done func()) error {
	l.mu.Lock()
	cbs, err := l.appendLocked(rec, commit, done)
	l.mu.Unlock()
	fire(cbs)
	return err
}

// appendLocked writes one record and resolves its durability: the returned
// callbacks (the caller's own done and/or parked barriers drained by a
// covering sync) must be fired after the lock is released.
func (l *Log) appendLocked(rec Record, commit bool, done func()) ([]func(), error) {
	if l.groupErr != nil {
		return nil, l.groupErr
	}
	frame := make([]byte, frameHeader+len(rec.Data))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(rec.Data)))
	frame[8] = rec.Type
	copy(frame[frameHeader:], rec.Data)
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(frame[8:], castagnoli))
	if _, err := l.out.Write(frame); err != nil {
		return nil, fmt.Errorf("wal: append: %w", err)
	}
	l.dirty = true
	l.segSize += len(frame)
	l.stats.Appends++
	l.stats.AppendedBytes += len(frame)

	grouped := done != nil && commit &&
		l.opts.Policy == PolicyCommit && l.opts.GroupCommitDelay > 0
	var cbs []func()
	if grouped {
		l.parked = append(l.parked, done)
		l.stats.GroupBarriers++
		if !l.armed {
			l.armed = true
			l.opts.Scheduler(l.opts.GroupCommitDelay, l.flushGroup)
		}
	} else {
		if l.opts.Policy == PolicyAlways || (l.opts.Policy == PolicyCommit && commit) {
			synced, err := l.syncLocked()
			if err != nil {
				return nil, err
			}
			cbs = synced
		}
		if done != nil {
			cbs = append(cbs, done)
		}
	}
	if l.segSize >= l.opts.SegmentBytes {
		rotated, err := l.rotateLocked()
		if err != nil {
			return cbs, err
		}
		cbs = append(cbs, rotated...)
	}
	return cbs, nil
}

// flushGroup is the scheduled group-commit fsync.
func (l *Log) flushGroup() {
	l.mu.Lock()
	l.armed = false
	if l.groupErr != nil || len(l.parked) == 0 || l.out == nil {
		l.mu.Unlock()
		return
	}
	cbs, err := l.syncLocked()
	l.mu.Unlock()
	if err == nil {
		fire(cbs)
	}
}

// Sync flushes everything appended so far to stable storage, regardless of
// policy. A graceful shutdown calls it (via Close) so restart never replays.
func (l *Log) Sync() error {
	l.mu.Lock()
	cbs, err := l.syncLocked()
	l.mu.Unlock()
	fire(cbs)
	return err
}

// syncLocked fsyncs the open segment if needed and drains the parked
// group-commit barriers it now covers; the caller fires them after
// unlocking. On failure the sticky group error arms: the parked callbacks
// are dropped unfired, forever.
func (l *Log) syncLocked() ([]func(), error) {
	if l.groupErr != nil {
		return nil, l.groupErr
	}
	if !l.dirty {
		return l.drainParked(), nil
	}
	start := time.Time{}
	if l.opts.OnSync != nil {
		start = time.Now()
	}
	if err := l.out.Sync(); err != nil {
		err = fmt.Errorf("wal: sync: %w", err)
		if len(l.parked) > 0 {
			l.groupErr = err
			l.parked = nil
		}
		return nil, err
	}
	if l.opts.OnSync != nil {
		l.opts.OnSync(time.Since(start))
	}
	l.dirty = false
	l.stats.Syncs++
	return l.drainParked(), nil
}

func (l *Log) drainParked() []func() {
	if len(l.parked) == 0 {
		return nil
	}
	cbs := l.parked
	l.parked = nil
	l.stats.GroupBatches++
	return cbs
}

func fire(cbs []func()) {
	for _, cb := range cbs {
		cb()
	}
}

// SaveSnapshot installs state as the log's new snapshot: everything logged
// before this call is superseded and its segments are deleted. The install
// is crash-atomic: the snapshot is written to a temporary name, fsynced,
// and renamed into place before any segment is touched.
func (l *Log) SaveSnapshot(state []byte) error {
	l.mu.Lock()
	cbs, err := l.saveSnapshotLocked(state)
	l.mu.Unlock()
	fire(cbs)
	return err
}

func (l *Log) saveSnapshotLocked(state []byte) ([]func(), error) {
	// Never install a snapshot newer than the synced log — and a snapshot
	// sync covers any parked group-commit barriers along the way.
	cbs, err := l.syncLocked()
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 4+len(state))
	binary.LittleEndian.PutUint32(payload[0:4], crc32.Checksum(state, castagnoli))
	copy(payload[4:], state)
	f, err := l.b.Create("snap.tmp")
	if err != nil {
		return cbs, fmt.Errorf("wal: snapshot: %w", err)
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		return cbs, fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return cbs, fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return cbs, fmt.Errorf("wal: snapshot: %w", err)
	}
	oldGen := l.gen
	l.gen++
	if err := l.b.Rename("snap.tmp", snapName(l.gen)); err != nil {
		l.gen = oldGen
		return cbs, fmt.Errorf("wal: installing snapshot: %w", err)
	}
	l.stats.Snapshots++
	// The snapshot is installed; everything below is cleanup that a crash
	// may interrupt and the next Open will finish.
	if l.out != nil {
		l.out.Close()
	}
	l.seg = 0
	if err := l.openSegment(); err != nil {
		return cbs, err
	}
	names, err := l.b.List()
	if err != nil {
		return cbs, fmt.Errorf("wal: snapshot cleanup: %w", err)
	}
	for _, name := range names {
		var g uint64
		var k int
		superseded := (parseSeg(name, &g, &k) && g != l.gen) ||
			(parseSnap(name, &g) && g != l.gen)
		if superseded {
			if err := l.b.Remove(name); err != nil {
				return cbs, fmt.Errorf("wal: snapshot cleanup: %w", err)
			}
		}
	}
	return cbs, nil
}

// Close syncs the tail and closes the open segment. A log closed cleanly
// replays instantly on the next Open — nothing is torn, nothing is lost;
// parked group-commit barriers are covered by the final sync.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.out == nil {
		l.mu.Unlock()
		return nil
	}
	cbs, err := l.syncLocked()
	if err != nil {
		l.mu.Unlock()
		return err
	}
	err = l.out.Close()
	l.out = nil
	l.mu.Unlock()
	fire(cbs)
	return err
}

// Kill drops the handle without syncing — the crash path. Unsynced bytes
// are left to the backend's fate (disk.Mem discards them on Crash; a real
// OS keeps what the page cache already flushed). Parked group-commit
// barriers die unfired: their records were never covered by an fsync.
func (l *Log) Kill() {
	l.mu.Lock()
	l.out = nil
	l.parked = nil
	l.mu.Unlock()
}

// Stats returns a copy of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

func (l *Log) openSegment() error {
	f, err := l.b.Append(segName(l.gen, l.seg))
	if err != nil {
		return fmt.Errorf("wal: opening segment: %w", err)
	}
	l.out = f
	l.segSize = 0
	l.dirty = false
	return nil
}

// rotateLocked closes out the full segment (its sync covers any parked
// barriers; the returned callbacks fire after the caller unlocks).
func (l *Log) rotateLocked() ([]func(), error) {
	cbs, err := l.syncLocked()
	if err != nil {
		return nil, err
	}
	if err := l.out.Close(); err != nil {
		return cbs, fmt.Errorf("wal: rotate: %w", err)
	}
	l.seg++
	l.stats.Rotations++
	return cbs, l.openSegment()
}

func snapName(gen uint64) string       { return fmt.Sprintf("snap-%016x.snap", gen) }
func segName(gen uint64, k int) string { return fmt.Sprintf("wal-%016x-%08x.seg", gen, k) }

func parseSnap(name string, gen *uint64) bool {
	_, err := fmt.Sscanf(name, "snap-%016x.snap", gen)
	return err == nil && name == snapName(*gen)
}

func parseSeg(name string, gen *uint64, k *int) bool {
	_, err := fmt.Sscanf(name, "wal-%016x-%08x.seg", gen, k)
	return err == nil && name == segName(*gen, *k)
}

// newestSnapshot finds the highest-generation snapshot whose checksum
// validates, returning its state, its generation, and the names of every
// superseded or invalid snapshot file for cleanup.
func newestSnapshot(b disk.Backend, names []string) (state []byte, gen uint64, stale []string, err error) {
	type cand struct {
		name string
		gen  uint64
	}
	var cands []cand
	for _, name := range names {
		var g uint64
		if parseSnap(name, &g) {
			cands = append(cands, cand{name, g})
		}
		if name == "snap.tmp" {
			stale = append(stale, name) // crashed before rename: never valid
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].gen > cands[j].gen })
	for i, c := range cands {
		payload, rerr := b.ReadFile(c.name)
		if rerr == nil && len(payload) >= 4 {
			sum := binary.LittleEndian.Uint32(payload[0:4])
			if crc32.Checksum(payload[4:], castagnoli) == sum {
				for _, s := range cands[i+1:] {
					stale = append(stale, s.name)
				}
				return payload[4:], c.gen, stale, nil
			}
		}
		// An installed snapshot that fails its checksum means the atomic
		// rename contract was violated underneath us; refuse to guess.
		return nil, 0, nil, fmt.Errorf("wal: snapshot %s is corrupt", c.name)
	}
	return nil, 0, stale, nil
}

type segRef struct {
	name string
	k    int
}

// segments returns gen's segment files in index order.
func segments(names []string, gen uint64) []segRef {
	var out []segRef
	for _, name := range names {
		var g uint64
		var k int
		if parseSeg(name, &g, &k) && g == gen {
			out = append(out, segRef{name, k})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}

func nextSegIndex(segs []segRef) int {
	if len(segs) == 0 {
		return 0
	}
	return segs[len(segs)-1].k + 1
}

// readSegment decodes one segment, reporting the valid prefix length. tail
// marks the last segment of the generation, where a torn frame is tolerated
// (dropped, and truncated away by Open) instead of fatal.
func readSegment(b disk.Backend, name string, tail bool) ([]Record, int, int, error) {
	data, err := b.ReadFile(name)
	if err != nil {
		return nil, 0, 0, err
	}
	var records []Record
	off := 0
	for off < len(data) {
		rec, n, ok := decodeFrame(data[off:])
		if !ok {
			if tail {
				return records, off, len(data) - off, nil
			}
			return nil, 0, 0, fmt.Errorf("%w (offset %d)", ErrCorrupt, off)
		}
		records = append(records, rec)
		off += n
	}
	return records, off, 0, nil
}

// decodeFrame parses one frame from the front of data, reporting its total
// size. ok is false for a partial or checksum-corrupt frame.
func decodeFrame(data []byte) (Record, int, bool) {
	if len(data) < frameHeader {
		return Record{}, 0, false
	}
	size := int(binary.LittleEndian.Uint32(data[0:4]))
	total := frameHeader + size
	if size < 0 || total > len(data) {
		return Record{}, 0, false
	}
	sum := binary.LittleEndian.Uint32(data[4:8])
	if crc32.Checksum(data[8:total], castagnoli) != sum {
		return Record{}, 0, false
	}
	payload := make([]byte, size)
	copy(payload, data[frameHeader:total])
	return Record{Type: data[8], Data: payload}, total, true
}
