package store

import "sort"

// commitLog is the committed log both tiers keep: MARP's Store its
// committed updates, the optimistic Staged its stable prefix. Both are
// immutable and totally ordered, and only ever grow at the tail, so one
// layout serves both: position i holds the update with Seq i+1, each entry
// names its key by an index into a key table that keeps every key once,
// and the entries live in Blocks, which are never re-allocated or copied,
// so a long log leaves at most BlockLen-1 entries idle and its front can
// later go block by block. The zero commitLog is empty and ready.
type commitLog struct {
	entries Blocks[logEntry]
	keys    []logKey
	keyOf   map[string]int32
}

// logEntry is a committed update as the log keeps it, in 48 bytes: its Seq
// is its position plus one and its key an index into the key table.
type logEntry struct {
	txn, data string
	stamp     int64
	key       int32
}

// logKey is a key of the table, with the position of its last writer.
type logKey struct {
	name string
	last int
}

// add puts u at the tail, whatever its Seq says.
func (l *commitLog) add(u Update) {
	k, ok := l.keyOf[u.Key]
	if !ok {
		if l.keyOf == nil {
			l.keyOf = make(map[string]int32)
		}
		k = int32(len(l.keys))
		l.keys = append(l.keys, logKey{name: u.Key})
		l.keyOf[u.Key] = k
	}
	l.keys[k].last = l.len()
	l.entries.Add(&logEntry{txn: u.TxnID, data: u.Data, stamp: u.Stamp, key: k})
}

// len returns how many updates the log holds.
func (l *commitLog) len() int { return l.entries.Len() }

// at returns the update at position i.
func (l *commitLog) at(i int) Update {
	e := l.entries.At(i)
	return Update{TxnID: e.txn, Key: l.keys[e.key].name, Data: e.data, Seq: uint64(i + 1), Stamp: e.stamp}
}

// since returns a copy of the updates from position i on (none past the
// tail).
func (l *commitLog) since(i int) []Update {
	out := make([]Update, max(l.len()-i, 0))
	for j := range out {
		out[j] = l.at(i + j)
	}
	return out
}

// last returns the position of key's last writer; ok is false for a key the
// log never wrote.
func (l *commitLog) last(key string) (i int, ok bool) {
	k, ok := l.keyOf[key]
	if !ok {
		return 0, false
	}
	return l.keys[k].last, true
}

// get returns key's value as its last writer left it.
func (l *commitLog) get(key string) (Value, bool) {
	i, ok := l.last(key)
	if !ok {
		return Value{}, false
	}
	u := l.at(i)
	return Value{Data: u.Data, Version: u.version()}, true
}

// sortedKeys returns every key the log wrote, in sorted order.
func (l *commitLog) sortedKeys() []string {
	names := make([]string, len(l.keys))
	for i, k := range l.keys {
		names[i] = k.name
	}
	sort.Strings(names)
	return names
}
