package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync/atomic"
	"time"
)

// The kv workloads' operation types.
const (
	opSet = iota
	opGet
	opIncr
	opMulti
	numKVOps
)

var kvOpNames = [numKVOps]string{"set", "get", "incr", "multi"}

// Each connection keeps a fixed number of operations in flight: a
// pipelined closed loop, so a slower server receives less load. kv-write
// keeps 32, enough for group commit to form batches across both
// connections. kv-read keeps 8: at 32 its read path saturates both CPUs and
// CPU per operation swings with goroutine scheduling (ten runs' spread of
// throughput 0.11 against about 0.05 at 8), while 8 still coalesces replies.
const (
	writeWindow = 32
	readWindow  = 8
)

// failedNs is the latency a failed operation is recorded with, so that it
// misses every latency limit.
const failedNs = uint64(1) << 50

// mix decides an operation type from its position in a fixed 100-op round,
// so each type's share is exact in every run; keys stay random.
type mix func(pos int) int

// writeMix is kv-write: 1 cross-shard MULTI pair and 4 INCRs per 100 ops,
// the rest SETs.
func writeMix(pos int) int {
	switch {
	case pos == 0:
		return opMulti
	case pos%20 == 10:
		return opIncr
	}
	return opSet
}

// readMix is kv-read: 90 GETs and 10 SETs per 100 ops.
func readMix(pos int) int {
	if pos%10 == 0 {
		return opSet
	}
	return opGet
}

// kvClient is one connection's generator and its record of acknowledged
// writes. It owns its keys outright (no other connection writes them), so
// the record is exact: a GET must return the stamp of this connection's last
// write to the key issued before it (the server's read-your-writes
// guarantee), an INCR the exact running total, and an EXEC pair equal
// stamps.
type kvClient struct {
	id     int
	mix    mix
	window int // operations in flight
	rng    *rand.Rand
	zipf   *rand.Zipf // nil: uniform keys

	keys    []string
	lastSeq []uint64 // stamp of the last write to keys[i]
	seq     uint64   // last stamp issued

	ctrKeys  []string
	ctrVal   []int64 // INCRs issued
	ctrFails []int64 // INCRs that failed

	pairA, pairB []string
	pairSeq      []uint64

	pos       int
	userBytes uint64
	ops       [numKVOps]opCount
	lines     uint64 // request lines sent

	// Per-segment output, read by the segment loop after the segment's goroutine
	// has returned.
	record    bool
	hist      [numKVOps]*Hist
	completed uint64

	problems []string
	bad      int
}

// kvPending is one in-flight operation.
type kvPending struct {
	op      int
	start   time.Time
	idx     int    // key, counter or pair index
	expect  uint64 // GET: expected stamp; INCR: expected total; MULTI/SET: stamp written
	prev    uint64 // SET/MULTI: the stamp this write replaces
	replies int    // replies still expected
	failed  bool
}

func (c *kvClient) problem(format string, args ...any) {
	c.bad++
	if len(c.problems) < 10 {
		c.problems = append(c.problems, fmt.Sprintf("conn %d: ", c.id)+fmt.Sprintf(format, args...))
	}
}

func (c *kvClient) pickKey() int {
	if c.zipf != nil {
		return int(c.zipf.Uint64())
	}
	return c.rng.Intn(len(c.keys))
}

// issue generates the next operation and buffers its request lines.
func (c *kvClient) issue(w *bufio.Writer, p *kvPending) {
	op := c.mix(c.pos)
	c.pos = (c.pos + 1) % 100
	*p = kvPending{op: op, start: time.Now(), replies: 1}
	c.ops[op].attempted++
	switch op {
	case opSet:
		i := c.pickKey()
		c.seq++
		p.idx, p.expect, p.prev = i, c.seq, c.lastSeq[i]
		c.lastSeq[i] = c.seq
		v := makeValue(c.keys[i], c.id, c.seq)
		fmt.Fprintf(w, "SET %s %s\n", c.keys[i], v)
		c.userBytes += uint64(len(c.keys[i]) + len(v))
		c.lines++
	case opGet:
		i := c.pickKey()
		p.idx, p.expect = i, c.lastSeq[i]
		fmt.Fprintf(w, "GET %s\n", c.keys[i])
		c.lines++
	case opIncr:
		j := c.rng.Intn(len(c.ctrKeys))
		c.ctrVal[j]++
		p.idx, p.expect = j, uint64(c.ctrVal[j])
		fmt.Fprintf(w, "INCR %s\n", c.ctrKeys[j])
		c.userBytes += uint64(len(c.ctrKeys[j]) + len(strconv.FormatInt(c.ctrVal[j], 10)))
		c.lines++
	case opMulti:
		j := c.rng.Intn(len(c.pairA))
		c.seq++
		p.idx, p.expect, p.prev, p.replies = j, c.seq, c.pairSeq[j], 4
		c.pairSeq[j] = c.seq
		va, vb := makeValue(c.pairA[j], c.id, c.seq), makeValue(c.pairB[j], c.id, c.seq)
		fmt.Fprintf(w, "MULTI\nSET %s %s\nSET %s %s\nEXEC\n", c.pairA[j], va, c.pairB[j], vb)
		c.userBytes += uint64(len(c.pairA[j]) + len(va) + len(c.pairB[j]) + len(vb))
		c.lines += 4
	}
}

// failure reports whether a reply is an error reply: the operation failed
// (counted against attempted), as opposed to answering wrongly.
func failure(reply []byte) bool {
	return bytes.HasPrefix(reply, []byte("ERR")) || bytes.HasPrefix(reply, []byte("UNAVAIL"))
}

// reply consumes one reply line for p and reports whether p is complete.
func (c *kvClient) reply(p *kvPending, line []byte) bool {
	line = bytes.TrimRight(line, "\r\n")
	p.replies--
	if failure(line) {
		p.failed = true
	} else {
		c.checkReply(p, line)
	}
	if p.replies > 0 {
		return false
	}
	if p.failed {
		c.ops[p.op].failed++
		c.undo(p)
	}
	if c.record {
		ns := failedNs
		if !p.failed {
			ns = uint64(time.Since(p.start))
		}
		c.hist[p.op].Observe(ns)
	}
	c.completed++
	return true
}

func (c *kvClient) checkReply(p *kvPending, line []byte) {
	switch p.op {
	case opSet:
		if string(line) != "OK" {
			c.problem("SET %s answered %q", c.keys[p.idx], line)
		}
	case opGet:
		v, ok := bytes.CutPrefix(line, []byte("VALUE "))
		if !ok {
			c.problem("GET %s answered %q", c.keys[p.idx], line)
		} else if err := expectValue(v, c.keys[p.idx], c.id, p.expect); err != nil {
			c.problem("GET: %v", err)
		}
	case opIncr:
		n, ok := bytes.CutPrefix(line, []byte("INT "))
		want := int64(p.expect) - c.ctrFails[p.idx]
		if !ok {
			c.problem("INCR %s answered %q", c.ctrKeys[p.idx], line)
		} else if err := expectCounter(n, c.ctrKeys[p.idx], want); err != nil {
			c.problem("INCR: %v", err)
		}
	case opMulti:
		want := [4]string{"OK", "QUEUED 1", "QUEUED 2", "OK 2"}[3-p.replies]
		if string(line) != want {
			c.problem("MULTI pair %d: reply %q, expected %q", p.idx, line, want)
		}
	}
}

// undo rolls the acknowledged-write record back over a failed write.
func (c *kvClient) undo(p *kvPending) {
	switch p.op {
	case opSet:
		if c.lastSeq[p.idx] == p.expect {
			c.lastSeq[p.idx] = p.prev
		}
	case opIncr:
		c.ctrFails[p.idx]++
	case opMulti:
		if c.pairSeq[p.idx] == p.expect {
			c.pairSeq[p.idx] = p.prev
		}
	}
}

// run drives one connection until stop is set, then drains its in-flight
// operations. Replies arrive in request order, so the window is a ring.
func (c *kvClient) run(conn net.Conn, stop *atomic.Bool) error {
	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriterSize(conn, 64<<10)
	ring := make([]kvPending, c.window)
	head, n := 0, 0
	for {
		for n < c.window && !stop.Load() {
			c.issue(w, &ring[(head+n)%c.window])
			n++
		}
		if n == 0 {
			return nil
		}
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return fmt.Errorf("conn %d: send: %w", c.id, err)
			}
		}
		line, err := r.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("conn %d: receive: %w", c.id, err)
		}
		if c.reply(&ring[head], line) {
			head = (head + 1) % c.window
			n--
		}
	}
}

// verify checks every key the connection owns through get, against the
// acknowledged-write record, and returns the live user bytes it found.
func (c *kvClient) verify(get func(key []byte) ([]byte, error)) (uint64, []error) {
	var live uint64
	var errs []error
	check := func(err error) {
		if err != nil && len(errs) < 10 {
			errs = append(errs, err)
		}
	}
	for i, k := range c.keys {
		v, err := get([]byte(k))
		if err != nil {
			check(fmt.Errorf("key %s: %w", k, err))
			continue
		}
		live += uint64(len(k) + len(v))
		check(expectValue(v, k, c.id, c.lastSeq[i]))
	}
	for j, k := range c.ctrKeys {
		v, err := get([]byte(k))
		if err != nil {
			check(fmt.Errorf("counter %s: %w", k, err))
			continue
		}
		live += uint64(len(k) + len(v))
		check(expectCounter(v, k, c.ctrVal[j]-c.ctrFails[j]))
	}
	for j := range c.pairA {
		a, errA := get([]byte(c.pairA[j]))
		b, errB := get([]byte(c.pairB[j]))
		if errA != nil || errB != nil {
			check(fmt.Errorf("pair %d: %v, %v", j, errA, errB))
			continue
		}
		live += uint64(len(c.pairA[j]) + len(a) + len(c.pairB[j]) + len(b))
		check(expectPair(a, b, c.pairA[j], c.pairB[j], c.id, c.pairSeq[j]))
	}
	return live, errs
}
